"""Relabelling as a test oracle: node ids are names, so nothing the model or
IC-SB computes may read them as an order.

Each test draws a small graph, cascades and a node permutation ``perm``
(node v is renamed perm[v]), moves the parameters with the nodes (the
``W_*`` columns, the ``G`` rows and ``b_act``) and checks that the outputs
move with them.  IC-SB's ranks break ties by node id, so only its fitted
probabilities and its noisy-OR scores are compared.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from topolstm.baseline import ICSBScorer, fit_static_bernoulli
from topolstm.evaluation import ModelScorer, evaluate
from topolstm.graph import Cascade, DataGraph
from topolstm.model import SCORE_MODES, CascadeState, Model, ModelConfig, predict_next
from topolstm.training import objective

RELABEL = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def relabelled_inputs(draw):
    """(graph, cascades, model, perm) and the same inputs renamed by perm."""
    m = draw(st.integers(3, 14))
    pairs = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=4 * m))
    orders = st.permutations(range(m)).flatmap(
        lambda order: st.integers(2, m).map(lambda T: Cascade(tuple(order[:T]))))
    cascades = draw(st.lists(orders, min_size=1, max_size=4))
    perm = np.array(draw(st.permutations(range(m))))
    config = ModelConfig(draw(st.integers(1, 4)), m, draw(st.sampled_from(SCORE_MODES)))
    model = Model.initialize(config, np.random.default_rng(draw(st.integers(0, 2 ** 16))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    for _, arr in model.params.items():
        arr += rng.normal(0.0, 0.3, arr.shape)

    graph = DataGraph.from_edges(m, edges)
    renamed = DataGraph.from_edges(m, [(perm[u], perm[v]) for u, v in edges])
    moved = model.copy()
    for name, arr in model.params.items():
        if name.startswith("W_"):
            moved.params[name][:, perm] = arr
        elif name in ("G", "b_act"):
            moved.params[name][perm] = arr
    rename = [Cascade(tuple(perm[list(c.nodes)].tolist())) for c in cascades]
    return (graph, cascades, model), (renamed, rename, moved), perm


def moved_back(store, perm):
    """Each slot of a gradient of the renamed inputs, in the original names."""
    back = {}
    for name, arr in store.items():
        if name.startswith("W_"):
            back[name] = arr[:, perm]
        elif name in ("G", "b_act"):
            back[name] = arr[perm]
        else:
            back[name] = arr
    return back


@RELABEL
@given(relabelled_inputs())
def test_objective_and_gradient_move_with_the_nodes(inputs):
    (graph, cascades, model), (renamed, rename, moved), perm = inputs
    grads, moved_grads = model.zero_grads(), moved.zero_grads()
    value = objective(model, graph, cascades, 1e-3, grads)
    # Not always the same bits: a softmax row's normaliser and the L2 term
    # are numpy sums over node-indexed arrays, which add in index order
    # with several partial sums, so renaming reorders them (about 1 draw in
    # 8 here differs, by at most 1.3 ulp).  Four ulp bounds it.
    assert abs(objective(moved, renamed, rename, 1e-3, moved_grads) - value) <= 1e-15 * value
    back = moved_back(moved_grads, perm)
    for name, arr in grads.items():
        np.testing.assert_allclose(back[name], arr, rtol=1e-14, atol=1e-14 * np.abs(arr).max(),
                                   err_msg=name)


@RELABEL
@given(relabelled_inputs())
def test_evaluate_table_is_the_same(inputs):
    (graph, cascades, model), (renamed, rename, moved), _ = inputs
    ks = (1, 3, 10)
    want = evaluate(ModelScorer(model, graph), cascades, ks=ks)
    got = evaluate(ModelScorer(moved, renamed), rename, ks=ks)
    assert got.values == want.values
    assert got.by_prefix_length == want.by_prefix_length


@RELABEL
@given(relabelled_inputs())
def test_predictions_move_with_the_nodes(inputs):
    (graph, cascades, model), (renamed, rename, moved), perm = inputs
    for cascade, other in zip(cascades, rename):
        state = CascadeState(moved, renamed)
        for k in range(1, len(cascade)):
            cand, probs = predict_next(model, graph, Cascade(cascade.nodes[:k]))
            for kept in (None, state):   # one full prefix, and a state grown row by row
                got_cand, got_probs = predict_next(moved, renamed, Cascade(other.nodes[:k]),
                                                   state=kept)
                np.testing.assert_array_equal(np.sort(perm[cand]), got_cand)
                np.testing.assert_allclose(got_probs[np.searchsorted(got_cand, perm[cand])],
                                           probs, rtol=1e-14, atol=1e-300)


@RELABEL
@given(relabelled_inputs())
def test_icsb_fit_and_scores_move_with_the_nodes(inputs):
    (graph, cascades, _), (renamed, rename, _), perm = inputs
    fitted, refitted = fit_static_bernoulli(graph, cascades), fit_static_bernoulli(renamed, rename)
    src, dst = graph.edge_pairs()
    np.testing.assert_array_equal(refitted.p[renamed.edge_id(perm[src], perm[dst])], fitted.p)
    for cascade, other in zip(cascades, rename):
        steps = ICSBScorer(graph, fitted).step_scores(cascade)
        moved_steps = ICSBScorer(renamed, refitted).step_scores(other)
        for (cand, scores, target), (got_cand, got_scores, got_target) in zip(steps, moved_steps):
            assert got_target == perm[target]
            np.testing.assert_array_equal(got_cand, np.sort(perm[cand]))
            np.testing.assert_array_equal(got_scores[np.searchsorted(got_cand, perm[cand])],
                                          scores)
