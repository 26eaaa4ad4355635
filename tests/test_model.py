import math

import numpy as np
import pytest

from topolstm.datagen import PRESETS, generate_dataset, generate_graph
from topolstm.evaluation import ModelScorer, target_rank
from topolstm.errors import NumericError, ShapeError, TopoLstmError
from topolstm.graph import Cascade, DataGraph, build_topologies, build_topology
from topolstm.model import (SCORE_MODES, AggregatedInputs, CellState, Model,
                            ModelConfig, U_BLOCKS, aggregate, backward_cascade,
                            cell_forward, forward_cascade, predict_next,
                            score_inactive)
from topolstm.numeric import (ParameterStore, finite_difference_check,
                              softmax_over_subset)
from topolstm.training import objective_and_gradient

from conftest import random_cascade, random_graph


def scalar_cell_oracle(node, agg, params, d):
    """Straight-line transcription of the cell equations in pure Python floats."""
    def sig(z):
        return 1.0 / (1.0 + math.exp(-z))

    def pre(W, U_p, U_q, b, r):
        z = float(W[r][node]) + float(b[r])
        for c in range(d):
            z += float(U_p[r][c]) * float(agg.h_p[c])
            z += float(U_q[r][c]) * float(agg.h_q[c])
        return z

    p = params
    i = [sig(pre(p["W_i"], p["U_i_p"], p["U_i_q"], p["b_i"], r)) for r in range(d)]
    f_p = [sig(pre(p["W_f"], p["U_f_pp"], p["U_f_pq"], p["b_f"], r)) for r in range(d)]
    f_q = [sig(pre(p["W_f"], p["U_f_qp"], p["U_f_qq"], p["b_f"], r)) for r in range(d)]
    c_til = [math.tanh(pre(p["W_c"], p["U_c_p"], p["U_c_q"], p["b_c"], r))
             for r in range(d)]
    c = [i[r] * c_til[r] + f_p[r] * float(agg.c_p[r]) + f_q[r] * float(agg.c_q[r])
         for r in range(d)]
    o = [sig(pre(p["W_o"], p["U_o_p"], p["U_o_q"], p["b_o"], r)) for r in range(d)]
    h = [o[r] * math.tanh(c[r]) for r in range(d)]
    return np.array(h), np.array(c)


def perturbed_model(config, rng, spread=0.3):
    model = Model.initialize(config, rng)
    for _, arr in model.params.items():
        arr += rng.normal(0.0, spread, arr.shape)
    return model


def random_instance(rng, m=12, d=4, T=6, mode="all-active"):
    graph = random_graph(rng, m, 3 * m)
    cascade = random_cascade(rng, m, T)
    model = perturbed_model(ModelConfig(d, m, mode), rng)
    return graph, cascade, model


class TestParameterLayout:
    def _model(self, d=3, m=5):
        return perturbed_model(ModelConfig(d, m), np.random.default_rng(30))

    def test_every_slot_is_a_view_and_covers_the_vector_once(self):
        model = self._model()
        params = model.params
        cover = np.zeros(params.total_size)
        for name, arr in params.items():
            assert np.shares_memory(arr, params.flat), name
            view = params.layout.views(cover, [e for e in params.layout.slots
                                               if e[0] == name])[name]
            view += 1.0
        np.testing.assert_array_equal(cover, 1.0)

    def test_fused_views_hold_the_slots(self):
        model = self._model()
        p, d = model.params, 3
        Wx, U, b = p.fused("Wx"), p.fused("U"), p.fused("b")
        for k, gate in enumerate("ifco"):
            np.testing.assert_array_equal(Wx[k * d:(k + 1) * d], p[f"W_{gate}"])
            np.testing.assert_array_equal(b[k * d:(k + 1) * d], p[f"b_{gate}"])
        for row, names in enumerate(U_BLOCKS):
            for col, name in enumerate(names):
                np.testing.assert_array_equal(
                    U[row * d:(row + 1) * d, col * d:(col + 1) * d], p[name])

    def test_setitem_writes_through_to_fused_view(self):
        model = self._model()
        d = 3
        value = np.arange(d * d, dtype=float).reshape(d, d)
        model.params["U_c_q"] = value
        np.testing.assert_array_equal(model.params.fused("U")[3 * d:4 * d, d:], value)
        model.params["W_f"] = np.full((d, 5), 2.5)
        np.testing.assert_array_equal(model.params.fused("Wx")[d:2 * d], 2.5)

    def test_copy_and_zeros_like_keep_the_layout(self):
        model = self._model()
        for other in (model.copy().params, model.zero_grads()):
            assert other.layout == model.params.layout
            assert not np.shares_memory(other.flat, model.params.flat)
            assert np.shares_memory(other.fused("U"), other.flat)
        copied = model.copy()
        copied.params["b_o"] = np.ones(3)
        assert not np.any(model.params["b_o"] == 1.0)

    def test_fd_perturbation_reaches_the_fused_matrix(self):
        # finite_difference_check perturbs slots in place; the cell must see it.
        model = self._model()
        d = 3
        U = model.params.fused("U")
        before = U[2 * d + 1, 2].copy()
        model.params["U_f_qp"][1, 2] += 1e-3
        assert U[2 * d + 1, 2] == before + 1e-3
        agg = AggregatedInputs(*(np.full(d, 0.5) for _ in range(4)))
        state, _ = cell_forward(0, agg, model.params)
        h_ref, _ = scalar_cell_oracle(0, agg, model.params, d)
        np.testing.assert_allclose(state.h, h_ref, atol=1e-12)

    def test_packed_store_is_not_a_model_store(self):
        model = self._model()
        packed = ParameterStore(dict(model.params.items()))
        with pytest.raises(ShapeError, match="fused"):
            cell_forward(0, AggregatedInputs(*(np.zeros(3) for _ in range(4))), packed)


class TestCellForward:
    def test_zero_parameters_zero_aggregates(self):
        config = ModelConfig(hidden_dim=3, node_count=4)
        model = Model(config, Model.initialize(config, np.random.default_rng(0)).params)
        model.params.fill(0.0)
        zeros = np.zeros(3)
        state, trace = cell_forward(1, AggregatedInputs(zeros, zeros, zeros, zeros),
                                    model.params)
        np.testing.assert_allclose(trace.i, 0.5)
        np.testing.assert_allclose(trace.f_p, 0.5)
        np.testing.assert_allclose(trace.f_q, 0.5)
        np.testing.assert_allclose(trace.o, 0.5)
        np.testing.assert_allclose(trace.c_tilde, 0.0)
        np.testing.assert_allclose(state.c, 0.0)
        np.testing.assert_allclose(state.h, 0.0)

    def test_zero_aggregates_reduce_to_input_only_step(self):
        # With empty aggregates the recurrent terms vanish: the step must
        # equal the same equations evaluated with only the W column and bias.
        rng = np.random.default_rng(1)
        d, m = 4, 6
        model = perturbed_model(ModelConfig(d, m), rng)
        zeros = np.zeros(d)
        state, trace = cell_forward(2, AggregatedInputs(zeros, zeros, zeros, zeros),
                                    model.params)
        p = model.params
        sig = lambda z: 1.0 / (1.0 + np.exp(-z))
        i = sig(p["W_i"][:, 2] + p["b_i"])
        c_til = np.tanh(p["W_c"][:, 2] + p["b_c"])
        o = sig(p["W_o"][:, 2] + p["b_o"])
        np.testing.assert_allclose(state.c, i * c_til, atol=1e-12)
        np.testing.assert_allclose(state.h, o * np.tanh(i * c_til), atol=1e-12)
        np.testing.assert_allclose(trace.f_p, sig(p["W_f"][:, 2] + p["b_f"]),
                                   atol=1e-12)

    def test_matches_scalar_oracle_on_random_instances(self):
        rng = np.random.default_rng(2)
        d, m = 3, 5
        for _ in range(50):
            model = perturbed_model(ModelConfig(d, m), rng, spread=0.8)
            agg = AggregatedInputs(*(rng.normal(size=d) for _ in range(4)))
            node = int(rng.integers(m))
            state, _ = cell_forward(node, agg, model.params)
            h_ref, c_ref = scalar_cell_oracle(node, agg, model.params, d)
            np.testing.assert_allclose(state.h, h_ref, atol=1e-12)
            np.testing.assert_allclose(state.c, c_ref, atol=1e-12)

    def test_gate_ranges(self):
        rng = np.random.default_rng(3)
        d = 5
        model = perturbed_model(ModelConfig(d, 7), rng, spread=2.0)
        agg = AggregatedInputs(*(rng.normal(size=d) for _ in range(4)))
        _, trace = cell_forward(0, agg, model.params)
        for gate in (trace.i, trace.f_p, trace.f_q, trace.o):
            assert np.all(gate > 0.0) and np.all(gate < 1.0)
        assert np.all(np.abs(trace.c_tilde) < 1.0)
        assert np.all(np.abs(trace.tanh_c) < 1.0)

    def test_nonfinite_named(self):
        config = ModelConfig(hidden_dim=2, node_count=3)
        model = Model.initialize(config, np.random.default_rng(0))
        model.params["W_i"][0, 1] = np.nan
        zeros = np.zeros(2)
        with pytest.raises(NumericError, match="input gate"):
            cell_forward(1, AggregatedInputs(zeros, zeros, zeros, zeros),
                         model.params)


class TestAggregate:
    def _states(self, rng, nodes, d):
        return {v: CellState(h=rng.normal(size=d), c=rng.normal(size=d))
                for v in nodes}

    def test_empty_prefix_gives_zeros(self):
        agg = aggregate({}, [], [], 4)
        for vec in (agg.h_p, agg.h_q, agg.c_p, agg.c_q):
            np.testing.assert_array_equal(vec, np.zeros(4))

    def test_singleton_precedent(self):
        rng = np.random.default_rng(4)
        states = self._states(rng, [7], 3)
        agg = aggregate(states, [7], [7], 3)
        np.testing.assert_allclose(agg.h_p, states[7].h)
        np.testing.assert_array_equal(agg.h_q, np.zeros(3))

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(5)
        d = 4
        states = self._states(rng, range(5), d)
        agg = aggregate(states, [0, 2], [0, 1, 2, 3, 4], d)
        np.testing.assert_allclose(
            agg.h_p, (states[0].h + states[2].h) / 2.0, atol=1e-12)
        np.testing.assert_allclose(
            agg.c_q, (states[1].c + states[3].c + states[4].c) / 3.0, atol=1e-12)

    def test_precedents_must_be_active(self):
        rng = np.random.default_rng(6)
        states = self._states(rng, [0], 2)
        with pytest.raises(ValueError):
            aggregate(states, [1], [0], 2)

    def test_missing_state_is_internal_error(self):
        with pytest.raises(TopoLstmError, match="missing cell state"):
            aggregate({}, [0], [0], 2)

    def test_permutation_of_precedent_storage_is_neutral(self):
        rng = np.random.default_rng(7)
        d = 4
        states = self._states(rng, range(6), d)
        base_agg = aggregate(states, [1, 3, 5], list(range(6)), d)
        base_state, _ = cell_forward(
            0, base_agg, perturbed_model(ModelConfig(d, 6), rng).params)
        model = perturbed_model(ModelConfig(d, 6), np.random.default_rng(7))
        for perm in ([5, 1, 3], [3, 5, 1]):
            agg = aggregate(states, perm, list(range(6)), d)
            np.testing.assert_allclose(agg.h_p, base_agg.h_p, atol=1e-13)
            state, _ = cell_forward(0, agg, model.params)
            ref, _ = cell_forward(0, base_agg, model.params)
            np.testing.assert_allclose(state.h, ref.h, atol=1e-13)


class TestScoreInactive:
    def test_zero_receiver_embeddings_score_bias(self, running_example):
        graph, cascade = running_example
        rng = np.random.default_rng(8)
        model = perturbed_model(ModelConfig(4, graph.node_count), rng)
        model.params["G"][:] = 0.0
        result = forward_cascade(model, graph, cascade, compute_loss=False)
        states = {v: CellState(result.H[i], result.C[i])
                  for i, v in enumerate(cascade.nodes)}
        topo = build_topology(graph, cascade, 4)
        for mode in ("all-active", "precedent-only"):
            scores = score_inactive(states, topo, model, mode=mode)
            for v, s in scores.items():
                assert s == pytest.approx(float(model.params["b_act"][v]))

    def test_single_active_node_all_active(self):
        g = DataGraph.from_edges(3, [(0, 1), (0, 2)])
        rng = np.random.default_rng(9)
        model = perturbed_model(ModelConfig(3, 3), rng)
        cascade = Cascade((0,))
        result = forward_cascade(model, g, cascade, compute_loss=False)
        states = {0: CellState(result.H[0], result.C[0])}
        topo = build_topology(g, cascade, 2)
        scores = score_inactive(states, topo, model, mode="all-active")
        for v in (1, 2):
            want = float(result.H[0] @ model.params["G"][v]
                         + model.params["b_act"][v])
            assert scores[v] == pytest.approx(want, rel=1e-12)

    def test_unreachable_next_node_modes_differ(self, running_example):
        # At t=4 node D has no active in-neighbour: precedent pooling falls
        # back to D's bias while all-active pooling uses every sender state.
        graph, cascade = running_example
        rng = np.random.default_rng(10)
        model = perturbed_model(ModelConfig(4, graph.node_count), rng)
        result = forward_cascade(model, graph, cascade, compute_loss=False)
        states = {v: CellState(result.H[i], result.C[i])
                  for i, v in enumerate(cascade.nodes[:3])}
        topo = build_topology(graph, cascade, 4)
        prec = score_inactive(states, topo, model, mode="precedent-only")
        allact = score_inactive(states, topo, model, mode="all-active")
        assert prec[3] == pytest.approx(float(model.params["b_act"][3]))
        pooled = result.H[:3].mean(axis=0)
        want = float(pooled @ model.params["G"][3] + model.params["b_act"][3])
        assert allact[3] == pytest.approx(want, rel=1e-10)

    def test_requires_active_prefix(self, running_example):
        graph, cascade = running_example
        model = Model.initialize(ModelConfig(2, graph.node_count),
                                 np.random.default_rng(0))
        with pytest.raises(ValueError):
            score_inactive({}, build_topology(graph, cascade, 1), model)


class TestForwardCascade:
    def test_counting_contract(self):
        rng = np.random.default_rng(11)
        graph, cascade, model = random_instance(rng, T=5)
        result = forward_cascade(model, graph, cascade)
        assert result.losses.shape == (len(cascade) - 1,)
        assert result.probs.shape == (len(cascade) - 1, model.config.node_count)
        assert result.H.shape == (len(cascade), model.config.hidden_dim)
        assert np.all(result.loss_terms >= 0.0)

    def test_single_candidate_softmax_is_certain(self):
        g = DataGraph.from_edges(2, [(0, 1)])
        rng = np.random.default_rng(12)
        model = perturbed_model(ModelConfig(3, 2), rng)
        result = forward_cascade(model, g, Cascade((0, 1)))
        assert result.total_loss == pytest.approx(0.0, abs=1e-15)

    def test_matches_monolithic_reconstruction(self):
        # Independent re-implementation: fresh topology at every step,
        # contract-level aggregate/cell/scoring, dict-based softmax.
        rng = np.random.default_rng(13)
        for mode in ("all-active", "precedent-only"):
            graph, cascade, model = random_instance(rng, m=8, d=3, T=5, mode=mode)
            result = forward_cascade(model, graph, cascade)

            states = {}
            total = 0.0
            for t in range(1, len(cascade) + 1):
                v = cascade[t - 1]
                topo = build_topology(graph, cascade, t)
                if t >= 2:
                    scores = score_inactive(states, topo, model, mode=mode)
                    probs = softmax_over_subset(scores, set(scores))
                    total += -math.log(probs[v])
                agg = aggregate(states, topo.precedents(v), topo.active_prefix,
                                model.config.hidden_dim)
                state, _ = cell_forward(v, agg, model.params)
                states[v] = state
            assert result.total_loss == pytest.approx(total, rel=1e-9)

    def test_prefix_isolation_bit_identical(self):
        rng = np.random.default_rng(14)
        graph, cascade, model = random_instance(rng, T=6)
        full = forward_cascade(model, graph, cascade)
        prefix = Cascade(cascade.nodes[:4])
        part = forward_cascade(model, graph, prefix)
        np.testing.assert_array_equal(full.H[:4], part.H)
        np.testing.assert_array_equal(full.C[:4], part.C)

    def test_cascade_must_fit_graph(self):
        g = DataGraph.from_edges(3, [(0, 1)])
        model = Model.initialize(ModelConfig(2, 3), np.random.default_rng(0))
        from topolstm.errors import DataError
        with pytest.raises(DataError):
            forward_cascade(model, g, Cascade((0, 5)))


class TestScoreBlock:
    @pytest.mark.parametrize("mode", SCORE_MODES)
    def test_block_matches_reference_at_every_step(self, mode):
        # Long enough that an off-by-one in the cumulative rows shows.
        rng = np.random.default_rng(50)
        m, T = 60, 40
        cascade = random_cascade(rng, m, T)
        late = cascade[5]   # its in-neighbours all activate after it
        edges = {e for e in random_graph(rng, m, 90).edges if e[1] != late}
        edges |= {(cascade[k], late) for k in (6, 20, T - 1)}
        # The last scored row reaches candidates too.
        outside = sorted(set(range(m)) - set(cascade.nodes))
        edges |= {(cascade[T - 2], w) for w in outside[:3]}
        graph = DataGraph.from_edges(m, edges)
        model = perturbed_model(ModelConfig(4, m, mode), rng)
        result = forward_cascade(model, graph, cascade)
        topos = build_topologies(graph, cascade)
        assert result.probs.shape == (T - 1, m)
        without_precedents = 0
        for s in range(T - 1):
            topo = topos[s + 1]   # rows 0..s active
            states = {cascade[i]: CellState(result.H[i], result.C[i]) for i in range(s + 1)}
            ref = score_inactive(states, topo, model)
            ref_probs = softmax_over_subset(ref, ref.keys())
            cand = np.flatnonzero(result.pos > s)
            assert cand.tolist() == sorted(ref)
            np.testing.assert_allclose(result.probs[s, cand], [ref_probs[v] for v in cand],
                                       rtol=1e-12, atol=0)
            np.testing.assert_array_equal(result.probs[s, list(cascade.nodes[:s + 1])], 0.0)
            target = cascade[s + 1]
            assert result.losses[s] == pytest.approx(-math.log(ref_probs[target]), rel=1e-12)
            without_precedents += sum(not topo.precedents(v) for v in cand.tolist())
        assert without_precedents > 0
        assert not topos[6].precedents(late)

    @pytest.mark.parametrize("mode, total_loss, grad_norm", [
        ("all-active", 1486.8297286718043, 36.662871031057456),
        ("precedent-only", 1485.872664431533, 36.87909090781418),
    ])
    def test_drift_guard_on_desk_default(self, mode, total_loss, grad_norm):
        # Values recorded from the per-step scoring loop; any change in the
        # reduction order of scoring or backward shows here.
        graph, cascades, _ = generate_dataset(PRESETS["desk-default"])
        model = perturbed_model(ModelConfig(8, graph.node_count, mode),
                                np.random.default_rng(60))
        grads = model.zero_grads()
        total = 0.0
        for cascade in cascades[:20]:
            result = forward_cascade(model, graph, cascade)
            total += result.total_loss
            backward_cascade(result, model, out=grads)
        assert total == pytest.approx(total_loss, rel=1e-10)
        assert math.sqrt(grads.squared_l2()) == pytest.approx(grad_norm, rel=1e-10)


def precedent_rows(result):
    """The precedent positions of every step, as lists, from the result's CSR."""
    ptr = result.prec_ptr.tolist()
    return [result.prec_pos[ptr[r]:ptr[r + 1]].tolist() for r in range(len(ptr) - 1)]


class TestPrecedentIndex:
    def _check_against_oracle(self, graph, cascade, rng):
        model = Model.initialize(ModelConfig(2, graph.node_count), rng)
        result = forward_cascade(model, graph, cascade, compute_loss=False)
        topos = build_topologies(graph, cascade)
        pos = {v: i for i, v in enumerate(cascade.nodes)}
        assert result.prec_ptr[0] == 0
        assert precedent_rows(result) == [[pos[u] for u in topos[i].precedents(v)]
                                          for i, v in enumerate(cascade.nodes)]
        return result

    def test_matches_topology_oracle_on_random_pairs(self):
        rng = np.random.default_rng(40)
        for k in range(500):
            m = int(rng.integers(2, 16))
            # Every tenth graph is edgeless and every seventh cascade has T = 1.
            graph = random_graph(rng, m, 0 if k % 10 == 0 else int(rng.integers(1, 4 * m)))
            T = 1 if k % 7 == 0 else int(rng.integers(1, m + 1))
            self._check_against_oracle(graph, random_cascade(rng, m, T), rng)

    def test_in_neighbours_that_activate_later_are_not_precedents(self):
        # Node 0's in-neighbours 1 and 2 both activate after it.
        g = DataGraph.from_edges(4, [(1, 0), (2, 0), (0, 3), (1, 2)])
        result = self._check_against_oracle(g, Cascade((0, 1, 2, 3)),
                                            np.random.default_rng(41))
        assert precedent_rows(result) == [[], [], [1], [0]]

    @pytest.mark.parametrize("mode", SCORE_MODES)
    def test_aggregates_are_direct_means_on_a_long_cascade(self, mode):
        rng = np.random.default_rng(42)
        graph = generate_graph(PRESETS["desk-default"])
        cascade = random_cascade(rng, graph.node_count, 160)
        model = perturbed_model(ModelConfig(4, graph.node_count, mode), rng)
        result = forward_cascade(model, graph, cascade)
        d = model.config.hidden_dim
        for row, prec in enumerate(precedent_rows(result)):
            rest = sorted(set(range(row)) - set(prec))
            for got, S in ((result.HX[row], result.H), (result.CX[row], result.C)):
                want = np.zeros(2 * d)
                if prec:
                    want[:d] = S[prec].mean(axis=0)
                if rest:
                    want[d:] = S[rest].mean(axis=0)
                np.testing.assert_allclose(got, want, rtol=1e-12)


class TestBackwardCascade:
    def test_zero_loss_cascade_has_zero_gradient(self):
        g = DataGraph.from_edges(2, [(0, 1)])
        model = perturbed_model(ModelConfig(3, 2), np.random.default_rng(15))
        result = forward_cascade(model, g, Cascade((0, 1)))
        grads = backward_cascade(result, model)
        for _, arr in grads.items():
            np.testing.assert_array_equal(arr, np.zeros_like(arr))

    def test_result_is_backpropagated_once(self):
        rng = np.random.default_rng(24)
        graph, cascade, model = random_instance(rng, mode="precedent-only")
        result = forward_cascade(model, graph, cascade)
        backward_cascade(result, model)
        with pytest.raises(ValueError):
            backward_cascade(result, model)

    def test_duplicated_cascade_doubles_unnormalized_gradient(self):
        rng = np.random.default_rng(16)
        graph, cascade, model = random_instance(rng)
        single = backward_cascade(forward_cascade(model, graph, cascade), model)
        double = model.zero_grads()
        for _ in range(2):
            backward_cascade(forward_cascade(model, graph, cascade), model,
                             out=double)
        for name, arr in double.items():
            np.testing.assert_allclose(arr, 2.0 * single[name], rtol=1e-12)

    @pytest.mark.parametrize("mode", ["all-active", "precedent-only"])
    def test_finite_differences_small_instances(self, mode):
        # lam > 0 keeps sampled coordinates above the central-difference
        # noise floor at h = 1e-5.
        rng = np.random.default_rng(17)
        lam = 1e-2
        # The last instance is a long cascade, so the backward pass's reverse
        # running accumulators span many steps.
        for size in [None] * 4 + [(40, 4, 30)]:
            m, d, T = size or (int(rng.integers(8, 21)), int(rng.choice([2, 4, 8])),
                               int(rng.integers(3, 7)))
            graph, cascade, model = random_instance(rng, m=m, d=d, T=T, mode=mode)
            _, grads = objective_and_gradient(model, graph, [cascade], lam)
            loss_fn = lambda p: objective_and_gradient(model, graph, [cascade],
                                                       lam)[0]
            res = finite_difference_check(loss_fn, model.params, grads,
                                          samples=50, h=1e-5, rng=rng)
            assert res.max_rel_error < 1e-4, str(res)

    def test_all_active_empty_precedents_still_differentiable(self, running_example):
        # The cascade reaches a node with no active in-neighbour (Fig-style
        # D case); the all-active loss must stay finite with exact gradients.
        graph, cascade = running_example
        model = perturbed_model(ModelConfig(3, graph.node_count, "all-active"),
                                np.random.default_rng(18))
        obj, grads = objective_and_gradient(model, graph, [cascade], 1e-2)
        assert np.isfinite(obj)
        res = finite_difference_check(
            lambda p: objective_and_gradient(model, graph, [cascade], 1e-2)[0],
            model.params, grads, samples=60, h=1e-5,
            rng=np.random.default_rng(19))
        assert res.max_rel_error < 1e-4


class TestPredictNext:
    def test_probabilities_form_distribution(self):
        rng = np.random.default_rng(20)
        graph, cascade, model = random_instance(rng, T=4)
        cand, probs = predict_next(model, graph, Cascade(cascade.nodes[:3]))
        assert cand.size == model.config.node_count - 3
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs > 0)

    def test_matches_forward_scores(self):
        rng = np.random.default_rng(21)
        for mode in ("all-active", "precedent-only"):
            graph, cascade, model = random_instance(rng, T=5, mode=mode)
            # The step-t prediction inside a longer forward pass equals
            # predict_next on the corresponding prefix.
            result = forward_cascade(model, graph, cascade)
            T = len(cascade)   # last block row: t = T, prefix length T-1
            cand, probs = predict_next(model, graph, Cascade(cascade.nodes[:T - 1]))
            np.testing.assert_array_equal(cand, np.flatnonzero(result.pos > T - 2))
            np.testing.assert_allclose(probs, result.probs[-1, cand], atol=1e-12)

    @pytest.mark.parametrize("mode", SCORE_MODES)
    def test_every_prefix_matches_evaluate(self, mode):
        # predict_next scores its last prefix from H.mean or a bincount of
        # edge terms; evaluate reads the cumulative block.  Both must agree
        # at every prefix length.
        rng = np.random.default_rng(22)
        graph, cascade, model = random_instance(rng, m=45, d=4, T=30, mode=mode)
        steps = list(ModelScorer(model, graph).step_scores(cascade))
        assert len(steps) == len(cascade) - 1
        for k, (cand, probs, target) in enumerate(steps, start=1):
            p_cand, p_probs = predict_next(model, graph, Cascade(cascade.nodes[:k]))
            assert target == cascade[k]
            np.testing.assert_array_equal(p_cand, cand)
            np.testing.assert_allclose(p_probs, probs, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("mode", SCORE_MODES)
    def test_underflowed_candidate_stays_a_candidate(self, mode):
        rng = np.random.default_rng(23)
        graph, cascade, model = random_instance(rng, m=12, d=4, T=6, mode=mode)
        w = cascade[4]                      # inactive before step t = 5
        model.params["b_act"][w] = -1e4
        steps = list(ModelScorer(model, graph).step_scores(cascade))
        for cand, probs, _ in steps[:4]:
            assert w in cand
            assert probs[np.searchsorted(cand, w)] == 0.0
        cand, probs, target = steps[3]
        assert target == w
        assert target_rank(cand, probs, w) == cand.size
        cand, probs = predict_next(model, graph, Cascade(cascade.nodes[:4]))
        assert cand.size == model.config.node_count - 4
        assert probs[np.searchsorted(cand, w)] == 0.0
        assert np.all(np.isfinite(forward_cascade(model, graph, cascade).losses))
