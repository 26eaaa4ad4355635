import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from topolstm.datagen import PRESETS, generate_dataset, generate_graph
from topolstm.evaluation import ModelScorer, evaluate, target_rank
from topolstm.errors import DataError, NumericError, ShapeError
from topolstm.graph import Cascade, CascadeTable, DataGraph, build_topologies
from topolstm.model import (SCORE_MODES, CascadeState, CellState, Model, ModelConfig, U_BLOCKS,
                            backward_cascade, forward_cascade, predict_next,
                            score_inactive)
from topolstm.numeric import ParameterStore, finite_difference_check, softmax_over_subset
from topolstm.training import TrainConfig, objective, split_dataset, train

from conftest import blas_thread_readings, precedent_rows, random_cascade, random_graph


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
        # Node 1 has a precedent (node 0) and another active node (node 3),
        # so U_f_qp, which feeds h_p into the q forget gate, reaches its cell.
        graph = DataGraph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        cascade = Cascade((0, 3, 1, 2))
        result = forward_cascade(model, graph, cascade, compute_loss=False)
        h_ref, _ = oracle.forward(model.params, graph, cascade, d)
        np.testing.assert_allclose(result.H, h_ref, atol=1e-12)

    def test_packed_store_is_not_a_model_store(self):
        model = self._model()
        packed = ParameterStore(dict(model.params.items()))
        graph = DataGraph.from_edges(5, [(0, 1)])
        with pytest.raises(ShapeError, match="fused"):
            forward_cascade(Model(model.config, packed), graph, Cascade((0, 1)))


def gates(result, d):
    """The (T, d) blocks [i, f_p, f_q, c_tilde, o] of a forward result's gates."""
    return [result.A[:, k * d:(k + 1) * d] for k in range(5)]


class TestCellForward:
    def test_zero_parameters_zero_aggregates(self):
        config = ModelConfig(hidden_dim=3, node_count=4)
        model = Model(config, Model.initialize(config, np.random.default_rng(0)).params)
        model.params.fill(0.0)
        graph = DataGraph.from_edges(4, [(0, 1), (1, 2)])
        result = forward_cascade(model, graph, Cascade((1, 0, 2)), compute_loss=False)
        i, f_p, f_q, c_tilde, o = gates(result, 3)
        np.testing.assert_allclose(i, 0.5)
        np.testing.assert_allclose(f_p, 0.5)
        np.testing.assert_allclose(f_q, 0.5)
        np.testing.assert_allclose(o, 0.5)
        np.testing.assert_allclose(c_tilde, 0.0)
        np.testing.assert_allclose(result.C, 0.0)
        np.testing.assert_allclose(result.H, 0.0)

    def test_zero_aggregates_reduce_to_input_only_step(self):
        # A T = 1 cascade has empty aggregates, so the recurrent terms vanish:
        # the step must equal the equations with only the W column and bias.
        rng = np.random.default_rng(1)
        d, m = 4, 6
        model = perturbed_model(ModelConfig(d, m), rng)
        graph = random_graph(rng, m, 3 * m)
        result = forward_cascade(model, graph, Cascade((2,)), compute_loss=False)
        p = model.params
        sig = lambda z: 1.0 / (1.0 + np.exp(-z))
        i = sig(p["W_i"][:, 2] + p["b_i"])
        c_til = np.tanh(p["W_c"][:, 2] + p["b_c"])
        o = sig(p["W_o"][:, 2] + p["b_o"])
        np.testing.assert_allclose(result.C[0], i * c_til, atol=1e-12)
        np.testing.assert_allclose(result.H[0], o * np.tanh(i * c_til), atol=1e-12)
        np.testing.assert_allclose(gates(result, d)[1][0], sig(p["W_f"][:, 2] + p["b_f"]),
                                   atol=1e-12)

    def test_matches_scalar_oracle_on_random_instances(self):
        rng = np.random.default_rng(2)
        d, m = 3, 5
        for _ in range(50):
            model = perturbed_model(ModelConfig(d, m), rng, spread=0.8)
            graph = random_graph(rng, m, int(rng.integers(0, 3 * m)))
            cascade = random_cascade(rng, m, int(rng.integers(1, m + 1)))
            result = forward_cascade(model, graph, cascade, compute_loss=False)
            h_ref, c_ref = oracle.forward(model.params, graph, cascade, d)
            np.testing.assert_allclose(result.H, h_ref, atol=1e-12)
            np.testing.assert_allclose(result.C, c_ref, atol=1e-12)

    def test_gate_ranges(self):
        rng = np.random.default_rng(3)
        d, m = 5, 7
        model = perturbed_model(ModelConfig(d, m), rng, spread=2.0)
        graph = random_graph(rng, m, 3 * m)
        result = forward_cascade(model, graph, random_cascade(rng, m, m),
                                 compute_loss=False)
        i, f_p, f_q, c_tilde, o = gates(result, d)
        for gate in (i, f_p, f_q, o):
            assert np.all(gate > 0.0) and np.all(gate < 1.0)
        assert np.all(np.abs(c_tilde) < 1.0)
        assert np.all(np.abs(result.tanh_C) < 1.0)

    def test_nonfinite_named(self):
        config = ModelConfig(hidden_dim=2, node_count=3)
        model = Model.initialize(config, np.random.default_rng(0))
        model.params["W_i"][0, 1] = np.nan
        graph = DataGraph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(NumericError, match="input gate at node 1"):
            forward_cascade(model, graph, Cascade((0, 1, 2)))


class TestAggregate:
    """The pooled aggregates [h_p; h_q] and [c_p; c_q] that forward_cascade
    feeds each cell, in its HX and CX rows."""

    def _forward(self, rng, graph, cascade, d):
        model = perturbed_model(ModelConfig(d, graph.node_count), rng)
        return forward_cascade(model, graph, cascade, compute_loss=False)

    def test_empty_prefix_gives_zeros(self):
        rng = np.random.default_rng(4)
        result = self._forward(rng, random_graph(rng, 6, 12), Cascade((3, 1, 4)), 4)
        np.testing.assert_array_equal(result.HX[0], np.zeros(8))
        np.testing.assert_array_equal(result.CX[0], np.zeros(8))

    def test_singleton_precedent(self):
        rng = np.random.default_rng(4)
        graph = DataGraph.from_edges(8, [(7, 2)])
        result = self._forward(rng, graph, Cascade((7, 2)), 3)
        np.testing.assert_allclose(result.HX[1, :3], result.H[0])
        np.testing.assert_allclose(result.CX[1, :3], result.C[0])
        np.testing.assert_array_equal(result.HX[1, 3:], np.zeros(3))

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(5)
        d = 4
        # Node 5 activates last; its precedents are rows 0 and 2.
        graph = DataGraph.from_edges(6, [(0, 5), (2, 5), (1, 3)])
        result = self._forward(rng, graph, Cascade((0, 1, 2, 3, 4, 5)), d)
        H, C = result.H, result.C
        np.testing.assert_allclose(result.HX[5, :d], (H[0] + H[2]) / 2.0, atol=1e-12)
        np.testing.assert_allclose(result.CX[5, d:], (C[1] + C[3] + C[4]) / 3.0,
                                   atol=1e-12)

    def test_precedents_must_be_active(self):
        # 1 -> 0 is no precedent edge of node 0, which activates first.
        rng = np.random.default_rng(6)
        graph = DataGraph.from_edges(3, [(1, 0), (0, 1)])
        result = self._forward(rng, graph, Cascade((0, 1)), 2)
        assert precedent_rows(result.rows) == [[], [0]]
        np.testing.assert_array_equal(result.HX[0], np.zeros(4))


class TestScoreInactive:
    def test_zero_receiver_embeddings_score_bias(self, running_example):
        graph, cascade = running_example
        rng = np.random.default_rng(8)
        model = perturbed_model(ModelConfig(4, graph.node_count), rng)
        model.params["G"][:] = 0.0
        result = forward_cascade(model, graph, cascade, compute_loss=False)
        states = {v: CellState(result.H[i], result.C[i])
                  for i, v in enumerate(cascade.nodes)}
        topo = build_topologies(graph, cascade)[3]
        for mode in ("all-active", "precedent-only"):
            moded = Model(replace(model.config, score_mode=mode), model.params)
            scores = score_inactive(states, topo, moded)
            for v, s in scores.items():
                assert s == pytest.approx(float(model.params["b_act"][v]))

    def test_single_active_node_all_active(self):
        g = DataGraph.from_edges(3, [(0, 1), (0, 2)])
        rng = np.random.default_rng(9)
        model = perturbed_model(ModelConfig(3, 3), rng)
        cascade = Cascade((0,))
        result = forward_cascade(model, g, cascade, compute_loss=False)
        states = {0: CellState(result.H[0], result.C[0])}
        topo = build_topologies(g, cascade)[1]
        scores = score_inactive(states, topo, model)   # all-active by default
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
        topo = build_topologies(graph, cascade)[3]
        prec = score_inactive(states, topo, Model(
            replace(model.config, score_mode="precedent-only"), model.params))
        allact = score_inactive(states, topo, model)   # all-active by default
        assert prec[3] == pytest.approx(float(model.params["b_act"][3]))
        pooled = result.H[:3].mean(axis=0)
        want = float(pooled @ model.params["G"][3] + model.params["b_act"][3])
        assert allact[3] == pytest.approx(want, rel=1e-10)

    def test_requires_active_prefix(self, running_example):
        graph, cascade = running_example
        model = Model.initialize(ModelConfig(2, graph.node_count),
                                 np.random.default_rng(0))
        with pytest.raises(ValueError):
            score_inactive({}, build_topologies(graph, cascade)[0], model)


class TestForwardCascade:
    def test_counting_contract(self):
        rng = np.random.default_rng(11)
        graph, cascade, model = random_instance(rng, T=5)
        result = forward_cascade(model, graph, cascade)
        assert result.losses.shape == (len(cascade) - 1,)
        assert result.probs.shape == (len(cascade) - 1, model.config.node_count)
        assert result.H.shape == (len(cascade), model.config.hidden_dim)
        assert np.all(result.losses >= 0.0)

    def test_single_candidate_softmax_is_certain(self):
        g = DataGraph.from_edges(2, [(0, 1)])
        rng = np.random.default_rng(12)
        model = perturbed_model(ModelConfig(3, 2), rng)
        result = forward_cascade(model, g, Cascade((0, 1)))
        assert result.total_loss == pytest.approx(0.0, abs=1e-15)

    def test_matches_monolithic_reconstruction(self):
        # Independent re-implementation: the brute-force oracle's states and
        # dense step scores, with a log-sum-exp over every inactive node.
        rng = np.random.default_rng(13)
        for mode in ("all-active", "precedent-only"):
            graph, cascade, model = random_instance(rng, m=8, d=3, T=5, mode=mode)
            result = forward_cascade(model, graph, cascade)

            H, _ = oracle.forward(model.params, graph, cascade, model.config.hidden_dim)
            total = 0.0
            for t in range(2, len(cascade) + 1):
                scores = oracle.step_scores(model.params, graph, cascade, H, t, mode)
                total += (math.log(sum(math.exp(s) for s in scores.values()))
                          - scores[cascade[t - 1]])
            assert result.total_loss == pytest.approx(total, rel=1e-9)

    def test_prefix_isolation_bit_identical(self):
        rng = np.random.default_rng(14)
        graph, cascade, model = random_instance(rng, T=6)
        full = forward_cascade(model, graph, cascade)
        prefix = Cascade(cascade.nodes[:4])
        part = forward_cascade(model, graph, prefix)
        np.testing.assert_array_equal(full.H[:4], part.H)
        np.testing.assert_array_equal(full.C[:4], part.C)

    def test_precedent_only_cascade_without_out_edges(self):
        # No active node has an out-edge, so every candidate scores its bias
        # (np.bincount over no edge returns int64 zeros).
        g = DataGraph.from_edges(4, [(0, 1)])
        model = perturbed_model(ModelConfig(2, 4, "precedent-only"), np.random.default_rng(15))
        result = forward_cascade(model, g, Cascade((1, 2, 3)))
        bias = dict(enumerate(model.params["b_act"].tolist()))
        want = softmax_over_subset(bias, [0, 2, 3])
        np.testing.assert_allclose(result.probs[0, [0, 2, 3]], list(want.values()), rtol=1e-12)
        cand, probs = predict_next(model, g, Cascade((3,)))
        want = softmax_over_subset(bias, [0, 1, 2])
        np.testing.assert_allclose(probs, list(want.values()), rtol=1e-12)
        backward_cascade(result, model)

    def test_cascade_must_fit_graph(self):
        g = DataGraph.from_edges(3, [(0, 1)])
        model = Model.initialize(ModelConfig(2, 3), np.random.default_rng(0))
        with pytest.raises(DataError):
            forward_cascade(model, g, Cascade((0, 5)))

    @pytest.mark.parametrize("offset", [5, -5])
    @pytest.mark.parametrize("entry", ["train", "objective", "evaluate", "predict_next"])
    def test_model_and_graph_of_different_sizes_are_refused(self, entry, offset):
        # Every entry point meets the graph in forward_cascade, which refuses
        # a model with more or fewer nodes than the graph.
        rng = np.random.default_rng(16)
        m = 20
        graph = random_graph(rng, m, 3 * m)
        cascades = [random_cascade(rng, m, m) for _ in range(4)]
        config = ModelConfig(3, m + offset)
        model = Model.initialize(config, rng)
        calls = {
            "train": lambda: train(graph, cascades[:3], cascades[3:], TrainConfig(max_epochs=1),
                                   config),
            "objective": lambda: objective(model, graph, cascades, 0.0),
            "evaluate": lambda: evaluate(ModelScorer(model, graph), cascades),
            "predict_next": lambda: predict_next(model, graph, Cascade(cascades[0].nodes[:3])),
        }
        with pytest.raises(ValueError, match=f"model has {m + offset} nodes, graph {m}$"):
            calls[entry]()


class TestScoreBlock:
    @pytest.mark.parametrize("mode", SCORE_MODES)
    def test_block_matches_reference_at_every_step(self, mode):
        # Long enough that an off-by-one in the cumulative rows shows.
        rng = np.random.default_rng(50)
        m, T = 60, 40
        cascade = random_cascade(rng, m, T)
        late = cascade[5]   # its in-neighbours all activate after it
        edges = {e for e in oracle.edge_set(random_graph(rng, m, 90)) if e[1] != late}
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

    @pytest.mark.parametrize("mode", SCORE_MODES)
    def test_non_finite_row_raises_naming_step_and_first_node(self, mode):
        # A node scored +inf makes the softmax NaN at every step it is inactive.
        graph, cascade, model = random_instance(np.random.default_rng(54), mode=mode)
        outside = next(v for v in range(graph.node_count) if v not in cascade.nodes)
        model.params["b_act"][outside] = np.inf
        where = f"of the cascade from node {cascade[0]}$"
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match=f"non-finite probabilities at step 2 {where}"):
                objective(model, graph, [cascade], 0.0)
            with pytest.raises(NumericError, match=f"non-finite probabilities at step 4 {where}"):
                predict_next(model, graph, Cascade(cascade.nodes[:3]))

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


class TestTableSlices:
    @pytest.mark.parametrize("mode", SCORE_MODES)
    def test_slice_of_a_split_table_gives_the_same_bits(self, mode):
        graph, cascades, _ = generate_dataset(PRESETS["desk-default"])
        split = split_dataset(cascades, seed=0)[0]
        table = CascadeTable(graph, split)
        model = perturbed_model(ModelConfig(8, graph.node_count, mode),
                                np.random.default_rng(62))
        picked = [i for i, c in enumerate(split) if len(c) >= 2][::12]
        assert len(picked) > 20 and max(len(split[i]) for i in picked) == 15
        for i in picked:
            alone = forward_cascade(model, graph, split[i])
            sliced = forward_cascade(model, graph, split[i], rows=table.rows(i))
            for name in ("H", "C", "A", "HX", "CX", "losses", "probs"):
                assert np.array_equal(getattr(sliced, name), getattr(alone, name)), name
            for name, got, want in zip(sliced.rows._fields, sliced.rows, alone.rows):
                assert np.array_equal(got, want), name
            assert np.array_equal(backward_cascade(sliced, model).flat,
                                  backward_cascade(alone, model).flat)


class TestPrecedentIndex:
    def _check_against_oracle(self, graph, cascade, rng):
        model = Model.initialize(ModelConfig(2, graph.node_count), rng)
        result = forward_cascade(model, graph, cascade, compute_loss=False)
        pos = {v: i for i, v in enumerate(cascade.nodes)}
        assert result.rows.prec_ptr[0] == 0
        assert precedent_rows(result.rows) == [
            [pos[u] for u in oracle.precedents(graph, cascade, t, v)]
            for t, v in enumerate(cascade.nodes, start=1)]
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
        assert precedent_rows(result.rows) == [[], [], [1], [0]]

    def test_one_table_matches_the_oracle_for_every_cascade(self):
        rng = np.random.default_rng(43)
        for k in range(60):
            m = int(rng.integers(2, 16))
            # Every tenth graph is edgeless; the cascades share the m nodes,
            # and every fifth has T = 1.
            graph = random_graph(rng, m, 0 if k % 10 == 0 else int(rng.integers(1, 4 * m)))
            cascades = [random_cascade(rng, m, 1 if j % 5 == 0 else int(rng.integers(1, m + 1)))
                        for j in range(int(rng.integers(1, 25)))]
            table = CascadeTable(graph, cascades)
            assert table.cid.tolist() == [i for i, c in enumerate(cascades) for _ in c]
            assert table.pos.tolist() == [r for c in cascades for r in range(len(c))]
            for i, cascade in enumerate(cascades):
                rows = table.rows(i)
                pos = {v: r for r, v in enumerate(cascade.nodes)}
                assert rows.nodes.tolist() == list(cascade.nodes)
                assert list(zip(rows.src.tolist(), rows.dst.tolist())) == sorted(
                    (pos[u], w) for u, w in oracle.edge_set(graph) if u in pos)
                assert rows.prec_ptr[0] == 0
                assert precedent_rows(rows) == [
                    [pos[u] for u in oracle.precedents(graph, cascade, t, v)]
                    for t, v in enumerate(cascade.nodes, start=1)]

    def test_one_table_keeps_each_cascade_to_itself(self):
        # Node 0's in-neighbours 1 and 2 activate after it in the first
        # cascade and before it in the others.
        g = DataGraph.from_edges(4, [(1, 0), (2, 0), (0, 3), (1, 2)])
        cascades = [Cascade((0, 1, 2, 3)), Cascade((1, 0)), Cascade((3,)), Cascade((2, 1, 0))]
        table = CascadeTable(g, cascades)
        assert [precedent_rows(table.rows(i)) for i in range(4)] == [
            [[], [], [1], [0]], [[], [0]], [[]], [[], [], [0, 1]]]
        assert table.prec_row.tolist() == [1, 0, 4, 7, 8]
        empty = CascadeTable(g, [])
        assert empty.ptr.tolist() == empty.prec_ptr.tolist() == [0]
        for nodes in ((0, 4), (-1,)):
            with pytest.raises(DataError, match="outside the graph"):
                CascadeTable(g, [Cascade((1, 2)), Cascade(nodes)])

    @pytest.mark.parametrize("mode", SCORE_MODES)
    def test_aggregates_are_direct_means_on_a_long_cascade(self, mode):
        rng = np.random.default_rng(42)
        graph = generate_graph(PRESETS["desk-default"])
        cascade = random_cascade(rng, graph.node_count, 160)
        model = perturbed_model(ModelConfig(4, graph.node_count, mode), rng)
        result = forward_cascade(model, graph, cascade)
        d = model.config.hidden_dim
        for row, prec in enumerate(precedent_rows(result.rows)):
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
            grads = model.zero_grads()
            objective(model, graph, [cascade], lam, grads)
            loss_fn = lambda p: objective(model, graph, [cascade], lam)
            res = finite_difference_check(loss_fn, model.params, grads,
                                          samples=50, h=1e-5, rng=rng)
            assert res.max_rel_error < 1e-4, str(res)

    def test_all_active_empty_precedents_still_differentiable(self, running_example):
        # The cascade reaches a node with no active in-neighbour (Fig-style
        # D case); the all-active loss must stay finite with exact gradients.
        graph, cascade = running_example
        model = perturbed_model(ModelConfig(3, graph.node_count, "all-active"),
                                np.random.default_rng(18))
        grads = model.zero_grads()
        assert np.isfinite(objective(model, graph, [cascade], 1e-2, grads))
        res = finite_difference_check(
            lambda p: objective(model, graph, [cascade], 1e-2),
            model.params, grads, samples=60, h=1e-5,
            rng=np.random.default_rng(19))
        assert res.max_rel_error < 1e-4

    @pytest.mark.parametrize("mode", ["all-active", "precedent-only"])
    def test_complex_step_matches_gradient_along_every_direction(self, mode):
        # Im L(theta + i h delta) / h has no cancellation, so at h = 1e-30 it
        # is the derivative along delta to rounding, and one dense delta
        # checks every coordinate of every slot at once.
        rng = np.random.default_rng(25)
        lam = 1e-2
        for _ in range(20):
            m, d = int(rng.integers(8, 41)), int(rng.integers(2, 9))
            T = int(rng.integers(3, min(30, m) + 1))
            graph, cascade, model = random_instance(rng, m=m, d=d, T=T, mode=mode)
            grads = model.zero_grads()
            value = objective(model, graph, [cascade], lam, grads)
            directions = [{name: rng.standard_normal(arr.shape)
                           for name, arr in model.params.items()} for _ in range(3)]
            directions.append(dict(grads.items()))
            losses = [oracle.complex_objective(
                {name: arr + 1e-30j * delta[name] for name, arr in model.params.items()},
                graph, cascade, mode, lam) for delta in directions]
            assert [loss.real for loss in losses] == pytest.approx([value] * 4, rel=1e-12)
            slopes = [loss.imag / 1e-30 for loss in losses]
            assert complex_step_error(slopes, grads, directions) <= 1e-10
        # Zeroing any one slot of the last instance's gradient fails the check.
        for name, _ in grads.items():
            broken = {other: 0.0 * arr if other == name else arr for other, arr in grads.items()}
            assert complex_step_error(slopes, broken, directions) > 1e-10, name


def complex_step_error(slopes, grads, directions):
    """The largest |slope - <grads, delta>| over the directions, each relative
    to the sum of |grads * delta|, the scale of the inner product's rounding."""
    worst = 0.0
    for slope, delta in zip(slopes, directions):
        terms = [grads[name] * delta[name] for name in delta]
        dot = sum(term.sum() for term in terms)
        worst = max(worst, abs(slope - dot) / sum(np.abs(term).sum() for term in terms))
    return worst


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
        # predict_next scores the one row after its prefix, evaluate the
        # whole block, through the same scoring function.  Precedent-only
        # sums the same edge terms in the same order, so the rows are equal
        # bit for bit; all-active's one-row matmul may round differently
        # from the block's, so its rows agree to rounding.
        rng = np.random.default_rng(22)
        graph, cascade, model = random_instance(rng, m=45, d=4, T=30, mode=mode)
        steps = list(ModelScorer(model, graph).step_scores(cascade))
        assert len(steps) == len(cascade) - 1
        for k, (cand, probs, target) in enumerate(steps, start=1):
            p_cand, p_probs = predict_next(model, graph, Cascade(cascade.nodes[:k]))
            assert target == cascade[k]
            np.testing.assert_array_equal(p_cand, cand)
            if mode == "precedent-only":
                np.testing.assert_array_equal(p_probs, probs)
            else:
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

    def test_same_bits_at_any_blas_thread_count(self):
        # Scores of a 1000-node graph run through matmuls large enough for
        # OpenBLAS to split across threads; evaluate's table sums them up,
        # and a state grown one activation at a time predicts every step.
        code = ("import hashlib\n"
                "import numpy as np\n"
                "from topolstm import datagen\n"
                "from topolstm.evaluation import ModelScorer, evaluate\n"
                "from topolstm.graph import Cascade\n"
                "from topolstm.model import CascadeState, Model, ModelConfig, predict_next\n"
                "config = datagen.SynthConfig(\n"
                "    node_count=1000, graph_model='preferential-attachment', edge_param=3,\n"
                "    activation_prob=(0.2, 0.8), cascade_count=8, max_cascade_length=100,\n"
                "    seed=5)\n"
                "graph, cascades, _ = datagen.generate_dataset(config)\n"
                "for mode in ('all-active', 'precedent-only'):\n"
                "    config = ModelConfig(32, graph.node_count, mode)\n"
                "    model = Model.initialize(config, np.random.default_rng(1))\n"
                "    digest = hashlib.sha256()\n"
                "    for cascade in cascades:\n"
                "        for _, probs, _ in ModelScorer(model, graph).step_scores(cascade):\n"
                "            digest.update(probs.tobytes())\n"
                "        prefix = Cascade(cascade.nodes[:len(cascade) // 2 + 1])\n"
                "        digest.update(predict_next(model, graph, prefix)[1].tobytes())\n"
                "        state = CascadeState(model, graph)\n"
                "        for k in range(1, len(cascade)):\n"
                "            prefix = Cascade(cascade.nodes[:k])\n"
                "            _, probs = predict_next(model, graph, prefix, state=state)\n"
                "            digest.update(probs.tobytes())\n"
                "    table = evaluate(ModelScorer(model, graph), cascades, ks=(1, 10, 100))\n"
                "    digest.update(repr((table.values, table.by_prefix_length,\n"
                "                        table.mean_nll)).encode())\n"
                "    print(mode, max(map(len, cascades)), digest.hexdigest())\n")
        readings = blas_thread_readings(code)
        assert len(readings[0]) == 6 and int(readings[0][1]) > 50
        assert readings[0] == readings[1]


@st.composite
def state_instances(draw):
    """(graph, cascade, model, cut points): a graph of up to 12 nodes, with no
    edges at times, a cascade over it, and where a state grown along it
    takes several activations at once."""
    m = draw(st.integers(2, 12))
    pairs = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)).filter(lambda e: e[0] != e[1])
    graph = DataGraph.from_edges(m, draw(st.lists(pairs, max_size=3 * m)))
    order = draw(st.permutations(range(m)))
    cascade = Cascade(tuple(order[:draw(st.integers(1, m))]))
    cuts = draw(st.lists(st.integers(1, len(cascade)), max_size=3))
    mode = draw(st.sampled_from(SCORE_MODES))
    model = perturbed_model(ModelConfig(draw(st.integers(1, 4)), m, mode),
                            np.random.default_rng(draw(st.integers(0, 2 ** 16))))
    return graph, cascade, model, sorted(set(cuts))


FORWARD_ARRAYS = ("H", "C", "A", "tanh_C", "HX", "CX", "pos")


def grow(model, graph, prefix, state):
    """predict_next on ``prefix`` through ``state``, or None when the prefix
    holds every node: the state is extended before that ValueError."""
    try:
        return predict_next(model, graph, prefix, state=state)
    except ValueError as exc:
        assert str(exc) == "no inactive nodes left to predict"
        return None


class TestCascadeState:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(state_instances())
    def test_lone_prefix_rows_are_the_table_rows(self, instance):
        graph, cascade, model, cuts = instance
        want = CascadeTable(graph, [cascade]).rows(0)
        alone = forward_cascade(model, graph, cascade, compute_loss=False).rows
        state = CascadeState(model, graph)
        for k in cuts + [len(cascade)]:
            grow(model, graph, Cascade(cascade.nodes[:k]), state)
        for rows in (alone, state.rows):
            for name, got, expected in zip(want._fields, rows, want):
                assert got.dtype == expected.dtype and np.array_equal(got, expected), name

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(state_instances())
    def test_a_state_grown_row_by_row_gives_the_same_bits(self, instance):
        # One state takes one activation per call, another several at the
        # cut points; both give predict_next's bits from scratch, and the
        # grown state holds a full forward's arrays.
        graph, cascade, model, cuts = instance
        grown, chunked = CascadeState(model, graph), CascadeState(model, graph)
        for k in range(1, len(cascade) + 1):
            prefix = Cascade(cascade.nodes[:k])
            want = grow(model, graph, prefix, None)
            for state in (grown, chunked) if k in cuts else (grown,):
                got = grow(model, graph, prefix, state)
                assert (got is None) == (want is None)
                if want is not None:
                    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        full = forward_cascade(model, graph, cascade, compute_loss=False)
        got = grown.result()
        for name in FORWARD_ARRAYS:
            assert np.array_equal(getattr(got, name), getattr(full, name)), name

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(state_instances())
    def test_refused_calls_leave_the_state_as_it_was(self, instance):
        graph, cascade, model, cuts = instance
        m, k = model.config.node_count, cuts[0] if cuts else 1
        state = CascadeState(model, graph)
        grow(model, graph, Cascade(cascade.nodes[:k]), state)
        kept = [np.copy(a) for a in (*state.rows, *(getattr(state.result(), name)
                                                      for name in FORWARD_ARRAYS))]
        twin = DataGraph(graph.labels, graph.out_ptr, graph.out_idx)   # equal, not the same
        first = next(v for v in range(m) if v != cascade[0])
        refusals = [
            (model.copy(), graph, cascade, ValueError, "state belongs to another model or graph"),
            (model, twin, cascade, ValueError, "state belongs to another model or graph"),
            (model, graph, Cascade((first,)), ValueError, "prefix does not begin with"),
            (model, graph, Cascade(cascade.nodes[:k] + (m,)), DataError, "outside the graph"),
            (model, graph, Cascade(cascade.nodes[:k] + (-1,)), DataError, "outside the graph"),
        ]
        if k >= 2:
            refusals.append((model, graph, Cascade(cascade.nodes[:k - 1]), ValueError,
                             "prefix does not begin with"))
        for other_model, other_graph, prefix, error, message in refusals:
            with pytest.raises(error, match=message):
                predict_next(other_model, other_graph, prefix, state=state)
        now = [*state.rows, *(getattr(state.result(), name) for name in FORWARD_ARRAYS)]
        assert all(np.array_equal(a, b) for a, b in zip(kept, now))
        grow(model, graph, cascade, state)
        full = forward_cascade(model, graph, cascade, compute_loss=False)
        for name in FORWARD_ARRAYS:
            assert np.array_equal(getattr(state.result(), name), getattr(full, name)), name

    @pytest.mark.parametrize("mode", SCORE_MODES)
    def test_an_extension_computes_one_cell(self, mode):
        # The gate and tanh(c) rows feed only the backward pass.  Poisoned
        # with NaN in every earlier row, they stay NaN through an extension,
        # so it recomputed no earlier cell, and its one new row is a full
        # forward's.
        rng = np.random.default_rng(70)
        graph, cascade, model = random_instance(rng, m=30, d=5, T=12, mode=mode)
        full = forward_cascade(model, graph, cascade, compute_loss=False)
        state = CascadeState(model, graph)
        for k in range(1, len(cascade) + 1):
            before = state.result()
            before.A[...] = np.nan
            before.tanh_C[...] = np.nan
            predict_next(model, graph, Cascade(cascade.nodes[:k]), state=state)
            after = state.result()
            assert np.isnan(after.A[:k - 1]).all() and np.isnan(after.tanh_C[:k - 1]).all()
            for name in ("H", "C", "A", "tanh_C", "HX", "CX"):
                assert np.array_equal(getattr(after, name)[k - 1], getattr(full, name)[k - 1])
            np.testing.assert_array_equal(after.H, full.H[:k])

    def test_the_shared_empty_rows_are_read_only(self):
        # Every empty state and lone forward starts from the same arrays, so
        # a write through one of them would reach all later joins.
        rng = np.random.default_rng(73)
        graph, _, model = random_instance(rng, m=8, d=2, T=3, mode="precedent-only")
        for array in CascadeState(model, graph).rows:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 5

    @pytest.mark.parametrize("mode", SCORE_MODES)
    def test_extensions_of_several_rows_give_the_same_bits(self, mode):
        # On a dense graph, the rows of one extension share many targets, so
        # their precedent-only terms must be added row by row, as the block
        # adds them, for the sums to keep their bits.
        rng = np.random.default_rng(71)
        graph = random_graph(rng, 40, 600)
        cascade = random_cascade(rng, 40, 30)
        model = perturbed_model(ModelConfig(4, 40, mode), rng)
        state = CascadeState(model, graph)
        for k in (1, 2, 7, 19, 30):
            prefix = Cascade(cascade.nodes[:k])
            got, want = predict_next(model, graph, prefix, state=state), predict_next(
                model, graph, prefix)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), k

    @pytest.mark.parametrize("mode", SCORE_MODES)
    def test_a_non_finite_cell_leaves_the_state_as_it_was(self, mode):
        rng = np.random.default_rng(72)
        graph, cascade, model = random_instance(rng, m=12, d=3, T=6, mode=mode)
        bad = next(v for v in range(12) if v not in cascade.nodes)
        model.params["W_c"][:, bad] = np.nan
        state = CascadeState(model, graph)
        predict_next(model, graph, Cascade(cascade.nodes[:3]), state=state)
        with pytest.raises(NumericError, match=f"non-finite candidate cell at node {bad}$"):
            predict_next(model, graph, Cascade(cascade.nodes[:3] + (bad,)), state=state)
        got = predict_next(model, graph, cascade, state=state)
        want = predict_next(model, graph, cascade)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        full = forward_cascade(model, graph, cascade, compute_loss=False)
        for name in FORWARD_ARRAYS:
            assert np.array_equal(getattr(state.result(), name), getattr(full, name)), name
