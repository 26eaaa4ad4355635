import filecmp
import json

import numpy as np
import pytest

import oracle
from topolstm.baseline import EdgeProbabilities
from topolstm.datagen import (PRESETS, SynthConfig, assign_edge_probs,
                              generate_dataset, generate_graph,
                              simulate_ic_cascade)
from topolstm.graph import DataGraph


def cfg(**overrides):
    base = dict(node_count=20, graph_model="uniform-random-edges",
                edge_param=60, activation_prob=0.5, cascade_count=10,
                max_cascade_length=8, seed=1)
    base.update(overrides)
    return SynthConfig(**base)


class TestGenerateGraph:
    def test_chain(self):
        g = generate_graph(cfg(node_count=5, graph_model="chain"))
        assert oracle.edge_set(g) == {(0, 1), (1, 2), (2, 3), (3, 4)}

    def test_zero_density_empty(self):
        g = generate_graph(cfg(graph_model="uniform-random-edges", edge_param=0))
        assert g.edge_count == 0

    def test_density_fraction(self):
        g = generate_graph(cfg(node_count=10, edge_param=0.5))
        assert g.edge_count == 45  # 0.5 * 10 * 9

    def test_edge_count_request(self):
        g = generate_graph(cfg(node_count=30, edge_param=100))
        assert g.edge_count == 100

    def test_impossible_density_rejected(self):
        with pytest.raises(ValueError):
            generate_graph(cfg(node_count=5, edge_param=100))

    def test_same_seed_identical(self):
        a = generate_graph(cfg(seed=9))
        b = generate_graph(cfg(seed=9))
        np.testing.assert_array_equal(a.out_ptr, b.out_ptr)
        np.testing.assert_array_equal(a.out_idx, b.out_idx)

    def test_grid_neighbors(self):
        g = generate_graph(cfg(node_count=9, graph_model="grid"))
        assert g.edge_id(0, 1) >= 0 and g.edge_id(1, 0) >= 0
        assert g.edge_id(0, 3) >= 0 and g.edge_id(3, 0) >= 0
        assert g.edge_id(0, 4) == -1

    def test_preferential_attachment_connected(self):
        g = generate_graph(cfg(node_count=50,
                               graph_model="preferential-attachment",
                               edge_param=3))
        assert g.edge_count > 0
        # every non-seed node attaches to >= edge_param targets, both ways
        assert (np.diff(g.out_ptr)[3:] >= 3).all()

    def test_pa_attachment_count_validated(self):
        with pytest.raises(ValueError):
            generate_graph(cfg(graph_model="preferential-attachment",
                               edge_param=0))


class TestSimulateIC:
    def test_certain_chain_spreads_fully(self):
        g = generate_graph(cfg(node_count=6, graph_model="chain"))
        probs = assign_edge_probs(g, 1.0, np.random.default_rng(0))
        c = simulate_ic_cascade(g, probs, 0, 10, np.random.default_rng(0))
        assert c.nodes == (0, 1, 2, 3, 4, 5)

    def test_truncation(self):
        g = generate_graph(cfg(node_count=6, graph_model="chain"))
        probs = assign_edge_probs(g, 1.0, np.random.default_rng(0))
        c = simulate_ic_cascade(g, probs, 0, 3, np.random.default_rng(0))
        assert c.nodes == (0, 1, 2)

    def test_zero_probability_stays_at_seed(self):
        g = generate_graph(cfg())
        probs = assign_edge_probs(g, 0.0, np.random.default_rng(0))
        c = simulate_ic_cascade(g, probs, 4, 10, np.random.default_rng(0))
        assert c.nodes == (4,)

    def test_star_activation_is_binomial(self):
        # Monte-Carlo check: p=0.5 on a 12-leaf star activates 6 leaves on
        # average; 1e4 runs keep the sample mean within 3 sigma.
        leaves = 12
        g = DataGraph.from_edges(leaves + 1, [(0, i + 1) for i in range(leaves)])
        probs = EdgeProbabilities(g, np.full(leaves, 0.5))
        rng = np.random.default_rng(7)
        runs = 10_000
        total = sum(len(simulate_ic_cascade(g, probs, 0, 50, rng)) - 1
                    for _ in range(runs))
        mean = total / runs
        sigma = np.sqrt(leaves * 0.25 / runs)
        assert abs(mean - 6.0) < 3 * sigma

    def test_certain_probabilities_make_same_seed_cascades_identical(self):
        g = generate_graph(cfg(node_count=15, edge_param=50, seed=2))
        probs = assign_edge_probs(g, 1.0, np.random.default_rng(0))
        a = simulate_ic_cascade(g, probs, 3, 15, np.random.default_rng(1))
        b = simulate_ic_cascade(g, probs, 3, 15, np.random.default_rng(99))
        assert a.nodes == b.nodes

    def test_no_repeats_and_graph_consistency(self):
        rng = np.random.default_rng(8)
        g = generate_graph(cfg(edge_param=80))
        probs = assign_edge_probs(g, (0.3, 0.9), rng)
        for _ in range(50):
            c = simulate_ic_cascade(g, probs, int(rng.integers(20)), 10, rng)
            assert len(set(c.nodes)) == len(c.nodes)
            seen = set()
            for i, v in enumerate(c.nodes):
                if i > 0:
                    assert any(g.edge_id(u, v) >= 0 for u in seen)
                seen.add(v)


class TestGenerateDataset:
    def test_chain_preset_structure(self):
        graph, cascades, probs = generate_dataset(PRESETS["chain-deterministic"])
        assert graph.node_count == 50
        assert len(cascades) == 300
        for c in cascades:
            nodes = c.nodes
            assert all(b == a + 1 for a, b in zip(nodes, nodes[1:]))
            assert nodes[-1] == 49 or len(nodes) == 12
        assert probs.p.shape == (graph.edge_count,) and (probs.p == 1.0).all()

    def test_zero_cascades(self, tmp_path):
        generate_dataset(cfg(cascade_count=0), out_dir=tmp_path)
        assert (tmp_path / "cascades.txt").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["effective"]["cascade_count"] == 0

    def test_retry_cap_reported_as_config_error(self):
        with pytest.raises(ValueError, match="activation_prob"):
            generate_dataset(cfg(activation_prob=0.0, cascade_count=1))

    def test_min_length_two(self):
        _, cascades, _ = generate_dataset(cfg(activation_prob=0.9))
        assert all(len(c) >= 2 for c in cascades)

    def test_files_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_dataset(cfg(), out_dir=a)
        generate_dataset(cfg(), out_dir=b)
        for name in ("graph.txt", "cascades.txt", "edge_probs.txt",
                     "manifest.json"):
            assert filecmp.cmp(a / name, b / name, shallow=False), name

    def test_manifest_echoes_config_and_version(self, tmp_path):
        generate_dataset(cfg(), out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["node_count"] == 20
        assert manifest["config"]["seed"] == 1
        assert "tool_version" in manifest

    def test_round_trip_through_loaders(self, tmp_path):
        from topolstm.graph import load_cascades_file, load_graph_file
        graph, cascades, _ = generate_dataset(cfg(), out_dir=tmp_path)
        g2 = load_graph_file(tmp_path / "graph.txt")
        c2 = load_cascades_file(tmp_path / "cascades.txt", g2)
        assert g2.edge_count == graph.edge_count
        assert [tuple(graph.labels[v] for v in c) for c in cascades] == \
               [tuple(g2.labels[v] for v in c) for c in c2]


class TestSynthConfigValidation:
    def test_bad_probability(self):
        with pytest.raises(ValueError):
            cfg(activation_prob=1.5)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            cfg(activation_prob=(0.8, 0.2))

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), -1.0])
    def test_bad_edge_param(self, value):
        with pytest.raises(ValueError, match=f"edge_param must be finite and >= 0, got {value}"):
            cfg(edge_param=value)
        with pytest.raises(ValueError, match="edge_param"):
            cfg(graph_model="chain", edge_param=value)

    def test_bad_model(self):
        with pytest.raises(ValueError):
            cfg(graph_model="smallworld")

    @pytest.mark.parametrize("length", [1, 0])
    def test_max_length_below_two(self, length):
        with pytest.raises(ValueError,
                           match=f"max_cascade_length must be >= 2, got {length}"):
            cfg(max_cascade_length=length)
