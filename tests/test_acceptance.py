"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  The slowest checks (separable-data learnability, the
baseline comparison, the scaling probe) train real models and together take
about half a minute on a 2-core machine.
"""

import filecmp
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracle
from topolstm import cli
from topolstm.baseline import ICSBScorer, fit_static_bernoulli, icsb_score
from topolstm.datagen import PRESETS, SynthConfig, generate_dataset
from topolstm.evaluation import ModelScorer, evaluate
from topolstm.graph import Cascade, DataGraph, build_topologies
from topolstm.model import ModelConfig, forward_cascade
from topolstm.numeric import finite_difference_check
from topolstm.training import TrainConfig, objective, split_dataset, train

from conftest import edge_probs, prob_dict, random_cascade, random_graph
from test_evaluation import check_hand_fixture
from test_graph import assert_view_matches_oracle, index_rows
from test_model import perturbed_model


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num:02d} FAIL: {name}")
        raise
    print(f"\ncriterion {num:02d} PASS: {name}")


def test_01_gradient_correctness():
    with criterion(1, "analytic gradients match central differences"):
        started = time.perf_counter()
        rng = np.random.default_rng(101)
        lam = 1e-2  # keeps sampled coordinates above the fd noise floor
        worst = 0.0
        for k in range(25):
            mode = ("all-active", "precedent-only")[k % 2]
            m = int(rng.integers(8, 21))
            d = int(rng.choice([2, 4, 8]))
            T = int(rng.integers(3, 7))
            graph = random_graph(rng, m, 3 * m)
            cascade = random_cascade(rng, m, T)
            model = perturbed_model(ModelConfig(d, m, mode), rng)
            grads = model.zero_grads()
            objective(model, graph, [cascade], lam, grads)
            res = finite_difference_check(
                lambda p: objective(model, graph, [cascade], lam),
                model.params, grads, samples=50, h=1e-5, rng=rng)
            worst = max(worst, res.max_rel_error)
        elapsed = time.perf_counter() - started
        assert worst < 1e-4, f"worst relative error {worst:.3e}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_02_topology_oracle_equivalence():
    with criterion(2, "precedent index and topology views match the brute-force oracle"):
        started = time.perf_counter()
        rng = np.random.default_rng(102)
        for _ in range(200):
            m = int(rng.integers(4, 18))
            graph = random_graph(rng, m, int(rng.integers(4, 45)))
            T = int(rng.integers(1, min(m, 8) + 1))
            cascade = random_cascade(rng, m, T)
            t = int(rng.integers(1, T + 2))
            pos = {v: i for i, v in enumerate(cascade.nodes)}
            assert index_rows(graph, cascade) == [
                [pos[u] for u in oracle.precedents(graph, cascade, r, v)]
                for r, v in enumerate(cascade.nodes, start=1)]
            assert_view_matches_oracle(graph, cascade, build_topologies(graph, cascade)[t - 1], t)
        for _ in range(40):
            m = int(rng.integers(5, 18))
            graph = random_graph(rng, m, int(rng.integers(6, 50)))
            cascade = random_cascade(rng, m, int(rng.integers(2, min(m, 8) + 1)))
            for t, view in enumerate(build_topologies(graph, cascade), start=1):
                assert_view_matches_oracle(graph, cascade, view, t)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_03_topology_invariants_on_synthetic_cascades():
    with criterion(3, "DAG property, monotone growth and index order on 500 cascades"):
        config = SynthConfig(node_count=60, graph_model="uniform-random-edges",
                             edge_param=360, activation_prob=(0.2, 0.8),
                             cascade_count=500, max_cascade_length=12, seed=103)
        graph, cascades, _ = generate_dataset(config)
        assert len(cascades) == 500
        for cascade in cascades:
            time_of = {v: i for i, v in enumerate(cascade.nodes)}
            chain = [oracle.attempt_edges(graph, cascade, t)
                     for t in range(1, len(cascade) + 2)]
            for earlier, later in zip(chain, chain[1:]):
                assert earlier <= later
            for (src, dst) in chain[-1]:
                if dst in time_of:
                    assert time_of[src] < time_of[dst]
            for row, prec in enumerate(index_rows(graph, cascade)):
                assert prec == sorted(prec) and all(p < row for p in prec)


def test_04_cell_equation_fidelity(running_example):
    with criterion(4, "forward_cascade matches the scalar transcription; running example"):
        rng = np.random.default_rng(104)
        d, m = 3, 5
        for _ in range(50):
            model = perturbed_model(ModelConfig(d, m), rng, spread=0.8)
            graph = random_graph(rng, m, int(rng.integers(0, 3 * m)))
            cascade = random_cascade(rng, m, int(rng.integers(1, m + 1)))
            result = forward_cascade(model, graph, cascade, compute_loss=False)
            h_ref, c_ref = oracle.forward(model.params, graph, cascade, d)
            np.testing.assert_allclose(result.H, h_ref, atol=1e-12)
            np.testing.assert_allclose(result.C, c_ref, atol=1e-12)

        graph, cascade = running_example
        topos = build_topologies(graph, cascade)
        assert topos[1].precedents(1) == (0,)     # second activation <- first
        assert topos[2].precedents(2) == (0, 1)   # third <- first two
        assert topos[3].precedents(3) == ()       # fourth is unreachable
        assert index_rows(graph, cascade) == [[], [0], [0, 1], []]   # the same, as positions


@pytest.mark.slow
def test_05_learnability_on_separable_data():
    with criterion(5, "chain preset trains to Hits@1 and MAP@10 >= 0.95"):
        started = time.perf_counter()
        graph, cascades, _ = generate_dataset(PRESETS["chain-deterministic"])
        train_set, val_set, test_set = split_dataset(cascades, seed=0)
        config = TrainConfig(learning_rate=2e-2, lam=1e-6, batch_size=16,
                             max_epochs=120, patience=0, seed=0)
        model, report = train(graph, train_set, val_set, config,
                              ModelConfig(hidden_dim=8,
                                          node_count=graph.node_count))
        assert len(report.epochs) <= 200
        table = evaluate(ModelScorer(model, graph), test_set, ks=(1, 10))
        elapsed = time.perf_counter() - started
        hits1 = table.values[("hits", 1)]
        map10 = table.values[("map", 10)]
        print(f"  chain: Hits@1={hits1:.4f} MAP@10={map10:.4f} "
              f"final_train={report.epochs[-1].train_loss:.4f} ({elapsed:.0f}s)")
        assert hits1 >= 0.95
        assert map10 >= 0.95
        assert report.epochs[-1].train_loss < 0.05
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


@pytest.mark.slow
def test_06_relative_ordering_vs_baseline():
    with criterion(6, "desk preset: model mean MAP@10 >= IC-SB mean MAP@10"):
        started = time.perf_counter()
        graph, cascades, _ = generate_dataset(PRESETS["desk-default"])
        model_maps, baseline_maps = [], []
        for seed in (0, 1, 2):
            train_set, val_set, test_set = split_dataset(cascades, seed=seed)
            probs = fit_static_bernoulli(graph, train_set + val_set)
            baseline_table = evaluate(ICSBScorer(graph, probs), test_set,
                                      ks=(10,))
            config = TrainConfig(learning_rate=1e-2, lam=1e-5, batch_size=16,
                                 max_epochs=100, patience=12, seed=seed)
            model, _ = train(graph, train_set, val_set, config,
                             ModelConfig(hidden_dim=32,
                                         node_count=graph.node_count,
                                         score_mode="precedent-only"))
            model_table = evaluate(ModelScorer(model, graph), test_set,
                                   ks=(10,))
            model_maps.append(model_table.values[("map", 10)])
            baseline_maps.append(baseline_table.values[("map", 10)])
            print(f"  seed {seed}: model MAP@10={model_maps[-1]:.4f} "
                  f"ic-sb MAP@10={baseline_maps[-1]:.4f}")
        elapsed = time.perf_counter() - started
        print(f"  means: model={np.mean(model_maps):.4f} "
              f"ic-sb={np.mean(baseline_maps):.4f} ({elapsed:.0f}s)")
        assert np.mean(model_maps) >= np.mean(baseline_maps)
        assert elapsed < 900.0, f"took {elapsed:.1f}s"


def test_07_metric_correctness():
    with criterion(7, "ranking metrics match hand-computed values and k/m"):
        check_hand_fixture()   # through evaluate, a scorer placing each target

        # Uniform-random scorer over m=1000 candidates: Hits@10 ~= 0.01.
        rng = np.random.default_rng(107)
        m, k, n = 1000, 10, 100_000
        hits = 0
        chunk = 2000
        for _ in range(n // chunk):
            scores = rng.random((chunk, m))
            ranks = 1 + (scores[:, 1:] > scores[:, :1]).sum(axis=1)
            hits += int((ranks <= k).sum())
        p_hat = hits / n
        sigma = np.sqrt(0.01 * 0.99 / n)
        assert abs(p_hat - 0.01) < 3 * sigma, f"{p_hat} vs 0.01 +- {3*sigma}"


def test_08_icsb_fidelity():
    with criterion(8, "IC-SB estimator and noisy-OR match their oracles"):
        rng = np.random.default_rng(108)
        graph = random_graph(rng, 10, 30)
        cascades = [random_cascade(rng, 10, int(rng.integers(1, 8)))
                    for _ in range(30)]
        fitted = fit_static_bernoulli(graph, cascades)
        want = oracle.recount_oracle(graph, cascades)
        got = prob_dict(fitted)
        assert set(got) == set(want)
        for edge, p in want.items():
            assert got[edge] == pytest.approx(p)

        # noisy-OR closed forms over enumerated precedent sets
        g = DataGraph.from_edges(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
        p_vals = {(0, 4): 0.3, (1, 4): 0.5, (2, 4): 0.0, (3, 4): 1.0}
        probs = edge_probs(g, p_vals)
        for t, prefix in ((2, (0,)), (3, (0, 1)), (4, (0, 1, 2)),
                          (5, (0, 1, 2, 3))):
            cascade = Cascade(prefix + (4,))
            topo = build_topologies(g, cascade)[t - 1]
            expected = 1.0
            for u in prefix:
                expected *= 1.0 - p_vals[(u, 4)]
            scores = icsb_score(probs, topo)
            assert scores[4] == pytest.approx(1.0 - expected, abs=1e-12)
            cand, step, target = list(ICSBScorer(g, probs).step_scores(cascade))[-1]
            assert target == 4
            assert step[cand.tolist().index(4)] == pytest.approx(1.0 - expected, abs=1e-12)


def test_09_reproducibility(tmp_path):
    with criterion(9, "generate/train/evaluate reruns are byte-identical"):
        gen_args = ["generate", "--preset", "chain-deterministic",
                    "--cascades", "80", "--seed", "21"]
        assert cli.main(gen_args + ["--out", str(tmp_path / "data_a")]) == 0
        assert cli.main(gen_args + ["--out", str(tmp_path / "data_b")]) == 0
        for name in ("graph.txt", "cascades.txt", "edge_probs.txt",
                     "manifest.json"):
            assert filecmp.cmp(tmp_path / "data_a" / name,
                               tmp_path / "data_b" / name, shallow=False), name

        data = tmp_path / "data_a"
        train_args = ["train", "--graph", str(data / "graph.txt"),
                      "--cascades", str(data / "cascades.txt"),
                      "--hidden-dim", "6", "--epochs", "8", "--seed", "2"]
        assert cli.main(train_args + ["--out", str(tmp_path / "run_a")]) == 0
        assert cli.main(train_args + ["--out", str(tmp_path / "run_b")]) == 0
        for name in ("checkpoint.bin", "report.json", "labels.txt",
                     "split_train.txt", "split_validation.txt",
                     "split_test.txt"):
            assert filecmp.cmp(tmp_path / "run_a" / name,
                               tmp_path / "run_b" / name, shallow=False), name

        run = tmp_path / "run_a"
        eval_args = ["evaluate", "--checkpoint", str(run / "checkpoint.bin"),
                     "--graph", str(data / "graph.txt"),
                     "--test-cascades", str(run / "split_test.txt"),
                     "--train-cascades", str(run / "split_train.txt")]
        assert cli.main(eval_args + ["--out", str(tmp_path / "eval_a")]) == 0
        assert cli.main(eval_args + ["--out", str(tmp_path / "eval_b")]) == 0
        for name in ("metrics.json", "metrics.txt", "length_buckets.csv"):
            assert filecmp.cmp(tmp_path / "eval_a" / name,
                               tmp_path / "eval_b" / name, shallow=False), name


@pytest.mark.slow
def test_10_complexity_smoke():
    with criterion(10, "per-epoch time grows at most linearly in cascade count"):
        base = PRESETS["desk-default"]
        unit = base.cascade_count // 2   # 3 rounds of 1 + 2 + 4 units: 5250 cascades
        config = SynthConfig(node_count=base.node_count,
                             graph_model=base.graph_model,
                             edge_param=base.edge_param,
                             activation_prob=base.activation_prob,
                             cascade_count=4 * unit,
                             max_cascade_length=base.max_cascade_length,
                             seed=base.seed)
        graph, cascades, _ = generate_dataset(config)
        scales = (1, 2, 4)
        subsets = [cascades[: scale * unit] for scale in scales]
        steps = [sum(len(c) - 1 for c in subset) for subset in subsets]
        tc = TrainConfig(learning_rate=1e-2, lam=1e-6, batch_size=32,
                         max_epochs=1, patience=0, seed=0)
        mc = ModelConfig(hidden_dim=16, node_count=graph.node_count)
        # Rounds interleave the scales, so a slow spell on a shared machine
        # lands on every scale alike; each scale keeps its fastest run.  CPU
        # time, not wall-clock time: other processes' load does not count.
        times = [np.inf] * len(scales)
        for _round in range(3):
            for k, subset in enumerate(subsets):
                start = time.process_time()
                train(graph, subset, [], tc, mc)
                times[k] = min(times[k], time.process_time() - start)
        per_step = [t / s for t, s in zip(times, steps)]
        print(f"  per-step seconds at 1x/2x/4x: "
              + " ".join(f"{x * 1e6:.1f}us" for x in per_step))
        assert max(per_step) <= 1.5 * min(per_step), per_step
        # direct reading of the bound: time at 4x within 1.5x of linear scaling
        assert times[2] <= 1.5 * 4 * times[0] * (steps[2] / (4 * steps[0]))