import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topolstm.baseline import ICSBScorer, fit_static_bernoulli
from topolstm.errors import NumericError
from topolstm.evaluation import (ModelScorer, evaluate, rank_candidates, target_rank,
                                 write_length_buckets_csv, write_metrics_json,
                                 write_metrics_text)
from topolstm.graph import Cascade
from topolstm.model import Model, ModelConfig, forward_cascade

from conftest import random_cascade, random_graph


class TestRankCandidates:
    def test_two_elements(self):
        assert rank_candidates({0: 0.1, 1: 0.9}) == [1, 0]

    def test_ties_break_ascending_by_id(self):
        assert rank_candidates({2: 1.0, 0: 1.0, 1: 1.0}) == [0, 1, 2]

    def test_matches_comparison_sort_oracle(self):
        rng = np.random.default_rng(40)
        scores = {v: float(rng.choice([0.1, 0.5, 0.9])) for v in range(100)}
        got = rank_candidates(scores)
        want = sorted(scores, key=lambda v: (-scores[v], v))
        assert got == want

    def test_target_rank_agrees_with_sort(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            cand = np.sort(rng.choice(200, size=30, replace=False))
            scores = rng.choice([0.0, 0.25, 0.5], size=30)
            ranking = rank_candidates(dict(zip(cand.tolist(), scores.tolist())))
            target = int(rng.choice(cand))
            assert target_rank(cand, scores, target) == ranking.index(target) + 1

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, -1e300]), min_size=1,
                    max_size=40), st.data())
    def test_target_rank_agrees_with_sort_under_heavy_ties(self, scores, data):
        n = len(scores)
        cand = sorted(data.draw(st.sets(st.integers(0, 3 * n), min_size=n, max_size=n)))
        target = data.draw(st.sampled_from(cand))
        ranking = rank_candidates(dict(zip(cand, scores)))
        got = target_rank(np.array(cand), np.array(scores), target)
        assert type(got) is int and got == ranking.index(target) + 1


class RankScorer:
    """Step s ranks the candidates 0..n-1 by descending score -id and has
    target ranks[s] - 1, so the target lands at rank ranks[s]."""

    name = "ranks"

    def __init__(self, ranks):
        self.ranks = ranks

    def step_scores(self, cascade):
        cand = np.arange(max(self.ranks))
        for rank in self.ranks:
            yield cand, -cand.astype(float), rank - 1


def point_metrics(ranks, k):
    """(table, [(hits@k, map@k) of each step]) from ``evaluate`` on one
    cascade whose step s puts the target at rank ranks[s].  Each step has
    its own prefix length, so its length bucket holds its terms alone."""
    table = evaluate(RankScorer(ranks), [Cascade(tuple(range(len(ranks) + 1)))], ks=(k,))
    return table, [(b[f"hits@{k}"], b[f"map@{k}"]) for b in table.by_prefix_length.values()]


# rank -> (hits@10, map@10): spot values computed by hand
HAND_FIXTURE = [(1, 1, 1.0), (2, 1, 0.5), (3, 1, 1 / 3), (5, 1, 0.2),
                (10, 1, 0.1), (11, 0, 0.0), (12, 0, 0.0), (25, 0, 0.0),
                (4, 1, 0.25), (6, 1, 1 / 6), (100, 0, 0.0), (7, 1, 1 / 7)]


def check_hand_fixture():
    """evaluate's per-instance terms and means on HAND_FIXTURE."""
    table, terms = point_metrics([rank for rank, _, _ in HAND_FIXTURE], 10)
    assert [hit for hit, _ in terms] == [hit for _, hit, _ in HAND_FIXTURE]
    assert [ap for _, ap in terms] == pytest.approx([ap for _, _, ap in HAND_FIXTURE])
    assert table.instances == len(HAND_FIXTURE)
    assert table.value("hits", 10) == pytest.approx(8 / 12)
    assert table.value("map", 10) == pytest.approx((1 + 0.5 + 1/3 + 0.2 + 0.1 + 0.25
                                                    + 1/6 + 1/7) / 12)


class TestPointMetrics:
    def test_hits(self):
        _, terms = point_metrics([1, 10, 11], 10)
        assert [hit for hit, _ in terms] == [1, 1, 0]

    def test_map_single_relevant(self):
        _, terms = point_metrics([1, 3, 20], 10)
        assert [ap for _, ap in terms] == pytest.approx([1.0, 1.0 / 3.0, 0.0])

    def test_rank_must_be_positive(self):
        # A target outside the candidates has no rank >= 1.
        with pytest.raises(ValueError, match="not among candidates"):
            point_metrics([3, 0], 10)

    def test_hand_computed_fixture(self):
        check_hand_fixture()


class StaticScorer:
    """Fixed per-node scores; handy for invariance tests."""

    name = "static"

    def __init__(self, graph, values):
        self.graph = graph
        self.values = np.asarray(values, dtype=float)

    def step_scores(self, cascade):
        m = self.graph.node_count
        active = np.zeros(m, dtype=bool)
        for t, v in enumerate(cascade.nodes, start=1):
            if t >= 2:
                cand = np.flatnonzero(~active)
                yield cand, self._scores(cand, v), v
            active[v] = True

    def _scores(self, cand, target):
        return self.values[cand]


class OracleScorer(StaticScorer):
    """Always puts the true next activation first (evaluation sanity bound)."""

    name = "oracle"

    def __init__(self, graph):
        super().__init__(graph, ())

    def _scores(self, cand, target):
        return (cand == target).astype(float)


class TestEvaluate:
    def _setup(self, rng, m=20, n_casc=8):
        graph = random_graph(rng, m, 3 * m)
        cascades = [random_cascade(rng, m, int(rng.integers(2, 7)))
                    for _ in range(n_casc)]
        return graph, cascades

    def test_oracle_scorer_is_perfect(self):
        rng = np.random.default_rng(42)
        graph, cascades = self._setup(rng)
        table = evaluate(OracleScorer(graph), cascades, ks=(1, 10, 50))
        for key, value in table.values.items():
            assert value == pytest.approx(1.0)

    def test_instance_count(self):
        rng = np.random.default_rng(43)
        graph, cascades = self._setup(rng)
        table = evaluate(OracleScorer(graph), cascades)
        assert table.instances == sum(len(c) - 1 for c in cascades)

    def test_monotone_in_k_and_map_below_hits(self):
        rng = np.random.default_rng(44)
        graph, cascades = self._setup(rng)
        scorer = StaticScorer(graph, rng.normal(size=graph.node_count))
        table = evaluate(scorer, cascades, ks=(1, 5, 10, 50))
        ks = table.ks
        for metric in ("map", "hits"):
            vals = [table.value(metric, k) for k in ks]
            assert vals == sorted(vals)
        for k in ks:
            assert table.value("map", k) <= table.value("hits", k) + 1e-12

    def test_order_invariance(self):
        rng = np.random.default_rng(45)
        graph, cascades = self._setup(rng)
        scorer = StaticScorer(graph, rng.normal(size=graph.node_count))
        a = evaluate(scorer, cascades)
        b = evaluate(scorer, list(reversed(cascades)))
        assert a.values == b.values

    def test_rank_invariance_under_increasing_transform(self):
        rng = np.random.default_rng(46)
        graph, cascades = self._setup(rng)
        base = rng.normal(size=graph.node_count)
        a = evaluate(StaticScorer(graph, base), cascades)
        b = evaluate(StaticScorer(graph, np.exp(2.0 * base) + 5.0), cascades)
        assert a.values == pytest.approx(b.values)

    def test_constant_scorer_matches_tie_rule(self):
        rng = np.random.default_rng(47)
        graph, cascades = self._setup(rng, m=15)
        table = evaluate(StaticScorer(graph, np.zeros(graph.node_count)), cascades, ks=(5,))
        hits = []
        active_sets = []
        for c in cascades:
            for t in range(2, len(c) + 1):
                active = set(c.nodes[: t - 1])
                cand = sorted(set(range(graph.node_count)) - active)
                rank = cand.index(c[t - 1]) + 1
                hits.append(1 if rank <= 5 else 0)
        assert table.value("hits", 5) == pytest.approx(np.mean(hits))

    def test_workers_other_than_one_rejected(self):
        rng = np.random.default_rng(48)
        graph, cascades = self._setup(rng)
        scorer = StaticScorer(graph, rng.normal(size=graph.node_count))
        serial = evaluate(scorer, cascades, workers=1)
        assert serial.values == evaluate(scorer, cascades).values
        with pytest.raises(ValueError, match="workers must be 1"):
            evaluate(scorer, cascades, workers=2)

    def test_k_below_one_rejected(self):
        rng = np.random.default_rng(54)
        graph, cascades = self._setup(rng)
        for ks in ((0,), (10, -3), (0, 5)):
            with pytest.raises(ValueError, match="k must be >= 1"):
                evaluate(OracleScorer(graph), cascades, ks=ks)

    def test_empty_test_set_rejected(self):
        rng = np.random.default_rng(49)
        graph, _ = self._setup(rng)
        with pytest.raises(ValueError):
            evaluate(OracleScorer(graph), [])

    def test_short_cascade_rejected(self):
        rng = np.random.default_rng(50)
        graph, _ = self._setup(rng)
        with pytest.raises(ValueError):
            evaluate(OracleScorer(graph), [Cascade((0,))])

    def test_length_one_cascades_dropped_with_one_warning(self, caplog):
        rng = np.random.default_rng(55)
        graph, cascades = self._setup(rng)
        scorer = StaticScorer(graph, rng.normal(size=graph.node_count))
        with_short = [Cascade((3,))] + cascades[:4] + [Cascade((0,)), Cascade((7,))] + cascades[4:]
        want = evaluate(scorer, cascades)
        with caplog.at_level(logging.WARNING):
            got = evaluate(scorer, with_short)
        assert got.values == want.values
        assert got.instances == want.instances
        assert got.by_prefix_length == want.by_prefix_length
        warnings = [rec.getMessage() for rec in caplog.records]
        assert len(warnings) == 1 and "excluded 3 length-1" in warnings[0]

    def test_uniform_random_scorer_matches_closed_form(self):
        # Hits@10 over m candidates with a random scorer is k/m in
        # expectation; 2e4 instances keep the Monte-Carlo within 3 sigma.
        rng = np.random.default_rng(51)
        m, k, n = 400, 10, 20000
        hits = 0
        cand = np.arange(m)
        for _ in range(n):
            scores = rng.random(m)
            hits += 1 if target_rank(cand, scores, 0) <= k else 0
        p = k / m
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 3 * sigma


class TestModelScorerIntegration:
    def test_model_scorer_runs_and_reports(self):
        rng = np.random.default_rng(52)
        graph = random_graph(rng, 12, 40)
        cascades = [random_cascade(rng, 12, 5) for _ in range(4)]
        model = Model.initialize(ModelConfig(4, 12), rng)
        table = evaluate(ModelScorer(model, graph), cascades, ks=(1, 5))
        assert 0.0 <= table.value("hits", 5) <= 1.0
        assert table.scorer == "topo-lstm"

    @staticmethod
    def _saturated(m, d, rng):
        # Saturated gates make every state [tanh(1) | 1], so the pooled
        # state is tanh(1) in every coordinate and G . pooled = tanh(1) sum(G[w]).
        model = Model.initialize(ModelConfig(d, m), rng)
        model.params.fill(0.0)
        for name in ("b_i", "b_o", "b_c"):
            model.params[name][...] = 1e308
        model.params["b_f"][...] = -1e308
        return model

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_scores_overflowing_across_a_row_raise(self, sign):
        # +inf scores or a row of -inf scores both make the softmax NaN.
        rng = np.random.default_rng(56)
        graph = random_graph(rng, 10, 30)
        model = self._saturated(10, 4, rng)
        model.params["G"][...] = sign * 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="non-finite probabilities"):
                list(ModelScorer(model, graph).step_scores(random_cascade(rng, 10, 4)))

    def test_target_scored_minus_inf_alone_does_not_raise(self):
        # Only the target's score overflows to -inf: its probability is 0 and
        # its loss +inf, every probability stays finite, and the mean NLL is
        # written as null.
        rng = np.random.default_rng(57)
        graph = random_graph(rng, 10, 30)
        model = self._saturated(10, 4, rng)
        cascade = Cascade((0, 1, 2, 3))
        model.params["G"][2] = -1e308
        model.params["b_act"][2] = -1e308
        with np.errstate(over="ignore"):
            steps = list(ModelScorer(model, graph).step_scores(cascade))
            table = evaluate(ModelScorer(model, graph), [cascade], ks=(1, 5))
        for cand, probs, _ in steps:
            assert np.isfinite(probs).all()
        assert steps[1][1][steps[1][0] == 2].tolist() == [0.0]
        assert table.mean_nll == np.inf
        assert table.to_json_dict()["mean_nll"] is None
        assert table.text_rows()[-1].split() == ["NLL", "per", "step", "null"]

    def test_mean_nll_is_the_models_and_stays_out_of_values(self, tmp_path):
        rng = np.random.default_rng(58)
        m = 14
        graph = random_graph(rng, m, 3 * m)
        cascades = [random_cascade(rng, m, int(rng.integers(2, 9))) for _ in range(9)]
        model = Model.initialize(ModelConfig(4, m, "precedent-only"), rng)
        table = evaluate(ModelScorer(model, graph), cascades, ks=(1, 5))
        losses = [forward_cascade(model, graph, c).losses for c in cascades]
        total = 0.0
        for loss in losses:
            total += float(loss.sum())
        assert table.mean_nll == total / sum(loss.size for loss in losses)
        assert set(table.values) == {(metric, k) for metric in ("map", "hits") for k in (1, 5)}
        icsb = evaluate(ICSBScorer(graph, fit_static_bernoulli(graph, cascades)), cascades)
        assert icsb.mean_nll is None
        write_metrics_json(tmp_path / "m.json", [table, icsb], {})
        write_metrics_text(tmp_path / "m.txt", [table, icsb], {})
        results = json.loads((tmp_path / "m.json").read_text())["results"]
        assert results[0]["mean_nll"] == table.mean_nll
        assert "mean_nll" not in results[1]
        text = (tmp_path / "m.txt").read_text()
        assert text.count("NLL per step") == 1
        assert f"NLL per step    {table.mean_nll:.6f}" in text


class TestReports:
    def test_json_and_csv_outputs(self, tmp_path):
        rng = np.random.default_rng(53)
        graph = random_graph(rng, 10, 30)
        cascades = [random_cascade(rng, 10, 4) for _ in range(5)]
        table = evaluate(OracleScorer(graph), cascades, ks=(1, 10))
        write_metrics_json(tmp_path / "m.json", [table], {"seed": 1})
        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["config"] == {"seed": 1}
        entries = {(e["metric"], e["k"]): e for e in doc["results"][0]["metrics"]}
        assert entries[("hits", 10)]["value"] == pytest.approx(1.0)
        assert entries[("hits", 10)]["percent"] == pytest.approx(100.0)
        write_length_buckets_csv(tmp_path / "b.csv", table)
        lines = (tmp_path / "b.csv").read_text().strip().splitlines()
        assert lines[0].startswith("prefix_length,instances")
        assert len(lines) >= 2

    @pytest.mark.parametrize("kind", ["static", "icsb", "model"])
    def test_sums_equal_a_recount_in_instance_order(self, kind):
        # The table and the buckets add one term at a time in instance order,
        # so an explicit acc += term loop in that order gives the same bits.
        rng = np.random.default_rng(59)
        m, ks = 25, (1, 3, 10)
        graph = random_graph(rng, m, 3 * m)
        cascades = [random_cascade(rng, m, int(rng.integers(2, 16))) for _ in range(40)]

        def scorer():
            if kind == "static":
                return StaticScorer(graph, rng.choice([0.0, 0.5, 1.0], size=m))
            if kind == "icsb":
                return ICSBScorer(graph, fit_static_bernoulli(graph, cascades[::2]))
            return ModelScorer(Model.initialize(ModelConfig(3, m), np.random.default_rng(60)),
                               graph)

        state = rng.bit_generator.state
        table = evaluate(scorer(), cascades, ks=ks)
        rng.bit_generator.state = state
        again = scorer()
        keys = [(metric, k) for metric in ("map", "hits") for k in ks]
        acc, buckets, n = dict.fromkeys(keys, 0.0), {}, 0
        for cascade in cascades:
            for length, (cand, scores, target) in enumerate(again.step_scores(cascade), 1):
                rank = rank_candidates(dict(zip(cand.tolist(), scores.tolist()))).index(target) + 1
                bucket = buckets.setdefault(length, [0, dict.fromkeys(keys, 0.0)])
                bucket[0] += 1
                n += 1
                for metric, k in keys:
                    term = (1.0 / rank if rank <= k else 0.0) if metric == "map" \
                        else float(rank <= k)
                    acc[(metric, k)] += term
                    bucket[1][(metric, k)] += term
        assert table.instances == n
        assert table.values == {key: acc[key] / n for key in keys}
        assert table.by_prefix_length == {
            length: {"instances": count, **{f"{metric}@{k}": sums[(metric, k)] / count
                                            for metric, k in keys}}
            for length, (count, sums) in sorted(buckets.items())}
        assert list(table.by_prefix_length) == sorted(buckets)

    def test_length_buckets_and_table_match_a_recount(self):
        rng = np.random.default_rng(55)
        m, ks = 30, (1, 3, 10)
        graph = random_graph(rng, m, 3 * m)
        cascades = [random_cascade(rng, m, int(rng.integers(2, 12))) for _ in range(25)]
        values = rng.normal(size=m)
        table = evaluate(StaticScorer(graph, values), cascades, ks=ks)

        by_length = {}
        for c in cascades:
            for t in range(1, len(c)):
                inactive = set(range(m)) - set(c.nodes[:t])
                order = sorted(inactive, key=lambda v: (-values[v], v))
                by_length.setdefault(t, []).append(order.index(c[t]) + 1)

        def mean(ranks, metric, k):
            return np.mean([(1.0 / r if metric == "map" else 1.0) if r <= k else 0.0
                            for r in ranks])

        everything = [r for ranks in by_length.values() for r in ranks]
        assert sorted(table.by_prefix_length) == sorted(by_length)
        assert sum(b["instances"] for b in table.by_prefix_length.values()) == table.instances
        for metric in ("map", "hits"):
            for k in ks:
                assert table.value(metric, k) == pytest.approx(
                    mean(everything, metric, k), rel=0, abs=1e-12)
                for length, ranks in by_length.items():
                    bucket = table.by_prefix_length[length]
                    assert bucket["instances"] == len(ranks)
                    assert bucket[f"{metric}@{k}"] == pytest.approx(
                        mean(ranks, metric, k), rel=0, abs=1e-12)
