import numpy as np
import pytest

from topolstm.baseline import (EdgeProbabilities, ICSBScorer,
                               fit_static_bernoulli, icsb_score)
from topolstm.graph import Cascade, DataGraph, build_topologies

from conftest import random_cascade, random_graph


def recount_oracle(graph, cascades):
    """Exhaustive recount over every (edge, cascade) pair."""
    probs = {}
    for (u, v) in graph.edges:
        num = den = 0
        for c in cascades:
            nodes = list(c.nodes)
            if u in nodes:
                den += 1
                if v in nodes and nodes.index(v) > nodes.index(u):
                    num += 1
        probs[(u, v)] = num / den if den else 0.0
    return probs


class TestFitStaticBernoulli:
    def test_direct_count(self):
        g = DataGraph.from_edges(3, [(0, 1)])
        cascades = [Cascade((0, 1)), Cascade((0, 2, 1)), Cascade((0,)),
                    Cascade((1, 0)), Cascade((2,))]
        probs = fit_static_bernoulli(g, cascades)
        # node 0 active in 4 cascades; node 1 follows it in 2 of them
        assert probs.get(0, 1) == pytest.approx(0.5)

    def test_source_never_active_gives_zero(self):
        g = DataGraph.from_edges(3, [(2, 0)])
        probs = fit_static_bernoulli(g, [Cascade((0, 1))])
        assert probs.get(2, 0) == 0.0

    def test_matches_recount_oracle(self):
        rng = np.random.default_rng(30)
        g = random_graph(rng, 10, 30)
        cascades = [random_cascade(rng, 10, int(rng.integers(1, 8)))
                    for _ in range(30)]
        got = fit_static_bernoulli(g, cascades)
        want = recount_oracle(g, cascades)
        assert set(got.probs) == set(want)
        for edge, p in want.items():
            assert got.probs[edge] == pytest.approx(p)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(31)
        g = random_graph(rng, 8, 20)
        cascades = [random_cascade(rng, 8, 4) for _ in range(15)]
        probs = fit_static_bernoulli(g, cascades)
        assert all(0.0 <= p <= 1.0 for p in probs.probs.values())


class TestIcsbScore:
    def test_single_precedent(self):
        g = DataGraph.from_edges(3, [(0, 1), (0, 2)])
        probs = EdgeProbabilities({(0, 1): 0.3, (0, 2): 0.0})
        scores = icsb_score(probs, build_topologies(g, Cascade((0, 1)))[1])
        assert scores[1] == pytest.approx(0.3)
        assert scores[2] == pytest.approx(0.0)

    def test_two_precedents_closed_form(self):
        g = DataGraph.from_edges(3, [(0, 2), (1, 2)])
        probs = EdgeProbabilities({(0, 2): 0.5, (1, 2): 0.5})
        scores = icsb_score(probs, build_topologies(g, Cascade((0, 1, 2)))[2])
        assert scores[2] == pytest.approx(0.75)

    def test_certain_edge_absorbs(self):
        g = DataGraph.from_edges(4, [(0, 3), (1, 3), (2, 3)])
        probs = EdgeProbabilities({(0, 3): 1.0, (1, 3): 0.2, (2, 3): 0.9})
        scores = icsb_score(probs, build_topologies(g, Cascade((0, 1, 2, 3)))[3])
        assert scores[3] == pytest.approx(1.0)

    def test_empty_precedents_score_zero(self):
        g = DataGraph.from_edges(3, [(0, 1)])
        probs = EdgeProbabilities({(0, 1): 0.8})
        scores = icsb_score(probs, build_topologies(g, Cascade((0, 1)))[1])
        assert scores[2] == 0.0

    def test_monotone_in_added_precedents(self):
        g = DataGraph.from_edges(4, [(0, 3), (1, 3), (2, 3)])
        probs = EdgeProbabilities({(0, 3): 0.4, (1, 3): 0.25, (2, 3): 0.6})
        cascade = Cascade((0, 1, 2))
        values = [icsb_score(probs, build_topologies(g, cascade)[t - 1])[3]
                  for t in (2, 3, 4)]
        assert values[0] <= values[1] <= values[2]
        assert all(0.0 <= s <= 1.0 for s in values)

    def test_zero_probability_precedent_is_noop(self):
        g = DataGraph.from_edges(3, [(0, 2), (1, 2)])
        probs = EdgeProbabilities({(0, 2): 0.35, (1, 2): 0.0})
        with_one = icsb_score(probs, build_topologies(g, Cascade((0, 1)))[1])
        with_two = icsb_score(probs, build_topologies(g, Cascade((0, 1)))[2])
        assert with_one[2] == pytest.approx(with_two[2])

    def test_scorer_matches_contract_function(self):
        rng = np.random.default_rng(32)
        g = random_graph(rng, 12, 40)
        cascades = [random_cascade(rng, 12, 6) for _ in range(10)]
        probs = fit_static_bernoulli(g, cascades)
        scorer = ICSBScorer(g, probs)
        cascade = cascades[0]
        for step_idx, (cand, scores, target) in enumerate(
                scorer.step_scores(cascade)):
            t = step_idx + 2
            want = icsb_score(probs, build_topologies(g, cascade)[t - 1])
            assert target == cascade[t - 1]
            for node, score in zip(cand, scores):
                assert score == pytest.approx(want[int(node)], abs=1e-12)


class TestEdgeProbabilitiesIO:
    def test_round_trip(self, tmp_path):
        g = DataGraph.from_edges(3, [(0, 1), (1, 2)], labels=("x", "y", "z"))
        probs = EdgeProbabilities({(0, 1): 0.25, (1, 2): 1.0 / 3.0})
        path = tmp_path / "probs.txt"
        probs.save(path, g, header="u v p")
        again = EdgeProbabilities.load(path, g)
        assert again.probs == probs.probs

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            EdgeProbabilities({(0, 1): 1.5})
