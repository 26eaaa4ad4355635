import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from topolstm.baseline import (EdgeProbabilities, ICSBScorer,
                               fit_static_bernoulli, icsb_score)
from topolstm.errors import DataError
from topolstm.graph import Cascade, DataGraph, build_topologies

from conftest import edge_probs, prob_dict, random_cascade, random_graph


@st.composite
def graphs_and_cascades(draw):
    """A graph of up to 7 nodes (possibly edgeless) and up to 6 cascades."""
    m = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(m) for v in range(m) if u != v]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))) if pairs else set()
    cascades = draw(st.lists(st.permutations(range(m)).flatmap(
        lambda perm: st.integers(1, m).map(lambda k: tuple(perm[:k]))), max_size=6))
    return m, sorted(edges), cascades


def assert_fit_and_steps_match_oracle(m, edges, cascades):
    graph = DataGraph.from_edges(m, edges)
    cascades = [Cascade(c) for c in cascades]
    fitted = fit_static_bernoulli(graph, cascades)
    assert prob_dict(fitted) == oracle.recount_oracle(graph, cascades)
    scorer = ICSBScorer(graph, fitted)
    for cascade in cascades:
        steps = list(scorer.step_scores(cascade))
        assert len(steps) == len(cascade) - 1
        for t, (cand, scores, target) in enumerate(steps, start=2):
            want = oracle.noisy_or_scores(graph, prob_dict(fitted), cascade, t)
            assert target == cascade[t - 1]
            assert cand.tolist() == sorted(want)
            assert scores.tolist() == [want[w] for w in cand.tolist()]


class TestFitStaticBernoulli:
    def test_direct_count(self):
        g = DataGraph.from_edges(3, [(0, 1)])
        cascades = [Cascade((0, 1)), Cascade((0, 2, 1)), Cascade((0,)),
                    Cascade((1, 0)), Cascade((2,))]
        probs = fit_static_bernoulli(g, cascades)
        # node 0 active in 4 cascades; node 1 follows it in 2 of them
        assert probs.p[g.edge_id(0, 1)] == pytest.approx(0.5)

    def test_source_never_active_gives_zero(self):
        g = DataGraph.from_edges(3, [(2, 0)])
        probs = fit_static_bernoulli(g, [Cascade((0, 1))])
        assert probs.p[g.edge_id(2, 0)] == 0.0

    def test_matches_recount_oracle(self):
        rng = np.random.default_rng(30)
        g = random_graph(rng, 10, 30)
        cascades = [random_cascade(rng, 10, int(rng.integers(1, 8)))
                    for _ in range(30)]
        got = fit_static_bernoulli(g, cascades)
        assert prob_dict(got) == oracle.recount_oracle(g, cascades)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(graphs_and_cascades())
    @example((3, [], [(0, 1, 2), (2,)]))                      # edgeless graph
    @example((3, [(0, 1), (1, 2)], [(0,), (1,), (2,)]))      # length-1 cascades
    @example((3, [(2, 0), (0, 1)], [(0, 1), (1, 0)]))        # source 2 never activates
    @example((2, [(0, 1)], [(1, 0), (1, 0), (0, 1)]))        # target before source
    @example((4, [(0, 3), (1, 3), (2, 3)], [(0, 1, 2, 3), (2, 0, 3)]))  # several precedents
    def test_fit_and_scorer_match_oracle(self, case):
        assert_fit_and_steps_match_oracle(*case)

    def test_chunked_passes_match_one_pass(self, monkeypatch):
        # Passes of a few out-edges each, spanning one cascade, count the same.
        rng = np.random.default_rng(34)
        g = random_graph(rng, 30, 150)
        cascades = [random_cascade(rng, 30, int(rng.integers(1, 20))) for _ in range(25)]
        whole = fit_static_bernoulli(g, cascades)
        monkeypatch.setattr("topolstm.graph.FIT_CHUNK", 5)
        np.testing.assert_array_equal(fit_static_bernoulli(g, cascades).p, whole.p)

    @pytest.mark.parametrize("per_node, extra, passes", [
        (0, 1, 25), (1, -1, 25), (1, 0, 25), (3, 0, 9), (0, 10**6, 1),
    ], ids=["1", "m-1", "m", "3m", "1e6"])
    def test_passes_of_any_size_match_oracle(self, monkeypatch, per_node, extra, passes):
        # FIT_CHUNK = per_node * m + extra: one cascade, three cascades or all
        # 25 of them per pass, each pass reading its out-edges in one call.
        rng = np.random.default_rng(35)
        m = 30
        g = random_graph(rng, m, 150)
        cascades = [random_cascade(rng, m, int(rng.integers(1, 20))) for _ in range(25)]
        monkeypatch.setattr("topolstm.graph.FIT_CHUNK", per_node * m + extra)
        calls = []
        out_edges = DataGraph.out_edges
        monkeypatch.setattr(DataGraph, "out_edges",
                            lambda graph, nodes: calls.append(nodes.size) or out_edges(graph, nodes))
        assert prob_dict(fit_static_bernoulli(g, cascades)) == oracle.recount_oracle(g, cascades)
        assert len(calls) == passes
        assert sum(calls) == sum(map(len, cascades))

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(31)
        g = random_graph(rng, 8, 20)
        cascades = [random_cascade(rng, 8, 4) for _ in range(15)]
        probs = fit_static_bernoulli(g, cascades)
        assert probs.p.shape == (g.edge_count,)
        assert ((probs.p >= 0.0) & (probs.p <= 1.0)).all()


class TestIcsbScore:
    def test_single_precedent(self):
        g = DataGraph.from_edges(3, [(0, 1), (0, 2)])
        probs = edge_probs(g, {(0, 1): 0.3, (0, 2): 0.0})
        scores = icsb_score(probs, build_topologies(g, Cascade((0, 1)))[1])
        assert scores[1] == pytest.approx(0.3)
        assert scores[2] == pytest.approx(0.0)

    def test_two_precedents_closed_form(self):
        g = DataGraph.from_edges(3, [(0, 2), (1, 2)])
        probs = edge_probs(g, {(0, 2): 0.5, (1, 2): 0.5})
        scores = icsb_score(probs, build_topologies(g, Cascade((0, 1, 2)))[2])
        assert scores[2] == pytest.approx(0.75)

    def test_certain_edge_absorbs(self):
        g = DataGraph.from_edges(4, [(0, 3), (1, 3), (2, 3)])
        probs = edge_probs(g, {(0, 3): 1.0, (1, 3): 0.2, (2, 3): 0.9})
        scores = icsb_score(probs, build_topologies(g, Cascade((0, 1, 2, 3)))[3])
        assert scores[3] == pytest.approx(1.0)

    def test_empty_precedents_score_zero(self):
        g = DataGraph.from_edges(3, [(0, 1)])
        probs = edge_probs(g, {(0, 1): 0.8})
        scores = icsb_score(probs, build_topologies(g, Cascade((0, 1)))[1])
        assert scores[2] == 0.0

    def test_monotone_in_added_precedents(self):
        g = DataGraph.from_edges(4, [(0, 3), (1, 3), (2, 3)])
        probs = edge_probs(g, {(0, 3): 0.4, (1, 3): 0.25, (2, 3): 0.6})
        cascade = Cascade((0, 1, 2))
        values = [icsb_score(probs, build_topologies(g, cascade)[t - 1])[3]
                  for t in (2, 3, 4)]
        assert values[0] <= values[1] <= values[2]
        assert all(0.0 <= s <= 1.0 for s in values)

    def test_zero_probability_precedent_is_noop(self):
        g = DataGraph.from_edges(3, [(0, 2), (1, 2)])
        probs = edge_probs(g, {(0, 2): 0.35, (1, 2): 0.0})
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
        probs = EdgeProbabilities(g, [0.25, 1.0 / 3.0])
        path = tmp_path / "probs.txt"
        probs.save(path, header="u v p")
        assert path.read_text().splitlines() == ["# u v p", "x y 0.25", f"y z {1.0 / 3.0!r}"]
        again = EdgeProbabilities.load(path, g)
        np.testing.assert_array_equal(again.p, probs.p)

    def test_numpy_values_round_trip(self, tmp_path):
        g = DataGraph.from_edges(3, [(0, 1), (1, 2)])
        probs = EdgeProbabilities(g, np.array([0.6, 0.0]))
        probs.save(tmp_path / "probs.txt")
        assert "np.float64" not in (tmp_path / "probs.txt").read_text()
        np.testing.assert_array_equal(EdgeProbabilities.load(tmp_path / "probs.txt", g).p, probs.p)

    def test_rejects_out_of_range(self):
        g = DataGraph.from_edges(3, [(0, 1), (1, 2)])
        for bad in (1.5, -0.1, np.nan):
            with pytest.raises(ValueError, match=r"for edge \(1, 2\) outside"):
                EdgeProbabilities(g, [0.5, bad])
        with pytest.raises(ValueError, match="need 2 edge probabilities"):
            EdgeProbabilities(g, [0.5])

    @pytest.mark.parametrize("lines, bad_line, what", [
        (["0 1 0.5", "3 5 0.9"], 2, "not an edge"),
        (["# u v p", "0 1 0.5", "5 3 0.9", "0 1 0.7"], 4, "given twice"),
        (["0 1 0.5", "5 zz 0.9"], 2, "unknown node label 'zz'"),
    ])
    def test_rejects_lines_scoring_would_ignore(self, tmp_path, lines, bad_line, what):
        g = DataGraph.from_edges(6, [(0, 1), (5, 3)])
        path = tmp_path / "probs.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"line {bad_line}: .*{what}"):
            EdgeProbabilities.load(path, g)

    @pytest.mark.parametrize("value", ["x", "nan", "1.5", "-0.1", "inf"])
    def test_rejects_bad_probability_naming_the_line(self, tmp_path, value):
        g = DataGraph.from_edges(6, [(0, 1), (5, 3)])
        path = tmp_path / "probs.txt"
        path.write_text(f"# u v p\n0 1 0.5\n5 3 {value}\n")
        with pytest.raises(DataError, match=rf"line 3: p = '{value}' is not a number in \[0, 1\]"):
            EdgeProbabilities.load(path, g)

    def test_edges_the_file_omits_get_zero(self, tmp_path):
        g = DataGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        path = tmp_path / "probs.txt"
        path.write_text("1 2 0.75\n")
        probs = EdgeProbabilities.load(path, g)
        assert probs.p.tolist() == [0.0, 0.75, 0.0]
        assert prob_dict(probs) == {(0, 1): 0.0, (1, 2): 0.75, (2, 0): 0.0}
