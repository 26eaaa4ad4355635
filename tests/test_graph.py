import logging
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from topolstm.baseline import EdgeProbabilities
from topolstm.errors import DataError
from topolstm.graph import (Cascade, DataGraph, build_topologies, load_cascades,
                            load_graph, load_graph_file, read_records, save_graph_file,
                            stripped_line, write_lines)
from topolstm.model import Model, ModelConfig, forward_cascade

from conftest import precedent_rows, random_cascade, random_graph


def csr_rows(graph):
    return [graph.out_idx[graph.out_ptr[u]:graph.out_ptr[u + 1]].tolist()
            for u in range(graph.node_count)]


class TestLoadGraph:
    def test_three_lines_directed(self):
        g = load_graph("a b\nb c\na c\n")
        assert g.node_count == 3
        assert g.edge_count == 3
        assert g.edge_id(g.id_of("a"), g.id_of("b")) >= 0

    def test_empty_file(self):
        g = load_graph("")
        assert g.node_count == 0
        assert g.edge_count == 0

    def test_duplicate_edge_warns_and_dedupes(self, caplog):
        with caplog.at_level(logging.WARNING):
            g = load_graph("a b\na b\n")
        assert g.edge_count == 1
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_undirected_flag_doubles_edges(self):
        g = load_graph("a b\nb c\n", undirected=True)
        assert g.edge_count == 4
        assert g.edge_id(g.id_of("b"), g.id_of("a")) >= 0

    def test_self_loop_rejected_with_line(self):
        with pytest.raises(DataError, match="line 2.*self-loop"):
            load_graph("a b\nc c\n")

    def test_malformed_line_rejected_with_line(self):
        with pytest.raises(DataError, match="line 1"):
            load_graph("a b c\n")

    def test_comments_and_blanks_ignored(self):
        g = load_graph("# header\n\na b\n")
        assert g.edge_count == 1

    def test_label_starting_with_hash_rejected_with_line(self):
        # Saved as the first field of a line, such a label would read back as a comment.
        with pytest.raises(DataError, match=r"^graph line 2: label '#b' starts with '#'$"):
            load_graph("x y\na #b\nc c\n", undirected=True)
        assert load_graph("a b#\n").labels == ("a", "b#")


class TestLineFormat:
    def test_records_number_every_line_and_quote_it_stripped(self):
        text = "# header\n\n  a\tb  \n   # indented comment\nc d e\r\n"
        fields, ptr, lineno = read_records(text)
        assert fields == ["a", "b", "c", "d", "e"]
        assert ptr.tolist() == [0, 2, 5] and lineno.tolist() == [3, 5]
        assert [stripped_line(text, n) for n in lineno.tolist()] == ["a\tb", "c d e"]

    def test_whitespace_and_breaks_are_pythons(self):
        # Every ASCII character, and every other one that str.split or
        # str.splitlines treats as a separator.
        special = [c for c in map(chr, range(128, sys.maxunicode + 1))
                   if c.isspace() or len(f"a{c}b".splitlines()) == 2]
        for c in [*map(chr, range(128)), *special]:
            for text in (f"a{c}b", f"a{c}#b{c}c", f"{c}a b{c}", f"é{c}a\r{c}\nb{c}"):
                want = list(oracle.records(text))
                fields, ptr, lineno = read_records(text)
                assert fields == [f for _, _, parts in want for f in parts], repr(text)
                assert ptr.tolist() == np.cumsum([0] + [len(p) for _, _, p in want]).tolist()
                assert lineno.tolist() == [n for n, _, _ in want], repr(text)

    def test_malformed_line_quoted_stripped(self):
        with pytest.raises(DataError, match=r"graph line 2: expected 'src dst', got 'a b c'$"):
            load_graph("x y\n  a b c  \n")

    @pytest.mark.parametrize("header, want", [(None, "1 2\nx\n"), ("", "1 2\nx\n"),
                                              ("h", "# h\n1 2\nx\n")])
    def test_write_lines_header_then_records(self, tmp_path, header, want):
        write_lines(tmp_path / "f.txt", iter(["1 2", "x"]), header)
        assert (tmp_path / "f.txt").read_bytes() == want.encode()


class TestOutAdjacency:
    def test_csr_reproduces_out(self):
        g = random_graph(np.random.default_rng(9), 15, 50)
        want = [sorted(v for (u, v) in oracle.edge_set(g) if u == w) for w in range(15)]
        assert g.out_ptr.dtype == g.out_idx.dtype == np.intp
        assert g.out_ptr.size == g.node_count + 1 and g.out_idx.size == g.edge_count
        assert csr_rows(g) == want
        for arr in (g.out_ptr, g.out_idx, g.edge_key):
            assert not arr.flags.writeable
        src, dst = g.edge_pairs()
        assert [g.edge_id(u, v) for u, v in zip(src.tolist(), dst.tolist())] \
            == list(range(g.edge_count))
        np.testing.assert_array_equal(g.edge_id(src, dst), np.arange(g.edge_count))
        assert g.edge_id(-1, 0) == g.edge_id(15, 0) == g.edge_id(0, 15) == -1
        np.testing.assert_array_equal(g.edge_id(np.array([-1, 0, 1]), np.array([0, 15, 16])),
                                      [-1, -1, -1])

    def test_constructor_checks_offsets(self):
        with pytest.raises(ValueError, match="node_count \\+ 1 offsets"):
            DataGraph(("a", "b"), [0, 1], [1])
        with pytest.raises(ValueError, match="node_count \\+ 1 offsets"):
            DataGraph(("a", "b"), [0, 1, 2], [1])

    @pytest.mark.parametrize("row", [[2, 1], [1, 1]], ids=["unsorted", "repeated"])
    def test_constructor_refuses_a_row_not_strictly_ascending(self, row):
        with pytest.raises(ValueError, match="strictly ascending"):
            DataGraph(("a", "b", "c"), [0, 2, 2, 2], row)
        DataGraph(("a", "b", "c"), [0, 1, 1, 2], row)   # the same ids in two rows

    @pytest.mark.parametrize("row", [[5], [-1], [0]], ids=["past-the-last-node", "negative",
                                                          "self-loop"])
    def test_constructor_refuses_an_id_out_of_range_or_a_self_loop(self, row):
        with pytest.raises(ValueError, match="node ids in \\[0, node_count\\), none its own"):
            DataGraph(("a", "b"), [0, 1, 1], row)
        DataGraph(("a", "b"), [0, 1, 1], [1])

    def test_constructor_refuses_a_repeated_label(self):
        # Two nodes labelled "a" would be saved as the self-loop "a a".
        with pytest.raises(ValueError, match="labels must be distinct"):
            DataGraph.from_edges(3, [(0, 1), (1, 2)], labels=("a", "a", "b"))
        with pytest.raises(ValueError, match="labels must be distinct"):
            DataGraph(("a", "b", "a"), [0, 1, 1, 1], [1])

    def test_edgeless_and_empty(self):
        for g in (DataGraph.from_edges(3, []), load_graph("")):
            assert g.out_ptr.tolist() == [0] * (g.node_count + 1) and g.out_idx.size == 0
            row, target, edge = g.out_edges(np.arange(g.node_count))
            assert row.size == target.size == edge.size == 0

    def test_out_edges_in_row_order(self):
        g = random_graph(np.random.default_rng(10), 15, 50)
        rows = csr_rows(g)
        nodes = np.array([4, 0, 11, 7, 4])
        row, target, edge = g.out_edges(nodes)
        assert list(zip(row.tolist(), target.tolist())) \
            == [(r, v) for r, u in enumerate(nodes.tolist()) for v in rows[u]]
        np.testing.assert_array_equal(g.out_idx[edge], target)

    def test_from_edges_reports_the_first_bad_pair(self):
        with pytest.raises(ValueError, match=r"edge \(0, 3\) out of range for 3 nodes"):
            DataGraph.from_edges(3, [(0, 1), (0, 3), (2, 2)])
        with pytest.raises(DataError, match="self-loop on node 2"):
            DataGraph.from_edges(3, [(0, 1), (2, 2), (0, 3)])


@st.composite
def pair_lists(draw):
    """Up to 8 nodes and a list of (src, dst) pairs with repeats, no self-loops."""
    m = draw(st.integers(2, 8))
    pair = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)).filter(lambda p: p[0] != p[1])
    return m, draw(st.lists(pair, max_size=30))


def load_with_warnings(text, undirected):
    """load_graph's graph and the messages it logged."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("topolstm.graph")
    logger.addHandler(handler)
    try:
        return load_graph(text, undirected=undirected), messages
    finally:
        logger.removeHandler(handler)


class TestGraphBuilderAgainstSetModel:
    """from_edges and load_graph against a Python set of pairs; this is what
    keeps the oracle's ``edge_set`` (read off the CSR) honest."""

    @staticmethod
    def assert_matches(g, want):
        m = g.node_count
        assert csr_rows(g) == [sorted(v for (u, v) in want if u == w) for w in range(m)]
        assert oracle.edge_set(g) == want and g.edge_count == len(want)
        for u in range(m):
            for v in range(m):
                e = g.edge_id(u, v)
                assert (e >= 0) == ((u, v) in want)
                if e >= 0:
                    assert g.out_ptr[u] <= e < g.out_ptr[u + 1] and g.out_idx[e] == v

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(pair_lists(), st.booleans())
    def test_builders_match_set_model(self, case, undirected):
        m, pairs = case
        if undirected:
            pairs = [p for u, v in pairs for p in ((u, v), (v, u))]
        self.assert_matches(DataGraph.from_edges(m, pairs), set(pairs))

        text = "".join(f"n{u} n{v}\n" for u, v in case[1])
        g, messages = load_with_warnings(text, undirected)
        want = {(g.id_of(f"n{u}"), g.id_of(f"n{v}")) for u, v in pairs}
        self.assert_matches(g, want)
        duplicates = len(pairs) - len(want)
        assert messages == ([f"dropped {duplicates} duplicate edge(s) while loading graph"]
                            if duplicates else [])

        with tempfile.TemporaryDirectory() as tmp:
            save_graph_file(Path(tmp) / "graph.txt", g, header="src dst")
            again = load_graph_file(Path(tmp) / "graph.txt")
        # Reloading interns labels in the file's (CSR) order, which may
        # renumber them; the labelled edges are the same.
        assert sorted(again.labels) == sorted(g.labels)
        labelled = {(g.labels[u], g.labels[v]) for u, v in want}
        assert {(again.labels[u], again.labels[v]) for u, v in oracle.edge_set(again)} == labelled
        self.assert_matches(again, oracle.edge_set(again))


class TestLoadCascades:
    def test_basic(self):
        g = load_graph("a b\nb c\n")
        cascades = load_cascades("a b c\nb c\n", g)
        assert [len(c) for c in cascades] == [3, 2]

    def test_unknown_nodes_listed(self):
        g = load_graph("a b\n")
        with pytest.raises(DataError) as exc:
            load_cascades("a x\nb y\n", g)
        assert "'x'" in str(exc.value) and "'y'" in str(exc.value)

    def test_repeated_node_rejected(self):
        g = load_graph("a b\nb c\n")
        with pytest.raises(DataError, match="line 1"):
            load_cascades("a b a\n", g)


# Fields and separators the line reader treats specially, mixed with any
# other text: '#' comments, Unicode line breaks and whitespace, numbers that
# do not parse to a finite float.
FUZZ_TOKENS = ("#", "\x0b", "\x85", "\u2028", "\r", "\t", " ", "\n", "nan", "-nan",
               "inf", "1e400", "-0", "0.5", "2", "0", "1", "a", "0 1", "1 2 0.5")
fuzz_text = st.lists(st.sampled_from(FUZZ_TOKENS)
                     | st.text(st.characters(exclude_categories=("Cs",)), max_size=5),
                     max_size=24).map("".join)


class TestReaderFuzz:
    """Any text makes a reader return or raise DataError / ValueError; under
    the project's filterwarnings = error a warning would escape as well."""

    GRAPH = load_graph("0 1\n1 2\n2 0\n")

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(fuzz_text, st.booleans())
    def test_load_graph(self, text, undirected):
        try:
            load_graph(text, undirected=undirected)
        except (DataError, ValueError):
            pass

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(fuzz_text)
    def test_load_cascades(self, text):
        try:
            load_cascades(text, self.GRAPH)
        except (DataError, ValueError):
            pass

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(fuzz_text)
    def test_edge_probabilities_load(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "probs.txt"
            path.write_text(text, encoding="utf-8")
            try:
                EdgeProbabilities.load(path, self.GRAPH)
            except (DataError, ValueError):
                pass


# Structured texts for the reader tests: labels with '#' first or inside
# and non-ASCII labels, edges and probability values of READER_GRAPH mixed
# with any fields; separators that are whitespace but no line break; every
# line break of str.splitlines.
READER_EDGES = (("a", "b"), ("b", "c"), ("c", "a"), ("a", "a#b"), ("é", "b#"), ("x", "é"))
READER_GRAPH = "".join(f"{u} {v}\n" for u, v in READER_EDGES)
READER_LABELS = ("a", "b", "c", "a#b", "é", "b#", "#", "x")
READER_SPACES = (" ", "\t", "\x1f", "\xa0", "\u3000", "\u2000")
READER_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                 "\u2028", "\u2029")
label = st.sampled_from(READER_LABELS)
any_fields = st.lists(label | st.sampled_from(("#a", "y", "0.5", "0", "1", "nan", "-0", "1e400")),
                      max_size=4)
graph_fields = st.lists(label, min_size=2, max_size=2) | any_fields
cascade_fields = st.lists(label, max_size=4) | any_fields
edge_line = st.builds(lambda edge, p: [*edge, p], st.sampled_from(READER_EDGES),
                      st.sampled_from(("0.5", "0", "1", "-0", "0.25")))
probability_fields = edge_line | edge_line | st.builds(
    lambda edge, p: [*edge, p], st.sampled_from(READER_EDGES + (("a", "c"),)),
    st.sampled_from(("0.5", "nan", "1.5", "x"))) | any_fields
padding = st.sampled_from(("",) + READER_SPACES + ("  ",))


def structured_text(fields):
    """Up to 8 lines, each of ``fields`` joined by one separator between
    optional leading and trailing whitespace, ended by random line breaks."""
    line = st.builds(lambda lead, sep, parts, trail: lead + sep.join(parts) + trail,
                     padding, st.sampled_from(READER_SPACES), fields, padding)
    ends = st.lists(st.sampled_from(READER_BREAKS), min_size=8, max_size=8)
    return st.builds(lambda lines, ends, last: "".join(map(str.__add__, lines, ends)) + last,
                     st.lists(line, max_size=8), ends, st.sampled_from(("",) + READER_BREAKS))


def outcome(read, *args):
    """What a reader returned, in comparable form, or the type and message
    of what it raised; with the warnings it logged either way."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("topolstm.graph")
    logger.addHandler(handler)
    try:
        got = read(*args)
    except (DataError, ValueError) as exc:
        return type(exc), str(exc), messages
    finally:
        logger.removeHandler(handler)
    if isinstance(got, DataGraph):
        got = got.labels, got.out_ptr.tolist(), got.out_idx.tolist()
    elif isinstance(got, EdgeProbabilities):
        got = got.p.tobytes()
    else:
        got = [c.nodes for c in got]
    return got, messages


class TestReaderAgainstOracle:
    """The whole-file readers against the line-at-a-time ones in ``oracle``:
    same result, or the same exception type and message, and the same
    warnings."""

    GRAPH = load_graph(READER_GRAPH)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(fuzz_text | structured_text(graph_fields), st.booleans())
    def test_load_graph(self, text, undirected):
        assert outcome(load_graph, text, undirected) == outcome(oracle.load_graph, text,
                                                                 undirected)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(fuzz_text | structured_text(cascade_fields))
    def test_load_cascades(self, text):
        assert outcome(load_cascades, text, self.GRAPH) \
            == outcome(oracle.load_cascades, text, self.GRAPH)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(fuzz_text | structured_text(probability_fields))
    def test_edge_probabilities_load(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "probs.txt"
            path.write_text(text, encoding="utf-8")
            assert outcome(EdgeProbabilities.load, path, self.GRAPH) \
                == outcome(oracle.load_edge_probabilities, path, self.GRAPH)


class TestLabelMapping:
    def test_round_trip(self, tmp_path):
        g = load_graph("alpha beta\nbeta gamma\n")
        from topolstm.graph import save_labels
        save_labels(tmp_path / "labels.txt", g, header="label id")
        lines = (tmp_path / "labels.txt").read_text().splitlines()
        assert lines[0] == "# label id"
        assert [line.split() for line in lines[1:]] == [
            [label, str(i)] for i, label in enumerate(g.labels)]


class TestCascade:
    def test_requires_distinct_nodes(self):
        with pytest.raises(ValueError):
            Cascade((1, 1))

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            Cascade(())


def index_rows(graph, cascade):
    """The production CSR precedent index of a cascade, one row per activation."""
    model = Model.initialize(ModelConfig(1, graph.node_count), np.random.default_rng(0))
    return precedent_rows(forward_cascade(model, graph, cascade, compute_loss=False).rows)


def assert_view_matches_oracle(graph, cascade, view, t):
    """The view's active prefix and every node's precedents, against brute force."""
    assert view.time == t and view.active_prefix == cascade.nodes[: t - 1]
    for v in range(graph.node_count):
        assert list(view.precedents(v)) == oracle.precedents(graph, cascade, t, v)


class TestTopologyRunningExample:
    def test_t2_edges(self, running_example):
        graph, cascade = running_example
        assert oracle.attempt_edges(graph, cascade, 2) == {(0, 1), (0, 2), (0, 5)}
        assert build_topologies(graph, cascade)[1].precedents(1) == (0,)

    def test_extend_to_t3(self, running_example):
        graph, cascade = running_example
        assert oracle.attempt_edges(graph, cascade, 3) == {
            (0, 1), (0, 2), (0, 5), (1, 2), (1, 4)}
        topo3 = build_topologies(graph, cascade)[2]
        assert topo3.precedents(2) == (0, 1)
        assert topo3.precedents(4) == (1,)

    def test_precedent_sets(self, running_example):
        graph, cascade = running_example
        topos = build_topologies(graph, cascade)
        assert topos[1].precedents(1) == (0,)      # B at t=2
        assert topos[2].precedents(2) == (0, 1)    # C at t=3
        assert topos[3].precedents(3) == ()        # D at t=4
        assert index_rows(graph, cascade) == [[], [0], [0, 1], []]

    def test_late_activator_keeps_inbound_edges(self, running_example):
        # (A,B) stays in the topology after B activates.
        graph, cascade = running_example
        assert (0, 1) in oracle.attempt_edges(graph, cascade, 4)
        assert build_topologies(graph, cascade)[3].precedents(1) == (0,)

    def test_edges_into_earlier_active_excluded(self, running_example):
        # D -> E joins when D activates; nothing points back into A..C.
        graph, cascade = running_example
        edges = oracle.attempt_edges(graph, cascade, 5)
        assert (3, 4) in edges
        assert all(dst != 0 for (_, dst) in edges)
        assert build_topologies(graph, cascade)[4].precedents(0) == ()


class TestTopologyContracts:
    def test_t1_is_empty(self, running_example):
        graph, cascade = running_example
        topo = build_topologies(graph, cascade)[0]
        assert oracle.attempt_edges(graph, cascade, 1) == set()
        assert topo.active_prefix == ()
        assert all(topo.precedents(v) == () for v in range(graph.node_count))

    def test_node_outside_graph_rejected(self, running_example):
        graph, _ = running_example
        with pytest.raises(ValueError, match="node 7 out of range"):
            build_topologies(graph, Cascade((0, 7, 1)))

    def test_extend_zero_outdegree_only_bumps_time(self):
        g = DataGraph.from_edges(3, [(0, 1)])
        cascade = Cascade((0, 1))
        before, after = build_topologies(g, cascade)[1:]
        assert after.time == before.time + 1 == 3   # node 1 has no successors
        assert oracle.attempt_edges(g, cascade, 3) == oracle.attempt_edges(g, cascade, 2)
        assert all(after.precedents(v) == before.precedents(v) for v in range(3))

    def test_inactive_node_without_active_neighbors(self, running_example):
        graph, cascade = running_example
        # G's only in-neighbour C is inactive at t = 3.
        assert build_topologies(graph, cascade)[2].precedents(6) == ()
        assert oracle.precedents(graph, cascade, 3, 6) == []


class TestTopologyOracle:
    def test_matches_brute_force_on_random_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = int(rng.integers(4, 16))
            graph = random_graph(rng, m, int(rng.integers(4, 40)))
            T = int(rng.integers(1, min(m, 7) + 1))
            cascade = random_cascade(rng, m, T)
            t = int(rng.integers(1, T + 2))
            assert_view_matches_oracle(graph, cascade, build_topologies(graph, cascade)[t - 1], t)

    def test_fixed_15_node_example(self):
        rng = np.random.default_rng(15)
        graph = random_graph(rng, 15, 40)
        cascade = random_cascade(rng, 15, 6)
        assert_view_matches_oracle(graph, cascade, build_topologies(graph, cascade)[3], 4)

    def test_incremental_equals_fresh_everywhere(self):
        # The chain of views against a fresh brute-force computation at every t.
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = int(rng.integers(5, 20))
            graph = random_graph(rng, m, int(rng.integers(6, 50)))
            T = int(rng.integers(2, min(m, 8) + 1))
            cascade = random_cascade(rng, m, T)
            views = build_topologies(graph, cascade)
            assert len(views) == T + 1
            for t, view in enumerate(views, start=1):
                assert_view_matches_oracle(graph, cascade, view, t)


class TestTopologyInvariants:
    def _random_case(self, rng):
        m = int(rng.integers(4, 18))
        graph = random_graph(rng, m, int(rng.integers(4, 45)))
        T = int(rng.integers(2, min(m, 8) + 1))
        return graph, random_cascade(rng, m, T)

    def test_monotone_growth_and_subset_of_graph(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            graph, cascade = self._random_case(rng)
            chain = [oracle.attempt_edges(graph, cascade, t)
                     for t in range(1, len(cascade) + 2)]
            for earlier, later in zip(chain, chain[1:]):
                assert earlier <= later
                assert later <= oracle.edge_set(graph)
            views = build_topologies(graph, cascade)
            for earlier, later in zip(views, views[1:]):
                for v in range(graph.node_count):
                    assert set(earlier.precedents(v)) <= set(later.precedents(v))

    def test_dag_property_over_active_nodes(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            graph, cascade = self._random_case(rng)
            time_of = {v: i for i, v in enumerate(cascade.nodes)}
            for (src, dst) in oracle.attempt_edges(graph, cascade, len(cascade) + 1):
                if dst in time_of:
                    assert time_of[src] < time_of[dst]
            for row, prec in enumerate(index_rows(graph, cascade)):
                assert all(p < row for p in prec)

    def test_precedents_ordered_by_activation_time(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            graph, cascade = self._random_case(rng)
            topo = build_topologies(graph, cascade)[-1]
            order = {v: i for i, v in enumerate(cascade.nodes)}
            for v in range(graph.node_count):
                times = [order[u] for u in topo.precedents(v)]
                assert times == sorted(times)
            for prec in index_rows(graph, cascade):
                assert prec == sorted(prec)
