import numpy as np
import pytest

import oracle
from topolstm.baseline import EdgeProbabilities
from topolstm.graph import Cascade, DataGraph


@pytest.fixture
def running_example():
    """Seven-node graph whose cascade A,B,C,D exercises every topology case.

    A's successors are B, C, F; B's are C, E; C's is G; D reaches E only.
    So at t=4 the next activation D has no active in-neighbour.
    """
    labels = tuple("ABCDEFG")
    edges = [(0, 1), (0, 2), (0, 5), (1, 2), (1, 4), (2, 6), (3, 4)]
    graph = DataGraph.from_edges(7, edges, labels)
    cascade = Cascade((0, 1, 2, 3))
    return graph, cascade


def random_graph(rng, node_count, edge_target):
    edges = set()
    attempts = 0
    while len(edges) < edge_target and attempts < 50 * edge_target:
        u, v = rng.integers(0, node_count, 2)
        attempts += 1
        if u != v:
            edges.add((int(u), int(v)))
    return DataGraph.from_edges(node_count, edges)


def random_cascade(rng, node_count, length):
    perm = rng.permutation(node_count)[:length]
    return Cascade(tuple(int(x) for x in perm))


def precedent_rows(result):
    """The precedent positions of every step, as lists, from the result's CSR."""
    ptr = result.prec_ptr.tolist()
    return [result.prec_pos[ptr[r]:ptr[r + 1]].tolist() for r in range(len(ptr) - 1)]


def reversed_rows(graph):
    """The same graph with every CSR row stored in reverse order."""
    ptr, idx = graph.out_ptr, graph.out_idx
    rows = [idx[ptr[u]:ptr[u + 1]][::-1] for u in range(graph.node_count)]
    return DataGraph(graph.labels, ptr, np.concatenate(rows or [idx]))


def edge_probs(graph, mapping):
    """EdgeProbabilities from a {(u, v): p} map over some of the graph's edges
    (the others get 0)."""
    assert set(mapping) <= oracle.edge_set(graph)
    src, dst = graph.edge_pairs()
    return EdgeProbabilities(graph, [mapping.get(e, 0.0) for e in zip(src.tolist(), dst.tolist())])


def prob_dict(probs):
    """An EdgeProbabilities as a {(u, v): p} map over every edge of its graph."""
    src, dst = probs.graph.edge_pairs()
    return dict(zip(zip(src.tolist(), dst.tolist()), probs.p.tolist()))
