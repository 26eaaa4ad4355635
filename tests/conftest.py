import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import topolstm
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


def precedent_rows(state):
    """The precedent positions of every step, as lists, from a ``CascadeState``'s CSR."""
    ptr = state.prec_ptr.tolist()
    return [state.prec_pos[ptr[r]:ptr[r + 1]].tolist() for r in range(len(ptr) - 1)]


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


def blas_thread_readings(code):
    """The whitespace-split output of ``code`` run at OPENBLAS_NUM_THREADS=1
    and =2.  The count is read when numpy loads, so each reading gets its
    own interpreter."""
    src = str(Path(topolstm.__file__).resolve().parents[1])
    readings = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
        env.update(OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        readings.append(run.stdout.split())
    return readings
