"""Brute-force oracle for the model and the IC-SB baseline, written from the
paper's definitions, and reference readers for the input files.

Each model and baseline function recomputes its answer from the graph's edge set (the pairs
``DataGraph.edge_pairs`` reads off the CSR; ``test_graph`` checks them
against a set model of the input) and the cascade's activation order, with
no validation and no view class.  Times are 1-based: at step t the nodes
``cascade[:t-1]`` are active and ``cascade[t-1]`` activates.  The tests run
the production code against these functions.

The readers at the end take a file one line at a time; they are the
reference for the whole-file readers of ``graph`` and ``baseline``, which
must return the same result or raise the same error.
"""

import logging
import math
from pathlib import Path

import numpy as np

from topolstm.baseline import EdgeProbabilities
from topolstm.errors import DataError
from topolstm.graph import Cascade, DataGraph


def edge_set(graph):
    """The graph's edges as a set of (src, dst) int pairs."""
    src, dst = graph.edge_pairs()
    return set(zip(src.tolist(), dst.tolist()))


def attempt_edges(graph, cascade, t):
    """The activation-attempt DAG at t: each graph edge out of an active node
    whose target is still inactive or activated after the source."""
    time_of = {v: i for i, v in enumerate(cascade.nodes[: t - 1], start=1)}
    return {(u, w) for (u, w) in edge_set(graph)
            if u in time_of and time_of.get(w, t) > time_of[u]}


def precedents(graph, cascade, t, v):
    """The sources of v's attempt edges at t, in activation order."""
    time_of = {u: i for i, u in enumerate(cascade.nodes)}
    return sorted((u for (u, w) in attempt_edges(graph, cascade, t) if w == v),
                  key=time_of.__getitem__)


def scalar_cell(params, node, h_p, h_q, c_p, c_q):
    """One memory-cell step in Python floats, straight from the equations:
    gates [i, f_p, f_q, o] and candidate c~ from W[:, node], b and the
    pooled precedent (p) and other-active (q) states, then c and h."""
    d = len(h_p)

    def sig(z):
        return 1.0 / (1.0 + math.exp(-z))

    def pre(W, U_p, U_q, b, r):
        z = float(W[r][node]) + float(b[r])
        for k in range(d):
            z += float(U_p[r][k]) * float(h_p[k])
            z += float(U_q[r][k]) * float(h_q[k])
        return z

    p = params
    i = [sig(pre(p["W_i"], p["U_i_p"], p["U_i_q"], p["b_i"], r)) for r in range(d)]
    f_p = [sig(pre(p["W_f"], p["U_f_pp"], p["U_f_pq"], p["b_f"], r)) for r in range(d)]
    f_q = [sig(pre(p["W_f"], p["U_f_qp"], p["U_f_qq"], p["b_f"], r)) for r in range(d)]
    c_til = [math.tanh(pre(p["W_c"], p["U_c_p"], p["U_c_q"], p["b_c"], r))
             for r in range(d)]
    c = [i[r] * c_til[r] + f_p[r] * float(c_p[r]) + f_q[r] * float(c_q[r])
         for r in range(d)]
    o = [sig(pre(p["W_o"], p["U_o_p"], p["U_o_q"], p["b_o"], r)) for r in range(d)]
    h = [o[r] * math.tanh(c[r]) for r in range(d)]
    return np.array(h), np.array(c)


def _mean(S, rows, d):
    return S[rows].mean(axis=0) if rows else np.zeros(d)


def forward(params, graph, cascade, d):
    """(H, C), row t-1 for v_t: its cell pools the mean states of its
    precedents and of the other active nodes, zeros for an empty group."""
    T = len(cascade)
    H, C = np.zeros((T, d)), np.zeros((T, d))
    row = {v: r for r, v in enumerate(cascade.nodes)}
    for t, v in enumerate(cascade.nodes, start=1):
        prec = [row[u] for u in precedents(graph, cascade, t, v)]
        rest = [r for r in range(t - 1) if r not in prec]
        H[t - 1], C[t - 1] = scalar_cell(params, v, _mean(H, prec, d), _mean(H, rest, d),
                                         _mean(C, prec, d), _mean(C, rest, d))
    return H, C


def step_scores(params, graph, cascade, H, t, mode):
    """Score of every inactive node w at step t >= 2, G[w] . pooled + b_act[w].
    "all-active" pools H over the active prefix; "precedent-only" over w's
    precedents, leaving only the bias when w has none."""
    active = cascade.nodes[: t - 1]
    row = {v: r for r, v in enumerate(cascade.nodes)}
    G, b, d = params["G"], params["b_act"], H.shape[1]
    scores = {}
    for w in range(graph.node_count):
        if w not in active:
            pool = active if mode == "all-active" else precedents(graph, cascade, t, w)
            scores[w] = float(G[w] @ _mean(H, [row[u] for u in pool], d) + b[w])
    return scores


def complex_objective(params, graph, cascade, mode, lam):
    """``training.objective(model, graph, [cascade], lam)`` on complex
    parameters, from the equations: the cell on complex arrays with
    sigmoid(z) = (tanh(z / 2) + 1) / 2, every step's scores as one dense
    row, and each step's log-sum-exp shifted by its real part's max (a
    constant, so it cancels).  Every operation is analytic, so at real
    parameters plus i h delta, Im(value) / h is the derivative along delta
    to rounding, with no cancellation (the complex step)."""
    nodes, m, d = cascade.nodes, graph.node_count, params["b_i"].size
    T = len(nodes)
    adj = np.zeros((m, m))
    for u, w in edge_set(graph):
        adj[u, w] = 1.0
    p = params

    def sig(z):
        return 0.5 * np.tanh(0.5 * z) + 0.5

    def pooled(S, weights):
        # Column j: the mean of the rows of S where weights[:, j] is 1, or 0.
        count = weights.sum(axis=0)
        return (weights.T @ S) / np.maximum(count, 1.0)[:, None]

    H, C = np.zeros((T, d), complex), np.zeros((T, d), complex)
    for t, v in enumerate(nodes):
        prec = adj[list(nodes[:t]), v][:, None]
        h_p, c_p = pooled(H[:t], prec)[0], pooled(C[:t], prec)[0]
        h_q, c_q = pooled(H[:t], 1.0 - prec)[0], pooled(C[:t], 1.0 - prec)[0]

        def pre(gate, U_p, U_q):
            return p["W_" + gate][:, v] + p["b_" + gate] + p[U_p] @ h_p + p[U_q] @ h_q
        i, o = sig(pre("i", "U_i_p", "U_i_q")), sig(pre("o", "U_o_p", "U_o_q"))
        f_p, f_q = sig(pre("f", "U_f_pp", "U_f_pq")), sig(pre("f", "U_f_qp", "U_f_qq"))
        C[t] = i * np.tanh(pre("c", "U_c_p", "U_c_q")) + f_p * c_p + f_q * c_q
        H[t] = o * np.tanh(C[t])
    nll = 0.0
    for t in range(1, T):
        cand = np.setdiff1d(np.arange(m), nodes[:t])
        senders = adj[list(nodes[:t])][:, cand] if mode == "precedent-only" \
            else np.ones((t, cand.size))
        scores = (p["G"][cand] * pooled(H[:t], senders)).sum(axis=1) + p["b_act"][cand]
        shift = scores.real.max()
        nll += np.log(np.exp(scores - shift).sum()) + shift \
            - scores[np.searchsorted(cand, nodes[t])]
    return nll / (T - 1) + lam * sum((arr * arr).sum() for arr in params.values())


def recount_oracle(graph, cascades):
    """IC-SB fit by exhaustive recount over every (edge, cascade) pair:
    p(u, v) is the share of the cascades containing u in which v follows u."""
    probs = {}
    for (u, v) in edge_set(graph):
        num = den = 0
        for c in cascades:
            nodes = list(c.nodes)
            if u in nodes:
                den += 1
                if v in nodes and nodes.index(v) > nodes.index(u):
                    num += 1
        probs[(u, v)] = num / den if den else 0.0
    return probs


def noisy_or_scores(graph, probs, cascade, t):
    """IC-SB score of every inactive node w at step t >= 2: one minus the
    product, in activation order, of 1 - p(u, w) over w's precedents u
    (``probs`` maps (u, w) to p; a missing edge counts as 0)."""
    active = cascade.nodes[: t - 1]
    scores = {}
    for w in range(graph.node_count):
        if w not in active:
            quiet = 1.0
            for u in precedents(graph, cascade, t, w):
                quiet *= 1.0 - probs.get((u, w), 0.0)
            scores[w] = 1.0 - quiet
    return scores


def records(text):
    """(line number from 1, stripped line, whitespace-split fields) of every
    line of ``text`` that is neither blank nor a '#' comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line, line.split()


def load_graph(text, undirected=False):
    """``graph.load_graph`` one line at a time; warns on the same logger."""
    label_to_id = {}
    pairs = []
    for lineno, line, parts in records(text):
        if len(parts) != 2:
            raise DataError(f"graph line {lineno}: expected 'src dst', got {line!r}")
        src, dst = parts
        if src == dst:
            raise DataError(f"graph line {lineno}: self-loop on node {src!r}")
        if dst.startswith("#"):
            raise DataError(f"graph line {lineno}: label {dst!r} starts with '#'")
        u = label_to_id.setdefault(src, len(label_to_id))
        v = label_to_id.setdefault(dst, len(label_to_id))
        pairs.append((u, v))
        if undirected:
            pairs.append((v, u))
    graph = DataGraph.from_edges(len(label_to_id), pairs, tuple(label_to_id))
    if len(pairs) > graph.edge_count:
        logging.getLogger("topolstm.graph").warning(
            "dropped %d duplicate edge(s) while loading graph", len(pairs) - graph.edge_count)
    return graph


def load_cascades(text, graph):
    """``graph.load_cascades`` one line at a time."""
    idx = graph.label_index
    cascades = []
    unknown = {}  # offending label -> first line seen
    for lineno, line, labels in records(text):
        for lab in labels:
            if lab not in idx:
                unknown.setdefault(lab, lineno)
        if unknown:
            continue  # keep scanning so the diagnostic lists every offender
        ids = [idx[lab] for lab in labels]
        if len(set(ids)) != len(ids):
            raise DataError(f"cascade line {lineno}: repeated node in {line!r}")
        cascades.append(Cascade(tuple(ids)))
    if unknown:
        listing = ", ".join(f"{lab!r} (line {ln})" for lab, ln in sorted(unknown.items()))
        raise DataError(f"cascade nodes not present in graph: {listing}")
    return cascades


def load_edge_probabilities(path, graph):
    """``EdgeProbabilities.load`` one line at a time."""
    p = np.zeros(graph.edge_count)
    given = np.zeros(graph.edge_count, dtype=bool)
    for lineno, _, parts in records(Path(path).read_text(encoding="utf-8-sig")):
        if len(parts) != 3:
            raise DataError(f"probabilities line {lineno}: expected 'u v p'")
        try:
            e = graph.edge_id(graph.id_of(parts[0]), graph.id_of(parts[1]))
        except DataError as exc:
            raise DataError(f"probabilities line {lineno}: {exc}") from None
        if e < 0 or given[e]:
            why = "is not an edge of the graph" if e < 0 else "is given twice"
            raise DataError(f"probabilities line {lineno}: {parts[0]} -> {parts[1]} {why}")
        try:
            value = float(parts[2])
        except ValueError:
            value = math.nan
        if not 0.0 <= value <= 1.0:
            raise DataError(f"probabilities line {lineno}: p = {parts[2]!r} "
                            "is not a number in [0, 1]")
        p[e], given[e] = value, True
    return EdgeProbabilities(graph, p)
