"""Brute-force oracle for the model, written from the paper's definitions.

Each function recomputes its answer from the graph's edge set and the
cascade's activation order, with no validation and no view class.  Times are
1-based: at step t the nodes ``cascade[:t-1]`` are active and ``cascade[t-1]``
activates.  The tests run the production code against these functions.
"""

import math

import numpy as np


def attempt_edges(graph, cascade, t):
    """The activation-attempt DAG at t: each graph edge out of an active node
    whose target is still inactive or activated after the source."""
    time_of = {v: i for i, v in enumerate(cascade.nodes[: t - 1], start=1)}
    return {(u, w) for (u, w) in graph.edges
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
