"""The DAG-structured LSTM over diffusion topologies.

Each activated node runs one memory-cell step.  Unlike a sequence LSTM, the
recurrent input is split into two typed aggregates: the mean state of the
node's *precedents* (active in-neighbours that could have attempted the
activation) and the mean state of the *other* already-active nodes.  Each
aggregate gets its own forget gate, so the cell carries four distinct U
matrices on the forget path while sharing W_f and b_f.

Parameter slots (d = hidden_dim, m = node_count):

    sender-embedding slots                       activation slots
    ----------------------------------------    -------------------------
    W_i (d,m)  U_i_p  U_i_q  (d,d)  b_i (d,)    G     (m,d)  receiver embeddings
    W_f (d,m)  U_f_pp U_f_pq                    b_act (m,)   per-node score bias
               U_f_qp U_f_qq (d,d)  b_f (d,)
    W_c (d,m)  U_c_p  U_c_q  (d,d)  b_c (d,)
    W_o (d,m)  U_o_p  U_o_q  (d,d)  b_o (d,)

U_f_xy multiplies aggregate y inside forget gate x (x, y in {p, q}).

All slots are views into one flat float64 vector, laid out as

    Wx (4d,m) = [W_i; W_f; W_c; W_o] | U (5d,2d) | b (4d,) = [b_i; b_f; b_c; b_o] | G | b_act

where U's row blocks are the gates [i, f_p, f_q, c, o] and its column
blocks [h_p | h_q].  One cell step is one matvec,
z = U @ [h_p; h_q] + (Wx[:, v] + b)[rows] with rows = [0:2d, d:4d]: the
gather reads the W_f/b_f block for both forget gates, and backward adds
their two rows of dz back onto it.  As sigmoid(z) = 0.5 tanh(z/2) + 0.5,
the forward pass halves the sigmoid rows of U and of the gathered terms
once per cascade (exact in binary barring overflow and subnormals), so
all five gates take one tanh and one scale-and-shift.  Slot names, order
and shapes, and so the checkpoint bytes, do not depend on this layout.

Scoring an inactive candidate v takes the inner product of a pooled sender
state with v's receiver embedding plus v's bias, then a softmax over all
inactive nodes.  Two pooling modes exist: "precedent-only" pools the sender
states of v's precedents (bias-only when it has none) and "all-active"
(the default) pools every active node's state, which keeps the score
informative when graph edges are missing.

A cascade's precedents come from a CSR index over its positions, a
``graph.CascadeRows``: ``train()`` slices it from one ``CascadeTable`` per
split, and a cascade run alone gets it from the lone-prefix join of
``CascadeRows.extend``.  A forward is a function of the model and those
rows, which its result keeps.  It runs on a ``CascadeState``: the [h | c]
rows and their running sum, ``pos``, the rows, and the next step's running
score sums.  A forward is the empty state extended by the whole cascade, so
there is one cell loop, and the loop runs only the memory cell, pooling
from the precedents' rows and from the running sum.  No score feeds back
into the cell, so ``_score_rows`` scores a cascade's T-1 steps as one
(T-1) x m block, from cumulative sums over its rows.  ``predict_next``
scores the step after a prefix as one row from the state's running sums; in
precedent-only mode these add the block's terms in the block's order, so
the row has the block's bits.  Given a state that already holds most of the
prefix, it runs only the new activations' cells.  Both end in
``_normalise``, the one place that refuses unusable scores: a row with no
finite softmax raises NumericError, so ``objective``, evaluation and
``predict_next`` all raise on it.  The backward pass takes every score
gradient from the block with whole-cascade array operations, and its
reverse loop keeps only the cell's, one [dh | dc] gradient row per step.  A
loop step costs O(|P| d) for pooling and O(d^2) for the cell, and nothing
grows with the number of nodes active before it.

Gradients are derived by hand in `backward_cascade` and verified against
central differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, NumericError
from .graph import NO_ROWS, Cascade, CascadeRows, DataGraph, DiffusionTopology
from .numeric import GradientStore, Layout, ParameterStore

SCORE_MODES = ("all-active", "precedent-only")

EMBEDDING_SLOTS = (
    "W_i", "U_i_p", "U_i_q", "b_i",
    "W_f", "U_f_pp", "U_f_pq", "U_f_qp", "U_f_qq", "b_f",
    "W_c", "U_c_p", "U_c_q", "b_c",
    "W_o", "U_o_p", "U_o_q", "b_o",
)
ACTIVATION_SLOTS = ("G", "b_act")


@dataclass(frozen=True)
class ModelConfig:
    hidden_dim: int
    node_count: int
    score_mode: str = "all-active"

    def __post_init__(self):
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        if self.score_mode not in SCORE_MODES:
            raise ValueError(f"score_mode must be one of {SCORE_MODES}")


# Blocks of the fused U: a row per gate [i, f_p, f_q, c, o], columns [h_p | h_q].
U_BLOCKS = (("U_i_p", "U_i_q"), ("U_f_pp", "U_f_pq"), ("U_f_qp", "U_f_qq"),
            ("U_c_p", "U_c_q"), ("U_o_p", "U_o_q"))


def parameter_layout(config: ModelConfig) -> Layout:
    """The flat layout described in the module docstring."""
    d, m = config.hidden_dim, config.node_count
    u, b = 4 * d * m, 4 * d * m + 10 * d * d
    g = b + 4 * d
    place = {"G": ((m, d), g, (d, 1)), "b_act": ((m,), g + m * d, (1,))}
    for k, gate in enumerate("ifco"):
        place[f"W_{gate}"] = ((d, m), k * d * m, (m, 1))
        place[f"b_{gate}"] = ((d,), b + k * d, (1,))
    for row, names in enumerate(U_BLOCKS):
        for col, name in enumerate(names):
            place[name] = ((d, d), u + row * 2 * d * d + col * d, (2 * d, 1))
    return Layout(g + m * d + m,
                  tuple((name, *place[name]) for name in EMBEDDING_SLOTS + ACTIVATION_SLOTS),
                  (("Wx", (4 * d, m), 0, (m, 1)), ("U", (5 * d, 2 * d), u, (2 * d, 1)),
                   ("b", (4 * d,), b, (1,))))


@dataclass
class Model:
    config: ModelConfig
    params: ParameterStore

    @classmethod
    def initialize(cls, config: ModelConfig, rng: np.random.Generator) -> "Model":
        """Uniform(+-1/sqrt(d)) recurrent matrices, uniform(+-0.1) embeddings, zero biases."""
        u_scale = 1.0 / np.sqrt(config.hidden_dim)
        layout = parameter_layout(config)
        slots: dict[str, np.ndarray] = {}
        for name, shape in layout.shapes().items():
            if name.startswith("U_"):
                slots[name] = rng.uniform(-u_scale, u_scale, size=shape)
            elif name.startswith("W_") or name == "G":
                slots[name] = rng.uniform(-0.1, 0.1, size=shape)
            else:
                slots[name] = np.zeros(shape)
        return cls(config, ParameterStore(slots, layout))

    def zero_grads(self) -> GradientStore:
        return self.params.zeros_like()

    def copy(self) -> "Model":
        return Model(self.config, self.params.copy())


@dataclass
class CellState:
    """One active node's sender state, as the reference ``score_inactive`` reads it."""
    h: np.ndarray
    c: np.ndarray


@dataclass
class CascadeForwardResult:
    """Sender states of a cascade plus what the backward pass needs.

    ``rows`` is the ``CascadeRows`` slice the forward ran on, and row t-1
    of every (T, .) array belongs to v_t = ``rows.nodes[t-1]``: the
    precedents of v_t are the positions
    ``rows.prec_pos[rows.prec_ptr[t-1]:rows.prec_ptr[t]]``, ascending, and
    every other earlier position is one of its other active nodes.

    With losses, ``probs``, ``counts`` and ``losses`` are ``_score_rows``'s
    block of all T-1 steps: row s of ``probs`` is the softmax over all nodes
    at step t = s + 2, exactly 0 at the nodes active by then (``pos <= s``).
    ``backward_cascade`` reuses ``probs`` and ``counts`` as its workspace, so
    a result is backpropagated once.

    A step's state is one row [h | c] of a (T, 2d) array, its pooled input
    one block [[h_p, h_q], [c_p, c_q]] of a (T, 2, 2, d) array; H, C, HX and
    CX are views of these two.
    """
    rows: CascadeRows
    H: np.ndarray               # (T, d) sender embeddings, state[:, :d]
    C: np.ndarray               # (T, d) memory cells, state[:, d:]
    A: np.ndarray               # (T, 5d) gates [i, f_p, f_q, c_tilde, o]
    tanh_C: np.ndarray          # (T, d)
    HX: np.ndarray              # (T, 2d) pooled [h_p; h_q], pooled[:, 0]
    CX: np.ndarray              # (T, 2d) pooled [c_p; c_q], pooled[:, 1]
    pos: np.ndarray             # (m,) node -> cascade position, T if inactive
    losses: np.ndarray          # (T-1,) per-step losses; empty without losses
    probs: np.ndarray | None = None    # (T-1, m) step probabilities
    counts: np.ndarray | None = None   # (T-1, m) precedent-only |P|, at least 1

    @property
    def total_loss(self) -> float:
        return float(self.losses.sum())


def _raise_nonfinite(node: int, a: np.ndarray, c: np.ndarray) -> None:
    d = c.size
    names = ("input gate", "forget gate (p)", "forget gate (q)", "candidate cell",
             "output gate")
    for k, gate_name in enumerate(names):
        if not np.all(np.isfinite(a[k * d:(k + 1) * d])):
            raise NumericError(f"non-finite {gate_name} at node {node}")
    if not np.all(np.isfinite(c)):
        raise NumericError(f"non-finite cell state at node {node}")
    raise NumericError(f"non-finite cell output at node {node}")


def score_inactive(states: Mapping[int, CellState], topo: DiffusionTopology,
                   model: Model) -> dict[int, float]:
    """Activation score for every inactive node given the active states.

    "precedent-only" pools each candidate's precedent states (bias-only when
    there are none); "all-active" pools the whole active prefix.  A dict-based
    reference: the model scores through ``forward_cascade``'s block, and the
    benchmark's gates compare it against this.
    """
    prefix = topo.active_prefix
    if not prefix:
        raise ValueError("scoring requires a nonempty active prefix")
    d = model.config.hidden_dim
    G = model.params["G"]
    b = model.params["b_act"]
    active = set(prefix)
    scores: dict[int, float] = {}
    if model.config.score_mode == "all-active":
        pooled = np.mean([states[v].h for v in prefix], axis=0)
        for v in range(model.config.node_count):
            if v not in active:
                scores[v] = float(G[v] @ pooled + b[v])
    else:
        for v in range(model.config.node_count):
            if v not in active:
                hs = [states[u].h for u in topo.precedents(v)]
                pooled = np.mean(hs, axis=0) if hs else np.zeros(d)
                scores[v] = float(G[v] @ pooled + b[v])
    return scores


def _all_active_pooled(H: np.ndarray, S: int) -> np.ndarray:
    """Row s, for s = 0..S-1: the all-active pooled state mean(H[0..s])."""
    return np.cumsum(H[:S], axis=0) / np.arange(1, S + 1)[:, None]


def _normalise(X: np.ndarray, step: int, first: int) -> tuple[np.ndarray, np.ndarray]:
    """Turn score rows into probabilities in place, each a softmax shifted by
    its max; return each row's normaliser and that max.

    Active nodes score -inf, so they get 0.  A row whose normaliser is not
    finite raises NumericError naming its step (the first row's is
    ``step``) and the cascade's ``first`` node: a NaN or +inf score, or a
    row of -inf scores, makes it NaN, as it makes the row's loss NaN.  A
    target scored -inf alone only makes its loss +inf.
    """
    top = X.max(axis=1)
    X -= top[:, None]
    np.exp(X, out=X)
    z = X.sum(axis=1)
    if not np.isfinite(z).all():
        step += int(np.isfinite(z).argmin())
        raise NumericError(f"non-finite probabilities at step {step} of the cascade "
                           f"from node {first}")
    X /= z[:, None]
    return z, top


def _score_rows(model: Model, result: CascadeForwardResult
                ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """(probs, counts, losses) of a cascade's T-1 steps, as one block.

    Row s of ``probs`` is step s + 2, which sees rows 0..s; its pooled state
    is the mean of H[0..s] (all-active) or of w's active in-neighbours'
    states, counted in ``counts`` with 0 read as 1 (precedent-only).
    The scores add ``b_act`` and are -inf at the nodes active by then, and
    ``_normalise`` makes each row a softmax; ``losses`` holds -log p of
    each step's next activation.
    """
    config, params, rows = model.config, model.params, result.rows
    G, m, H = params["G"], config.node_count, result.H
    S, counts = rows.nodes.size - 1, None
    if config.score_mode == "all-active":
        X = _all_active_pooled(H, S) @ G.T
    else:
        # Edge u -> w puts its term in cell (u, w), at most one per cell,
        # and rows from S on fall past the block.  Cumulative sums over
        # rows then give each step's sums.
        cell = rows.src * m + rows.dst
        terms = np.einsum("ij,ij->i", G[rows.dst], H[rows.src])
        X, counts = (np.bincount(cell, w, S * m)[:S * m].reshape(S, m).astype(float, copy=False)
                     for w in (terms, np.ones(cell.size)))   # int64 with no edge
        np.add.accumulate(X, axis=0, out=X)
        np.add.accumulate(counts, axis=0, out=counts)
        np.maximum(counts, 1.0, out=counts)
        X /= counts
    X += params["b_act"]
    np.copyto(X, -np.inf, where=result.pos <= np.arange(S)[:, None])
    target = X[np.arange(S), rows.nodes[1:]]
    z, top = _normalise(X, 2, rows.nodes[0])
    return X, counts, np.log(z) - (target - top)


class CascadeState:
    """A cascade's forward pass so far, which later activations extend.

    It holds the [h | c] state rows and their running sum, ``pos`` (node ->
    position, node_count at inactive nodes), the prefix's ``CascadeRows``
    and the next step's running score sums.  Those are the sum of H
    (all-active), or per candidate the sum of G[w] . h_u over its active
    in-neighbours u and their count, added row by row in the order of
    ``_score_rows``'s ``np.bincount`` (precedent-only).  An extension runs
    one cell per new activation and reads only the earlier rows' states;
    its join still copies and scans every out-edge of the prefix, so an
    extension costs its cells plus O(out-edges of the prefix).  The
    model's parameters must not change while a state is in use.
    """

    def __init__(self, model: Model, graph: DataGraph):
        if model.config.node_count != graph.node_count:
            raise ValueError(f"model has {model.config.node_count} nodes, "
                             f"graph {graph.node_count}")
        self.model, self.graph = model, graph
        d, m = model.config.hidden_dim, model.config.node_count
        self.rows = NO_ROWS
        self.pos = np.full(m, m, dtype=np.intp)
        self.total = np.zeros(2 * d)      # the sum of the [h | c] rows
        self.sums = self.counts = None   # precedent-only, from the first score row on
        self.folded = 0                  # out-edges added to them
        self._buffers = ()               # sized by the first extension

    def _grow(self, capacity: int) -> None:
        """Room for ``capacity`` rows, keeping the rows so far: the (T, 2d)
        states, (T, 2, 2, d) pooled inputs, (T, 5d) gates and (T, d) tanh(c),
        then the views H, C, HX and CX."""
        d, T = self.model.config.hidden_dim, self.rows.nodes.size
        S, P = np.zeros((capacity, 2 * d)), np.zeros((capacity, 2, 2, d))
        A, tanh_C = np.empty((capacity, 5 * d)), np.empty((capacity, d))
        for new, old in zip((S, P, A, tanh_C), self._buffers):
            new[:T] = old[:T]
        self._buffers = (S, P, A, tanh_C, S[:, :d], S[:, d:],
                         P[:, 0].reshape(capacity, 2 * d), P[:, 1].reshape(capacity, 2 * d))

    def result(self) -> CascadeForwardResult:
        """The forward result of the prefix so far, without losses; its
        arrays are views that a later extension may leave behind."""
        T = self.rows.nodes.size
        if not self._buffers:
            self._grow(0)
        _, _, A, tanh_C, H, C, HX, CX = self._buffers
        return CascadeForwardResult(rows=self.rows, H=H[:T], C=C[:T], A=A[:T], tanh_C=tanh_C[:T],
                                    HX=HX[:T], CX=CX[:T], pos=np.minimum(self.pos, T),
                                    losses=np.zeros(0))

    def _extend(self, nodes: Sequence[int], rows: CascadeRows | None = None) -> None:
        """Run the cell on the activations ``nodes``, distinct and inactive.

        ``rows``, a whole cascade's slice of a ``CascadeTable``, is given to
        an empty state in place of ``nodes``; else the lone-prefix join
        appends the new rows.  A node outside the graph raises DataError and
        a non-finite cell NumericError, both leaving the state as it was.
        The precedent aggregates sum the precedents' state rows once for h
        and c, and the other-active aggregates are the running state sum
        minus that, so a row costs O(|P| d) plus the cell.
        """
        d, m = self.model.config.hidden_dim, self.model.config.node_count
        params, pos, T0 = self.model.params, self.pos, self.rows.nodes.size
        if rows is None:
            if nodes and not (0 <= min(nodes) and max(nodes) < m):
                raise DataError("cascade references nodes outside the graph")
            nodes = np.fromiter(nodes, np.intp, len(nodes))
        else:
            nodes = rows.nodes
        T = T0 + nodes.size
        pos[nodes] = np.arange(T0, T)
        if rows is None:
            rows = self.rows.extend(self.graph, nodes, pos)
        prec_ptr, prec_pos = rows.prec_ptr, rows.prec_pos
        room = len(self._buffers[0]) if self._buffers else 0
        if T > room or not self._buffers:
            self._grow(max(T, 2 * room))
        S, P, A, tanh_C, H, C, HX, CX = self._buffers
        # The sigmoid rows halved (module docstring); adding -0.0 leaves the
        # c_tilde block as tanh gave it, a -0.0 included.
        scale, shift = np.array(((0.5, 0.5, 0.5, 1.0, 0.5),
                                 (0.5, 0.5, 0.5, -0.0, 0.5))).repeat(d, 1)
        U = params.fused("U") * scale[:, None]
        # Input and bias terms of the new steps' five gates, gathered at
        # once; both forget gates read the W_f/b_f rows.
        WB = params.fused("Wx")[:, nodes] + params.fused("b")[:, None]
        XB = np.concatenate((WB[:2 * d], WB[d:])).T * scale
        total, fc = self.total.copy(), np.empty(2 * d)   # running sum of S[:row]; f * c_x

        for row in range(T0, T):
            prec = prec_pos[prec_ptr[row]:prec_ptr[row + 1]]
            rest = row - prec.size
            sums = S[prec].sum(axis=0)
            if prec.size:
                np.divide(sums.reshape(2, d), prec.size, out=P[row, :, 0])
            if rest:
                np.subtract(total, sums, out=sums)
                np.divide(sums.reshape(2, d), rest, out=P[row, :, 1])

            a, h, c = A[row], H[row], C[row]
            np.matmul(U, HX[row], out=a)
            a += XB[row - T0]
            np.tanh(a, out=a)
            a *= scale
            a += shift
            np.multiply(a[d:3 * d], CX[row], out=fc)
            np.multiply(a[:d], a[3 * d:4 * d], out=c)
            c += fc[:d]
            c += fc[d:]
            np.tanh(c, out=tanh_C[row])
            np.multiply(a[4 * d:], tanh_C[row], out=h)
            total += S[row]

        if not np.isfinite(S[T0:T]).all():
            bad = T0 + int(np.flatnonzero(~np.isfinite(S[T0:T]).all(axis=1))[0])
            pos[nodes] = m
            _raise_nonfinite(int(rows.nodes[bad]), A[bad], C[bad])
        self.rows, self.total = rows, total

    def _next_scores(self) -> np.ndarray:
        """The pooled scores of the step after the prefix, as one (1, m) row."""
        config, rows, G = self.model.config, self.rows, self.model.params["G"]
        d, m = config.hidden_dim, config.node_count
        if config.score_mode == "all-active":
            return (self.total[None, :d] / rows.nodes.size) @ G.T
        # Add the out-edges of the rows added since the last call, in row
        # order: np.bincount for the first, np.add.at onto the sums after.
        src, dst = rows.src[self.folded:], rows.dst[self.folded:]
        terms = np.einsum("ij,ij->i", G[dst], self._buffers[4][src])   # H[src]
        if self.sums is None:
            self.sums = np.bincount(dst, terms, m).astype(float, copy=False)  # int64 with no edge
            self.counts = np.bincount(dst, minlength=m)
        else:
            np.add.at(self.sums, dst, terms)
            np.add.at(self.counts, dst, 1)
        self.folded = rows.src.size
        return (self.sums / np.maximum(self.counts, 1))[None]


def forward_cascade(model: Model, graph: DataGraph, cascade: Cascade,
                    compute_loss: bool = True, *, rows: CascadeRows | None = None
                    ) -> CascadeForwardResult:
    """Run the cell over a cascade in activation order.

    ``rows`` is the cascade's slice of a ``CascadeTable`` over ``graph``,
    and ``cascade`` is then read for nothing else; without it, the
    lone-prefix join of ``CascadeRows.extend`` builds the rows from
    ``cascade``.  This is the empty ``CascadeState`` extended by the whole
    cascade: a model whose node count is not the graph's raises ValueError,
    and a node outside the graph DataError.  When ``compute_loss`` is set, ``_score_rows`` then
    scores all T-1 prediction steps as one block, step t against the state
    *before* v_t activates, with the negative log-probability of v_t as its
    loss.
    """
    state = CascadeState(model, graph)
    state._extend(cascade.nodes, rows)
    result = state.result()
    if compute_loss and result.H.shape[0] >= 2:
        result.probs, result.counts, result.losses = _score_rows(model, result)
    return result


def backward_cascade(result: CascadeForwardResult, model: Model,
                     out: GradientStore | None = None) -> GradientStore:
    """Exact reverse-mode gradient of the cascade's summed loss terms.

    Accumulates into ``out`` (a fresh store when omitted) without any
    normalisation, so contributions from repeated cascades add up.  Handles
    the fan-out of every sender state into all later aggregates and all
    later scoring steps.  The scoring gradients of all steps come first, as
    whole-cascade array operations on the result's probability block; the
    loop then carries only the cell, every row from T-2 down to 0 (row T-1
    feeds no score and no earlier row).  Step t's gradient [dh | dc] is one
    (2, d) row; from its gate derivatives dz, U^T dz and [f_p; f_q] * dc
    fill one block Q = [[dh_p, dh_q], [dc f_p, dc f_q]].  Q's q column over
    the other-active count is added to one running [acc_h; acc_c] owed to
    every earlier row; its p column over |P|, less that share, goes to the
    precedents' rows.  So step t costs O(|P| d) beyond the matvec.  The
    cell weight gradients of all steps are then added with one matmul and
    one scatter.
    """
    if out is None:
        out = model.zero_grads()
    config, params, rows = model.config, model.params, result.rows
    T = rows.nodes.size
    d = config.hidden_dim
    UT = params.fused("U").T
    dS = np.zeros((T, 2, d))   # row t is [dh | dc] of step t
    dH = dS[:, 0]
    DZ = np.zeros((T, 5 * d))
    DZ_dc, DZ_o = DZ[:, :4 * d].reshape(T, 4, d), DZ[:, 4 * d:]   # by dc, by dh
    if result.losses.size:
        if result.probs is None:
            raise ValueError("this forward result was already backpropagated")
        # GV = probs - onehot(target), d loss / d scores, 0 at active nodes.
        S, G, gG, gb_act = T - 1, params["G"], out["G"], out["b_act"]
        GV, counts = result.probs, result.counts
        result.probs = result.counts = None
        GV[np.arange(S), rows.nodes[1:]] -= 1.0
        gb_act += GV.sum(axis=0)
        if config.score_mode == "all-active":
            # Row s's d pooled = GV[s] . G / (s + 1) reaches rows 0..s.
            gG += GV.T @ _all_active_pooled(result.H, S)
            DP = (GV @ G) / np.arange(1, S + 1)[:, None]
            dH[:S] += np.cumsum(DP[::-1], axis=0)[::-1]
        else:
            # GV / |P| summed from the last step back to row s is what an
            # edge u -> w from row s carries into dH[u] (times G[w]) and
            # gG[w] (times h_u); kept at the edges only, it is applied with
            # two matmuls.  A count clamped from 0 to 1 reaches no edge: an
            # edge u -> w makes |P_w| >= 1 from u's row on.
            alpha = np.divide(GV, counts, out=GV)
            np.cumsum(alpha[::-1], axis=0, out=alpha[::-1])
            keep = rows.src < S
            src, dst = rows.src[keep], rows.dst[keep]
            at_edges = alpha[src, dst]
            alpha.fill(0.0)
            alpha[src, dst] = at_edges
            dH[:S] += alpha @ G
            gG += alpha.T @ result.H[:S]

    # dz = [dc, dc, dc, dc, dh] * K row by row; dc picks up dh * dc_dh.
    i, f_p, f_q, c_tilde, o = (result.A[:, k * d:(k + 1) * d] for k in range(5))
    c_p, c_q = result.CX[:, :d], result.CX[:, d:]
    K = np.concatenate((c_tilde * i * (1.0 - i), c_p * f_p * (1.0 - f_p),
                        c_q * f_q * (1.0 - f_q), i * (1.0 - c_tilde ** 2),
                        result.tanh_C * o * (1.0 - o)), axis=1)
    K_dc, K_o = K[:, :4 * d].reshape(T, 4, d), K[:, 4 * d:]
    dc_dh = o * (1.0 - result.tanh_C ** 2)
    F = result.A[:, d:3 * d].reshape(T, 2, d)   # [f_p; f_q], a view
    Q, dc = np.empty((2, 2, d)), np.empty(d)
    dhx, Q_c, Q_p, Q_q = Q[0].reshape(2 * d), Q[1], Q[:, 0], Q[:, 1]
    acc, share, back = np.zeros((2, d)), np.empty((2, d)), np.empty((2, d))
    ptr, prec_pos = rows.prec_ptr.tolist(), rows.prec_pos

    for pos in range(T - 2, -1, -1):
        row = dS[pos]
        row += acc
        dh = row[0]
        np.multiply(dh, dc_dh[pos], out=dc)
        dc += row[1]
        np.multiply(K_dc[pos], dc, out=DZ_dc[pos])
        np.multiply(K_o[pos], dh, out=DZ_o[pos])
        lo, hi = ptr[pos], ptr[pos + 1]
        n, rest = hi - lo, pos - (hi - lo)
        np.matmul(UT, DZ[pos], out=dhx)
        np.multiply(F[pos], dc, out=Q_c)
        if rest:
            np.divide(Q_q, rest, out=share)
            acc += share
        if n:
            np.divide(Q_p, n, out=back)
            if rest:
                back -= share
            dS[prec_pos[lo] if n == 1 else prec_pos[lo:hi]] += back

    gU = out.fused("U")
    gU += DZ.T @ result.HX
    # Both forget-gate rows of dz feed the shared W_f / b_f block.
    DZ4 = np.concatenate((DZ[:, :2 * d], DZ[:, 3 * d:]), axis=1)
    DZ4[:, d:2 * d] += DZ[:, 2 * d:3 * d]
    out.fused("Wx")[:, rows.nodes] += DZ4.T
    gb = out.fused("b")
    gb += DZ4.sum(axis=0)
    return out


def predict_next(model: Model, graph: DataGraph, prefix: Cascade, *,
                 state: CascadeState | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Distribution over the next activation after an observed prefix.

    Returns (candidate ids ascending, probabilities): every inactive node,
    scored from the prefix's running score sums as one row, which
    ``_normalise`` turns into probabilities as it does ``_score_rows``'s
    block.  ``state``, a ``CascadeState`` of this model and graph whose
    activations begin ``prefix`` (else ValueError), is extended by the rest
    of ``prefix`` and kept: a client that follows a cascade passes the same
    state with each longer prefix and pays one cell per new activation
    and, per call, one score row plus a scan over the prefix's out-edges
    (the join) and over the prefix itself (the check).  The probabilities
    are the same bits either way.
    """
    if state is None:
        state = CascadeState(model, graph)
    elif state.model is not model or state.graph is not graph:
        raise ValueError("state belongs to another model or graph")
    T0 = state.rows.nodes.size
    if state.rows.nodes.tolist() != list(prefix.nodes[:T0]):
        raise ValueError("prefix does not begin with the state's activations")
    T = len(prefix)
    if T > T0:
        state._extend(prefix.nodes[T0:])
    cand = np.flatnonzero(state.pos == model.config.node_count)
    if cand.size == 0:
        raise ValueError("no inactive nodes left to predict")
    probs = state._next_scores()
    probs += model.params["b_act"]
    probs[0, state.rows.nodes] = -np.inf
    _normalise(probs, T + 1, prefix[0])
    return cand, probs[0, cand]
