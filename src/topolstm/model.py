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
z = U @ [h_p; h_q] + (Wx[:, v] + b)[gate_rows(d)]; the gather reads the
W_f/b_f block for both forget gates, and backward adds their two rows of dz
back onto it.  Slot names, order and shapes, and so the checkpoint bytes,
do not depend on this layout.

Scoring an inactive candidate v takes the inner product of a pooled sender
state with v's receiver embedding plus v's bias, then a softmax over all
inactive nodes.  Two pooling modes exist: "precedent-only" pools the sender
states of v's precedents (bias-only when it has none) and "all-active"
(the default) pools every active node's state, which keeps the score
informative when graph edges are missing.

Gradients are derived by hand in `backward_cascade` and verified against
central differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, NumericError, TopoLstmError
from .graph import Cascade, DataGraph, DiffusionTopology, build_topologies
from .numeric import (GradientStore, Layout, ParameterStore, mean_pool,
                      nll_from_scores, sigmoid, softmax)

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


def gate_rows(d: int) -> np.ndarray:
    """Rows of Wx and b feeding the gates [i, f_p, f_q, c, o]."""
    return np.r_[0:2 * d, d:4 * d]


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


def init_parameters(config: ModelConfig, rng: np.random.Generator) -> ParameterStore:
    """Uniform(+-1/sqrt(d)) recurrent matrices, uniform(+-0.1) embeddings, zero biases."""
    d = config.hidden_dim
    u_scale = 1.0 / np.sqrt(d)
    layout = parameter_layout(config)
    slots: dict[str, np.ndarray] = {}
    for name, shape in layout.shapes().items():
        if name.startswith("U_"):
            slots[name] = rng.uniform(-u_scale, u_scale, size=shape)
        elif name.startswith("W_") or name == "G":
            slots[name] = rng.uniform(-0.1, 0.1, size=shape)
        else:
            slots[name] = np.zeros(shape)
    return ParameterStore(slots, layout)


@dataclass
class Model:
    config: ModelConfig
    params: ParameterStore

    @classmethod
    def initialize(cls, config: ModelConfig, rng: np.random.Generator) -> "Model":
        return cls(config, init_parameters(config, rng))

    def zero_grads(self) -> GradientStore:
        return self.params.zeros_like()

    def copy(self) -> "Model":
        return Model(self.config, self.params.copy())


@dataclass
class CellState:
    h: np.ndarray
    c: np.ndarray


@dataclass
class AggregatedInputs:
    h_p: np.ndarray
    h_q: np.ndarray
    c_p: np.ndarray
    c_q: np.ndarray


@dataclass
class CellTrace:
    """Gate activations of one cell step."""
    i: np.ndarray
    f_p: np.ndarray
    f_q: np.ndarray
    c_tilde: np.ndarray
    o: np.ndarray
    tanh_c: np.ndarray


def _out_arrays(graph: DataGraph) -> list[np.ndarray]:
    """Each node's out-neighbours as an index array, cached on the graph."""
    out = getattr(graph, "_out_arrays", None)
    if out is None:
        out = [np.asarray(s, dtype=np.intp) for s in graph.out]
        object.__setattr__(graph, "_out_arrays", out)
    return out


@dataclass
class StepScore:
    """Scoring cache for the prediction made at one time step."""
    t: int
    cand: np.ndarray            # inactive candidate ids, ascending
    probs: np.ndarray           # softmax over cand
    target_cand_pos: int
    loss: float
    mean_active: np.ndarray | None = None   # all-active pooled state
    prec_counts: np.ndarray | None = None   # precedent-only: per-candidate |P|


@dataclass
class CascadeForwardResult:
    """Sender states of a cascade plus what the backward pass needs.

    Row t-1 of every array belongs to v_t.  In precedent-only mode
    ``prec_num``/``prec_cnt`` hold each node's running G[w] . (sum of its
    precedents' states) and precedent count after the last activation.
    """
    cascade: Cascade
    graph: DataGraph
    H: np.ndarray               # (T, d) sender embeddings
    C: np.ndarray               # (T, d) memory cells
    A: np.ndarray               # (T, 5d) gates [i, f_p, f_q, c_tilde, o]
    tanh_C: np.ndarray          # (T, d)
    HX: np.ndarray              # (T, 2d) pooled [h_p; h_q]
    CX: np.ndarray              # (T, 2d) pooled [c_p; c_q]
    prec_pos: list[np.ndarray]  # positions (within the cascade) of each step's precedents
    rest_pos: list[np.ndarray]  # positions of each step's other active nodes
    steps: list[StepScore]      # one per t = 2..T (when losses were computed)
    prec_num: np.ndarray | None = None
    prec_cnt: np.ndarray | None = None

    @property
    def loss_terms(self) -> np.ndarray:
        return np.array([s.loss for s in self.steps])

    @property
    def total_loss(self) -> float:
        return float(sum(s.loss for s in self.steps))


def aggregate(states: Mapping[int, CellState], precedent_set: Sequence[int],
              active_prefix: Sequence[int], d: int) -> AggregatedInputs:
    """Mean-pool cell states into the precedent and other-active aggregates."""
    prec = list(precedent_set)
    prec_set = set(prec)
    rest = [v for v in active_prefix if v not in prec_set]
    if not prec_set <= set(active_prefix):
        raise ValueError("precedent set is not a subset of the active prefix")
    try:
        h_p = mean_pool([states[v].h for v in prec], d)
        h_q = mean_pool([states[v].h for v in rest], d)
        c_p = mean_pool([states[v].c for v in prec], d)
        c_q = mean_pool([states[v].c for v in rest], d)
    except KeyError as exc:
        raise TopoLstmError(f"missing cell state for active node {exc.args[0]}") from None
    return AggregatedInputs(h_p, h_q, c_p, c_q)


def _cell(z: np.ndarray, cx: np.ndarray, a: np.ndarray, tanh_c: np.ndarray,
          h: np.ndarray, c: np.ndarray) -> None:
    """The cell kernel: from the fused pre-activation z (5d) and the pooled
    memories cx = [c_p; c_q], writes the gate activations into ``a``
    (c_tilde in the c block), then c, tanh(c) and h."""
    d = h.size
    sigmoid(z, out=a)
    np.tanh(z[3 * d:4 * d], out=a[3 * d:4 * d])
    np.multiply(a[:d], a[3 * d:4 * d], out=c)
    c += a[d:2 * d] * cx[:d]
    c += a[2 * d:3 * d] * cx[d:]
    np.tanh(c, out=tanh_c)
    np.multiply(a[4 * d:], tanh_c, out=h)


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


def cell_forward(node: int, agg: AggregatedInputs,
                 params: ParameterStore) -> tuple[CellState, CellTrace]:
    """One memory-cell step for the node activated with the given aggregates."""
    d = agg.h_p.size
    z = (params.fused("U") @ np.concatenate((agg.h_p, agg.h_q))
         + (params.fused("Wx")[:, node] + params.fused("b"))[gate_rows(d)])
    a, tanh_c, h, c = np.empty(5 * d), np.empty(d), np.empty(d), np.empty(d)
    _cell(z, np.concatenate((agg.c_p, agg.c_q)), a, tanh_c, h, c)
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(c))):
        _raise_nonfinite(node, a, c)
    i, f_p, f_q, c_tilde, o = a.reshape(5, d)
    return CellState(h=h, c=c), CellTrace(i, f_p, f_q, c_tilde, o, tanh_c)


def score_inactive(states: Mapping[int, CellState], topo: DiffusionTopology,
                   model: Model, mode: str | None = None) -> dict[int, float]:
    """Activation score for every inactive node given the active states.

    "precedent-only" pools each candidate's precedent states (bias-only when
    there are none); "all-active" pools the whole active prefix.
    """
    mode = mode or model.config.score_mode
    if mode not in SCORE_MODES:
        raise ValueError(f"unknown score mode {mode!r}")
    prefix = topo.active_prefix
    if not prefix:
        raise ValueError("scoring requires a nonempty active prefix")
    d = model.config.hidden_dim
    G = model.params["G"]
    b = model.params["b_act"]
    active = set(prefix)
    scores: dict[int, float] = {}
    if mode == "all-active":
        pooled = mean_pool([states[v].h for v in prefix], d)
        for v in range(model.config.node_count):
            if v not in active:
                scores[v] = float(G[v] @ pooled + b[v])
    else:
        for v in range(model.config.node_count):
            if v not in active:
                pooled = mean_pool([states[u].h for u in topo.precedents(v)], d)
                scores[v] = float(G[v] @ pooled + b[v])
    return scores


def _candidate_scores(params: ParameterStore, cand: np.ndarray, H_active: np.ndarray,
                      prec_num: np.ndarray | None, prec_cnt: np.ndarray | None):
    """(scores, pooled state, None) of the inactive candidates ``cand`` under
    all-active pooling, or with running precedent sums (precedent-only)
    (scores, None, |P_w| per candidate): G[w] . mean precedent state is
    prec_num[w] / |P_w|."""
    if prec_num is None:
        pooled = H_active.mean(axis=0)
        return (params["G"] @ pooled + params["b_act"])[cand], pooled, None
    cnt = prec_cnt[cand]
    return prec_num[cand] / np.where(cnt > 0, cnt, 1.0) + params["b_act"][cand], None, cnt


def forward_cascade(model: Model, graph: DataGraph, cascade: Cascade,
                    topologies: Sequence[DiffusionTopology] | None = None,
                    compute_loss: bool = True) -> CascadeForwardResult:
    """Run the cell over a cascade in activation order.

    When ``compute_loss`` is set, each step t >= 2 first scores all inactive
    nodes against the prefix (the state *before* v_t activates) and records
    the negative log-probability of the actual activation.  ``topologies``
    may carry the cascade's precomputed topology chain (index t-1 holds time
    t); it is rebuilt incrementally when absent.
    """
    config = model.config
    T = len(cascade)
    d, m = config.hidden_dim, config.node_count
    if max(cascade.nodes) >= m or min(cascade.nodes) < 0:
        raise DataError("cascade references nodes outside the graph")
    if topologies is None:
        topologies = build_topologies(graph, cascade)

    params = model.params
    U = params.fused("U")
    nodes = np.asarray(cascade.nodes, dtype=np.intp)
    # Input and bias terms of every step's five gates, gathered at once.
    XB = (params.fused("Wx")[:, nodes] + params.fused("b")[:, None])[gate_rows(d)].T
    H, C, tanh_C = np.zeros((T, d)), np.zeros((T, d)), np.empty((T, d))
    HX, CX, A = np.zeros((T, 2 * d)), np.zeros((T, 2 * d)), np.empty((T, 5 * d))
    active_mask = np.zeros(m, dtype=bool)
    pos_of: dict[int, int] = {}
    prec_list: list[np.ndarray] = []
    rest_list: list[np.ndarray] = []
    steps: list[StepScore] = []

    prec_num = prec_cnt = None
    if config.score_mode == "precedent-only":
        # Running G[w] . (sum of active in-neighbour states) and count per
        # node w; entries of active nodes go stale but are never read.
        G = params["G"]
        out_arrays = _out_arrays(graph)
        prec_num = np.zeros(m)
        prec_cnt = np.zeros(m)

    for t in range(1, T + 1):
        v = cascade[t - 1]
        row = t - 1

        if compute_loss and t >= 2:
            cand = np.flatnonzero(~active_mask)
            target_cand_pos = int(np.searchsorted(cand, v))
            scores, pooled, counts = _candidate_scores(params, cand, H[:row],
                                                       prec_num, prec_cnt)
            loss, probs = nll_from_scores(scores, target_cand_pos)
            steps.append(StepScore(t=t, cand=cand, probs=probs,
                                   target_cand_pos=target_cand_pos, loss=loss,
                                   mean_active=pooled, prec_counts=counts))

        prec_nodes = topologies[row].precedents(v)
        prec_pos = np.fromiter((pos_of[u] for u in prec_nodes),
                               dtype=np.intp, count=len(prec_nodes))
        rest_mask = np.ones(row, dtype=bool)
        rest_mask[prec_pos] = False
        rest_pos = np.flatnonzero(rest_mask)
        hx, cx = HX[row], CX[row]
        if prec_pos.size:
            hx[:d] = H[prec_pos].sum(axis=0) / prec_pos.size
            cx[:d] = C[prec_pos].sum(axis=0) / prec_pos.size
        if rest_pos.size:
            hx[d:] = H[rest_pos].sum(axis=0) / rest_pos.size
            cx[d:] = C[rest_pos].sum(axis=0) / rest_pos.size

        _cell(U @ hx + XB[row], cx, A[row], tanh_C[row], H[row], C[row])
        prec_list.append(prec_pos)
        rest_list.append(rest_pos)
        active_mask[v] = True
        pos_of[v] = row
        if prec_num is not None:
            succ = out_arrays[v]
            if succ.size:
                prec_num[succ] += G[succ] @ H[row]
                prec_cnt[succ] += 1.0

    if not (np.all(np.isfinite(H)) and np.all(np.isfinite(C))):
        bad = int(np.flatnonzero(~(np.isfinite(H) & np.isfinite(C)).all(axis=1))[0])
        _raise_nonfinite(cascade[bad], A[bad], C[bad])
    return CascadeForwardResult(cascade=cascade, graph=graph, H=H, C=C, A=A,
                                tanh_C=tanh_C, HX=HX, CX=CX, prec_pos=prec_list,
                                rest_pos=rest_list, steps=steps,
                                prec_num=prec_num, prec_cnt=prec_cnt)


def backward_cascade(result: CascadeForwardResult, model: Model,
                     out: GradientStore | None = None) -> GradientStore:
    """Exact reverse-mode gradient of the cascade's summed loss terms.

    Accumulates into ``out`` (a fresh store when omitted) without any
    normalisation, so contributions from repeated cascades add up.  Handles
    the fan-out of every sender state into all later aggregates and all
    later scoring steps.  The loop carries only the sequential part: gate
    derivatives, the U^T dz matvec, the dH/dC scatter and, in precedent-only
    mode, the running scoring gradient.  The cell weight gradients of all
    steps are then added with one matmul and one scatter.
    """
    if out is None:
        out = model.zero_grads()
    config = model.config
    params = model.params
    T = len(result.cascade)
    d, m = config.hidden_dim, config.node_count
    G, U = params["G"], params.fused("U")
    gG, gb_act = out["G"], out["b_act"]
    dH = np.zeros((T, d))
    dC = np.zeros((T, d))
    DZ = np.zeros((T, 5 * d))
    DZ_dc = DZ[:, :4 * d].reshape(T, 4, d)   # gate blocks driven by dc
    steps = result.steps                     # step t sits at index t - 2
    precedent_only = config.score_mode == "precedent-only"
    if precedent_only:
        # A step scores candidate w with G[w] . h_u / |P_w| for each
        # precedent u, so alpha_w = gvec_w / |P_w| is summed per w over
        # the later steps as the loop goes, and applied when u comes up.
        out_arrays = _out_arrays(result.graph)
        alpha_sum = np.zeros(m)
    elif steps:
        # All-active scoring gradients, all steps at once.  Row s of GV is
        # d loss / d scores of step t = s + 2 over all nodes (0 at active
        # ones); its d_pooled / (t - 1) reaches every state active before t.
        GV = np.zeros((len(steps), m))
        for s, step in enumerate(steps):
            GV[s, step.cand] = step.probs
            GV[s, step.cand[step.target_cand_pos]] -= 1.0
        gb_act += GV.sum(axis=0)
        gG += GV.T @ np.array([step.mean_active for step in steps])
        DP = (GV @ G) / np.arange(1, len(steps) + 1)[:, None]
        dH[:len(steps)] += np.cumsum(DP[::-1], axis=0)[::-1]

    # dz = [dc, dc, dc, dc, dh] * K row by row; dc picks up dh * dc_dh.
    i, f_p, f_q, c_tilde, o = (result.A[:, k * d:(k + 1) * d] for k in range(5))
    c_p, c_q = result.CX[:, :d], result.CX[:, d:]
    K = np.concatenate((c_tilde * i * (1.0 - i), c_p * f_p * (1.0 - f_p),
                        c_q * f_q * (1.0 - f_q), i * (1.0 - c_tilde ** 2),
                        result.tanh_C * o * (1.0 - o)), axis=1)
    K_dc = K[:, :4 * d].reshape(T, 4, d)
    dc_dh = o * (1.0 - result.tanh_C ** 2)

    for t in range(T, 0, -1):
        pos = t - 1
        if precedent_only:
            # Steps after t see v_t's state; step t itself does not.
            succ = out_arrays[result.cascade[pos]]
            if succ.size:
                alpha = alpha_sum[succ]
                dH[pos] += alpha @ G[succ]
                gG[succ] += alpha[:, None] * result.H[pos]
            if steps and t >= 2:
                step = steps[t - 2]
                gvec = step.probs.copy()
                gvec[step.target_cand_pos] -= 1.0
                gb_act[step.cand] += gvec
                # Candidates without precedents pool nothing: alpha is 0.
                alpha_sum[step.cand] += gvec / np.where(step.prec_counts > 0,
                                                        step.prec_counts, np.inf)

        dh = dH[pos]
        if not (dh.any() or dC[pos].any()):
            continue
        dc = dC[pos] + dh * dc_dh[pos]
        np.multiply(K_dc[pos], dc, out=DZ_dc[pos])
        np.multiply(K[pos, 4 * d:], dh, out=DZ[pos, 4 * d:])

        prec_pos, rest_pos = result.prec_pos[pos], result.rest_pos[pos]
        if prec_pos.size or rest_pos.size:
            dhx = U.T @ DZ[pos]
            if prec_pos.size:
                dH[prec_pos] += dhx[:d] / prec_pos.size
                dC[prec_pos] += dc * f_p[pos] / prec_pos.size
            if rest_pos.size:
                dH[rest_pos] += dhx[d:] / rest_pos.size
                dC[rest_pos] += dc * f_q[pos] / rest_pos.size

    gU = out.fused("U")
    gU += DZ.T @ result.HX
    # Both forget-gate rows of dz feed the shared W_f / b_f block.
    DZ4 = np.concatenate((DZ[:, :2 * d], DZ[:, 3 * d:]), axis=1)
    DZ4[:, d:2 * d] += DZ[:, 2 * d:3 * d]
    out.fused("Wx")[:, np.asarray(result.cascade.nodes, dtype=np.intp)] += DZ4.T
    gb = out.fused("b")
    gb += DZ4.sum(axis=0)
    return out


def predict_next(model: Model, graph: DataGraph, prefix: Cascade,
                 topologies: Sequence[DiffusionTopology] | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Distribution over the next activation after an observed prefix.

    Returns (candidate ids ascending, probabilities); candidates are all
    inactive nodes.
    """
    if topologies is None:
        topologies = build_topologies(graph, prefix)
    result = forward_cascade(model, graph, prefix, topologies=topologies,
                             compute_loss=False)
    m = model.config.node_count
    active_mask = np.zeros(m, dtype=bool)
    active_mask[list(prefix.nodes)] = True
    cand = np.flatnonzero(~active_mask)
    if cand.size == 0:
        raise ValueError("no inactive nodes left to predict")
    scores, _, _ = _candidate_scores(model.params, cand, result.H,
                                     result.prec_num, result.prec_cnt)
    return cand, softmax(scores)
