"""Independent-cascade baseline with static Bernoulli edge probabilities.

Edge probabilities are estimated from training cascades by order-only
counting: p(u, v) is the fraction of cascades containing u in which v shows
up after u.  An inactive node's activation score is the noisy-OR of its
precedents' edge probabilities.

The probabilities are one float array over the graph's CSR edge ids
(``DataGraph.out_ptr``/``out_idx``), which run in (u, v) order, so a saved
file lists its edges in that order and a loaded one finds each (u, v) by
``DataGraph.edge_id``.  A fit counts the attempt edges that give the
model's precedents, over all training cascades at once by the blocked join
``graph.cascade_passes``, and scoring costs one slice update per
activation.  ``icsb_score`` is the dict reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DataError
from .graph import (Cascade, DataGraph, DiffusionTopology, cascade_passes, pack_cascades,
                    read_records, write_lines)


@dataclass(eq=False)
class EdgeProbabilities:
    """Per-edge diffusion probability: ``p[e]`` belongs to the graph's CSR edge e."""

    graph: DataGraph
    p: np.ndarray

    def __post_init__(self):
        p = self.p = np.asarray(self.p, dtype=float)
        if p.shape != (self.graph.edge_count,):
            raise ValueError(f"need {self.graph.edge_count} edge probabilities, got shape {p.shape}")
        bad = np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))   # NaN included
        if bad.size:
            src, dst = self.graph.edge_pairs()
            e = bad[0]
            raise ValueError(f"probability {p[e]} for edge ({src[e]}, {dst[e]}) outside [0, 1]")

    def save(self, path, header: str | None = None) -> None:
        """One 'u v p' line per edge, in CSR edge order."""
        src, dst = self.graph.edge_pairs()
        labels = self.graph.labels
        write_lines(path, (f"{labels[u]} {labels[v]} {p!r}" for u, v, p
                           in zip(src.tolist(), dst.tolist(), self.p.tolist())), header)

    @classmethod
    def load(cls, path, graph: DataGraph) -> "EdgeProbabilities":
        """Read 'u v p' lines; an edge the file does not name gets p = 0.
        The first bad line raises DataError, checked in this order: its
        field count, its labels (u first), its edge, then p."""
        fields, ptr, lineno = read_records(Path(path).read_text(encoding="utf-8-sig"))
        short = np.flatnonzero(np.diff(ptr) != 3)
        k = short[0] if short.size else lineno.size       # records before k have 3 fields
        get = graph.label_index.get
        u, v = (np.fromiter(map(get, fields[j:3 * k:3], repeat(-1)), dtype=np.intp, count=k)
                for j in (0, 1))                   # -1: an unknown label
        edge, row = graph.edge_id(u, v), np.arange(k)
        first = np.full(graph.edge_count + 1, k)          # each edge's first row; -1: no edge
        np.minimum.at(first, edge, row)
        twice = first[edge] < row                         # an earlier row names the edge
        value = np.fromiter(map(_number, fields[2:3 * k:3]), dtype=float, count=k)
        bad = np.flatnonzero((edge < 0) | twice | ~((value >= 0.0) & (value <= 1.0)))
        if bad.size:
            r = bad[0]
            a, b, text = fields[3 * r:3 * r + 3]
            where = f"probabilities line {lineno[r]}:"
            if u[r] < 0 or v[r] < 0:
                label = a if u[r] < 0 else b
                raise DataError(f"{where} unknown node label {label!r}")
            if edge[r] < 0 or twice[r]:
                why = "is not an edge of the graph" if edge[r] < 0 else "is given twice"
                raise DataError(f"{where} {a} -> {b} {why}")
            raise DataError(f"{where} p = {text!r} is not a number in [0, 1]")
        if k < lineno.size:
            raise DataError(f"probabilities line {lineno[k]}: expected 'u v p'")
        p = np.zeros(graph.edge_count)
        p[edge] = value
        return cls(graph, p)


def _number(text: str) -> float:
    """float(text), or NaN where float() rejects it."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def fit_static_bernoulli(graph: DataGraph,
                         train_cascades: Iterable[Cascade]) -> EdgeProbabilities:
    """Estimate p(u, v) = #(v after u in a cascade) / #(cascades with u).

    "After" requires only activation order, not adjacency in the sequence.
    Edges whose source never appears in training get probability zero.
    The counts are the attempt edges of ``graph.cascade_passes``, added
    pass by pass.
    """
    packed = pack_cascades(graph, train_cascades)
    follow_count = np.zeros(graph.edge_count, dtype=np.intp)
    for row, _, at, edge in cascade_passes(graph, *packed):
        np.add.at(follow_count, edge[at > row], 1)
    active_count = np.bincount(packed[1], minlength=graph.node_count)[graph.edge_pairs()[0]]
    probs = np.zeros(graph.edge_count)
    np.divide(follow_count, active_count, out=probs, where=active_count > 0)
    return EdgeProbabilities(graph, probs)


def icsb_score(probs: EdgeProbabilities,
               topo: DiffusionTopology) -> dict[int, float]:
    """Noisy-OR activation score for each inactive node at the topology's time."""
    graph = topo.graph
    active = set(topo.active_prefix)
    scores: dict[int, float] = {}
    for v in range(graph.node_count):
        if v in active:
            continue
        stay_quiet = 1.0
        for u in topo.precedents(v):
            e = probs.graph.edge_id(u, v)
            stay_quiet *= 1.0 - (float(probs.p[e]) if e >= 0 else 0.0)
        scores[v] = 1.0 - stay_quiet
    return scores


class ICSBScorer:
    """Step scorer over test cascades for the evaluation harness.

    Keeps the running noisy-OR complements: activating u is one slice update
    by the (1 - p(u, v)) of u's CSR out-edges, built once in ``__init__``.
    """

    name = "ic-sb"

    def __init__(self, graph: DataGraph, probs: EdgeProbabilities):
        self.graph = graph
        self._complement = 1.0 - probs.p

    def step_scores(self, cascade: Cascade):
        out_ptr, out_idx = self.graph.out_ptr, self.graph.out_idx
        m = self.graph.node_count
        quiet = np.ones(m)
        inactive = np.ones(m, dtype=bool)
        for t, v in enumerate(cascade.nodes, start=1):
            if t >= 2:
                cand = inactive.nonzero()[0]
                yield cand, 1.0 - quiet[cand], v
            a, b = out_ptr[v], out_ptr[v + 1]
            quiet[out_idx[a:b]] *= self._complement[a:b]
            inactive[v] = False
