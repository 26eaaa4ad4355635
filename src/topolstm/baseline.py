"""Independent-cascade baseline with static Bernoulli edge probabilities.

Edge probabilities are estimated from training cascades by order-only
counting: p(u, v) is the fraction of cascades containing u in which v shows
up after u.  An inactive node's activation score is the noisy-OR of its
precedents' edge probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DataError
from .graph import Cascade, DataGraph, DiffusionTopology


@dataclass
class EdgeProbabilities:
    """Per-edge diffusion probability; only graph edges carry entries."""

    probs: dict[tuple[int, int], float]

    def __post_init__(self):
        for edge, p in self.probs.items():
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"probability {p} for edge {edge} outside [0, 1]")

    def get(self, u: int, v: int) -> float:
        return self.probs.get((u, v), 0.0)

    def __len__(self):
        return len(self.probs)

    def save(self, path, graph: DataGraph, header: str | None = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            if header:
                fh.write(f"# {header}\n")
            for (u, v) in sorted(self.probs):
                fh.write(f"{graph.labels[u]} {graph.labels[v]} {self.probs[(u, v)]!r}\n")

    @classmethod
    def load(cls, path, graph: DataGraph) -> "EdgeProbabilities":
        probs: dict[tuple[int, int], float] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 3:
                    raise DataError(f"probabilities line {lineno}: expected 'u v p'")
                probs[(graph.id_of(parts[0]), graph.id_of(parts[1]))] = float(parts[2])
        return cls(probs)


def fit_static_bernoulli(graph: DataGraph,
                         train_cascades: Iterable[Cascade]) -> EdgeProbabilities:
    """Estimate p(u, v) = #(v after u in a cascade) / #(cascades with u).

    "After" requires only activation order, not adjacency in the sequence.
    Edges whose source never appears in training get probability zero.
    """
    active_count = np.zeros(graph.node_count, dtype=np.int64)
    follow_count: dict[tuple[int, int], int] = {}
    for cascade in train_cascades:
        pos = {v: i for i, v in enumerate(cascade.nodes)}
        for u in cascade.nodes:
            active_count[u] += 1
            pu = pos[u]
            for v in graph.out[u]:
                if pos.get(v, -1) > pu:
                    follow_count[(u, v)] = follow_count.get((u, v), 0) + 1
    probs = {}
    for edge in graph.edges:
        u = edge[0]
        probs[edge] = (follow_count.get(edge, 0) / active_count[u]
                       if active_count[u] else 0.0)
    return EdgeProbabilities(probs)


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
            stay_quiet *= 1.0 - probs.get(u, v)
        scores[v] = 1.0 - stay_quiet
    return scores


class ICSBScorer:
    """Step scorer over test cascades for the evaluation harness.

    Maintains the running noisy-OR complements incrementally: activating u
    multiplies every out-neighbour's complement by (1 - p(u, v)).
    """

    name = "ic-sb"

    def __init__(self, graph: DataGraph, probs: EdgeProbabilities):
        self.graph = graph
        self.probs = probs

    def step_scores(self, cascade: Cascade):
        m = self.graph.node_count
        quiet = np.ones(m)
        active_mask = np.zeros(m, dtype=bool)
        for t, v in enumerate(cascade.nodes, start=1):
            if t >= 2:
                cand = np.flatnonzero(~active_mask)
                yield cand, 1.0 - quiet[cand], v
            for w in self.graph.out[v]:
                quiet[w] *= 1.0 - self.probs.get(v, w)
            active_mask[v] = True
