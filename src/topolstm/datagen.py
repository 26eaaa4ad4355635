"""Synthetic desk-scale datasets: seeded random graphs plus independent-cascade
simulations, written in the same file formats the rest of the pipeline reads.

The independent-cascade process is round-based: every newly activated node
makes one Bernoulli(p(u, v)) attempt per not-yet-active out-neighbour.
Rounds are partial orders, so simultaneous activations are serialized by
ascending node id to produce the total activation order cascades require.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .baseline import EdgeProbabilities
from .graph import Cascade, DataGraph, save_cascades_file, save_graph_file, write_json

GRAPH_MODELS = ("uniform-random-edges", "preferential-attachment", "chain", "grid")

_RETRY_CAP = 1000  # resample attempts per cascade before giving up


@dataclass(frozen=True)
class SynthConfig:
    node_count: int
    graph_model: str
    edge_param: float          # edge count (>= 1) or density (< 1); attachment count for PA
    activation_prob: float | tuple[float, float]
    cascade_count: int
    max_cascade_length: int
    seed: int

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("node_count must be positive")
        if self.graph_model not in GRAPH_MODELS:
            raise ValueError(f"graph_model must be one of {GRAPH_MODELS}")
        if self.cascade_count < 0:
            raise ValueError("cascade_count must be >= 0")
        if self.max_cascade_length < 2:
            raise ValueError(
                f"max_cascade_length must be >= 2, got {self.max_cascade_length}")
        if not (math.isfinite(self.edge_param) and self.edge_param >= 0):
            raise ValueError(f"edge_param must be finite and >= 0, got {self.edge_param}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        p = self.activation_prob
        if isinstance(p, tuple):
            lo, hi = p
            if not (0.0 <= lo <= hi <= 1.0):
                raise ValueError(f"activation_prob range [{lo}, {hi}] invalid")
        elif not (0.0 <= p <= 1.0):
            raise ValueError(f"activation_prob {p} outside [0, 1]")


PRESETS: dict[str, SynthConfig] = {
    # Fully separable: every cascade is a deterministic run down one chain.
    "chain-deterministic": SynthConfig(
        node_count=50, graph_model="chain", edge_param=0,
        activation_prob=1.0, cascade_count=300, max_cascade_length=12, seed=7),
    # Heavy-tailed graph (the realistic shape for diffusion networks) with
    # ~1200 directed edges, sized so a full train/evaluate cycle takes minutes.
    "desk-default": SynthConfig(
        node_count=200, graph_model="preferential-attachment", edge_param=3,
        activation_prob=(0.2, 0.8), cascade_count=500, max_cascade_length=15,
        seed=11),
}


def generate_graph(config: SynthConfig,
                   rng: np.random.Generator | None = None) -> DataGraph:
    """Seeded, reproducible graph of the requested family."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    n = config.node_count
    model = config.graph_model

    if model == "chain":
        return DataGraph.from_edges(n, np.column_stack((np.arange(n - 1), np.arange(1, n))))

    if model == "grid":
        rows = max(1, int(math.isqrt(n)))
        cols = math.ceil(n / rows)
        a = np.arange(n)
        right = a[(a % cols + 1 < cols) & (a + 1 < n)]
        down = a[a + cols < n]
        pairs = np.column_stack((np.append(right, down), np.append(right + 1, down + cols)))
        return DataGraph.from_edges(n, np.concatenate((pairs, pairs[:, ::-1])))

    if model == "uniform-random-edges":
        possible = n * (n - 1)
        target = (int(round(config.edge_param * possible))
                  if config.edge_param < 1 else int(config.edge_param))
        if target > possible:
            raise ValueError(
                f"{target} edges requested but only {possible} are possible")
        flat = rng.choice(possible, size=target, replace=False)
        u, rest = np.divmod(flat, n - 1)
        return DataGraph.from_edges(n, np.column_stack((u, rest + (rest >= u))))

    # preferential attachment, both directions so diffusion can reach new nodes
    c = int(config.edge_param)
    if c < 1 or c >= n:
        raise ValueError("attachment count must satisfy 1 <= c < node_count")
    edges = set()
    repeated: list[int] = list(range(c))
    for new in range(c, n):
        targets: set[int] = set()
        while len(targets) < c:
            targets.add(int(repeated[rng.integers(0, len(repeated))]))
        for t in sorted(targets):
            edges.add((new, t))
            edges.add((t, new))
            repeated.append(t)
        repeated.extend([new] * c)
    return DataGraph.from_edges(n, edges)


def assign_edge_probs(graph: DataGraph, activation_prob,
                      rng: np.random.Generator) -> EdgeProbabilities:
    """Constant or per-edge-uniform diffusion probabilities, in CSR edge order."""
    if isinstance(activation_prob, tuple):
        lo, hi = activation_prob
        return EdgeProbabilities(graph, rng.uniform(lo, hi, size=graph.edge_count))
    return EdgeProbabilities(graph, np.full(graph.edge_count, float(activation_prob)))


def simulate_ic_cascade(graph: DataGraph, probs: EdgeProbabilities, seed_node: int,
                        max_len: int, rng: np.random.Generator) -> Cascade:
    """Breadth-order independent-cascade run from one seed node."""
    if not (0 <= seed_node < graph.node_count):
        raise ValueError(f"seed node {seed_node} out of range")
    out_ptr, out_idx, p = graph.out_ptr, graph.out_idx, probs.p
    order = [seed_node]
    active = {seed_node}
    frontier = [seed_node]
    while frontier and len(order) < max_len:
        newly = []
        for u in frontier:
            a, b = out_ptr[u], out_ptr[u + 1]
            for e, v in zip(range(a, b), out_idx[a:b].tolist()):
                if v not in active and rng.random() < p[e]:
                    active.add(v)
                    newly.append(v)
        newly.sort()
        keep = newly[: max_len - len(order)]
        order.extend(keep)
        frontier = keep
    return Cascade(tuple(order))


def generate_dataset(config: SynthConfig, out_dir=None
                     ) -> tuple[DataGraph, list[Cascade], EdgeProbabilities]:
    """Graph + simulated cascades + ground-truth edge probabilities.

    Length-1 cascades (seed failed to spread) are resampled with a retry cap.
    When ``out_dir`` is given, writes graph.txt, cascades.txt, edge_probs.txt
    and manifest.json; outputs are byte-identical for identical configs.
    """
    rng = np.random.default_rng(config.seed)
    graph = generate_graph(config, rng)
    probs = assign_edge_probs(graph, config.activation_prob, rng)

    cascades: list[Cascade] = []
    for _ in range(config.cascade_count):
        cascade = None
        for _attempt in range(_RETRY_CAP):
            seed_node = int(rng.integers(0, graph.node_count))
            candidate = simulate_ic_cascade(graph, probs, seed_node,
                                            config.max_cascade_length, rng)
            if len(candidate) >= 2:
                cascade = candidate
                break
        if cascade is None:
            raise ValueError(
                f"could not draw a cascade of length >= 2 in {_RETRY_CAP} attempts; "
                "raise activation_prob or check graph connectivity")
        cascades.append(cascade)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_graph_file(out / "graph.txt", graph, header="edge list: src dst")
        save_cascades_file(out / "cascades.txt", cascades, graph,
                           header="one cascade per line, activation order")
        probs.save(out / "edge_probs.txt",
                   header="ground-truth IC probabilities: u v p")
        touched = {v for c in cascades for v in c}
        write_json(out / "manifest.json", {
            "config": asdict(config),
            "effective": {
                "node_count": graph.node_count,
                "edge_count": graph.edge_count,
                "cascade_count": len(cascades),
                "nodes_in_cascades": len(touched),
                "total_activations": sum(len(c) for c in cascades),
            },
            "files": {"graph": "graph.txt", "cascades": "cascades.txt",
                      "edge_probs": "edge_probs.txt"},
        })

    return graph, cascades, probs
