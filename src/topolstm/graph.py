"""Data graph and cascades, plus the reference topology views.

A cascade is an ordered sequence of distinct activated nodes over a static
directed graph.  At time step t the "activation attempt" edges seen so far
form a DAG: every edge runs from a node activated before t to a node that is
either still inactive or was activated later than the source.  A node's
precedents at t are the sources of its attempt edges, so the whole DAG at
any t follows from the graph, the activation order and t.  The model keeps
only the precedents, as one CSR index per cascade (see ``model``).
``build_topologies`` gives the same precedents as per-step views for the
dict-based reference scorers; only the benchmark's gates call them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DataError

log = logging.getLogger(__name__)

NodeId = int


@dataclass(frozen=True)
class DataGraph:
    """Immutable directed graph with dense zero-based node ids."""

    labels: tuple[str, ...]
    out: tuple[tuple[NodeId, ...], ...]   # sorted successor lists
    in_: tuple[tuple[NodeId, ...], ...]   # sorted predecessor lists
    edges: frozenset[tuple[NodeId, NodeId]]

    @property
    def node_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return (u, v) in self.edges

    def id_of(self, label: str) -> NodeId:
        try:
            return self._label_index()[label]
        except KeyError:
            raise DataError(f"unknown node label {label!r}") from None

    def _label_index(self) -> dict[str, NodeId]:
        # Cached on first use; the dataclass is frozen so build lazily.
        idx = getattr(self, "_label_idx", None)
        if idx is None:
            idx = {lab: i for i, lab in enumerate(self.labels)}
            object.__setattr__(self, "_label_idx", idx)
        return idx

    @classmethod
    def from_edges(
        cls,
        node_count: int,
        edges: Iterable[tuple[NodeId, NodeId]],
        labels: Sequence[str] | None = None,
    ) -> "DataGraph":
        """Build a graph from (src, dst) id pairs; labels default to str(id)."""
        if labels is None:
            labels = tuple(str(i) for i in range(node_count))
        else:
            labels = tuple(labels)
            if len(labels) != node_count:
                raise ValueError("labels length must equal node_count")
        edge_set = set()
        for u, v in edges:
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise ValueError(f"edge ({u}, {v}) out of range for {node_count} nodes")
            if u == v:
                raise DataError(f"self-loop on node {u}")
            edge_set.add((u, v))
        out: list[list[NodeId]] = [[] for _ in range(node_count)]
        in_: list[list[NodeId]] = [[] for _ in range(node_count)]
        for u, v in edge_set:
            out[u].append(v)
            in_[v].append(u)
        return cls(
            labels=labels,
            out=tuple(tuple(sorted(s)) for s in out),
            in_=tuple(tuple(sorted(s)) for s in in_),
            edges=frozenset(edge_set),
        )


def load_graph(text: str, undirected: bool = False) -> DataGraph:
    """Parse a whitespace-separated edge list into a DataGraph.

    Lines starting with '#' and blank lines are ignored.  Node labels are
    interned to dense ids in first-appearance order.  With ``undirected``
    each line yields both directions.  Duplicate edges are dropped with a
    warning; self-loops and malformed lines raise DataError naming the line.
    """
    label_to_id: dict[str, NodeId] = {}
    edge_set: set[tuple[NodeId, NodeId]] = set()
    duplicates = 0

    def intern(label: str) -> NodeId:
        if label not in label_to_id:
            label_to_id[label] = len(label_to_id)
        return label_to_id[label]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise DataError(f"graph line {lineno}: expected 'src dst', got {line!r}")
        src, dst = parts
        if src == dst:
            raise DataError(f"graph line {lineno}: self-loop on node {src!r}")
        u, v = intern(src), intern(dst)
        pairs = [(u, v), (v, u)] if undirected else [(u, v)]
        for pair in pairs:
            if pair in edge_set:
                duplicates += 1
            else:
                edge_set.add(pair)

    if duplicates:
        log.warning("dropped %d duplicate edge(s) while loading graph", duplicates)

    labels = tuple(sorted(label_to_id, key=label_to_id.__getitem__))
    return DataGraph.from_edges(len(labels), edge_set, labels)


def load_graph_file(path, undirected: bool = False) -> DataGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_graph(fh.read(), undirected=undirected)


def save_graph_file(path, graph: DataGraph, header: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for u, v in sorted(graph.edges):
            fh.write(f"{graph.labels[u]} {graph.labels[v]}\n")


def save_labels(path, graph: DataGraph, header: str | None = None) -> None:
    """Persist the label <-> id mapping as two whitespace-separated columns."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for i, lab in enumerate(graph.labels):
            fh.write(f"{lab} {i}\n")


@dataclass(frozen=True)
class Cascade:
    """Ordered sequence of distinct activated nodes; timestamps are implicit 1..T."""

    nodes: tuple[NodeId, ...]

    def __post_init__(self):
        if len(self.nodes) < 1:
            raise ValueError("cascade must contain at least one node")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("cascade nodes must be distinct")

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def __getitem__(self, i):
        return self.nodes[i]


def load_cascades(text: str, graph: DataGraph) -> list[Cascade]:
    """Parse one cascade per line (labels in activation order), validated against graph."""
    idx = {lab: i for i, lab in enumerate(graph.labels)}
    cascades: list[Cascade] = []
    unknown: dict[str, int] = {}  # offending label -> first line seen
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        labels = line.split()
        ids = []
        for lab in labels:
            if lab not in idx:
                unknown.setdefault(lab, lineno)
                continue
            ids.append(idx[lab])
        if unknown:
            continue  # keep scanning so the diagnostic lists every offender
        if len(set(ids)) != len(ids):
            raise DataError(f"cascade line {lineno}: repeated node in {line!r}")
        cascades.append(Cascade(tuple(ids)))
    if unknown:
        listing = ", ".join(f"{lab!r} (line {ln})" for lab, ln in sorted(unknown.items()))
        raise DataError(f"cascade nodes not present in graph: {listing}")
    return cascades


def load_cascades_file(path, graph: DataGraph) -> list[Cascade]:
    with open(path, "r", encoding="utf-8") as fh:
        return load_cascades(fh.read(), graph)


def save_cascades_file(path, cascades: Iterable[Cascade], graph: DataGraph,
                       header: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for cascade in cascades:
            fh.write(" ".join(graph.labels[v] for v in cascade) + "\n")


class DiffusionTopology:
    """The precedents of every node at one time step of a cascade.

    A view over a graph, an activation order, the order's node -> position
    map and a time t: the active prefix is the nodes activated strictly
    before t, and a node's precedents are its in-neighbours in that prefix
    that activated before it, ordered by activation time.  The model does
    not read these views; it builds one CSR precedent index per cascade
    (``model._precedent_index``).  They serve the dict-based reference
    scorers that the benchmark's gates compare against.
    """

    __slots__ = ("graph", "_order", "_pos", "time")

    def __init__(self, graph: DataGraph, order: tuple[NodeId, ...],
                 pos: dict[NodeId, int], time: int):
        self.graph = graph
        self._order = order
        self._pos = pos
        self.time = time

    @property
    def active_prefix(self) -> tuple[NodeId, ...]:
        return self._order[: self.time - 1]

    def precedents(self, v: NodeId) -> tuple[NodeId, ...]:
        pos = self._pos
        limit = min(self.time - 1, pos.get(v, self.time))
        return tuple(sorted((u for u in self.graph.in_[v] if pos.get(u, limit) < limit),
                            key=pos.__getitem__))


def build_topologies(graph: DataGraph, cascade: Cascade) -> list[DiffusionTopology]:
    """The views for t = 1..T+1, all over one order and position map."""
    order = cascade.nodes
    for node in order:
        if not 0 <= node < graph.node_count:
            raise ValueError(f"node {node} out of range")
    pos = {v: i for i, v in enumerate(order)}
    return [DiffusionTopology(graph, order, pos, t) for t in range(1, len(order) + 2)]
