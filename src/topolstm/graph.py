"""Data graph and cascades, plus the reference topology views.

The graph's only adjacency is its CSR out-adjacency ``(out_ptr, out_idx)``,
built at construction.  Edge lookups, the edge list written to disk and
per-edge arrays such as the IC-SB probabilities all go through CSR edge ids.

A cascade is an ordered sequence of distinct activated nodes over a static
directed graph.  At time step t the "activation attempt" edges seen so far
form a DAG: every edge runs from a node activated before t to a node that is
either still inactive or was activated later than the source.  A node's
precedents at t are the sources of its attempt edges, so the whole DAG at
any t follows from the graph, the activation order and t.  The model keeps
only the precedents, as one CSR index per cascade (see ``model``).
``build_topologies`` gives the same precedents as per-step views for the
dict-based reference scorers; only the benchmark's gates call them.

Each input rule has one function here: ``records`` reads the lines of every
text format, ``write_lines`` writes them, and ``drop_short`` decides which
cascades have a prediction step, for training and evaluation alike.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError

log = logging.getLogger(__name__)

NodeId = int


class DataGraph:
    """Directed graph with dense zero-based node ids, held as one CSR
    out-adjacency: u's successors are ``out_idx[out_ptr[u]:out_ptr[u + 1]]``
    and the edge u -> out_idx[e] has CSR edge id e.  Per-edge data are arrays
    indexed by edge id.  ``from_edges`` sorts each row, so its edge ids run in
    (u, v) order; the methods read rows in any order."""

    __slots__ = ("labels", "out_ptr", "out_idx", "label_index")

    def __init__(self, labels: Sequence[str], out_ptr, out_idx):
        self.labels = tuple(labels)
        self.out_ptr = np.array(out_ptr, dtype=np.intp)
        self.out_idx = np.array(out_idx, dtype=np.intp)
        if self.out_ptr.shape != (len(self.labels) + 1,) or self.out_ptr[-1] != self.out_idx.size:
            raise ValueError("out_ptr must hold node_count + 1 offsets ending at the edge count")
        self.out_ptr.flags.writeable = self.out_idx.flags.writeable = False
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}

    @property
    def node_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return self.out_idx.size

    def edge_id(self, u: NodeId, v: NodeId) -> int:
        """CSR edge id of u -> v, or -1 when the graph has no such edge."""
        if not 0 <= u < self.node_count:
            return -1
        lo = self.out_ptr[u]
        hit = np.flatnonzero(self.out_idx[lo:self.out_ptr[u + 1]] == v)
        return int(lo + hit[0]) if hit.size else -1

    def edge_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) of every edge, in CSR edge-id order."""
        return np.repeat(np.arange(self.node_count), np.diff(self.out_ptr)), self.out_idx

    def id_of(self, label: str) -> NodeId:
        try:
            return self.label_index[label]
        except KeyError:
            raise DataError(f"unknown node label {label!r}") from None

    def out_edges(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, target, edge) of every out-edge of ``nodes``, in row order:
        CSR edge ``edge`` runs from nodes[row] to ``target``."""
        start = self.out_ptr[nodes]
        count = self.out_ptr[1:][nodes] - start
        row = np.repeat(np.arange(nodes.size), count)
        edge = np.arange(row.size) + (start - np.cumsum(count) + count)[row]
        return row, self.out_idx[edge], edge

    @classmethod
    def from_edges(cls, node_count: int, edges: Iterable[tuple[NodeId, NodeId]],
                   labels: Sequence[str] | None = None) -> "DataGraph":
        """Build a graph from (src, dst) id pairs, dropping repeats; labels
        default to str(id).  The first bad pair raises: ValueError when out
        of range, DataError when a self-loop."""
        labels = tuple(str(i) for i in range(node_count)) if labels is None else tuple(labels)
        if len(labels) != node_count:
            raise ValueError("labels length must equal node_count")
        pairs = np.array(list(edges), dtype=np.intp).reshape(-1, 2)
        u, v = pairs.T
        bad = ((pairs < 0) | (pairs >= node_count)).any(axis=1) | (u == v)
        if bad.any():
            a, b = pairs[bad.argmax()].tolist()
            if a == b and 0 <= a < node_count:
                raise DataError(f"self-loop on node {a}")
            raise ValueError(f"edge ({a}, {b}) out of range for {node_count} nodes")
        # Sorted by (u, v), repeats dropped; np.unique would import numpy.ma (~1 MB).
        key = np.sort(u * node_count + v)
        src, dst = np.divmod(key[np.diff(key, prepend=-1) != 0], node_count)
        out_ptr = np.zeros(node_count + 1, dtype=np.intp)
        np.cumsum(np.bincount(src, minlength=node_count), out=out_ptr[1:])
        return cls(labels, out_ptr, dst)


def records(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """(line number from 1, stripped line, whitespace-split fields) of every
    line of ``text`` that is neither blank nor a '#' comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line, line.split()


def write_lines(path, lines: Iterable[str], header: str | None = None) -> None:
    """Write an optional '# header' line, then one line per record."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for line in lines:
            fh.write(f"{line}\n")


def load_graph(text: str, undirected: bool = False) -> DataGraph:
    """Parse a whitespace-separated edge list into a DataGraph.

    Lines starting with '#' and blank lines are ignored.  Node labels are
    interned to dense ids in first-appearance order.  With ``undirected``
    each line yields both directions.  Duplicate edges are dropped with a
    warning; self-loops and malformed lines raise DataError naming the line.
    """
    label_to_id: dict[str, NodeId] = {}
    pairs: list[tuple[NodeId, NodeId]] = []
    for lineno, line, parts in records(text):
        if len(parts) != 2:
            raise DataError(f"graph line {lineno}: expected 'src dst', got {line!r}")
        src, dst = parts
        if src == dst:
            raise DataError(f"graph line {lineno}: self-loop on node {src!r}")
        u = label_to_id.setdefault(src, len(label_to_id))
        v = label_to_id.setdefault(dst, len(label_to_id))
        pairs.append((u, v))
        if undirected:
            pairs.append((v, u))
    graph = DataGraph.from_edges(len(label_to_id), pairs, tuple(label_to_id))
    if len(pairs) > graph.edge_count:
        log.warning("dropped %d duplicate edge(s) while loading graph",
                    len(pairs) - graph.edge_count)
    return graph


def load_graph_file(path, undirected: bool = False) -> DataGraph:
    return load_graph(Path(path).read_text(encoding="utf-8"), undirected=undirected)


def save_graph_file(path, graph: DataGraph, header: str | None = None) -> None:
    src, dst = graph.edge_pairs()
    labels = graph.labels
    write_lines(path, (f"{labels[u]} {labels[v]}" for u, v in zip(src.tolist(), dst.tolist())),
                header)


def save_labels(path, graph: DataGraph, header: str | None = None) -> None:
    """Persist the label <-> id mapping as two whitespace-separated columns."""
    write_lines(path, (f"{lab} {i}" for i, lab in enumerate(graph.labels)), header)


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


def drop_short(cascades: Sequence[Cascade], what: str) -> tuple[list[Cascade], int]:
    """(the cascades of length >= 2, how many were dropped).  A length-1
    cascade has no prediction step; dropping any is logged once, naming ``what``."""
    kept = [c for c in cascades if len(c) >= 2]
    dropped = len(cascades) - len(kept)
    if dropped:
        log.warning("excluded %d length-1 cascade(s) from %s: they contribute "
                    "no prediction steps", dropped, what)
    return kept, dropped


def load_cascades(text: str, graph: DataGraph) -> list[Cascade]:
    """Parse one cascade per line (labels in activation order), validated against graph."""
    idx = graph.label_index
    cascades: list[Cascade] = []
    unknown: dict[str, int] = {}  # offending label -> first line seen
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


def load_cascades_file(path, graph: DataGraph) -> list[Cascade]:
    return load_cascades(Path(path).read_text(encoding="utf-8"), graph)


def save_cascades_file(path, cascades: Iterable[Cascade], graph: DataGraph,
                       header: str | None = None) -> None:
    write_lines(path, (" ".join(graph.labels[v] for v in cascade) for cascade in cascades),
                header)


class DiffusionTopology:
    """The precedents of every node at one time step of a cascade.

    A view over a graph, an activation order, each node's in-neighbour rows
    in the order that activated before it, and a time t: the active prefix is
    the nodes activated strictly before t, and a node's precedents are those
    in-neighbours in that prefix, ordered by activation time.  Only the
    benchmark's dict-based reference scorers read these views; the model
    builds one CSR precedent index per cascade (``model._precedent_index``).
    """

    __slots__ = ("graph", "_order", "_in_rows", "time")

    def __init__(self, graph: DataGraph, order: tuple[NodeId, ...],
                 in_rows: dict[NodeId, list[int]], time: int):
        self.graph = graph
        self._order = order
        self._in_rows = in_rows
        self.time = time

    @property
    def active_prefix(self) -> tuple[NodeId, ...]:
        return self._order[: self.time - 1]

    def precedents(self, v: NodeId) -> tuple[NodeId, ...]:
        return tuple(self._order[r] for r in self._in_rows.get(v, ()) if r < self.time - 1)


def build_topologies(graph: DataGraph, cascade: Cascade) -> list[DiffusionTopology]:
    """The views for t = 1..T+1, all over one order and one set of in-neighbour
    rows: v's rows are the ascending positions of the order's nodes that have
    an edge into v and activated before v, from one ``out_edges`` call."""
    order = cascade.nodes
    for node in order:
        if not 0 <= node < graph.node_count:
            raise ValueError(f"node {node} out of range")
    pos = {v: i for i, v in enumerate(order)}
    in_rows: dict[NodeId, list[int]] = {}
    row, target, _ = graph.out_edges(np.asarray(order, dtype=np.intp))
    for r, v in zip(row.tolist(), target.tolist()):
        if r < pos.get(v, r + 1):
            in_rows.setdefault(v, []).append(r)
    return [DiffusionTopology(graph, order, in_rows, t) for t in range(1, len(order) + 2)]
