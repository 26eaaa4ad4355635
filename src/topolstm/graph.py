"""Data graph and cascades, plus the reference topology views.

The graph's only adjacency is its CSR out-adjacency ``(out_ptr, out_idx)``,
built at construction, with every row strictly ascending, so CSR edge ids
run in (u, v) order.  Edge lookups, the edge list written to disk and
per-edge arrays such as the IC-SB probabilities all go through CSR edge ids.

A cascade is an ordered sequence of distinct activated nodes over a static
directed graph.  At time step t the "activation attempt" edges seen so far
form a DAG: every edge runs from a node activated before t to a node that is
either still inactive or was activated later than the source.  A node's
precedents at t are the sources of its attempt edges, so the whole DAG at
any t follows from the graph, the activation order and t.  The model keeps
only the precedents, in each forward's ``model.CascadeState``, which joins
the out-edges of its activations (``DataGraph.out_edges``) with its node ->
position array.  The IC-SB fit counts attempt edges over many cascades at
once, by the blocked join ``cascade_passes``.
``build_topologies`` gives the same precedents as per-step views for the
dict-based reference scorers; only the benchmark's gates call them.

Each input rule has one function here: ``read_records`` reads every input
text format in one pass over the whole file, ``write_lines`` writes them,
``write_json`` writes every JSON artefact, and ``drop_short`` decides which
cascades have a prediction step, for training and evaluation alike.
``read_records`` finds lines and fields by ASCII byte value; a text with
any other character is first rewritten by str.splitlines and str.split, so
Python's own rules decide its Unicode whitespace.
"""

from __future__ import annotations

import json
import logging
from collections import defaultdict
from dataclasses import dataclass
from itertools import accumulate, chain, count
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError
from .version import TOOL_VERSION

log = logging.getLogger(__name__)

NodeId = int


class DataGraph:
    """Directed graph with dense zero-based node ids, held as one CSR
    out-adjacency: u's successors are ``out_idx[out_ptr[u]:out_ptr[u + 1]]``
    and the edge u -> out_idx[e] has CSR edge id e.  Per-edge data are arrays
    indexed by edge id.  Every row is strictly ascending, so edge ids run in
    (u, v) order and ``edge_key[e] = u * node_count + v`` ascends with e."""

    __slots__ = ("labels", "out_ptr", "out_idx", "edge_key", "label_index")

    def __init__(self, labels: Sequence[str], out_ptr, out_idx):
        self.labels = tuple(labels)
        self.out_ptr = np.array(out_ptr, dtype=np.intp)
        self.out_idx = np.array(out_idx, dtype=np.intp)
        if self.out_ptr.shape != (len(self.labels) + 1,) or self.out_ptr[-1] != self.out_idx.size:
            raise ValueError("out_ptr must hold node_count + 1 offsets ending at the edge count")
        src, dst = self.edge_pairs()
        if ((dst < 0) | (dst >= self.node_count) | (dst == src)).any():
            raise ValueError("out_idx must hold node ids in [0, node_count), none its own row's")
        key = self.edge_key = src * self.node_count + dst
        if (key[1:] <= key[:-1]).any():
            raise ValueError("each row of out_idx must hold strictly ascending node ids")
        for arr in (self.out_ptr, self.out_idx, self.edge_key):
            arr.flags.writeable = False
        self.label_index = dict(zip(self.labels, range(len(self.labels))))
        if len(self.label_index) != len(self.labels):
            raise ValueError("labels must be distinct")

    @property
    def node_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return self.out_idx.size

    def edge_id(self, u, v) -> np.ndarray:
        """CSR edge id of each u -> v, -1 where the graph has no such edge;
        u and v are node ids or arrays of them, broadcast together."""
        m = self.node_count
        want = np.where((0 <= u) & (u < m) & (0 <= v) & (v < m), np.multiply(u, m) + v, -1)
        # The keys below want and below want + 1: one more where want is a key.
        below, upto = np.searchsorted(self.edge_key, (want, want + 1))
        return np.where(upto > below, below, -1)

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
        row = np.arange(nodes.size).repeat(count)
        edge = (start - count.cumsum() + count)[row]
        edge += np.arange(row.size)
        return row, self.out_idx[edge], edge

    @classmethod
    def from_edges(cls, node_count: int,
                   edges: "np.ndarray | Iterable[tuple[NodeId, NodeId]]",
                   labels: Sequence[str] | None = None) -> "DataGraph":
        """Build a graph from (src, dst) id pairs, a (k, 2) integer array or
        any iterable of pairs, dropping repeats; labels default to str(id).
        The first bad pair raises: ValueError when out of range, DataError
        when a self-loop."""
        labels = tuple(str(i) for i in range(node_count)) if labels is None else tuple(labels)
        if len(labels) != node_count:
            raise ValueError("labels length must equal node_count")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        pairs = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
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


def _layout(text: str) -> tuple[np.ndarray, np.ndarray, str]:
    """(fields on each line, which lines are records, the records' text) of
    a text whose whitespace is ASCII: bytes 9-13 and 28-32, of which 10-13
    and 28-30 break lines, with "\\r\\n" one break.  The lines are those of
    text.splitlines() and one more, empty when text ends in a break; the
    records' text has each comment line cut out, from its first field to its break."""
    raw = text.encode("utf-8", "surrogatepass") + b" "   # a pad: data[-1] is no "\r"
    data = np.frombuffer(raw, dtype=np.uint8)
    # uint8 arithmetic wraps, so data - a <= n holds exactly where a <= data <= a + n.
    space = ((data - 9) <= 4) | ((data - 28) <= 4)
    head = ~space
    head[1:] &= space[:-1]
    start = np.flatnonzero(head)                  # the first byte of each field
    ends = np.flatnonzero(((data - 10) <= 3) | ((data - 28) <= 2))
    ends = ends[(data[ends] != 10) | (data[ends - 1] != 13)]   # "\r\n" is one break
    # Line i (from 0) holds fields bounds[i]:bounds[i + 1].
    bounds = np.concatenate(([0], np.searchsorted(start, ends), [start.size]))
    width = np.diff(bounds)
    filled = np.flatnonzero(width)
    comment = filled[data[start[bounds[filled]]] == ord("#")]
    record = width > 0
    record[comment] = False
    line_end = np.append(ends, data.size - 1)     # the last line ends with the text
    # Pieces of raw to keep, the last one ending before the pad.
    keep = [0, *np.stack((start[bounds[comment]], line_end[comment]), 1).ravel().tolist(), -1]
    kept = b"".join(raw[a:b] for a, b in zip(keep[::2], keep[1::2]))
    return width, record, kept.decode("utf-8", "surrogatepass")


def read_records(text: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """(fields, ptr, lineno) of the records of text: record r is the line
    numbered lineno[r] (from 1), split into fields[ptr[r]:ptr[r + 1]].

    Lines and fields are those of str.splitlines and str.split; a line
    without fields, or whose first field starts with '#', is no record.
    """
    if not text.isascii():
        # The same lines and fields, with ' ' and '\n' the only separators left.
        text = "\n".join(" ".join(line.split()) for line in text.splitlines())
    width, record, kept = _layout(text)
    return kept.split(), np.append(0, np.cumsum(width[record])), np.flatnonzero(record) + 1


def stripped_line(text: str, lineno) -> str:
    """Line ``lineno`` of text, stripped, for an error message."""
    return text.splitlines()[lineno - 1].strip()


def write_lines(path, lines: Iterable[str], header: str | None = None) -> None:
    """Write an optional '# header' line, then one line per record."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for line in lines:
            fh.write(f"{line}\n")


def write_json(path, doc: dict) -> None:
    """Write doc, with the tool version added, as indented JSON with sorted keys."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**doc, "tool_version": TOOL_VERSION}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_graph(text: str, undirected: bool = False) -> DataGraph:
    """Parse a whitespace-separated edge list into a DataGraph.

    Lines starting with '#' and blank lines are ignored.  Node labels are
    interned to dense ids in first-appearance order.  With ``undirected``
    each line yields both directions.  Duplicate edges are dropped with a
    warning; the first malformed line, self-loop or label starting with '#'
    raises DataError naming the line.
    """
    fields, ptr, lineno = read_records(text)
    index = defaultdict(count().__next__)          # a new label takes the next id
    ids = np.fromiter(map(index.__getitem__, fields), dtype=np.intp, count=len(fields))
    del fields      # about 60 bytes a field; the labels are all that is needed from here
    labels = tuple(index)
    malformed = np.flatnonzero(np.diff(ptr) != 2)
    k = malformed[0] if malformed.size else lineno.size   # records before k are pairs
    pairs = ids[:2 * k].reshape(k, 2)
    # Only a second field can start with '#'; saved first, it would read back as a comment.
    hashed = np.array([label[0] == "#" for label in labels], dtype=bool)
    bad = np.flatnonzero((pairs[:, 0] == pairs[:, 1]) | hashed[pairs[:, 1]])
    if bad.size:
        u, v = pairs[bad[0]]
        if u == v:
            raise DataError(f"graph line {lineno[bad[0]]}: self-loop on node {labels[u]!r}")
        raise DataError(f"graph line {lineno[bad[0]]}: label {labels[v]!r} starts with '#'")
    if k < lineno.size:
        raise DataError(f"graph line {lineno[k]}: expected 'src dst', "
                        f"got {stripped_line(text, lineno[k])!r}")
    if undirected:
        pairs = np.concatenate((pairs, pairs[:, ::-1]))
    graph = DataGraph.from_edges(len(labels), pairs, labels)
    if len(pairs) > graph.edge_count:
        log.warning("dropped %d duplicate edge(s) while loading graph",
                    len(pairs) - graph.edge_count)
    return graph


def load_graph_file(path, undirected: bool = False) -> DataGraph:
    return load_graph(Path(path).read_text(encoding="utf-8-sig"), undirected=undirected)


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


def pack_cascades(graph: DataGraph, cascades: Iterable[Cascade]) -> tuple[np.ndarray, ...]:
    """Cascades packed end to end for ``cascade_passes``: cascade i holds
    rows ptr[i]..ptr[i + 1]-1, row r is node nodes[r] of cascade cid[r].
    DataError if a node is outside the graph."""
    seqs = [c.nodes for c in cascades]     # tuples: len and iter without a Python call
    ptr = np.fromiter(accumulate(map(len, seqs), initial=0), np.intp, len(seqs) + 1)
    nodes = np.fromiter(chain.from_iterable(seqs), np.intp, ptr[-1])
    if nodes.size and not (0 <= nodes.min() and nodes.max() < graph.node_count):
        raise DataError("cascade references nodes outside the graph")
    return ptr, nodes, np.arange(len(seqs)).repeat(ptr[1:] - ptr[:-1])


FIT_CHUNK = 4096


def cascade_passes(graph: DataGraph, ptr: np.ndarray, nodes: np.ndarray, cid: np.ndarray):
    """The IC-SB fit's join of packed cascades' rows with their out-edges.

    A pass takes max(1, FIT_CHUNK // node_count) consecutive cascades, which
    bounds its memory, and reads each out-edge's target row from one reused
    table of node_count cells per cascade.  Yields (row, target, target row,
    edge) per pass, in row order: CSR edge ``edge`` runs from row ``row``'s
    node to ``target``, row ``target row`` of the same cascade or -1 if absent.
    """
    m, n, bounds = graph.node_count, ptr.size - 1, ptr.tolist()
    step = max(1, FIT_CHUNK // m)
    table = np.full(min(step, n) * m, -1, dtype=np.intp)
    for c0 in range(0, n, step):
        lo, hi = bounds[c0], bounds[min(c0 + step, n)]
        block = (cid[lo:hi] - c0) * m
        cell = block + nodes[lo:hi]
        table[cell] = np.arange(lo, hi)
        row, target, edge = graph.out_edges(nodes[lo:hi])
        at = table[block[row] + target]
        table[cell] = -1
        yield row + lo, target, at, edge


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
    """Parse one cascade per line (labels in activation order), validated
    against graph.  The first line that repeats a node raises DataError,
    unless that line or an earlier one has a label the graph lacks: then the
    DataError lists every such label with the first line it is on."""
    fields, ptr, lineno = read_records(text)
    flat = list(map(graph.label_index.get, fields))
    # The records before the first with an unknown label make the cascades.
    stop = np.searchsorted(ptr, flat.index(None) if None in flat else len(flat), "right") - 1
    bounds = ptr[:stop + 1].tolist()
    cascades: list[Cascade] = []
    for ln, a, b in zip(lineno.tolist(), bounds, bounds[1:]):
        try:
            cascades.append(Cascade(tuple(flat[a:b])))
        except ValueError:   # the only check Cascade can fail here: repeated nodes
            raise DataError(f"cascade line {ln}: repeated node in "
                            f"{stripped_line(text, ln)!r}") from None
    if stop < lineno.size:
        unknown = [i for i, v in enumerate(flat) if v is None]
        first_line: dict[str, int] = {}
        for i, ln in zip(unknown, lineno[np.searchsorted(ptr, unknown, "right") - 1].tolist()):
            first_line.setdefault(fields[i], ln)
        listing = ", ".join(f"{lab!r} (line {ln})" for lab, ln in sorted(first_line.items()))
        raise DataError(f"cascade nodes not present in graph: {listing}")
    return cascades


def load_cascades_file(path, graph: DataGraph) -> list[Cascade]:
    return load_cascades(Path(path).read_text(encoding="utf-8-sig"), graph)


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
    reads the precedents from its ``CascadeState``.
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
