"""Next-activation ranking evaluation: MAP@k and Hits@k.

Every step t = 2..T of every test cascade yields one prediction instance:
rank all inactive nodes given the true prefix and check where the actual
next activation lands.  Exactly one item is relevant per instance, so
average precision truncated at k collapses to 1/rank when rank <= k.
Instances are pooled across cascades (micro-average).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import NumericError
from .graph import Cascade, DataGraph, drop_short
from .model import Model, forward_cascade
from .version import TOOL_VERSION

DEFAULT_KS = (10, 50, 100)


def rank_candidates(scores: Mapping[int, float]) -> list[int]:
    """Candidates by descending score; ties broken by ascending node id."""
    if not scores:
        raise ValueError("no candidates to rank")
    return sorted(scores, key=lambda v: (-scores[v], v))


def target_rank(cand: np.ndarray, scores: np.ndarray, target: int) -> int:
    """1-based rank of ``target`` under the descending-score ordering.

    Equivalent to rank_candidates(...).index(target) + 1 without the sort.
    """
    pos = int(np.searchsorted(cand, target))
    if pos >= cand.size or cand[pos] != target:
        raise ValueError(f"target {target} not among candidates")
    # cand ascends, so the candidates below target are those before pos.
    s = scores[pos]
    return int(np.count_nonzero(scores > s) + np.count_nonzero(scores[:pos] == s)) + 1


def hits_at_k(rank: int, k: int) -> int:
    """1 iff the target landed in the top k."""
    if rank < 1:
        raise ValueError("rank is 1-based")
    return 1 if rank <= k else 0


def map_at_k(rank: int, k: int) -> float:
    """Average precision truncated at k with a single relevant item."""
    if rank < 1:
        raise ValueError("rank is 1-based")
    return 1.0 / rank if rank <= k else 0.0


@dataclass
class MetricsTable:
    """(metric, k) -> mean value in [0, 1] over all prediction instances."""

    ks: tuple[int, ...]
    values: dict[tuple[str, int], float]
    instances: int
    scorer: str = "model"
    by_prefix_length: dict[int, dict] = field(default_factory=dict)

    def value(self, metric: str, k: int) -> float:
        return self.values[(metric, k)]

    def to_json_dict(self) -> dict:
        return {
            "scorer": self.scorer,
            "instances": self.instances,
            "averaging": "micro (all prediction instances pooled)",
            "metrics": [
                {"metric": metric, "k": k, "value": self.values[(metric, k)],
                 "percent": 100.0 * self.values[(metric, k)]}
                for metric in ("map", "hits") for k in self.ks
            ],
        }

    def text_rows(self) -> list[str]:
        head = "".join(f"   @{k:<7d}" for k in self.ks)
        lines = [f"{'':14s}{head}"]
        for metric, label in (("map", "MAP@k (%)"), ("hits", "Hits@k (%)")):
            cells = "".join(f"{100.0 * self.values[(metric, k)]:>10.3f}" for k in self.ks)
            lines.append(f"{label:<14s}{cells}")
        return lines


def evaluate(scorer, cascades: Sequence[Cascade], ks: Iterable[int] = DEFAULT_KS,
             workers: int = 1) -> MetricsTable:
    """Score every prediction step of every cascade and average the metrics.

    Length-1 cascades have no prediction step and are dropped with a warning,
    as in training; an empty set, or one of length-1 cascades only, raises.
    ``scorer`` must provide ``step_scores(cascade)`` yielding, for each step
    t = 2..T, a triple (candidate ids ascending, scores aligned with them,
    target id).  Sums run in instance order, so reordering the cascades can
    change a mean in its last bits.  ``workers`` has one legal value, 1:
    evaluation runs on one thread, and the keyword stays only because the
    benchmark harness passes ``workers=1``.
    """
    if workers != 1:
        raise ValueError("workers must be 1: evaluation runs on one thread")
    ks = tuple(sorted(set(int(k) for k in ks)))
    if not ks:
        raise ValueError("need at least one k")
    if ks[0] < 1:
        raise ValueError(f"every k must be >= 1, got {ks[0]}")
    cascades, _ = drop_short(list(cascades), "test set")
    if not cascades:
        raise ValueError("empty test set")

    ranks: list[int] = []
    by_length: dict[int, list[int]] = {}
    for cascade in cascades:
        steps = scorer.step_scores(cascade)
        for prefix_len, (cand, scores, target) in enumerate(steps, start=1):
            rank = target_rank(cand, scores, target)
            ranks.append(rank)
            by_length.setdefault(prefix_len, []).append(rank)

    by_prefix = {
        length: {"instances": len(group),
                 **{f"{metric}@{k}": value
                    for (metric, k), value in _metric_means(group, ks).items()}}
        for length, group in sorted(by_length.items())
    }
    name = getattr(scorer, "name", type(scorer).__name__)
    return MetricsTable(ks=ks, values=_metric_means(ranks, ks),
                        instances=len(ranks), scorer=name,
                        by_prefix_length=by_prefix)


def _metric_means(ranks: Sequence[int], ks: tuple[int, ...]
                  ) -> dict[tuple[str, int], float]:
    """(metric, k) -> mean over ``ranks``, each sum taken in instance order."""
    return {(metric, k): sum(term(rank, k) for rank in ranks) / len(ranks)
            for metric, term in (("map", map_at_k), ("hits", hits_at_k))
            for k in ks}


class ModelScorer:
    """Step scorer that runs the trained model over each test cascade."""

    name = "topo-lstm"

    def __init__(self, model: Model, graph: DataGraph):
        self.model = model
        self.graph = graph

    def step_scores(self, cascade: Cascade):
        result = forward_cascade(self.model, self.graph, cascade)
        if not np.isfinite(result.probs).all():
            raise NumericError(f"non-finite probabilities for the cascade from node {cascade[0]}")
        for s in range(len(cascade) - 1):
            # Candidates come from positions, not probs > 0: a probability
            # can underflow to 0.  Softmax is strictly increasing, so
            # probabilities rank like scores.
            cand = np.flatnonzero(result.pos > s)
            yield cand, result.probs[s, cand], cascade[s + 1]


def write_metrics_json(path, tables: Sequence[MetricsTable], config_echo: dict) -> None:
    doc = {
        "tool_version": TOOL_VERSION,
        "config": config_echo,
        "results": [t.to_json_dict() for t in tables],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_metrics_text(path, tables: Sequence[MetricsTable], config_echo: dict) -> None:
    lines = [f"# topolstm {TOOL_VERSION} ranking metrics "
             f"(micro-averaged over prediction instances)",
             f"# config: {json.dumps(config_echo, sort_keys=True)}"]
    for table in tables:
        lines.append("")
        lines.append(f"{table.scorer}  ({table.instances} instances)")
        lines.extend(table.text_rows())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_length_buckets_csv(path, table: MetricsTable) -> None:
    """Per-prefix-length metric breakdown (one row per observed prefix length)."""
    fieldnames = ["prefix_length", "instances"] + [
        f"{metric}@{k}" for metric in ("map", "hits") for k in table.ks]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for length, bucket in table.by_prefix_length.items():
            writer.writerow({"prefix_length": length, **bucket})
