"""Next-activation ranking evaluation: MAP@k and Hits@k.

Every step t = 2..T of every test cascade yields one prediction instance:
rank all inactive nodes given the true prefix and check where the actual
next activation lands.  Exactly one item is relevant per instance, so
average precision truncated at k collapses to 1/rank when rank <= k.
Instances are pooled across cascades (micro-average).  Each sum adds one term
at a time in instance order, by ``np.add.accumulate`` or ``np.bincount``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graph import Cascade, DataGraph, drop_short, write_json
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
    pos = int(cand.searchsorted(target))
    if pos >= cand.size or cand[pos] != target:
        raise ValueError(f"target {target} not among candidates")
    # cand ascends, so the candidates that win a tie are those before pos.
    s = scores[pos]
    return int(np.count_nonzero(scores[:pos] >= s) + np.count_nonzero(scores[pos:] > s)) + 1


@dataclass
class MetricsTable:
    """(metric, k) -> mean value in [0, 1] over all prediction instances."""

    ks: tuple[int, ...]
    values: dict[tuple[str, int], float]
    instances: int
    scorer: str = "model"
    by_prefix_length: dict[int, dict] = field(default_factory=dict)
    mean_nll: float | None = None   # model scorers only, so not in values

    def value(self, metric: str, k: int) -> float:
        return self.values[(metric, k)]

    def to_json_dict(self) -> dict:
        finite = self.mean_nll is not None and np.isfinite(self.mean_nll)
        nll = {} if self.mean_nll is None else {"mean_nll": self.mean_nll if finite else None}
        return {
            **nll,
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
        if self.mean_nll is not None:
            nll = f"{self.mean_nll:.6f}" if np.isfinite(self.mean_nll) else "null"
            lines.append(f"{'NLL per step':<14s}{nll:>10s}")
        return lines


def evaluate(scorer, cascades: Sequence[Cascade], ks: Iterable[int] = DEFAULT_KS,
             workers: int = 1) -> MetricsTable:
    """Score every prediction step of every cascade and average the metrics.

    Length-1 cascades have no prediction step and are dropped with a warning,
    as in training; an empty set, or one of length-1 cascades only, raises.
    ``scorer`` must provide ``step_scores(cascade)`` yielding, for each step
    t = 2..T, a triple (candidate ids ascending, scores aligned with them,
    target id).  Sums run in instance order, so reordering the cascades can
    change a mean in its last bits.  A scorer with ``nll_sum`` and ``nll_steps``
    gets its mean per-step NLL reported.  ``workers`` has one legal value, 1:
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

    ranks, lengths = [], []
    for cascade in cascades:
        steps = scorer.step_scores(cascade)
        for prefix_len, (cand, scores, target) in enumerate(steps, start=1):
            ranks.append(target_rank(cand, scores, target))
            lengths.append(prefix_len)

    # One column of terms per (metric, k): an instance's MAP@k term is 1/rank
    # and its Hits@k term 1 when rank <= k, both 0 otherwise.
    keys = [(metric, k) for metric in ("map", "hits") for k in ks]
    ranks, lengths = np.array(ranks), np.array(lengths)
    hit = ranks[:, None] <= np.array(ks)
    terms = np.hstack([np.where(hit, 1.0 / ranks[:, None], 0.0), hit])
    count = np.bincount(lengths)
    seen = np.flatnonzero(count)
    sums = np.array([np.bincount(lengths, column)[seen] for column in terms.T]).T
    by_prefix = {length: {"instances": n, **{f"{m}@{k}": v for (m, k), v in zip(keys, row)}}
                 for length, n, row in zip(seen.tolist(), count[seen].tolist(),
                                           (sums / count[seen, None]).tolist())}
    means = np.add.accumulate(terms)[-1] / ranks.size
    nll = scorer.nll_sum / scorer.nll_steps if hasattr(scorer, "nll_steps") else None
    name = getattr(scorer, "name", type(scorer).__name__)
    return MetricsTable(ks=ks, values=dict(zip(keys, means.tolist())), instances=ranks.size,
                        scorer=name, by_prefix_length=by_prefix, mean_nll=nll)


class ModelScorer:
    """Step scorer that runs the trained model over each test cascade."""

    name = "topo-lstm"

    def __init__(self, model: Model, graph: DataGraph):
        self.model = model
        self.graph = graph
        self.nll_sum, self.nll_steps = 0.0, 0   # over every step scored so far

    def step_scores(self, cascade: Cascade):
        result = forward_cascade(self.model, self.graph, cascade)   # raises on unusable scores
        self.nll_sum += float(result.losses.sum())
        self.nll_steps += result.losses.size
        # Candidates come from the cascade, not probs > 0: a probability can
        # underflow to 0.  Softmax is strictly increasing, so probabilities
        # rank like scores.
        nodes = cascade.nodes
        for s in range(len(nodes) - 1):
            cand = (result.pos > s).nonzero()[0]
            yield cand, result.probs[s, cand], nodes[s + 1]


def write_metrics_json(path, tables: Sequence[MetricsTable], config_echo: dict) -> None:
    write_json(path, {"config": config_echo, "results": [t.to_json_dict() for t in tables]})


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
