"""Span tracing around calls into topolstm's public functions.

A traced call records one span: a name, a start and end time from
``time.perf_counter`` and the index of the enclosing span (-1 for a root).
Spans stay in memory in four parallel lists until the run ends.

Wrapping replaces the function on its home module and on every other
topolstm module that bound it with ``from .x import f``, so calls made
inside the package are seen too.  Methods are replaced on their class.
Generator functions get one span per ``next`` so the time a consumer
spends between items is not charged to the generator.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute, span name).  A dotted attribute names a method.
TARGETS = (
    ("graph", "load_graph_file", "graph.load_graph_file"),
    ("graph", "load_cascades_file", "graph.load_cascades_file"),
    ("graph", "build_topologies", "graph.build_topologies"),
    ("model", "cell_forward", "model.cell_forward"),
    ("model", "forward_cascade", "model.forward_cascade"),
    ("model", "backward_cascade", "model.backward_cascade"),
    ("model", "predict_next", "model.predict_next"),
    ("numeric", "affine", "numeric.affine"),
    ("numeric", "nll_from_scores", "numeric.nll_from_scores"),
    ("numeric", "ParameterStore.__setitem__", "numeric.ParameterStore.setitem"),
    ("numeric", "ParameterStore.squared_l2", "numeric.ParameterStore.squared_l2"),
    ("numeric", "ParameterStore.fill", "numeric.ParameterStore.bulk"),
    ("numeric", "ParameterStore.scale", "numeric.ParameterStore.bulk"),
    ("numeric", "ParameterStore.accumulate", "numeric.ParameterStore.bulk"),
    ("numeric", "ParameterStore.copy", "numeric.ParameterStore.bulk"),
    ("numeric", "Adam.step", "numeric.Adam.step"),
    ("training", "train", "training.train"),
    ("evaluation", "evaluate", "evaluation.evaluate"),
    ("evaluation", "target_rank", "evaluation.target_rank"),
    ("evaluation", "ModelScorer.step_scores", "evaluation.step_scores"),
    ("baseline", "fit_static_bernoulli", "baseline.fit_static_bernoulli"),
    ("baseline", "ICSBScorer.step_scores", "baseline.ICSBScorer.step_scores"),
    ("checkpoint", "save_model", "checkpoint.save_model"),
    ("checkpoint", "load_model", "checkpoint.load_model"),
)


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def wrap(self, fn, name: str):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = self.enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.exit(idx)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(idx)
        return wrapper

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its direct children cover."""
        kids: dict[int, list[int]] = defaultdict(list)
        for i, p in enumerate(self.parents):
            if p >= 0:
                kids[p].append(i)
        out = []
        for i in range(len(self.names)):
            lo, hi = self.starts[i], self.ends[i]
            covered, cursor = 0.0, lo
            for k in kids.get(i, ()):  # index order is start order
                a, b = max(self.starts[k], cursor), min(self.ends[k], hi)
                if b > a:
                    covered += b - a
                    cursor = b
            out.append(hi - lo - covered)
        return out

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        self_t = self.self_times()
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, name in enumerate(self.names):
            row = out[name]
            row["calls"] += 1
            row["s"] += self.ends[i] - self.starts[i]
            row["self_s"] += self_t[i]
        return dict(out)

    def root_accounting_error(self) -> float:
        """Largest share of a root span's duration that the self times of
        its subtree fail to account for.  Zero when children nest inside
        their parents and do not overlap."""
        acc = self.self_times()
        for i in range(len(acc) - 1, -1, -1):  # children follow parents
            if self.parents[i] >= 0:
                acc[self.parents[i]] += acc[i]
        worst = 0.0
        for i, p in enumerate(self.parents):
            dur = self.ends[i] - self.starts[i]
            if p < 0 and dur > 0:
                worst = max(worst, abs(dur - acc[i]) / dur)
        return worst


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every target; returns the (owner, attribute, original) undo list.

    A target the package no longer defines is skipped, and its metrics read 0.
    """
    undo: list[tuple] = []
    loaded = [m for k, m in list(sys.modules.items())
              if m is not None and (k == "topolstm" or k.startswith("topolstm."))]
    for module_name, attr, span in TARGETS:
        home = sys.modules.get(f"topolstm.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name, None)
            original = vars(cls).get(meth) if cls is not None else None
            if original is None:
                continue
            undo.append((cls, meth, original))
            setattr(cls, meth, tracer.wrap(original, span))
            continue
        original = getattr(home, attr, None)
        if original is None:
            continue
        wrapped = tracer.wrap(original, span)
        for mod in loaded:
            for name, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, name, original))
                    setattr(mod, name, wrapped)
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


def layer_metrics(summary: dict[str, dict], epoch_seconds: list[float]) -> dict[str, float]:
    """The per-layer metric values named in BENCHMARK.json, from one traced unit."""
    def row(name):
        return summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    out: dict[str, float] = {}
    for name in ("graph.build_topologies", "numeric.affine", "numeric.nll_from_scores",
                 "numeric.ParameterStore.squared_l2", "numeric.Adam.step",
                 "evaluation.target_rank"):
        out[f"{name}.calls"] = row(name)["calls"]
        out[f"{name}.s"] = row(name)["s"]
    for name in ("model.cell_forward", "model.forward_cascade",
                 "model.backward_cascade", "model.predict_next"):
        out[f"{name}.calls"] = row(name)["calls"]
        out[f"{name}.s"] = row(name)["s"]
        out[f"{name}.self_s"] = row(name)["self_s"]
    for name in ("training.train", "evaluation.evaluate"):
        out[f"{name}.s"] = row(name)["s"]
        out[f"{name}.self_s"] = row(name)["self_s"]
    for name in ("evaluation.step_scores", "baseline.fit_static_bernoulli",
                 "baseline.ICSBScorer.step_scores", "checkpoint.load_model",
                 "checkpoint.save_model", "numeric.ParameterStore.bulk"):
        out[f"{name}.s"] = row(name)["s"]
    out["graph.load.s"] = row("graph.load_graph_file")["s"] + row("graph.load_cascades_file")["s"]
    out["numeric.ParameterStore.setitem.calls"] = row("numeric.ParameterStore.setitem")["calls"]
    out["training.epoch.s_p50"] = statistics.median(epoch_seconds) if epoch_seconds else 0.0
    return out
