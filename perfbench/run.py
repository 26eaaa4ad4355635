#!/usr/bin/env python3
"""topolstm benchmark: training throughput, evaluate cost and predict latency.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``topolstm`` from its
``src`` directory; it exits with code 2 before measuring anything when that
package is missing.  Inputs are generated from ``--seed`` with
``datagen.generate_dataset`` and written to files under ``perfbench/_work``,
so the program under test receives only those files.

One run repeats a *unit* of work until ``--seconds`` have passed (at least
once).  A unit is what a user of the workload does once: train a model (on
the train workloads), evaluate it and the IC-SB baseline on the held-out
split, and serve ``predict_next`` queries from one closed-loop client.
Each phase's wall time is rescaled to a reference machine speed with a
calibration piece timed next to it (see ``Calibration``), and the median over
units is reported.
With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported;
with ``--trace 1`` units alternate untraced and traced, and the per-layer
metrics come from the traced ones together with the tracing overhead.

Every line but the last is for people.  The last line is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
when every correctness gate passed, 1 when one failed and 2 when the
benchmark could not run.  ``--workload all`` runs every workload in turn in
this process; its last line prefixes each metric with the workload name and
its peak_rss_mb values are the process peak so far.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"
RESULTS_DIR = BENCH_DIR / "results"

SETUP_REPEATS_FIRST = 3    # set-ups before the first unit ...
SETUP_REPEATS_PER_UNIT = 2  # ... and after each unit; setup_s is their median
GATE_SAMPLES = 24          # evaluate / IC-SB / predict steps checked against references
TIE_EPS = 1e-9             # relative score gap treated as a tie when comparing ranks
PROB_ATOL = 1e-12
PROB_RTOL = 1e-9
GRAD_CASCADES = 3          # train cascades whose gradients are checked by finite differences
GRAD_PREFIX = 20           # ... cut to at most this many nodes
GRAD_STEP = 1e-4           # finite-difference step along the checked direction
GRAD_RTOL = 1e-3           # largest relative error accepted (numeric.finite_difference_check)

# Final training loss after the workload's epochs at the commit that
# introduced the benchmark, as (reference, allowed absolute deviation), keyed
# by (workload, small).  Full size: the median over seeds 1-10, with room for
# the spread between seeds.  Small (self-test) size: seed 1 only.
# pa1k-long takes only two Adam steps, so its loss stays near log(850) and
# its band is narrow; seeds 1-10 spread over 0.0013 there and 0.085 on desk-train.
REFERENCE_LOSS = {
    ("desk-train", False): (5.0343, 0.15),
    ("pa1k-long", False): (6.7430, 0.02),
    ("desk-train", True): (5.2553, 0.05),
    ("pa1k-long", True): (5.6365, 0.05),
}

PHASES = ("train", "eval", "icsb", "predict")
SERVE_PASSES = 2           # passes through evaluate, IC-SB and predict per unit

EXIT_GATE_FAILED = 1
EXIT_CANNOT_RUN = 2


class CannotRun(Exception):
    """The benchmark cannot measure in this directory or with these arguments."""


@dataclass(frozen=True)
class Workload:
    name: str
    score_mode: str
    train_epochs: int          # 0: serve a seeded, untrained checkpoint
    predict_queries: int       # 0: every prefix of every test cascade
    keep_full_length: int      # >0: keep the first this many cascades that reached the length cap


WORKLOADS = {
    "desk-train": Workload("desk-train", "precedent-only", 1, 300, 0),
    "pa1k-long": Workload("pa1k-long", "all-active", 1, 40, 40),
    "desk-serve": Workload("desk-serve", "precedent-only", 0, 0, 0),
}


def synth_config(datagen, workload: Workload, seed: int, small: bool):
    if workload.name == "pa1k-long":
        cfg = datagen.SynthConfig(
            node_count=1000, graph_model="preferential-attachment", edge_param=3,
            activation_prob=(0.2, 0.8), cascade_count=48, max_cascade_length=300,
            seed=seed)
        if small:
            cfg = replace(cfg, node_count=300, cascade_count=16, max_cascade_length=40)
        return cfg
    cfg = replace(datagen.PRESETS["desk-default"], seed=seed)
    return replace(cfg, cascade_count=60) if small else cfg


# --------------------------------------------------------------------------
# environment and input descriptors

def import_package():
    """Import topolstm from this checkout's src directory, or raise CannotRun."""
    if not (SRC / "topolstm" / "__init__.py").is_file():
        raise CannotRun(f"no topolstm package under {SRC}")
    sys.path.insert(0, str(SRC))
    import topolstm
    from topolstm import (baseline, checkpoint, datagen, evaluation, graph,
                          model, numeric, training)
    if Path(topolstm.__file__).resolve().parent != (SRC / "topolstm").resolve():
        raise CannotRun(f"imported topolstm from {topolstm.__file__}, not {SRC}")
    return dict(baseline=baseline, checkpoint=checkpoint, datagen=datagen,
                evaluation=evaluation, graph=graph, model=model, numeric=numeric,
                training=training)


def _openblas() -> dict:
    import numpy as np
    info: dict = {"version": None, "threads": None, "library": None}
    try:
        info["version"] = np.__config__.CONFIG["Build Dependencies"]["blas"].get("version")
    except (AttributeError, KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                           and line.split()[-1].startswith("/")})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                info["library"] = os.path.basename(path)
                return info
    return info


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10, check=False)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def describe_inputs(graph_path: Path, cascades_path: Path) -> dict:
    """Workload descriptors read from the input files, without topolstm."""
    ids: dict[str, int] = {}
    out: list[list[int]] = []

    def nid(label):
        if label not in ids:
            ids[label] = len(ids)
            out.append([])
        return ids[label]

    with open(graph_path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if parts and not parts[0].startswith("#"):
                u = nid(parts[0])
                out[u].append(nid(parts[1]))
    with open(cascades_path, encoding="utf-8") as fh:
        cascades = [[ids[x] for x in line.split()] for line in fh
                    if line.strip() and not line.startswith("#")]
    m = len(ids)
    steps = candidates = covered = precedents = activations = 0
    for cascade in cascades:
        active_in = [0] * m          # active in-neighbours = precedents while inactive
        active = [False] * m
        n_covered = 0                # inactive nodes with >= 1 precedent
        for t, v in enumerate(cascade, start=1):
            if t >= 2:
                steps += 1
                candidates += m - (t - 1)
                covered += n_covered
            precedents += active_in[v]
            activations += 1
            if active_in[v]:
                n_covered -= 1
            active[v] = True
            for w in out[v]:
                if not active[w]:
                    if active_in[w] == 0:
                        n_covered += 1
                    active_in[w] += 1
    lengths = [len(c) for c in cascades]
    return {
        "nodes": m,
        "edges": sum(len(s) for s in out),
        "cascades": len(cascades),
        "length_min": min(lengths),
        "length_max": max(lengths),
        "steps": steps,
        "mean_candidates_per_step": candidates / steps,
        "mean_precedents_per_activation": precedents / activations,
        "share_candidates_with_precedent": covered / candidates,
    }


# --------------------------------------------------------------------------
# inputs and set-up

@dataclass
class Inputs:
    graph_path: Path
    cascades_path: Path
    checkpoint_path: Path
    descriptors: dict


def make_inputs(pkg, workload: Workload, seed: int, small: bool, work: Path) -> Inputs:
    datagen, graph_mod = pkg["datagen"], pkg["graph"]
    cfg = synth_config(datagen, workload, seed, small)
    graph, cascades, _ = datagen.generate_dataset(cfg, out_dir=work)
    if workload.keep_full_length:
        full = [c for c in cascades if len(c) == cfg.max_cascade_length]
        keep = workload.keep_full_length if not small else 10
        if len(full) < keep:
            raise CannotRun(f"seed {seed}: only {len(full)} cascades reached "
                            f"length {cfg.max_cascade_length}, need {keep}")
        graph_mod.save_cascades_file(work / "cascades.txt", full[:keep], graph)
    return Inputs(work / "graph.txt", work / "cascades.txt", work / "model.ckpt",
                  describe_inputs(work / "graph.txt", work / "cascades.txt"))


@dataclass
class State:
    graph: object
    train: list
    val: list
    test: list
    probs: object
    model: object | None
    labels: tuple | None       # node labels read back from the checkpoint


def setup(pkg, workload: Workload, inputs: Inputs, seed: int, seeded_model) -> State:
    """Load the input files, split, fit IC-SB; on serve, round-trip the checkpoint."""
    graph_mod, training = pkg["graph"], pkg["training"]
    graph = graph_mod.load_graph_file(inputs.graph_path)
    cascades = graph_mod.load_cascades_file(inputs.cascades_path, graph)
    train, val, test = training.split_dataset(cascades, seed=seed)
    probs = pkg["baseline"].fit_static_bernoulli(graph, train)
    model = labels = None
    if seeded_model is not None:
        pkg["checkpoint"].save_model(inputs.checkpoint_path, seeded_model, graph.labels)
        model, labels, _ = pkg["checkpoint"].load_model(inputs.checkpoint_path)
    return State(graph, train, val, test, probs, model, labels)


def checkpoint_mismatches(st: State, saved) -> list[str]:
    """What the model loaded in set-up got wrong about the saved one: slots
    whose values are not identical, the slot order, the config, the labels."""
    import numpy as np
    bad = [name for name, arr in saved.params.items()
           if name not in st.model.params or not np.array_equal(st.model.params[name], arr)]
    if st.model.params.names() != saved.params.names():
        bad.append("slot order")
    if st.model.config != saved.config:
        bad.append("config")
    if tuple(st.labels) != tuple(st.graph.labels):
        bad.append("labels")
    return bad


# --------------------------------------------------------------------------
# one unit of work

@dataclass
class Unit:
    """One unit's outputs and timings.

    ``seconds`` maps a phase (train, eval, icsb, predict) to the wall time of
    each pass through it, and ``speed`` to the mean calibration reading over
    that pass (see ``Calibration``).  ``latencies`` holds one list of
    per-query wall times per predict pass, and ``tables`` the (metric
    values, instances) of each evaluate pass.
    """
    wall: float = 0.0
    seconds: dict = field(default_factory=lambda: {p: [] for p in PHASES})
    speed: dict = field(default_factory=lambda: {p: [] for p in PHASES})
    latencies: list = field(default_factory=list)
    tables: dict = field(default_factory=lambda: {"eval": [], "icsb": []})
    train_steps: int = 0                   # prediction steps x epochs of one train() call
    train_loss: float | None = None
    epoch_seconds: list = field(default_factory=list)
    train_readings: int = 0                # calibration readings taken inside train()
    predict_bad: int = 0                   # queries that raised or returned bad probabilities
    errors: list = field(default_factory=list)
    model: object | None = None


class Calibration:
    """A fixed piece of Python and small-array numpy work, timed before,
    during and after each measured phase to track how fast the shared
    machine runs at that moment.

    Its time does not depend on topolstm.  Dividing a phase's wall time by
    the mean calibration reading taken over it, and multiplying by
    ``REFERENCE_S``, gives the phase's time on a machine running at
    reference speed.
    """

    REFERENCE_S = 1.5e-3       # the piece's time on the machine this benchmark was written on
    PIECES = 3                 # pieces per reading; a reading is their fastest

    def __init__(self, every_s: float = 0.2):
        """``every_s``: inside a phase, a reading at most this often."""
        import numpy as np
        self.every_s = every_s
        self._np = np
        self._w = np.linspace(-0.1, 0.1, 32 * 32).reshape(32, 32)
        self._readings: list[float] = []
        self._spent = 0.0
        self._last = 0.0
        self.inside = 0        # readings taken inside the last timed phase

    def _piece(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        x, acc = np.zeros(32), {}
        for i in range(400):
            x = np.tanh(self._w @ x + 0.5)
            acc[i & 7] = float(x[i & 31])
        return time.perf_counter() - t0

    def _read(self) -> None:
        t0 = time.perf_counter()
        self._readings.append(min(self._piece() for _ in range(self.PIECES)))
        self._last = time.perf_counter()
        self._spent += self._last - t0

    def tick(self) -> None:
        """Called from inside a phase between two pieces of its work."""
        if time.perf_counter() - self._last >= self.every_s:
            self._read()

    def timed(self, fn):
        """Run ``fn()``; returns its result, its wall time without the
        readings taken inside it, and the mean reading over it."""
        self._readings = []
        self._read()
        self._spent = 0.0
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0 - self._spent
        self.inside = len(self._readings) - 1
        self._read()
        return result, wall, statistics.fmean(self._readings)

    def ticking(self, fn):
        """``fn`` with a tick before each call."""
        def ticked(*args, **kwargs):
            self.tick()
            return fn(*args, **kwargs)
        return ticked


class _TickingScorer:
    """Passes a scorer through to ``evaluate`` with a tick before each cascade."""

    def __init__(self, inner, cal: Calibration):
        self.inner, self.cal = inner, cal
        self.name = getattr(inner, "name", type(inner).__name__)

    def step_scores(self, cascade):
        self.cal.tick()
        yield from self.inner.step_scores(cascade)


def predict_queries(pkg, test, n: int) -> list:
    """Prefixes for the predict client: every prefix of every test cascade,
    or ``n`` of them evenly spaced in the list ordered by prefix length, so
    the mix of prefix lengths does not swing with the seed."""
    every = sorted(((k, ci) for ci, c in enumerate(test) for k in range(1, len(c))))
    if n and n < len(every):
        every = [every[(2 * i + 1) * len(every) // (2 * n)] for i in range(n)]
    return [pkg["graph"].Cascade(test[ci].nodes[:k]) for k, ci in every]


def _client(pkg, model, graph, queries: list, cal: Calibration, latencies: list,
            unit: Unit) -> None:
    """One closed-loop client: each query waits for the previous answer."""
    predict_next = pkg["model"].predict_next
    for prefix in queries:
        cal.tick()
        try:
            t0 = time.perf_counter()
            cand, probs = predict_next(model, graph, prefix)
            latencies.append(time.perf_counter() - t0)
        except Exception as exc:
            unit.errors.append(f"predict: {exc!r}")
            unit.predict_bad += 1
            continue
        if (cand.size != graph.node_count - len(prefix)
                or not abs(float(probs.sum()) - 1.0) <= 1e-9):
            unit.predict_bad += 1


def run_unit(pkg, workload: Workload, st: State, seed: int, queries: list,
             cal: Calibration) -> Unit:
    training, evaluation = pkg["training"], pkg["evaluation"]
    unit = Unit()
    begin = time.perf_counter()
    model = st.model
    if workload.train_epochs:
        tc = training.TrainConfig(learning_rate=1e-2, lam=1e-5, batch_size=16,
                                  max_epochs=workload.train_epochs, patience=0,
                                  seed=seed, workers=1)
        mc = pkg["model"].ModelConfig(hidden_dim=32, node_count=st.graph.node_count,
                                      score_mode=workload.score_mode)
        unit.train_steps = sum(len(c) - 1 for c in st.train) * tc.max_epochs
        # Readings inside train() happen between cascades, through the
        # forward_cascade binding it calls once per train or validation
        # cascade.  When train() stops calling it there, the run says so
        # (see missing_train_readings).
        original = getattr(training, "forward_cascade", None)
        if original is not None:
            training.forward_cascade = cal.ticking(original)
        try:
            (model, report), wall, speed = cal.timed(
                lambda: training.train(
                    st.graph, st.train, st.val, tc, mc,
                    epoch_callback=lambda stats, _m, _i: unit.epoch_seconds.append(stats.seconds)))
            unit.seconds["train"].append(wall)
            unit.speed["train"].append(speed)
            unit.train_readings = cal.inside
            unit.train_loss = report.epochs[-1].train_loss
        except Exception as exc:  # a failed op is counted, not fatal
            unit.errors.append(f"train: {exc!r}")
            model = None
        finally:
            if original is not None:
                training.forward_cascade = original
    unit.model = model
    if model is None:
        unit.predict_bad = len(queries) * SERVE_PASSES
        unit.wall = time.perf_counter() - begin
        return unit

    for _ in range(SERVE_PASSES):
        for label, scorer in (("eval", evaluation.ModelScorer(model, st.graph)),
                              ("icsb", pkg["baseline"].ICSBScorer(st.graph, st.probs))):
            try:
                table, wall, speed = cal.timed(
                    lambda: evaluation.evaluate(_TickingScorer(scorer, cal), st.test, workers=1))
            except Exception as exc:
                unit.errors.append(f"{label}: {exc!r}")
                continue
            unit.seconds[label].append(wall)
            unit.speed[label].append(speed)
            unit.tables[label].append(
                ({f"{k[0]}@{k[1]}": v for k, v in table.values.items()}, table.instances))
        if queries:
            latencies: list = []
            _, wall, speed = cal.timed(lambda: _client(pkg, model, st.graph, queries, cal,
                                                       latencies, unit))
            unit.seconds["predict"].append(wall)
            unit.speed["predict"].append(speed)
            unit.latencies.append(latencies)
    unit.wall = time.perf_counter() - begin
    return unit


# --------------------------------------------------------------------------
# correctness gates

def rank_band(scores, cand, target) -> tuple[int, int]:
    """Range of 1-based ranks the target may take when near-equal scores tie."""
    import numpy as np
    s = scores[int(np.searchsorted(cand, target))]
    tol = TIE_EPS * max(1.0, abs(float(s)))
    return (int(np.count_nonzero(scores > s + tol)) + 1,
            int(np.count_nonzero(scores >= s - tol)))


def sample_steps(rng, cascades, n) -> dict[int, list[int]]:
    """Seeded sample of (cascade index -> step indices); step k predicts c[k+1]."""
    flat = [(ci, k) for ci, c in enumerate(cascades) for k in range(len(c) - 1)]
    picks = sorted(flat[i] for i in rng.choice(len(flat), size=min(n, len(flat)), replace=False))
    out: dict[int, list[int]] = {}
    for ci, k in picks:
        out.setdefault(ci, []).append(k)
    return out


def check_eval_steps(pkg, model, graph, test, rng) -> int:
    """Evaluate's rank of each sampled step against the dict reference path
    (score_inactive + rank_candidates), and its probabilities against
    softmax_over_subset.  Returns the number of steps that disagree."""
    import numpy as np
    model_mod, evaluation, numeric = pkg["model"], pkg["evaluation"], pkg["numeric"]
    bad = 0
    for ci, ks in sample_steps(rng, test, GATE_SAMPLES).items():
        cascade = test[ci]
        steps = list(evaluation.ModelScorer(model, graph).step_scores(cascade))
        topos = pkg["graph"].build_topologies(graph, cascade)
        fwd = model_mod.forward_cascade(model, graph, cascade, compute_loss=False)
        for k in ks:
            cand, probs, target = steps[k]
            states = {cascade[i]: model_mod.CellState(fwd.H[i], fwd.C[i]) for i in range(k + 1)}
            ref = model_mod.score_inactive(states, topos[k + 1], model)
            ref_rank = evaluation.rank_candidates(ref).index(target) + 1
            ref_scores = np.array([ref[v] for v in cand])
            lo, hi = rank_band(ref_scores, cand, target)
            ref_probs = numeric.softmax_over_subset(ref, ref.keys())
            ok = (list(ref) == cand.tolist()
                  and lo <= evaluation.target_rank(cand, probs, target) <= hi
                  and lo <= ref_rank <= hi
                  and np.allclose(probs, [ref_probs[v] for v in cand],
                                  rtol=PROB_RTOL, atol=PROB_ATOL))
            bad += not ok
    return bad


def check_icsb_steps(pkg, graph, probs, test, rng) -> int:
    """ICSBScorer's step scores against the dict reference icsb_score."""
    import numpy as np
    baseline = pkg["baseline"]
    bad = 0
    for ci, ks in sample_steps(rng, test, GATE_SAMPLES).items():
        cascade = test[ci]
        steps = list(baseline.ICSBScorer(graph, probs).step_scores(cascade))
        topos = pkg["graph"].build_topologies(graph, cascade)
        for k in ks:
            cand, scores, _ = steps[k]
            ref = baseline.icsb_score(probs, topos[k + 1])
            ok = (sorted(ref) == cand.tolist()
                  and np.allclose(scores, [ref[v] for v in cand], rtol=0, atol=1e-12))
            bad += not ok
    return bad


def check_gradients(pkg, model, graph, train, rng) -> int:
    """backward_cascade against central differences of forward_cascade's loss,
    on seeded train-cascade prefixes in the model's score mode.

    Each parameter slot is checked along one direction that moves every
    coordinate by +-1: the sign of its analytic gradient, or a random sign
    where that is 0.  So every coordinate takes part, and the slope compared
    is the slot's gradient L1 norm, which rounding noise does not swamp even
    where single coordinates have tiny gradients.  A zeroed, scaled or
    sign-flipped slot changes that slope by half of it or more.  The
    difference quotient is the package's own ``numeric.finite_difference_check``
    on the step size along the direction.  Returns the number of cascades on
    which some slot's relative error exceeds GRAD_RTOL.
    """
    import numpy as np
    model_mod, numeric = pkg["model"], pkg["numeric"]
    bad = 0
    for ci in sorted(rng.choice(len(train), size=min(GRAD_CASCADES, len(train)), replace=False)):
        cascade = pkg["graph"].Cascade(train[ci].nodes[:GRAD_PREFIX])
        grads = model_mod.backward_cascade(model_mod.forward_cascade(model, graph, cascade), model)
        worst = 0.0
        for name, arr in model.params.items():
            base = arr.copy()
            direction = np.sign(grads[name])
            unset = direction == 0
            direction[unset] = rng.choice((-1.0, 1.0), size=int(unset.sum()))

            def loss_along(step):
                arr[...] = base + step["t"][0] * direction
                return model_mod.forward_cascade(model, graph, cascade).total_loss

            slope = numeric.ParameterStore({"t": np.array([np.sum(grads[name] * direction)])})
            try:
                res = numeric.finite_difference_check(
                    loss_along, numeric.ParameterStore({"t": np.zeros(1)}), slope, 1,
                    h=GRAD_STEP, rng=rng)
            finally:
                arr[...] = base
            worst = max(worst, res.max_rel_error)
        bad += not worst <= GRAD_RTOL
    return bad


def check_predict(pkg, model, graph, test, rng) -> int:
    """predict_next on sampled prefixes against evaluate's step for the same
    prefix: same candidates, same probabilities, the target ranked alike."""
    import numpy as np
    model_mod, evaluation, graph_mod = pkg["model"], pkg["evaluation"], pkg["graph"]
    bad = 0
    for ci, ks in sample_steps(rng, test, GATE_SAMPLES).items():
        cascade = test[ci]
        steps = list(evaluation.ModelScorer(model, graph).step_scores(cascade))
        for k in ks:
            cand, probs, target = steps[k]
            p_cand, p_probs = model_mod.predict_next(
                model, graph, graph_mod.Cascade(cascade.nodes[:k + 1]))
            lo, hi = rank_band(probs, cand, target)
            ok = (np.array_equal(p_cand, cand)
                  and np.allclose(p_probs, probs, rtol=PROB_RTOL, atol=PROB_ATOL)
                  and lo <= evaluation.target_rank(p_cand, p_probs, target) <= hi
                  and abs(float(p_probs.sum()) - 1.0) <= 1e-9)
            bad += not ok
    return bad


def same_values(a: dict | None, b: dict | None) -> bool:
    return a is not None and b is not None and a.keys() == b.keys() and all(
        abs(a[k] - b[k]) <= 1e-12 for k in a)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    gates: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def gate(self, name: str, ok: bool, failed_ops: int, note: str) -> None:
        self.gates[name] = self.gates.get(name, True) and ok
        if not ok:
            self.failed += failed_ops
            self.errors.append(f"{name}: {note}")


def tally_units(pkg, workload: Workload, st: State, units: list[Unit], queries: list,
                seed: int, expected_instances: int, small: bool, bad_loads: int) -> Tally:
    """Count attempted ops (train batches, evaluate instances, predict
    queries) and the ones that raised or failed a gate.  ``bad_loads`` is the
    number of set-ups whose checkpoint did not load back as saved."""
    import numpy as np
    tally = Tally()
    first = units[0]
    first_loss = next((u.train_loss for u in units if u.train_loss is not None), None)
    first_table = {label: next((t[0] for u in units for t in u.tables[label]), None)
                   for label in ("eval", "icsb")}
    expected_batches = (math.ceil(len(st.train) / 16) * workload.train_epochs
                        if workload.train_epochs else 0)
    for u in units:
        tally.errors.extend(u.errors)
        tally.attempted += expected_batches + SERVE_PASSES * (2 * expected_instances
                                                              + len(queries))
        if workload.train_epochs:
            ref, tol = REFERENCE_LOSS[(workload.name, small)]
            loss = u.train_loss
            ok = (loss is not None and math.isfinite(loss)
                  and abs(loss - first_loss) <= 1e-9 * abs(first_loss)
                  and abs(loss - ref) <= tol)
            tally.gate("train_loss", ok, expected_batches,
                       f"final loss {loss} vs reference {ref} +- {tol}")
        for label in ("eval", "icsb"):
            tables = u.tables[label]
            bad = SERVE_PASSES - len(tables) + sum(
                not (n == expected_instances and same_values(values, first_table[label])
                     and all(0.0 <= v <= 1.0 for v in values.values()))
                for values, n in tables)
            tally.gate(f"{label}_table", bad == 0, bad * expected_instances,
                       f"{label} metrics missing, differ between passes or out of range")
        tally.gate("predict_outputs", u.predict_bad == 0, u.predict_bad,
                   f"{u.predict_bad} predict queries raised or returned bad probabilities")
    if first.model is not None:
        rng = np.random.default_rng([seed, 2])
        for name, bad in (
                ("eval_vs_reference", check_eval_steps(pkg, first.model, st.graph, st.test, rng)),
                ("icsb_vs_reference", check_icsb_steps(pkg, st.graph, st.probs, st.test, rng)),
                ("predict_vs_evaluate", check_predict(pkg, first.model, st.graph, st.test, rng))):
            tally.gate(name, bad == 0, bad, f"{bad} of {GATE_SAMPLES} sampled steps disagree")
        if workload.train_epochs:
            bad = check_gradients(pkg, first.model, st.graph, st.train, rng)
            tally.gate("backward_vs_finite_differences", bad == 0, bad,
                       f"{bad} of {GRAD_CASCADES} sampled train cascades have a gradient slot "
                       f"off by more than {GRAD_RTOL} relative")
    if not workload.train_epochs:
        # Every evaluate instance and predict query ran on a loaded model.
        tally.gate("checkpoint_round_trip", bad_loads == 0,
                   len(units) * SERVE_PASSES * (expected_instances + len(queries)),
                   f"{bad_loads} set-ups loaded a model that differs from the saved one")
    tally.failed = min(tally.failed, tally.attempted)
    return tally


# --------------------------------------------------------------------------
# one workload run

def _median(values):
    values = list(values)
    return statistics.median(values) if values else float("nan")


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def missing_train_readings(units: list[Unit], cal: Calibration) -> str | None:
    """A note when train() ran long enough for readings inside it but got
    none: it no longer calls training.forward_cascade per cascade, so its
    time is rescaled by the readings before and after it alone."""
    if any(w > 2 * cal.every_s and u.train_readings == 0
           for u in units for w in u.seconds["train"]):
        return ("no calibration readings inside train(): the training.forward_cascade "
                "hook was not called; train times rest on the readings around it")
    return None


def at_reference(units: list[Unit], phase: str) -> list[float]:
    """The time of every pass through the phase, rescaled to reference speed."""
    return [wall * Calibration.REFERENCE_S / speed for u in units
            for wall, speed in zip(u.seconds[phase], u.speed[phase])]


def phases_at_reference(units: list[Unit]) -> float:
    """Median time of every phase at reference speed, summed over phases."""
    return sum(_median(at_reference(units, phase)) for phase in PHASES
               if any(u.seconds[phase] for u in units))


def end_to_end(workload: Workload, setup_times, units: list[Unit], instances: int,
               n_queries: int) -> dict:
    if workload.train_epochs:
        headline = units[0].train_steps / _median(at_reference(units, "train"))
    else:
        headline = n_queries / _median(at_reference(units, "predict"))
    per_step = {label: _median(at_reference(units, label)) * 1e6 / instances
                for label in ("eval", "icsb")}

    # Each query's median latency over the passes, so that a burst of noise
    # in one pass does not reach the tail.
    rows = [[t * Calibration.REFERENCE_S / speed for t in latencies]
            for u in units for latencies, speed in zip(u.latencies, u.speed["predict"])]
    if len({len(r) for r in rows}) == 1:
        per_query = [statistics.median(col) for col in zip(*rows)]
    else:  # a query raised in some unit: pool instead
        per_query = [t for r in rows for t in r]

    def latency(q):
        return _quantile(per_query, q) * 1e3 if per_query else float("nan")

    return {
        "setup_s": (_median(setup_times), "s"),
        "steps_per_s": (headline, "1/s"),
        "eval_us_per_step": (per_step["eval"], "us"),
        "icsb_us_per_step": (per_step["icsb"], "us"),
        "predict_ms_p50": (latency(0.50), "ms"),
        "predict_ms_p99": (latency(0.99), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_workload(pkg, workload: Workload, seed: int, seconds: float, trace: bool,
                 small: bool = False) -> dict:
    """Generate inputs, measure, check; returns the full result record."""
    import numpy as np
    import tracing

    work = WORK_DIR / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = make_inputs(pkg, workload, seed, small, work)
        seeded_model = None
        if not workload.train_epochs:
            m = inputs.descriptors["nodes"]
            seeded_model = pkg["model"].Model.initialize(
                pkg["model"].ModelConfig(32, m, workload.score_mode), np.random.default_rng(seed))

        cal = Calibration()
        setup_times = []
        load_errors: list[str] = []

        def check_load(state):
            if seeded_model is not None:
                bad = checkpoint_mismatches(state, seeded_model)
                if bad:
                    load_errors.append(f"checkpoint: {bad} differ after load")
            return state

        def timed_setup():
            state, wall, speed = cal.timed(
                lambda: setup(pkg, workload, inputs, seed, seeded_model))
            setup_times.append(wall * Calibration.REFERENCE_S / speed)
            return check_load(state)

        # Set-ups are spread over the run so that their median does not
        # hang on the state of the machine in one moment.
        for _ in range(SETUP_REPEATS_FIRST):
            st = timed_setup()

        queries = predict_queries(pkg, st.test, workload.predict_queries if not small else 20)
        expected_instances = sum(len(c) - 1 for c in st.test)

        units: list[Unit] = []
        summaries: list[dict] = []
        tracer = None
        deadline = time.perf_counter() + seconds
        while True:
            if not trace:
                units.append(run_unit(pkg, workload, st, seed, queries, cal))
                for _ in range(SETUP_REPEATS_PER_UNIT):
                    st = timed_setup()
            else:  # even units untraced, odd units traced
                units.append(run_unit(pkg, workload, st, seed, queries, cal))
                tracer = tracing.Tracer()
                undo = tracing.install(tracer)
                try:
                    st = check_load(setup(pkg, workload, inputs, seed, seeded_model))
                    # No readings inside traced phases: they would land in the spans.
                    units.append(run_unit(pkg, workload, st, seed, queries,
                                          Calibration(every_s=math.inf)))
                finally:
                    tracing.uninstall(undo)
                summaries.append(tracer.summary())
            # Stop when another unit would likely end more than half a unit late.
            if time.perf_counter() + 0.5 * units[-1].wall >= deadline:
                break

        tally = tally_units(pkg, workload, st, units, queries, seed, expected_instances,
                            small, len(load_errors))
        tally.errors.extend(load_errors)
        record = {
            "workload": workload.name,
            "environment": environment(seed),
            "inputs": inputs.descriptors,
            "units": len(units),
            "unit_seconds": [round(u.wall, 4) for u in units],
            "phase_seconds": {phase: [w for u in units for w in u.seconds[phase]]
                              for phase in PHASES},
            "calibration_s": {phase: [c for u in units for c in u.speed[phase]]
                              for phase in PHASES},
            "predict_samples": sum(len(row) for u in units for row in u.latencies),
            "notes": [n for n in [missing_train_readings(units[::2] if trace else units, cal)]
                      if n],
            "gates": tally.gates,
            "errors": tally.errors[:20],
            "correct": tally.failed == 0 and not tally.errors,
            "attempted": tally.attempted,
            "failed": tally.failed,
        }
        if not trace:
            e2e = end_to_end(workload, setup_times, units, expected_instances, len(queries))
            record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        else:
            per_unit = [tracing.layer_metrics(summary, u.epoch_seconds)
                        for u, summary in zip(units[1::2], summaries)]
            metrics = {k: {"value": statistics.median_low([p[k] for p in per_unit]), "unit": "count"}
                       if k.endswith(".calls") else
                       {"value": _median(p[k] for p in per_unit), "unit": "s"}
                       for k in per_unit[0]}
            metrics["trace.overhead_frac"] = {
                "value": phases_at_reference(units[1::2]) / phases_at_reference(units[::2]) - 1.0,
                "unit": "frac"}
            record["metrics"] = metrics
            record["root_accounting_error"] = tracer.root_accounting_error()
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


def print_record(record: dict) -> None:
    print(f"== {record['workload']}  units={record['units']}  "
          f"unit_seconds={record['unit_seconds']}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print("inputs " + json.dumps(record["inputs"], sort_keys=True))
    for name, m in record["metrics"].items():
        print(f"  {name:<44s} {m['value']:>14.6g} {m['unit']}")
    print(f"  predict samples {record['predict_samples']}; attempted {record['attempted']}, "
          f"failed {record['failed']}, failed_frac {record['failed'] / record['attempted']:.3g}")
    for gate, ok in record["gates"].items():
        print(f"  gate {gate}: {'ok' if ok else 'FAILED'}")
    for note in record["notes"]:
        print(f"  note: {note}")
    for err in record["errors"]:
        print(f"  error: {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("seed must be >= 0 and seconds > 0", file=sys.stderr)
        return EXIT_CANNOT_RUN
    try:
        pkg = import_package()
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        records = [run_workload(pkg, WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except CannotRun as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return EXIT_CANNOT_RUN

    RESULTS_DIR.mkdir(exist_ok=True)
    for record in records:
        print_record(record)
        out = RESULTS_DIR / f"{record['workload']}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    for m in metrics.values():  # a phase that never completed has no value
        if not math.isfinite(m["value"]):
            m["value"] = None
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else EXIT_GATE_FAILED


if __name__ == "__main__":
    sys.exit(main())
