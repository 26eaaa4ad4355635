#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload on small inputs, untraced and traced, and checks that:

* every end-to-end and per-layer metric named in BENCHMARK.json is reported
  with its unit, and the correctness gates pass on untouched code;
* a tampered output trips a gate: a wrong evaluate rank, wrong IC-SB
  scores, unnormalised predict probabilities, a shifted training loss, a
  zeroed gradient slot and two slots swapped by the checkpoint load each
  make the run report failed ops and ``correct: false``;
* in each traced run, the self times of a root span and its descendants
  add up to the root's duration within ACCOUNTING_TOL;
* run.py exits non-zero without printing a result in a directory holding
  only BENCHMARK.json and the benchmark's own files.

It prints the tracing overhead of each workload and exits 1 on any failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from contextlib import contextmanager

import run

ACCOUNTING_TOL = 1e-6
SEED = 1
SECONDS = 0.5


@contextmanager
def patched(owner, name, replacement):
    original = getattr(owner, name)
    setattr(owner, name, replacement(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def tamper_cases(pkg):
    """(description, workload, patch) triples; each patch must trip a gate."""
    evaluation, baseline, model, training, checkpoint = (
        pkg["evaluation"], pkg["baseline"], pkg["model"], pkg["training"], pkg["checkpoint"])

    def off_by_one_rank(original):
        return lambda cand, scores, target: original(cand, scores, target) + 1

    def scaled_icsb(original):
        def step_scores(self, cascade):
            for cand, scores, target in original(self, cascade):
                yield cand, scores * 0.5, target
        return step_scores

    def unnormalised_predict(original):
        def predict_next(*args, **kwargs):
            cand, probs = original(*args, **kwargs)
            return cand, probs * 1.01
        return predict_next

    def shifted_loss(original):
        def train(*args, **kwargs):
            best, report = original(*args, **kwargs)
            last = report.epochs[-1]
            report.epochs[-1] = type(last)(**{**last.__dict__, "train_loss": last.train_loss + 1.0})
            return best, report
        return train

    def zeroed_gradient_slot(original):
        def backward_cascade(*args, **kwargs):
            grads = original(*args, **kwargs)
            grads["U_c_p"][...] = 0.0
            return grads
        return backward_cascade

    def swapped_slots_on_load(original):
        def load_model(path):
            loaded, labels, header = original(path)
            p = loaded.params
            p["U_i_p"], p["U_i_q"] = p["U_i_q"], p["U_i_p"]
            return loaded, labels, header
        return load_model

    return [
        ("evaluate rank off by one", "desk-serve", (evaluation, "target_rank", off_by_one_rank)),
        ("IC-SB scores halved", "desk-serve", (baseline.ICSBScorer, "step_scores", scaled_icsb)),
        ("predict probabilities not normalised", "desk-serve",
         (model, "predict_next", unnormalised_predict)),
        ("training loss shifted", "desk-train", (training, "train", shifted_loss)),
        ("gradient slot U_c_p zeroed", "desk-train",
         (model, "backward_cascade", zeroed_gradient_slot)),
        ("gradient slot U_c_p zeroed, all-active", "pa1k-long",
         (model, "backward_cascade", zeroed_gradient_slot)),
        ("checkpoint load swaps two slots", "desk-serve",
         (checkpoint, "load_model", swapped_slots_on_load)),
    ]


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    pkg = run.import_package()
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    for w in spec["workloads"]:
        name = w["name"]
        workload = run.WORKLOADS[name]
        print(f"{name}:")
        plain = run.run_workload(pkg, workload, SEED, SECONDS, trace=False, small=True)
        got = {k: m["unit"] for k, m in plain["metrics"].items()}
        expect(got == e2e, "end-to-end metrics and units match BENCHMARK.json")
        expect(all(math.isfinite(m["value"]) and m["value"] > 0
                   for m in plain["metrics"].values()), "end-to-end values finite and > 0")
        expect(plain["correct"] and plain["failed"] == 0, f"gates pass {plain['gates']}")

        traced = run.run_workload(pkg, workload, SEED, SECONDS, trace=True, small=True)
        got = {k: m["unit"] for k, m in traced["metrics"].items()}
        expect(got == layers, "per-layer metrics and units match BENCHMARK.json")
        err = traced["root_accounting_error"]
        expect(err <= ACCOUNTING_TOL, f"self + child times account for root spans (error {err:.2e})")
        expect(traced["correct"], "gates pass in the traced run")
        print(f"  tracing overhead {traced['metrics']['trace.overhead_frac']['value']:+.1%} "
              f"of the timed phases")

    print("tampered outputs:")
    for what, name, (owner, attr, replacement) in tamper_cases(pkg):
        with patched(owner, attr, replacement):
            rec = run.run_workload(pkg, run.WORKLOADS[name], SEED, SECONDS, trace=False, small=True)
        tripped = [g for g, ok in rec["gates"].items() if not ok]
        expect(not rec["correct"] and rec["failed"] > 0, f"{what} trips {tripped}")

    print("bare directory:")
    bare = run.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload",
                               "desk-serve", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180, check=False)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"exits {proc.returncode} without a result: {proc.stderr.strip()}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            run.WORK_DIR.rmdir()
        except OSError:
            pass

    print("self-test " + ("passed" if not problems else f"FAILED: {problems}"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
