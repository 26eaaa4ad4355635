"""The benchmark's set-up and correctness gates, run against this package.

``perfbench/run.py`` is imported unchanged; its set-up runs at small size,
its gates on a small seeded desk-default split, and one small unit per
workload kind with the gates over it.  So deleting a package name or keyword
they call (such as ``build_topologies``, ``score_inactive`` or
``workers=1``), or breaking the set-up or the calibration hook inside
``train()``, fails here, not in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
from topolstm.model import SCORE_MODES

from conftest import prob_dict

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
SEED = 1


@pytest.fixture(scope="module")
def run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run   # its dataclasses look their module up here
    spec.loader.exec_module(run)
    return run, run.import_package()


@pytest.fixture(scope="module")
def bench(run_module):
    run, pkg = run_module
    cfg = run.synth_config(pkg["datagen"], run.WORKLOADS["desk-train"], SEED, small=True)
    graph, cascades, _ = pkg["datagen"].generate_dataset(cfg)
    train, _, test = pkg["training"].split_dataset(cascades, seed=SEED)
    probs = pkg["baseline"].fit_static_bernoulli(graph, train)
    return run, pkg, graph, train, test, probs


@pytest.mark.parametrize("mode", SCORE_MODES)
def test_gates_pass_on_untouched_code(bench, mode):
    run, pkg, graph, train, test, probs = bench
    model_mod = pkg["model"]
    model = model_mod.Model.initialize(
        model_mod.ModelConfig(hidden_dim=8, node_count=graph.node_count, score_mode=mode),
        np.random.default_rng(SEED))
    rng = np.random.default_rng([SEED, 2])
    assert run.check_eval_steps(pkg, model, graph, test, rng) == 0
    assert run.check_icsb_steps(pkg, graph, probs, test, rng) == 0
    assert run.check_predict(pkg, model, graph, test, rng) == 0
    assert run.check_gradients(pkg, model, graph, train, rng) == 0


def small_setup(run, pkg, wl, tmp_path):
    """The workload's small inputs, set up; with the seeded model on serve."""
    inputs = run.make_inputs(pkg, wl, SEED, True, tmp_path)
    seeded = None
    if not wl.train_epochs:   # as run_workload seeds the served checkpoint
        model_mod = pkg["model"]
        seeded = model_mod.Model.initialize(
            model_mod.ModelConfig(32, inputs.descriptors["nodes"], wl.score_mode),
            np.random.default_rng(SEED))
    return run.setup(pkg, wl, inputs, SEED, seeded), seeded


@pytest.mark.parametrize("workload", ["desk-train", "desk-serve"])
def test_setup_loads_inputs_and_fits_icsb(run_module, workload, tmp_path):
    run, pkg = run_module
    st, seeded = small_setup(run, pkg, run.WORKLOADS[workload], tmp_path)
    if seeded is not None:
        assert run.checkpoint_mismatches(st, seeded) == []
    assert st.train and st.test
    assert prob_dict(st.probs) == oracle.recount_oracle(st.graph, st.train)


@pytest.mark.parametrize("workload", ["pa1k-long", "desk-serve"])
def test_one_small_unit_passes_every_gate(run_module, workload, tmp_path):
    # A unit calls train() with workers=1 and times it through the
    # training.forward_cascade binding, then evaluates and predicts with
    # workers=1; every gate then runs on its outputs.
    run, pkg = run_module
    wl = run.WORKLOADS[workload]
    st, seeded = small_setup(run, pkg, wl, tmp_path)
    if seeded is not None:
        assert run.checkpoint_mismatches(st, seeded) == []
    queries = run.predict_queries(pkg, st.test, 20)
    unit = run.run_unit(pkg, wl, st, SEED, queries, run.Calibration(every_s=0))
    tally = run.tally_units(pkg, wl, st, [unit], queries, SEED,
                            sum(len(c) - 1 for c in st.test), True, 0)
    assert tally.errors == []
    assert tally.gates and all(tally.gates.values()), tally.gates
    assert tally.failed == 0
    if wl.train_epochs:
        assert unit.train_readings > 0
