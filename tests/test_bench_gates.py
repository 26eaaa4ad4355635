"""The benchmark's correctness gates, run against this package.

``perfbench/run.py`` is imported unchanged and its gates run on a small
seeded desk-default split, so deleting a package name they call (such as
``build_topologies`` or ``score_inactive``) fails here, not in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from topolstm.model import SCORE_MODES

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
SEED = 1


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run   # its dataclasses look their module up here
    spec.loader.exec_module(run)
    pkg = run.import_package()
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
