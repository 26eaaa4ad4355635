"""Each refused argument below raises ValueError itself, not a subclass, with
a message naming what is wrong; the CLI maps ValueError to exit code 2."""

import numpy as np
import pytest

from topolstm.baseline import EdgeProbabilities
from topolstm.datagen import SynthConfig, simulate_ic_cascade
from topolstm.evaluation import evaluate, rank_candidates
from topolstm.graph import Cascade, DataGraph
from topolstm.model import Model, ModelConfig
from topolstm.numeric import Layout, ParameterStore, finite_difference_check
from topolstm.training import TrainConfig, objective, split_dataset

GRAPH = DataGraph.from_edges(3, [(0, 1), (1, 2)])
CASCADES = [Cascade((0, 1)), Cascade((1, 2)), Cascade((0, 1, 2)), Cascade((2, 1))]


def synth(**overrides):
    fields = dict(node_count=5, graph_model="chain", edge_param=0, activation_prob=1.0,
                  cascade_count=1, max_cascade_length=3, seed=0)
    return SynthConfig(**{**fields, **overrides})


def store():
    return ParameterStore({"w": np.zeros(2)})


REFUSALS = {
    "hidden_dim": (lambda: ModelConfig(0, 5), "hidden_dim must be >= 1"),
    "node_count": (lambda: ModelConfig(4, 0), "node_count must be >= 1"),
    "score_mode": (lambda: ModelConfig(4, 5, "mean"), "score_mode must be one of"),
    "batch_size": (lambda: TrainConfig(batch_size=0), "batch_size must be >= 1"),
    "max_epochs": (lambda: TrainConfig(max_epochs=-1), "max_epochs and patience must be >= 0"),
    "patience": (lambda: TrainConfig(patience=-1), "max_epochs and patience must be >= 0"),
    "val_frac": (lambda: split_dataset(CASCADES, val_frac=1.0), r"val_frac must lie in \[0, 1\)"),
    "split_seed": (lambda: split_dataset(CASCADES, seed=-1), "seed must be >= 0, got -1"),
    "no_steps": (lambda: objective(Model.initialize(ModelConfig(2, 3), np.random.default_rng(0)),
                                   GRAPH, [Cascade((0,)), Cascade((2,))], 0.0),
                 "no cascade contributes prediction steps"),
    "no_ks": (lambda: evaluate(None, CASCADES, ks=()), "need at least one k"),
    "no_candidates": (lambda: rank_candidates({}), "no candidates to rank"),
    "synth_nodes": (lambda: synth(node_count=0), "node_count must be positive"),
    "synth_cascades": (lambda: synth(cascade_count=-1), "cascade_count must be >= 0"),
    "seed_node": (lambda: simulate_ic_cascade(GRAPH, EdgeProbabilities(GRAPH, np.ones(2)), 3, 3,
                                              np.random.default_rng(0)),
                  "seed node 3 out of range"),
    "labels": (lambda: DataGraph.from_edges(3, [], labels=("a", "b")),
               "labels length must equal node_count"),
    "slots": (lambda: ParameterStore({"v": np.zeros(2)}, Layout.packed({"w": (2,)})),
              r"slots \['v'\] do not match the layout's \['w'\]"),
    "fd_step": (lambda: finite_difference_check(lambda p: 0.0, store(), store(), 1, h=0.0),
                "h must be positive"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal_is_a_value_error_with_its_message(name):
    call, message = REFUSALS[name]
    with pytest.raises(ValueError, match=message) as exc:
        call()
    assert type(exc.value) is ValueError
