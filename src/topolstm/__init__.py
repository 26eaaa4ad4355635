"""Diffusion next-activation prediction on cascades over a data graph.

The package walks a cascade's growing DAG of activation attempts, runs a
DAG-structured LSTM cell per activation to produce topology-aware sender
embeddings, and softmax-scores every inactive node as the next activation.
Training uses hand-derived reverse-mode gradients with Adam; evaluation
reports MAP@k / Hits@k against an independent-cascade baseline.
"""

from .baseline import EdgeProbabilities, ICSBScorer, fit_static_bernoulli
from .checkpoint import load_model, save_model
from .datagen import (GRAPH_MODELS, PRESETS, SynthConfig, generate_dataset,
                      generate_graph, simulate_ic_cascade)
from .errors import (CheckpointError, ConfigError, DataError, DivergenceError,
                     NumericError, ShapeError, TopoLstmError)
from .evaluation import MetricsTable, ModelScorer, evaluate
from .graph import (Cascade, DataGraph, load_cascades, load_cascades_file,
                    load_graph, load_graph_file)
from .model import (Model, ModelConfig, backward_cascade, forward_cascade,
                    predict_next)
from .numeric import (Adam, FdCheckResult, GradientStore, ParameterStore,
                      finite_difference_check)
from .training import TrainConfig, TrainReport, objective, split_dataset, train
from .version import TOOL_VERSION

__version__ = TOOL_VERSION
