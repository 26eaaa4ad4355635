"""Training: the regularized objective, dataset splitting, and mini-batch
optimization with Adam and early stopping on validation loss.

The objective is the mean negative log-likelihood over all prediction steps
(each cascade of length T contributes T-1 steps) plus lambda times the sum
of squared L2 norms of every parameter slot.  Inside a mini-batch the same
normalizer is applied at batch granularity: gradients are divided by the
batch's total step count.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DivergenceError
from .graph import Cascade, DataGraph
from .model import Model, ModelConfig, backward_cascade, forward_cascade
from .numeric import Adam, GradientStore

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and stopping settings read by ``train``.

    A learning rate of 0 leaves the parameters as initialised.
    ``workers`` has one legal value, 1: training runs one serial path that
    adds gradients in cascade order.  The keyword stays only because the
    benchmark harness passes ``workers=1``.
    """

    learning_rate: float = 1e-2
    lam: float = 1e-6              # L2 trade-off
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    clip_norm: float = 0.0         # 0 disables the global-norm cap
    workers: int = 1

    def __post_init__(self):
        for name in ("learning_rate", "clip_norm", "lam"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 0 or self.patience < 0:
            raise ValueError("max_epochs and patience must be >= 0")
        if self.workers != 1:
            raise ValueError("workers must be 1: training runs on one thread")


def split_dataset(cascades: Sequence[Cascade], train_frac: float = 0.75,
                  val_frac: float = 0.10, seed: int = 0
                  ) -> tuple[list[Cascade], list[Cascade], list[Cascade]]:
    """Disjoint, exhaustive (train, validation, test) split.

    Floor rule: the train pool gets floor(train_frac * n) cascades and the
    rest go to test; validation takes floor(val_frac * pool) out of the pool.
    The same seed always produces the same split.
    """
    if not (0.0 < train_frac < 1.0):
        raise ValueError("train_frac must lie in (0, 1)")
    if not (0.0 <= val_frac < 1.0):
        raise ValueError("val_frac must lie in [0, 1)")
    n = len(cascades)
    if n < 3:
        raise ValueError(f"need at least 3 cascades to split, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    pool_size = int(train_frac * n)
    val_size = int(val_frac * pool_size)
    pool, test_idx = perm[:pool_size], perm[pool_size:]
    val_idx, train_idx = pool[:val_size], pool[val_size:]
    pick = lambda idx: [cascades[i] for i in idx]
    return pick(train_idx), pick(val_idx), pick(test_idx)


def _drop_short(cascades: Sequence[Cascade], what: str) -> tuple[list[Cascade], int]:
    kept = [c for c in cascades if len(c) >= 2]
    dropped = len(cascades) - len(kept)
    if dropped:
        log.warning("excluded %d length-1 cascade(s) from %s: they contribute "
                    "no prediction steps", dropped, what)
    return kept, dropped


def objective(model: Model, cascades: Sequence[Cascade], graph: DataGraph,
              lam: float) -> float:
    """Mean per-step negative log-likelihood plus lam * sum of squared L2 norms."""
    cascades, _ = _drop_short(cascades, "objective")
    total_nll, total_steps = _cascades_nll(model, graph, cascades)
    if total_steps == 0:
        raise ValueError("no cascade contributes prediction steps")
    return total_nll / total_steps + lam * model.params.squared_l2()


def objective_and_gradient(model: Model, graph: DataGraph,
                           cascades: Sequence[Cascade], lam: float
                           ) -> tuple[float, GradientStore]:
    """Objective value and its exact gradient over a cascade set."""
    cascades, _ = _drop_short(cascades, "objective")
    grads = model.zero_grads()
    total_nll, total_steps = _cascades_nll(model, graph, cascades, grads)
    if total_steps == 0:
        raise ValueError("no cascade contributes prediction steps")
    grads.scale(1.0 / total_steps)
    if lam:
        grads.accumulate(model.params, scale=2.0 * lam)
    return total_nll / total_steps + lam * model.params.squared_l2(), grads


def _cascades_nll(model: Model, graph: DataGraph, cascades: Sequence[Cascade],
                  grads: GradientStore | None = None) -> tuple[float, int]:
    """Summed NLL and prediction-step count over ``cascades``, in order.

    With ``grads``, each cascade's backward pass also adds into it.
    ``forward_cascade`` is looked up in this module on every call, so a
    caller may rebind it (the benchmark times train() that way).
    """
    total, steps = 0.0, 0
    for cascade in cascades:
        result = forward_cascade(model, graph, cascade)
        if grads is not None:
            backward_cascade(result, model, out=grads)
        total += result.total_loss
        steps += len(cascade) - 1
    return total, steps


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float | None
    seconds: float
    train_reg: float | None = None  # regularizer share of train_loss; None when lam == 0


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    best_val_loss: float | None = None
    stopped_early: bool = False
    dropped_short_cascades: int = 0
    total_seconds: float = 0.0

    def to_json_dict(self, include_timing: bool = True) -> dict:
        return {
            "epochs": [
                {"epoch": e.epoch, "train_loss": e.train_loss,
                 "train_reg": e.train_reg, "val_loss": e.val_loss,
                 "seconds": e.seconds if include_timing else None}
                for e in self.epochs
            ],
            "best_epoch": self.best_epoch,
            "best_val_loss": self.best_val_loss,
            "stopped_early": self.stopped_early,
            "dropped_short_cascades": self.dropped_short_cascades,
            "total_seconds": self.total_seconds if include_timing else None,
        }


def train(graph: DataGraph, train_cascades: Sequence[Cascade],
          val_cascades: Sequence[Cascade], config: TrainConfig,
          model_config: ModelConfig,
          epoch_callback=None) -> tuple[Model, TrainReport]:
    """Mini-batch Adam training; returns the best-validation model.

    Batches shuffle under the config seed; early stopping fires after
    ``patience`` epochs without validation improvement.  Without a
    validation set the training loss is monitored instead.
    """
    train_cascades, dropped = _drop_short(train_cascades, "training set")
    val_cascades, dropped_val = _drop_short(val_cascades, "validation set")
    if not train_cascades:
        raise ValueError("training set is empty")

    rng = np.random.default_rng(config.seed)
    model = Model.initialize(model_config, rng)
    optimizer = Adam(model.params, lr=config.learning_rate)
    report = TrainReport(dropped_short_cascades=dropped + dropped_val)

    grads = model.zero_grads()
    best_model = model.copy()
    best_monitor = np.inf
    since_improvement = 0
    started = time.perf_counter()

    for epoch in range(1, config.max_epochs + 1):
        epoch_start = time.perf_counter()
        reg_before = config.lam * model.params.squared_l2()
        order = rng.permutation(len(train_cascades))
        epoch_nll, epoch_steps = 0.0, 0

        for lo in range(0, len(order), config.batch_size):
            batch = [train_cascades[i] for i in order[lo: lo + config.batch_size]]
            grads.fill(0.0)
            batch_nll, batch_steps = _cascades_nll(model, graph, batch, grads)
            batch_obj = batch_nll / batch_steps
            if config.lam:
                batch_obj += config.lam * model.params.squared_l2()
            if not np.isfinite(batch_obj):
                raise DivergenceError(
                    f"non-finite batch loss at epoch {epoch}", report=report)
            grads.scale(1.0 / batch_steps)
            if config.lam:
                grads.accumulate(model.params, scale=2.0 * config.lam)
            if config.clip_norm > 0:
                norm = np.sqrt(grads.squared_l2())
                if norm > config.clip_norm:
                    grads.scale(config.clip_norm / norm)
            optimizer.step(model.params, grads)
            epoch_nll += batch_nll
            epoch_steps += batch_steps

        train_loss = epoch_nll / epoch_steps + reg_before
        if val_cascades:
            val_nll, val_steps = _cascades_nll(model, graph, val_cascades)
            val_loss = val_nll / val_steps
            monitor = val_loss
        else:
            val_loss = None
            monitor = train_loss
        if not np.isfinite(monitor):
            raise DivergenceError(
                f"non-finite loss at epoch {epoch}", report=report)

        stats = EpochStats(epoch=epoch, train_loss=train_loss,
                           val_loss=val_loss,
                           seconds=time.perf_counter() - epoch_start,
                           train_reg=reg_before if config.lam else None)
        report.epochs.append(stats)

        improved = monitor < best_monitor
        if improved:
            best_monitor = monitor
            best_model = model.copy()
            report.best_epoch = epoch
            report.best_val_loss = None if val_loss is None else val_loss
            since_improvement = 0
        if epoch_callback is not None:
            epoch_callback(stats, model, improved)
        if not improved:
            since_improvement += 1
            if config.patience and since_improvement >= config.patience:
                report.stopped_early = True
                break

    report.total_seconds = time.perf_counter() - started
    if not report.epochs:  # max_epochs == 0: the initialized model is the result
        best_model = model
    return best_model, report

