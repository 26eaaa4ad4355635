"""Training: the regularized objective, dataset splitting, and mini-batch
optimization with Adam and early stopping on validation loss.

The objective is the mean negative log-likelihood over all prediction steps
(each cascade of length T contributes T-1 steps) plus lambda times the sum
of squared L2 norms of every parameter slot.  ``train()`` steps on this
objective batch by batch: each mini-batch's value and gradient come from the
same function as ``objective``, normalized by the batch's total step count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DivergenceError, NumericError
from .graph import Cascade, CascadeTable, DataGraph, drop_short
from .model import Model, ModelConfig, backward_cascade, forward_cascade
from .numeric import Adam, GradientStore

DIVERGED_NLL = 1000.0   # times log(node count), the NLL per step of uniform guessing


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
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


def objective(model: Model, graph: DataGraph, cascades: Sequence[Cascade],
              lam: float, grads: GradientStore | None = None) -> float:
    """Mean per-step negative log-likelihood plus lam * sum of squared L2 norms.

    With ``grads``, the store is zeroed and, when the value is finite,
    receives its exact gradient.  A non-finite cell state or softmax row
    raises NumericError.
    """
    cascades, _ = drop_short(cascades, "objective")
    if not cascades:
        raise ValueError("no cascade contributes prediction steps")
    return _objective(model, graph, CascadeTable(graph, cascades), range(len(cascades)),
                      lam, grads)[0]


def _objective(model: Model, graph: DataGraph, table: CascadeTable, batch: Sequence[int],
               lam: float, grads: GradientStore | None = None
               ) -> tuple[float, float, int]:
    """(objective, summed NLL, step count) over the cascades of ``table``
    that ``batch`` indexes, in batch order.

    Every cascade must have length >= 2.  With ``grads``, the store is
    zeroed and, when the objective is finite, receives its exact gradient.
    ``forward_cascade`` is looked up in this module once per cascade, so a
    caller may rebind it (the benchmark times train() that way).
    """
    if grads is not None:
        grads.fill(0.0)
    total, steps = 0.0, 0
    for i in batch:
        cascade = table.cascades[i]
        result = forward_cascade(model, graph, cascade, rows=table.rows(i))
        if grads is not None:
            backward_cascade(result, model, out=grads)
        total += result.total_loss
        steps += len(cascade) - 1
        del result   # its (T-1) x m block must not outlive the turn
    value = total / steps
    if lam:
        value += lam * model.params.squared_l2()
    if grads is not None and math.isfinite(value):
        grads.scale(1.0 / steps)
        if lam:
            grads.accumulate(model.params, scale=2.0 * lam)
    return value, total, steps


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

    def to_json_dict(self) -> dict:
        return {
            "epochs": [
                {"epoch": e.epoch, "train_loss": e.train_loss,
                 "train_reg": e.train_reg, "val_loss": e.val_loss}
                for e in self.epochs
            ],
            "best_epoch": self.best_epoch,
            "best_val_loss": self.best_val_loss,
            "stopped_early": self.stopped_early,
            "dropped_short_cascades": self.dropped_short_cascades,
        }


def train(graph: DataGraph, train_cascades: Sequence[Cascade],
          val_cascades: Sequence[Cascade], config: TrainConfig,
          model_config: ModelConfig,
          epoch_callback=None) -> tuple[Model, TrainReport]:
    """Mini-batch Adam training; returns the best-validation model.

    Batches shuffle under the config seed; early stopping fires after
    ``patience`` epochs without validation improvement.  Without a
    validation set the training loss is monitored instead.  A non-finite
    loss, softmax row, cell state or parameter norm raises DivergenceError
    with the report, as does a batch whose mean NLL per step is over
    DIVERGED_NLL * log(node count).
    """
    train_cascades, dropped = drop_short(train_cascades, "training set")
    val_cascades, dropped_val = drop_short(val_cascades, "validation set")
    if not train_cascades:
        raise ValueError("training set is empty")

    rng = np.random.default_rng(config.seed)
    model = Model.initialize(model_config, rng)
    optimizer = Adam(model.params, lr=config.learning_rate)
    report = TrainReport(dropped_short_cascades=dropped + dropped_val)
    train_table, val_table = (CascadeTable(graph, c) for c in (train_cascades, val_cascades))

    def guarded_objective(table, batch, lam, out=None):
        """``_objective`` with float overflow read as divergence: no float
        warning escapes, and a non-finite cell or softmax row raises
        DivergenceError."""
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return _objective(model, graph, table, batch, lam, out)
        except NumericError as exc:
            raise DivergenceError(f"{exc} in epoch {epoch}", report=report) from None

    grads = model.zero_grads()
    best_model = model   # the result if max_epochs is 0; epoch 1 always replaces it
    best_monitor = np.inf
    since_improvement = 0
    norm2 = model.params.squared_l2()
    nll_ceiling = DIVERGED_NLL * math.log(graph.node_count)

    for epoch in range(1, config.max_epochs + 1):
        epoch_start = time.perf_counter()
        reg_before = config.lam * norm2
        order = rng.permutation(len(train_cascades))
        epoch_nll, epoch_steps = 0.0, 0

        for lo in range(0, len(order), config.batch_size):
            batch = order[lo: lo + config.batch_size]
            batch_obj, batch_nll, batch_steps = guarded_objective(train_table, batch, config.lam,
                                                                  grads)
            if not np.isfinite(batch_obj):
                raise DivergenceError(
                    f"non-finite batch loss at epoch {epoch}", report=report)
            if batch_nll > nll_ceiling * batch_steps:
                raise DivergenceError(f"batch loss {batch_nll / batch_steps:.4g} per step at epoch "
                                      f"{epoch}, over {DIVERGED_NLL:g} x log(node count)",
                                      report=report)
            if config.clip_norm > 0:
                norm = np.sqrt(grads.squared_l2())
                if norm > config.clip_norm:
                    grads.scale(config.clip_norm / norm)
            optimizer.step(model.params, grads)
            epoch_nll += batch_nll
            epoch_steps += batch_steps
        norm2 = model.params.squared_l2()   # checks the last step: no blow-up is kept
        if not math.isfinite(norm2):
            raise DivergenceError(f"non-finite parameters after epoch {epoch}", report=report)

        train_loss = epoch_nll / epoch_steps + reg_before
        if val_cascades:
            val_loss = guarded_objective(val_table, range(len(val_cascades)), 0.0)[0]
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
            report.best_val_loss = val_loss
            since_improvement = 0
        if epoch_callback is not None:
            epoch_callback(stats, model, improved)
        if not improved:
            since_improvement += 1
            if config.patience and since_improvement >= config.patience:
                report.stopped_early = True
                break

    return best_model, report

