"""Dense numeric substrate: named parameter slots over one flat vector, the
Adam optimizer, and the reference subset softmax and central-difference
gradient checker.

Everything is float64.  Gradients for the model are hand-derived elsewhere;
this module only provides the carriers and the verification tooling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import NumericError

__all__ = [
    "Layout", "ParameterStore", "GradientStore", "softmax_over_subset", "Adam",
    "FdCheckResult", "finite_difference_check",
]


@dataclass(frozen=True)
class Layout:
    """Where each named slot sits in one flat float64 vector.

    An entry is (name, shape, offset, strides), with offset and strides
    counted in elements; a slot may be a strided view.  ``fused`` entries
    name extra views spanning several slots.  ``slots`` must cover the
    vector exactly once, so whole-store arithmetic can run on the vector.
    """
    size: int
    slots: tuple
    fused: tuple = ()

    @classmethod
    def packed(cls, shapes: Mapping[str, tuple]) -> "Layout":
        """Row-major slots one after the other, in mapping order."""
        entries, offset = [], 0
        for name, shape in shapes.items():
            shape = tuple(int(n) for n in shape)
            strides = tuple(math.prod(shape[k + 1:]) for k in range(len(shape)))
            entries.append((name, shape, offset, strides))
            offset += math.prod(shape)
        return cls(offset, tuple(entries))

    def shapes(self) -> dict[str, tuple]:
        return {name: shape for name, shape, _, _ in self.slots}

    def views(self, flat: np.ndarray, entries) -> dict[str, np.ndarray]:
        """Views of ``entries`` into ``flat``; numpy checks they stay inside it."""
        return {name: np.ndarray(shape, np.float64, flat, 8 * offset,
                                 tuple(8 * s for s in strides))
                for name, shape, offset, strides in entries}


class ParameterStore:
    """Named float64 slots with a fixed shape signature and deterministic order.

    All slots live in one contiguous vector, ``flat``; each named slot is a
    view into it, so bulk arithmetic is one vector operation.  Assigning to
    a slot copies into its view and never rebinds it.
    """

    def __init__(self, slots: Mapping[str, np.ndarray], layout: Layout | None = None):
        arrays = {name: np.asarray(arr, dtype=np.float64) for name, arr in slots.items()}
        if layout is None:
            layout = Layout.packed({name: arr.shape for name, arr in arrays.items()})
        elif list(arrays) != list(layout.shapes()):
            raise ValueError(f"slots {list(arrays)} do not match the layout's "
                             f"{list(layout.shapes())}")
        self._bind(np.zeros(layout.size), layout)
        for name, arr in arrays.items():
            self[name] = arr

    @classmethod
    def _wrap(cls, flat: np.ndarray, layout: Layout) -> "ParameterStore":
        store = cls.__new__(cls)
        store._bind(flat, layout)
        return store

    def _bind(self, flat: np.ndarray, layout: Layout) -> None:
        self.flat = flat
        self.layout = layout
        self._slots = layout.views(flat, layout.slots)
        self._fused = layout.views(flat, layout.fused)

    def __contains__(self, name: str) -> bool:
        return name in self._slots

    def __getitem__(self, name: str) -> np.ndarray:
        return self._slots[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        current = self[name]
        value = np.asarray(value, dtype=np.float64)
        if value.shape != current.shape:
            raise ValueError(
                f"slot {name!r}: expected shape {current.shape}, got {value.shape}")
        current[...] = value

    def fused(self, name: str) -> np.ndarray:
        """A view spanning several slots, as declared by the layout."""
        return self._fused[name]

    def names(self) -> list[str]:
        return list(self._slots)

    def items(self):
        return self._slots.items()

    def zeros_like(self) -> "ParameterStore":
        return ParameterStore._wrap(np.zeros_like(self.flat), self.layout)

    def copy(self) -> "ParameterStore":
        return ParameterStore._wrap(self.flat.copy(), self.layout)

    def _require_congruent(self, other: "ParameterStore") -> None:
        if self.layout is not other.layout and self.layout != other.layout:
            raise ValueError(f"stores differ in layout: slot shapes {self.layout.shapes()} "
                             f"vs {other.layout.shapes()}")

    def accumulate(self, other: "ParameterStore", scale: float = 1.0) -> None:
        self._require_congruent(other)
        self.flat += scale * other.flat

    def scale(self, alpha: float) -> None:
        self.flat *= alpha

    def fill(self, value: float) -> None:
        self.flat.fill(value)

    def squared_l2(self) -> float:
        # einsum, not np.dot: BLAS rounds its dot differently per thread count.
        return float(np.einsum("i,i->", self.flat, self.flat))

    def check_finite(self) -> None:
        """Raise NumericError naming the first slot that holds a non-finite value."""
        if not np.isfinite(self.flat).all():
            name = next(name for name, arr in self._slots.items() if not np.isfinite(arr).all())
            raise NumericError(f"non-finite values in slot {name!r}")


# Gradients share the carrier: same slot names and shapes as their parameters.
GradientStore = ParameterStore


def softmax_over_subset(scores: Mapping[int, float], subset) -> dict[int, float]:
    """Probability of each subset member under a max-shifted softmax of its score."""
    nodes = sorted(subset)
    if not nodes:
        raise ValueError("softmax over an empty subset")
    try:
        vals = np.array([scores[v] for v in nodes], dtype=np.float64)
    except KeyError as exc:
        raise ValueError(f"no score for node {exc.args[0]}") from None
    e = np.exp(vals - np.max(vals))
    return dict(zip(nodes, e / e.sum()))


class Adam:
    """Adam optimizer state bound to one ParameterStore layout; only the
    learning rate is a setting, the decay rates and epsilon are fixed."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: ParameterStore, lr: float = 1e-2):
        self.lr = lr
        self.moment1 = params.zeros_like()
        self.moment2 = params.zeros_like()
        self.step_count = 0

    def step(self, params: ParameterStore, grads: GradientStore) -> None:
        """One bias-corrected Adam update applied in place to the whole vector:
        m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g^2, then
        theta -= lr (m / bc1) / (sqrt(v / bc2) + eps).  Two flat-size
        temporaries live only during the call."""
        for other in (grads, self.moment1, self.moment2):
            params._require_congruent(other)
        self.step_count += 1
        beta1, beta2 = self.beta1, self.beta2
        bc1 = 1.0 - beta1 ** self.step_count
        bc2 = 1.0 - beta2 ** self.step_count
        g, m, v = grads.flat, self.moment1.flat, self.moment2.flat
        m *= beta1
        a = g * (1.0 - beta1)
        m += a
        v *= beta2
        np.square(g, out=a)
        v += np.multiply(a, 1.0 - beta2, out=a)
        np.divide(m, bc1, out=a)
        a *= self.lr
        b = v / bc2
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        params.flat -= a


@dataclass
class FdCheckResult:
    max_rel_error: float
    worst_slot: str
    worst_index: tuple
    worst_analytic: float
    worst_numeric: float
    samples: int

    def __str__(self):
        return (f"max relative error {self.max_rel_error:.3e} at "
                f"{self.worst_slot}{list(self.worst_index)} "
                f"(analytic {self.worst_analytic:.6e}, "
                f"numeric {self.worst_numeric:.6e}, {self.samples} samples)")


def finite_difference_check(loss_fn: Callable[[ParameterStore], float],
                            params: ParameterStore, grads: GradientStore,
                            samples: int, h: float = 1e-5,
                            rng: np.random.Generator | None = None) -> FdCheckResult:
    """Compare analytic gradients against central differences.

    For ``samples`` randomly chosen parameter coordinates, perturbs the
    coordinate by +/- h, evaluates ``loss_fn`` and forms
    (loss(theta+h) - loss(theta-h)) / 2h.  Relative error is
    |a - n| / max(|a|, |n|, 1e-8); the maximum over samples is returned with
    the offending slot named.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    total = params.flat.size
    n = min(samples, total)
    coords = rng.choice(total, size=n, replace=False)

    result = FdCheckResult(-1.0, "", (), 0.0, 0.0, n)
    for k in coords:
        k = int(k)
        for name, arr in params.items():    # k counts slot by slot, in name order
            if k < arr.size:
                break
            k -= arr.size
        idx = np.unravel_index(k, arr.shape)
        saved = arr[idx]
        arr[idx] = saved + h
        loss_plus = loss_fn(params)
        arr[idx] = saved - h
        loss_minus = loss_fn(params)
        arr[idx] = saved
        if not (np.isfinite(loss_plus) and np.isfinite(loss_minus)):
            raise NumericError(f"non-finite loss while perturbing {name}{list(idx)}")
        numeric = (loss_plus - loss_minus) / (2.0 * h)
        analytic = float(grads[name][idx])
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        if rel > result.max_rel_error:
            result.max_rel_error = rel
            result.worst_slot = name
            result.worst_index = tuple(int(i) for i in idx)
            result.worst_analytic = analytic
            result.worst_numeric = numeric
    return result
