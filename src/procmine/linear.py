"""Shared linear max-margin machinery: min-max scaling, seeded stochastic
subgradient descent on hinge loss with L2 regularization, the scorer both
classifiers use, and the exception family they raise.

Training is bit-deterministic for a given seed: the sample order comes
from one seeded generator and all arithmetic is plain float64. Training
imports numpy inside its functions; loading and scoring a model do not
need it.

Scoring is plain Python float64 summed left to right in feature order
(`Scorer`), not a BLAS dot product, whose summation order depends on the
kernel the CPU selects. So a margin has the same bits on every machine.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np


class DegenerateLabels(ValueError):
    """Training data contains a single class."""


class NonFinite(FloatingPointError):
    """Loss or weights diverged to non-finite values."""


class VersionMismatch(ValueError):
    """Serialized model has an incompatible version string, shape or
    value."""


@dataclass(frozen=True)
class TrainParams:
    epochs: int = 200
    learning_rate: float = 0.01
    l2: float = 1e-4
    seed: int = 0


@dataclass
class MinMaxScaler:
    mins: Sequence[float]
    maxs: Sequence[float]

    @classmethod
    def fit(cls, rows: np.ndarray) -> "MinMaxScaler":
        return cls(mins=tuple(rows.min(axis=0).tolist()),
                   maxs=tuple(rows.max(axis=0).tolist()))

    def transform(self, rows: np.ndarray) -> np.ndarray:
        """Scale training rows; `Scorer` is the same arithmetic per row."""
        import numpy as np
        mins = np.asarray(self.mins, dtype=float)
        span = np.asarray(self.maxs, dtype=float) - mins
        span = np.where(span == 0.0, 1.0, span)
        scaled = (rows - mins) / span
        return np.clip(scaled, 0.0, 1.0)

    def pairs(self) -> list[dict]:
        return [{"min": float(lo), "max": float(hi)}
                for lo, hi in zip(self.mins, self.maxs)]

    @classmethod
    def from_pairs(cls, pairs: list[dict]) -> "MinMaxScaler":
        pairs = objects(pairs, "scaler")
        return cls(mins=finite_array([p["min"] for p in pairs], "scaler"),
                   maxs=finite_array([p["max"] for p in pairs], "scaler"))


def read_model(data: str | bytes, version: str) -> dict:
    """The JSON object of a serialized model; VersionMismatch unless it is
    an object whose version is `version`."""
    doc = json.loads(data)
    if not isinstance(doc, dict):
        raise VersionMismatch("model file must hold a JSON object")
    if doc.get("version", "") != version:
        raise VersionMismatch(
            f"model version {doc.get('version', '')!r}, expected {version!r}")
    return doc


def objects(values, what: str) -> list[dict]:
    if not isinstance(values, list) or not all(isinstance(v, dict) for v in values):
        raise VersionMismatch(f"{what} must be a list of objects")
    return values


def finite_array(values, what: str) -> tuple[float, ...]:
    """A JSON list of finite numbers as floats, else VersionMismatch (also
    for booleans and for integers too large for a float)."""
    try:
        if isinstance(values, list) and all(type(v) in (int, float) for v in values):
            floats = tuple(float(v) for v in values)
            if all(math.isfinite(v) for v in floats):
                return floats
    except OverflowError:
        pass
    raise VersionMismatch(f"{what} must be finite numbers")


def finite(value, what: str) -> float:
    return finite_array([value], what)[0]


def check_shape(weights: Sequence[float], scaler: MinMaxScaler, size: int) -> None:
    """Raise VersionMismatch unless a loaded model has `size` weights and
    `size` scaler ranges, so a bad model fails at load, not when scoring."""
    if len(weights) != size or len(scaler.mins) != size:
        raise VersionMismatch(
            f"model has {len(weights)} weights and {len(scaler.mins)} scaler "
            f"ranges, expected {size} of each")


class Scorer:
    """The margin of a linear model over min-max scaled features.

    Built once per model as one (min, span, weight) row per feature, a zero
    span taken as 1 as in `MinMaxScaler.transform`. `margin` clips each
    (x - min) / span to [0, 1], sums value * weight left to right from 0.0
    and then adds the bias, all in Python floats."""

    __slots__ = ("rows", "bias")

    def __init__(self, weights: Sequence[float], bias: float,
                 scaler: MinMaxScaler):
        self.rows = tuple((float(lo), (float(hi) - float(lo)) or 1.0, float(w))
                          for lo, hi, w in zip(scaler.mins, scaler.maxs, weights,
                                               strict=True))
        self.bias = float(bias)

    def margin(self, features: Iterable[tuple[int, float]]) -> float:
        """The margin over (feature index, raw value) pairs in increasing
        index order. A feature left out adds nothing, which equals the full
        sum only where its value would scale to zero."""
        rows = self.rows
        total = 0.0
        for index, x in features:
            lo, span, w = rows[index]
            v = (x - lo) / span
            if v < 0.0:
                v = 0.0
            elif v > 1.0:
                v = 1.0
            total += v * w
        return total + self.bias


@dataclass
class FitResult:
    weights: tuple[float, ...]
    bias: float
    epoch_losses: list[float]  # mean hinge + L2 loss per epoch


def _epoch_loss(x: np.ndarray, y: np.ndarray, w: np.ndarray, b: float,
                l2: float) -> float:
    import numpy as np
    margins = y * (x @ w + b)
    hinge = np.maximum(0.0, 1.0 - margins).mean()
    return float(hinge + 0.5 * l2 * float(w @ w))


def check_classes(y: np.ndarray) -> None:
    """DegenerateLabels unless the labels `y` are exactly {-1, +1}."""
    import numpy as np
    classes = set(np.unique(y).tolist())
    if classes != {-1.0, 1.0}:
        raise DegenerateLabels(f"need both classes, got labels {sorted(classes)}")


def fit_hinge(x: np.ndarray, y: np.ndarray, params: TrainParams) -> FitResult:
    """SGD on hinge loss. `x` must already be scaled; `y` in {-1, +1}.

    The step size decays as lr / (1 + lr * l2 * t) over global update
    count t, so it is near-constant early and ~1/t asymptotically.
    """
    import numpy as np
    check_classes(y)
    n, dim = x.shape
    rng = np.random.Generator(np.random.PCG64(params.seed))
    # Rows and labels looked up once; Python floats and float64 scalars
    # round alike, so the updates are the same to the bit.
    rows, labels = list(x), y.tolist()
    w = np.zeros(dim, dtype=float)
    b = 0.0
    t = 0
    losses: list[float] = []
    for _ in range(params.epochs):
        for i in rng.permutation(n).tolist():
            t += 1
            lr = params.learning_rate / (1.0 + params.learning_rate * params.l2 * t)
            xi, yi = rows[i], labels[i]
            margin = yi * (float(xi @ w) + b)
            w *= 1.0 - lr * params.l2
            if margin < 1.0:
                w += lr * yi * xi
                b += lr * yi
        loss = _epoch_loss(x, y, w, b, params.l2)
        if not np.isfinite(loss) or not np.all(np.isfinite(w)):
            raise NonFinite(f"training diverged (loss={loss})")
        losses.append(loss)
    return FitResult(weights=tuple(w.tolist()), bias=b, epoch_losses=losses)


def decide(score: float) -> bool:
    """Margin-zero ties resolve to the positive class."""
    return score >= 0.0
