"""Shared linear max-margin machinery: min-max scaling, seeded stochastic
subgradient descent on hinge loss with L2 regularization, and the
exception family both classifiers raise.

Training is bit-deterministic for a given seed: the sample order comes
from one seeded generator and all arithmetic is plain float64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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
    mins: np.ndarray
    maxs: np.ndarray

    @classmethod
    def fit(cls, rows: np.ndarray) -> "MinMaxScaler":
        return cls(mins=rows.min(axis=0), maxs=rows.max(axis=0))

    def transform(self, rows: np.ndarray) -> np.ndarray:
        span = self.maxs - self.mins
        span = np.where(span == 0.0, 1.0, span)
        scaled = (rows - self.mins) / span
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


def finite_array(values, what: str) -> np.ndarray:
    """A JSON list of finite numbers as float64, else VersionMismatch (also
    for booleans and for integers too large for a float)."""
    try:
        if isinstance(values, list) and all(type(v) in (int, float) for v in values):
            array = np.array(values, dtype=float)
            if np.isfinite(array).all():
                return array
    except OverflowError:
        pass
    raise VersionMismatch(f"{what} must be finite numbers")


def finite(value, what: str) -> float:
    return float(finite_array([value], what)[0])


def check_shape(weights: np.ndarray, scaler: MinMaxScaler, size: int) -> None:
    """Raise VersionMismatch unless a loaded model has `size` weights and
    `size` scaler ranges, so a bad model fails at load, not when scoring."""
    if weights.shape != (size,) or scaler.mins.shape != (size,):
        raise VersionMismatch(
            f"model has {weights.size} weights and {scaler.mins.size} scaler "
            f"ranges, expected {size} of each")


@dataclass
class FitResult:
    weights: np.ndarray
    bias: float
    epoch_losses: list[float]  # mean hinge + L2 loss per epoch


def _epoch_loss(x: np.ndarray, y: np.ndarray, w: np.ndarray, b: float,
                l2: float) -> float:
    margins = y * (x @ w + b)
    hinge = np.maximum(0.0, 1.0 - margins).mean()
    return float(hinge + 0.5 * l2 * float(w @ w))


def fit_hinge(x: np.ndarray, y: np.ndarray, params: TrainParams) -> FitResult:
    """SGD on hinge loss. `x` must already be scaled; `y` in {-1, +1}.

    The step size decays as lr / (1 + lr * l2 * t) over global update
    count t, so it is near-constant early and ~1/t asymptotically.
    """
    classes = set(np.unique(y).tolist())
    if not classes.issuperset({-1.0, 1.0}) or len(classes) != 2:
        raise DegenerateLabels(f"need both classes, got labels {sorted(classes)}")
    n, dim = x.shape
    rng = np.random.Generator(np.random.PCG64(params.seed))
    w = np.zeros(dim, dtype=float)
    b = 0.0
    t = 0
    losses: list[float] = []
    for _ in range(params.epochs):
        for i in rng.permutation(n):
            t += 1
            lr = params.learning_rate / (1.0 + params.learning_rate * params.l2 * t)
            margin = y[i] * (float(x[i] @ w) + b)
            w *= 1.0 - lr * params.l2
            if margin < 1.0:
                w += lr * y[i] * x[i]
                b += lr * y[i]
        loss = _epoch_loss(x, y, w, b, params.l2)
        if not np.isfinite(loss) or not np.all(np.isfinite(w)):
            raise NonFinite(f"training diverged (loss={loss})")
        losses.append(loss)
    return FitResult(weights=w, bias=b, epoch_losses=losses)


def decide(score: float) -> bool:
    """Margin-zero ties resolve to the positive class."""
    return score >= 0.0
