"""The linear max-margin model both classifiers are: min-max scaling,
seeded stochastic subgradient descent on hinge loss with L2
regularization, the scorer, and `LinearModel`, the model and its file.

Both classifiers subclass `LinearModel`: one file layout (version, any
fields of the subclass, weights, bias, scaler ranges), one loader and one
training recipe (`fit_models`). A model checks its values when it is
built, so no model can be made that the loader would refuse; the loader
reads every field through `docmodel.require`, which checks its form.

Training is bit-deterministic for a given seed: the sample order comes
from one seeded generator and all arithmetic is plain float64. Training
imports numpy inside its functions; loading and scoring a model do not
need it. A fit fast-forwards over runs of steps that update no model: a
probe certifies each such step from a bound on the rounding error of any
summation order, so its decision is the one a BLAS `ddot` would reach
under any kernel, and the skipped steps' weight decays are replayed with
the same roundings. Every step not certified runs the `ddot` test itself.

Scoring is plain Python float64 summed left to right in feature order
(`Scorer`), not a BLAS dot product, whose summation order depends on the
kernel the CPU selects. So a margin has the same bits on every machine.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, ClassVar, Iterable, Sequence

from .docmodel import SchemaError, load_json, require

if TYPE_CHECKING:
    import numpy as np


class DegenerateLabels(ValueError):
    """Training data contains a single class."""


class NonFinite(FloatingPointError):
    """Loss or weights diverged to non-finite values."""


class VersionMismatch(ValueError):
    """A model file or model that is not of this class: another version, or
    a file that is not JSON, or a missing or bad field, shape or value."""


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


def _check_finite(values: Iterable[float], what: str) -> None:
    if not all(math.isfinite(v) for v in values):
        raise VersionMismatch(f"{what} must be finite numbers")


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


@dataclass(frozen=True)
class LinearModel:
    """A linear model over min-max scaled features, and its file.

    A subclass sets `MODEL_VERSION` and `n_features`; one with more fields
    writes them after the version (`_header`) and reads them (`_read_header`).
    Building a model raises VersionMismatch unless its weights, bias and
    scaler ranges are finite and it has `n_features` weights and ranges."""

    weights: Sequence[float]  # one per feature
    bias: float
    scaler: MinMaxScaler

    MODEL_VERSION: ClassVar[str]
    n_features: ClassVar[int]

    def __post_init__(self) -> None:
        _check_finite(self.weights, "weights")
        _check_finite([self.bias], "bias")
        _check_finite([*self.scaler.mins, *self.scaler.maxs], "scaler")
        sizes = {len(self.weights), len(self.scaler.mins), len(self.scaler.maxs)}
        if sizes != {self.n_features}:
            raise VersionMismatch(
                f"model has {len(self.weights)} weights and "
                f"{len(self.scaler.mins)} scaler ranges, expected "
                f"{self.n_features} of each")

    @cached_property
    def scorer(self) -> Scorer:
        return Scorer(self.weights, self.bias, self.scaler)

    def _header(self) -> dict:
        return {}

    @classmethod
    def _read_header(cls, doc: dict) -> dict:
        return {}

    def to_json(self) -> str:
        doc = {
            "version": self.MODEL_VERSION,
            **self._header(),
            "weights": [float(w) for w in self.weights],
            "bias": float(self.bias),
            "scaler": [{"min": float(lo), "max": float(hi)}
                       for lo, hi in zip(self.scaler.mins, self.scaler.maxs)],
        }
        return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"

    @classmethod
    def from_json(cls, data: str | bytes) -> LinearModel:
        """The model a file holds; VersionMismatch, naming the JSON path of a
        bad field, unless `load_json` reads an object of this class's
        version whose fields `require` reads and whose values build a model."""
        try:
            doc = load_json(data)
            version = require(doc, "version", str, "$")
            if version != cls.MODEL_VERSION:
                raise SchemaError(f"{version!r}, expected {cls.MODEL_VERSION!r}",
                                  "$.version")
            ranges = list(enumerate(require(doc, "scaler", list, "$", dict)))
            mins, maxs = (
                tuple(require(r, key, float, f"$.scaler[{i}]") for i, r in ranges)
                for key in ("min", "max"))
            fields = dict(weights=tuple(require(doc, "weights", list, "$", float)),
                          bias=require(doc, "bias", float, "$"),
                          scaler=MinMaxScaler(mins, maxs), **cls._read_header(doc))
        except SchemaError as exc:
            raise VersionMismatch(str(exc)) from None
        return cls(**fields)

    @classmethod
    def load(cls, path: str | Path) -> LinearModel:
        return cls.from_json(Path(path).read_bytes())

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), "utf-8")


def fit_models(cls: type[LinearModel], raws: Sequence[np.ndarray],
               labels: Sequence[bool], params: TrainParams,
               **fields) -> list[LinearModel]:
    """One `cls` model, with `fields`, per raw matrix of `raws`, each scaled
    by a `MinMaxScaler` fitted to it and all fitted by one `fit_hinge` call
    on `labels` (True positive). DegenerateLabels unless both occur;
    NonFinite, and no numpy warning, if a value range or the fit overflows."""
    import numpy as np
    y = np.array([1.0 if label else -1.0 for label in labels])
    check_classes(y)  # before the scalers, which cannot fit zero rows
    scalers = [MinMaxScaler.fit(raw) for raw in raws]
    with np.errstate(over="ignore", invalid="ignore"):  # warnings only
        fits = fit_hinge([scaler.transform(raw)
                          for scaler, raw in zip(scalers, raws)], y, params)
    return [cls(weights=fit.weights, bias=fit.bias, scaler=scaler, **fields)
            for fit, scaler in zip(fits, scalers)]


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


# Fast-forwarding the update-free steps of a fit (see `fit_hinge`). A probe
# costs about as much as this many exact steps of the bundled fits; a run
# shorter than that quadruples the exact steps taken before the next probe,
# up to the cap, and a longer one resets them.
_SHORT_RUN = 16
_MAX_WAIT = 4096
# Elements of one block of replayed decays, which bounds the replay's memory.
_REPLAY_ELEMENTS = 1 << 16
# `_free_steps` assumes row sums and weights of at most this size.
_LIMIT = 2.0 ** 500


def fit_hinge(xs: Sequence[np.ndarray], y: np.ndarray,
              params: TrainParams) -> list[FitResult]:
    """SGD on hinge loss, one model per matrix of `xs`, all in lockstep.

    Each `x` in `xs` must already be scaled and have the same shape; `y` in
    {-1, +1} labels the rows of every one. The step size decays as
    lr / (1 + lr * l2 * t) over global update count t, so it is
    near-constant early and ~1/t asymptotically.

    The models share the sample order and step sizes, so one loop steps
    them all: their weights are the rows of one array, decayed by one
    multiply. Each step is the same float64 arithmetic in the same order as
    fitting each model on its own, so every result has the same bits.

    A step whose margins are all at least 1 only decays the weights, and a
    trained model has long runs of such steps. So the fit probes: one
    matrix product per model at the current weights gives every sample's
    x.w and |x|.|w|, and `_free_steps` counts the steps ahead whose margins
    a rounding-error bound puts at least 1 whichever order a BLAS ddot sums
    in. Those steps are skipped and their decays replayed onto the weights
    with the same roundings (`_decay`); the first step not certainly free
    runs as an exact step, whose ddot decides its update and every tie.
    The fit probes at the start of an epoch and after an exact step, but
    while probes find runs shorter than a probe costs, it takes four times
    as many exact steps before the next one, up to a cap. The first epoch
    takes exact steps only.
    """
    import numpy as np
    check_classes(y)
    # One model's rows need no copy: a view of its matrix has the layout
    # that stacking gives.
    stacked = (np.ascontiguousarray(xs[0])[:, None, :] if len(xs) == 1
               else np.stack(xs, axis=1))
    n, m, dim = stacked.shape
    rng = np.random.Generator(np.random.PCG64(params.seed))
    # Per sample, its rows of every matrix stacked, and those rows one by
    # one; Python floats and float64 scalars round alike, so labels and
    # biases are Python floats.
    samples = [(rows, tuple(rows)) for rows in stacked]
    labels = y.tolist()
    w = np.zeros((m, dim), dtype=float)
    ws = tuple(w)
    b = [0.0] * m
    lr0, l2 = params.learning_rate, params.l2
    vecdot = np.vecdot
    every_model = range(m)
    t = 0
    losses: list[list[float]] = [[] for _ in xs]
    # The probe's operands: each model's rows as columns, its weights and
    # their magnitudes as two rows, the bound's 8u * (dim + k), and the
    # block buffer of the decay replay.
    by_column = stacked.transpose(1, 2, 0)
    w2 = np.empty((m, 2, dim))
    slack = np.ldexp(dim + np.arange(n, dtype=float), -50)
    chain = np.empty((max(1, _REPLAY_ELEMENTS // (m * dim or 1)) + 1, m * dim))
    reach = _step_reach(stacked, params)
    # The first epoch runs exact steps: from zero weights, where every margin
    # is 0, it updates nearly every step. `due` counts the exact steps
    # before the next probe.
    wait, due = 0, n
    for _ in range(params.epochs):
        order = rng.permutation(n)
        # The same IEEE operations as computing each step's rate in turn.
        steps = np.arange(t + 1, t + n + 1, dtype=float)
        t += n
        lrs = lr0 / (1.0 + lr0 * l2 * steps)
        decays = 1.0 - lrs * l2
        order_list, lrs_list, decays_list = order.tolist(), lrs.tolist(), decays.tolist()
        pos = 0
        while pos < n:
            if not due:
                run = 0
                if t * reach <= _LIMIT:
                    w2[:, 0] = w
                    np.abs(w, out=w2[:, 1])
                    ahead = np.matmul(w2, by_column).take(order[pos:], axis=-1)
                    run = _free_steps(ahead, b, y[order[pos:]], decays[pos:], slack)
                if run:
                    _decay(w, decays[pos:pos + run], chain)
                    pos += run
                wait = 0 if run >= _SHORT_RUN else min(4 * wait or 1, _MAX_WAIT)
                due = 1 + wait if pos < n else 0
            stop = min(n, pos + due)
            for i, lr, decay in zip(order_list[pos:stop], lrs_list[pos:stop],
                                    decays_list[pos:stop]):
                yi = labels[i]
                rows, parts = samples[i]
                # One BLAS ddot per model; for one model, ndarray.dot skips
                # vecdot's dispatch and the test needs no loop. (Before
                # Python 3.12 a plain loop beats a list comprehension here.)
                if m > 1:
                    below = []
                    for k, dot in enumerate(vecdot(rows, w).tolist()):
                        if yi * (dot + b[k]) < 1.0:
                            below.append(k)
                elif yi * (float(parts[0].dot(ws[0])) + b[0]) < 1.0:
                    below = every_model
                else:
                    below = ()
                w *= decay
                if below:
                    g = lr * yi
                    if len(below) == m:
                        w += g * rows
                        for k in every_model:
                            b[k] += g
                    else:
                        for k in below:
                            wk = ws[k]
                            wk += g * parts[k]
                            b[k] += g
            due -= stop - pos
            pos = stop
        for k, (xk, wk) in enumerate(zip(xs, ws)):
            loss = _epoch_loss(xk, y, wk, b[k], l2)
            if not np.isfinite(loss) or not np.all(np.isfinite(wk)):
                raise NonFinite(f"training diverged (loss={loss})")
            losses[k].append(loss)
    return [FitResult(weights=tuple(wk.tolist()), bias=bk, epoch_losses=lk)
            for wk, bk, lk in zip(ws, b, losses)]


def _step_reach(stacked: np.ndarray, params: TrainParams) -> float:
    """Twice the most that one step can add to a weight's or bias's
    magnitude, so that after t steps all of them lie within t times this;
    or infinity where the fit must not skip steps, because it breaks what
    `_free_steps` assumes: rows that are not all non-negative with sums
    within 2^500 (scaled rows lie in [0, 1]), 2^30 or more samples plus
    columns, 2^50 or more steps, or a rate or L2 weight that is negative or
    not finite (which could take a decay factor out of [-1, 1])."""
    import numpy as np
    n, _, dim = stacked.shape
    lo = float(np.min(stacked, initial=0.0))
    hi = float(np.max(stacked, initial=0.0))
    lr0, l2 = params.learning_rate, params.l2
    if (0.0 <= lo and dim * hi <= _LIMIT and n + dim < 2 ** 30
            and params.epochs * n < 2 ** 50 and 0.0 <= lr0 < math.inf
            and 0.0 <= l2 < math.inf):
        return 2.0 * lr0 * max(hi, 1.0)
    return math.inf


def _free_steps(ahead: np.ndarray, b: list[float], y: np.ndarray,
                decays: np.ndarray, slack: np.ndarray) -> int:
    """How many of the steps ahead certainly update no model.

    A probe at weights w and biases `b` (one per model) gives, for the
    sample x of each step ahead, d = x.w and s = |x|.|w| as
    `ahead[:, 0]` and `ahead[:, 1]` (models by steps, each summed in any
    order); `y` are those samples' labels and `decays` the steps' decay
    factors. Step k ahead sees the weights v that k decays leave, and it
    updates a model unless y * fl(D + b) >= 1 for D the BLAS ddot x.v. It
    is certainly free when, for every model,

        y * (P_k * d + b) - 1  >  8 * (dim + k) * u * (|P_k| * s + |b| + 1)

    in float64, where P_k is the running product of the first k decays
    (P_0 = 1), u = 2^-53 and `slack[k]` = 8 * (dim + k) * u.

    Why. Write g_j = j*u / (1 - j*u), S = |x|.|w| exactly and |x|_1 for a
    row's sum; every rounding is (1 + e) with |e| <= u. The fit probes only
    where `_step_reach` allows it, so |decay| <= 1, x >= 0, |x|_1 <= 2^500,
    every |w| and |b| <= 2^500 and (dim + k) * u < 2^-20.
    1. Rounding is monotone and +-1 are floats: if y * (D + b) >= 1 exactly,
       then y * fl(D + b) >= 1. The `+ b` and the comparison cost nothing.
    2. Let Q be the exact product of the k decays. Then P_k = Q(1 + a) and
       each v_i = w_i Q (1 + a_i) with |a|, |a_i| <= g_k. Any ddot, in any
       order, with or without FMA, has |D - x.v| <= g_dim |x|.|v|, and so
       has the probe: |d - x.w| <= g_dim S, and S <= s (1 + 2 g_dim). In
       D - P_k d = (D - x.v) + (x.v - Q x.w) + (Q - P_k) x.w + P_k (x.w - d)
       the four terms are at most g_dim |Q| S (1 + g_k), g_k |Q| S,
       g_k |Q| S and g_dim |P_k| S, and |Q| <= |P_k| (1 + 2 g_k), so
       |D - P_k d| <= 2.01 (dim + k) u |P_k| s.
    3. The left side takes three roundings (times y is exact). As |d| <=
       s (1 + 4 g_dim), its computed value L and the exact
       y * (P_k d + b) - 1 differ by at most
       1.01 u |L| + 2.01 u |P_k| s + u |b|.
    4. So y * (D + b) - 1 >= L (1 - 2u) - 4.1 (dim + k) u (|P_k| s + |b|).
       All terms of the right side are non-negative, so its three roundings
       leave it at least 7.99 (dim + k) u (|P_k| s + |b| + 1). If L exceeds
       it, y * (D + b) - 1 > 7.9 (dim + k) u > 0, and by 1 the step makes
       no update.
    5. Underflow adds at most 2^-1075 per rounding instead. Through the
       decay chains, which |decay| <= 1 does not grow, and the sums, that
       is at most (dim + k) 2^-1075 (|x|_1 + S + 4) <= (dim + k) 2^-74,
       far below the 7.9 (dim + k) u that the `+ 1` leaves. Overflow: |v|
       <= |w|, so no partial sum of d, s or D exceeds 2^1001, and every
       quantity stays finite; a NaN would fail the comparison and end the
       run.
    """
    import numpy as np
    size = y.shape[0]
    # Rows P_k and |P_k|, to scale d and s.
    scale = np.ones((2, size))
    np.multiply.accumulate(decays[:size - 1], out=scale[0, 1:])
    np.abs(scale[0], out=scale[1])
    # Per model, P_k * d + b and |P_k| * s + (|b| + 1).
    sums = ahead * scale
    sums += np.array([b, [abs(bk) + 1.0 for bk in b]]).T[:, :, None]
    left = sums[:, 0] * y
    left -= 1.0
    right = sums[:, 1]
    right *= slack[:size]
    free = (left > right).all(axis=0)
    run = int(free.argmin())
    return size if free[run] else run


def _decay(w: np.ndarray, factors: np.ndarray, chain: np.ndarray) -> None:
    """Multiply `w` in place by each of `factors` in turn, with the one
    rounding per element per factor of `w *= factor`. numpy multiplies a
    reduction left to right (it sums pairwise only for `add`); `chain`
    holds one block of factors at a time."""
    import numpy as np
    flat = w.reshape(-1)
    block = len(chain) - 1
    for start in range(0, len(factors), block):
        part = factors[start:start + block]
        rows = chain[:len(part) + 1]
        rows[0] = flat
        rows[1:] = part[:, None]
        np.multiply.reduce(rows, axis=0, out=flat)


def decide(score: float) -> bool:
    """Margin-zero ties resolve to the positive class."""
    return score >= 0.0
