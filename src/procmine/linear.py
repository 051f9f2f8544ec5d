"""The linear max-margin model both classifiers are: min-max scaling,
seeded stochastic subgradient descent on hinge loss with L2
regularization, the scorer, and `LinearModel`, the model and its file.

Both classifiers subclass `LinearModel`: one file layout (version, any
fields of the subclass, weights, bias, scaler ranges), one loader and one
training recipe (`fit_models`). A model checks its values when it is
built, so no model can be made that the loader would refuse; the loader
reads every field through `docmodel.require`, which checks its form.

Training is bit-deterministic for a given seed: the sample order comes from
one seeded generator and all arithmetic is plain float64. Training imports
numpy inside its functions; loading and scoring a model do not need it. A
fit skips runs of steps that update no model, across epoch ends too: a probe
certifies each such step from a bound on the rounding error of any summation
order, so its decision is the one a BLAS `ddot` would reach under any
kernel, and the skipped decays are replayed with the same roundings. No
epoch loss is kept; one is computed only where the weights break a bound.

Scoring is plain Python float64 summed left to right in feature order
(`Scorer`), not a BLAS dot product, whose summation order depends on the
kernel the CPU selects. So a margin has the same bits on every machine.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, ClassVar, Iterable, NamedTuple, Sequence

from .docmodel import SchemaError, load_json, require
from .lingua import read_input

if TYPE_CHECKING:
    import numpy as np


class DegenerateLabels(ValueError):
    """Training data contains a single class."""


class NonFinite(FloatingPointError):
    """Loss or weights diverged to non-finite values."""


class VersionMismatch(ValueError):
    """A model file or model that is not of this class: another version, or
    a file that is not JSON, or a missing or bad field, shape or value."""


class TrainParams(NamedTuple):
    epochs: int = 200
    learning_rate: float = 0.01
    l2: float = 1e-4
    seed: int = 0


class MinMaxScaler(NamedTuple):
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
        contribution = self.contribution
        total = 0.0
        for index, x in features:
            total += contribution(index, x)
        return total + self.bias

    def contribution(self, index: int, x: float) -> float:
        """The term that `margin` adds for feature `index` at raw value `x`:
        the value scaled and clipped to [0, 1], times the weight."""
        lo, span, w = self.rows[index]
        v = (x - lo) / span
        if v < 0.0:
            v = 0.0
        elif v > 1.0:
            v = 1.0
        return v * w


class LinearModel:
    """A linear model over min-max scaled features, and its file.

    A subclass sets `MODEL_VERSION` and `n_features`; one with more fields
    names them in `_fields` after the three here, sets them before calling
    this `__init__`, writes them after the version (`_header`) and reads
    them (`_read_header`). Building a model raises VersionMismatch unless
    its weights, bias and scaler ranges are finite and it has `n_features`
    weights and ranges, then builds its `scorer`. As on a NamedTuple, no
    field can be set, `_replace` builds a changed copy, and two models are
    equal when they are of one class with equal fields."""

    MODEL_VERSION: ClassVar[str]
    n_features: ClassVar[int]
    _fields: ClassVar[tuple[str, ...]] = ("weights", "bias", "scaler")

    def __init__(self, weights: Sequence[float], bias: float,
                 scaler: MinMaxScaler):
        vars(self).update(weights=weights, bias=bias, scaler=scaler)
        self._check()
        vars(self)["scorer"] = Scorer(weights, bias, scaler)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot set {name!r}: a model is immutable")

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._asdict() == other._asdict()

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def _replace(self, **changes) -> LinearModel:
        """A model of this class with `changes` to its fields, checked anew."""
        return type(self)(**self._asdict() | changes)

    def _check(self) -> None:
        _check_finite(self.weights, "weights")
        _check_finite([self.bias], "bias")
        _check_finite([*self.scaler.mins, *self.scaler.maxs], "scaler")
        sizes = {len(self.weights), len(self.scaler.mins), len(self.scaler.maxs)}
        if sizes != {self.n_features}:
            raise VersionMismatch(
                f"model has {len(self.weights)} weights and "
                f"{len(self.scaler.mins)} scaler ranges, expected "
                f"{self.n_features} of each")

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
                tuple(require(r, key, float, ("$.scaler", i)) for i, r in ranges)
                for key in ("min", "max"))
            fields = dict(weights=tuple(require(doc, "weights", list, "$", float)),
                          bias=require(doc, "bias", float, "$"),
                          scaler=MinMaxScaler(mins, maxs), **cls._read_header(doc))
        except SchemaError as exc:
            raise VersionMismatch(str(exc)) from None
        return cls(**fields)

    @classmethod
    def load(cls, path: str | Path) -> LinearModel:
        return cls.from_json(read_input(path))

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


class FitResult(NamedTuple):
    weights: tuple[float, ...]
    bias: float


def _epoch_loss(x: np.ndarray, y: np.ndarray, w: np.ndarray, b: float,
                l2: float) -> float:
    import numpy as np
    hinge = np.maximum(0.0, 1.0 - y * (x @ w + b)).mean()
    return float(hinge + 0.5 * l2 * float(w @ w))


def check_classes(y: np.ndarray) -> None:
    """DegenerateLabels unless the labels `y` are exactly {-1, +1}."""
    import numpy as np
    classes = set(np.unique(y).tolist())
    if classes != {-1.0, 1.0}:
        raise DegenerateLabels(f"need both classes, got labels {sorted(classes)}")


# Fast-forwarding update-free steps (see `fit_hinge`). A probe costs about as
# much as this many exact steps of the bundled fits; a shorter run quadruples
# the exact steps before the next probe, up to the cap; a longer one resets.
_SHORT_RUN = 16
_MAX_WAIT = 4096
_BLOCK = 1024  # steps times models of the epochs drawn at once (at least one)
# Elements of one block of replayed decays, which bounds the replay's memory.
_REPLAY_ELEMENTS = 1 << 14
# `_free_steps` assumes row sums and weights of at most this size.
_LIMIT = 2.0 ** 500
_SAFE = 2.0 ** 400  # no epoch loss is computed while no |w| or |b| exceeds it


def fit_hinge(xs: Sequence[np.ndarray], y: np.ndarray,
              params: TrainParams) -> list[FitResult]:
    """SGD on hinge loss, one model per matrix of `xs`, all in lockstep.

    Each `x` in `xs` must already be scaled and have the same shape; `y` in
    {-1, +1} labels the rows of every one. The step size decays as
    lr / (1 + lr * l2 * t) over global update count t: near-constant early,
    ~1/t later. NonFinite where an epoch ends with a non-finite weight or loss.

    The models share the sample order and step sizes, so one loop steps
    them all: their weights are the rows of one array, decayed by one
    multiply. Each step is the same float64 arithmetic in the same order as
    fitting each model on its own, so every result has the same bits.

    A step whose margins are all at least 1 only decays the weights, and a
    trained model has long runs of such steps. A probe, one matrix product
    per model, finds the steps ahead that `_free_steps` certifies free
    whichever order a BLAS ddot sums in; they are skipped, their decays
    replayed (`_decay`), and the next step runs exactly (see `_SHORT_RUN`).

    Exact steps stop at each epoch end, where the loss is computed only if
    a weight or bias exceeds `_SAFE` (see `_step_reach`). Epochs are drawn
    in blocks: after a long run, a probe where that bound holds looks ahead
    to the block's end, any other to the epoch's end. A free run only scales
    the weights, by factors in [-1, 1], so the bound holds at each end it meets.
    """
    import numpy as np
    check_classes(y)
    # One model's rows need no copy: a view has the layout stacking gives.
    stacked = (np.ascontiguousarray(xs[0])[:, None, :] if len(xs) == 1
               else np.stack(xs, axis=1))
    n, m, dim = stacked.shape
    rng = np.random.Generator(np.random.PCG64(params.seed))
    # Per sample, its rows of every matrix stacked and one by one. Python and
    # float64 scalars round alike, so labels and biases are Python floats.
    samples = [(rows, tuple(rows)) for rows in stacked]
    labels = y.tolist()
    w = np.zeros((m, dim), dtype=float)
    ws = tuple(w)
    b = [0.0] * m
    lr0, l2 = params.learning_rate, params.l2
    vecdot = np.vecdot
    every_model = range(m)
    reach = _step_reach(stacked, params)

    def finite_loss() -> bool:  # by the bound of `_step_reach`
        return (reach < math.inf and float(np.abs(w).max(initial=0.0)) <= _SAFE
                and all(abs(bk) <= _SAFE for bk in b))

    # Probe operands: each model's rows as columns, the bound's 8u * (dim + k).
    per_block = max(1, _BLOCK // (n * m))
    by_column = stacked.transpose(1, 2, 0)
    slack = np.ldexp(dim + np.arange(per_block * n, dtype=float), -50)
    chain = np.empty((max(1, _REPLAY_ELEMENTS // (m * dim or 1)) + 1, m * dim))
    # `due` counts the exact steps before the next probe. The first epoch's
    # are all exact: from zero weights nearly every step updates.
    wait, due = 0, n
    for first in range(0, params.epochs, per_block):
        size = n * min(per_block, params.epochs - first)
        order = np.concatenate([rng.permutation(n) for _ in range(size // n)])
        # The same IEEE operations as computing each step's rate in turn.
        steps = np.arange(first * n + 1, first * n + size + 1, dtype=float)
        lrs = lr0 / (1.0 + lr0 * l2 * steps)
        decays = 1.0 - lrs * l2
        pos = 0
        while pos < size:
            if not due:
                far = size if not wait and finite_loss() else pos - pos % n + n
                run = 0
                if (first * n + far) * reach <= _LIMIT:
                    w2 = np.stack((w, np.abs(w)), axis=1)  # per model, w and |w|
                    ahead = np.matmul(w2, by_column).take(order[pos:far], axis=-1)
                    run = _free_steps(ahead, b, y[order[pos:far]], decays[pos:far], slack)
                if run:
                    _decay(w, decays[pos:pos + run], chain)
                    pos += run
                wait = 0 if run >= _SHORT_RUN else min(4 * wait or 1, _MAX_WAIT)
                due = 1 + wait if pos < far else 0
            stop = min(pos + due, pos - pos % n + n)  # exact steps stop at epoch ends
            for i, lr, decay in zip(order[pos:stop].tolist(), lrs[pos:stop].tolist(),
                                    decays[pos:stop].tolist()):
                yi = labels[i]
                rows, parts = samples[i]
                # One BLAS ddot per model; for one model, ndarray.dot skips vecdot's
                # dispatch. (Before Python 3.12 a plain loop beats a comprehension.)
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
            if pos % n == 0 and not finite_loss():
                for xk, wk, bk in zip(xs, ws, b):
                    loss = _epoch_loss(xk, y, wk, bk, l2)
                    if not np.isfinite(loss) or not np.all(np.isfinite(wk)):
                        raise NonFinite(f"training diverged (loss={loss})")
    return [FitResult(weights=tuple(wk.tolist()), bias=bk) for wk, bk in zip(ws, b)]


def _step_reach(stacked: np.ndarray, params: TrainParams) -> float:
    """Twice the most that one step can add to a weight's or bias's
    magnitude, so that after t steps all of them lie within t times this;
    or infinity where the fit must not skip steps, because it breaks what
    `_free_steps` assumes: rows that are not all non-negative with sums
    within 2^500 (scaled rows lie in [0, 1]), 2^30 or more columns plus
    samples or steps in a block, 2^50 or more steps, a negative rate or L2
    weight (which could take a decay out of [-1, 1]) or one not finite, or
    an L2 weight above 2^100.

    Where it is finite, so is an epoch's loss while no |w| or |b| exceeds
    2^400 (`_SAFE`): a term of x.w is at most hi * 2^400, so x.w + b in any
    order, each row's hinge and their mean over n < 2^30 rows stay below
    2^902, and 0.5 * l2 * w.w below 2^930. No operand is infinite or NaN."""
    import numpy as np
    n, _, dim = stacked.shape
    lo = float(np.min(stacked, initial=0.0))
    hi = float(np.max(stacked, initial=0.0))
    lr0, l2 = params.learning_rate, params.l2
    if (0.0 <= lo and dim * hi <= _LIMIT and max(n, _BLOCK) + dim < 2 ** 30
            and params.epochs * n < 2 ** 50 and 0.0 <= lr0 < math.inf
            and 0.0 <= l2 <= 2.0 ** 100):
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
