"""`linear.fit_hinge` in lockstep against the one-model loop in conftest.

Several scaled matrices that share labels and training parameters are
fitted in one call; each model's weights and bias must equal the oracle's
bit for bit, and the fit must raise NonFinite where the oracle does. The
ablation study, which fits its models in one call, must report what one
`ablate` call per category reports.

The fit skips runs of steps that a rounding-error bound certifies as
update-free (`linear._free_steps`) and replays their decays
(`linear._decay`), across epoch ends; separable problems with long such
runs, margins of exactly 1.0 inside a run, zero and negative decay factors
and diverging rates must still give the oracle's bits, and the replay must
stay within its memory bound. The loss is computed only at epoch ends where
a bound on the weights fails (`linear._epoch_loss`).
"""

import csv
import functools
import math
import operator
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from procmine import actionable, classifier, linear
from procmine.classifier import _ablate, ablate, ablation_report
from procmine.features import FEATURE_CATEGORIES, FeatureVector
from procmine.linear import DegenerateLabels, NonFinite, TrainParams

from conftest import oracle_fit_hinge

COLUMN_KINDS = ("dense", "sparse", "constant", "zero")
ROOT = Path(__file__).resolve().parents[1]


def bits(fit: linear.FitResult) -> tuple:
    return tuple(w.hex() for w in fit.weights), fit.bias.hex()


def scaled_matrix(rng: np.random.Generator, n: int, kinds: list[str],
                  zero_rows: float) -> np.ndarray:
    """Columns of each kind in [0, 1]; each row is zeroed with probability
    `zero_rows`."""
    columns = []
    for kind in kinds:
        if kind == "dense":
            columns.append(rng.random(n))
        elif kind == "sparse":
            columns.append(np.where(rng.random(n) < 0.7, 0.0, rng.random(n)))
        elif kind == "constant":
            columns.append(np.full(n, rng.random()))
        else:
            columns.append(np.zeros(n))
    x = np.column_stack(columns)
    x[rng.random(n) < zero_rows] = 0.0
    return x


@st.composite
def lockstep_problems(draw):
    n = draw(st.integers(2, 12))
    # Wide rows too: a BLAS ddot sums them in another order than a loop.
    dim = draw(st.one_of(st.integers(1, 8), st.sampled_from((15, 40, 110))))
    labels = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    labels[:2] = [True, False]  # both classes
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = [scaled_matrix(rng, n, draw(st.lists(st.sampled_from(COLUMN_KINDS),
                                              min_size=dim, max_size=dim)),
                        draw(st.sampled_from((0.0, 0.3))))
          for _ in range(draw(st.integers(1, 6)))]
    params = TrainParams(epochs=draw(st.integers(1, 30)),
                         learning_rate=draw(st.sampled_from((0.01, 0.3, 1.0, 2.0))),
                         l2=draw(st.sampled_from((0.0, 1e-4, 0.05))),
                         seed=draw(st.integers(0, 2**32 - 1)))
    y = np.array([1.0 if label else -1.0 for label in labels])
    return xs, y, params


@settings(max_examples=300, deadline=None)
@given(lockstep_problems())
def test_lockstep_fits_equal_one_model_fits(problem):
    xs, y, params = problem
    fits = linear.fit_hinge(xs, y, params)
    assert len(fits) == len(xs)
    for x, fit in zip(xs, fits):
        assert bits(fit) == bits(oracle_fit_hinge(x, y, params))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 130), st.integers(0, 2**32 - 1))
def test_stacked_margins_are_one_model_margins(m, dim, seed):
    """The lockstep loop reads all margins from one `np.vecdot`; each must
    have the bits of the one-model loop's `x @ w`."""
    rng = np.random.default_rng(seed)
    rows, w = rng.standard_normal((m, dim)), rng.standard_normal((m, dim))
    assert [d.hex() for d in np.vecdot(rows, w).tolist()] == [
        float(x @ wk).hex() for x, wk in zip(rows, w)]
    assert [float(x.dot(wk)).hex() for x, wk in zip(rows, w)] == [
        float(x @ wk).hex() for x, wk in zip(rows, w)]


def test_lockstep_fits_update_models_apart():
    """Models that disagree on a margin take different steps, so a fit of
    several models runs both the stacked and the one-model update."""
    rng = np.random.default_rng(4)
    y = np.array([1.0, -1.0] * 10)
    xs = [scaled_matrix(rng, 20, ["dense"] * 4, 0.0), np.zeros((20, 4)),
          scaled_matrix(rng, 20, ["sparse", "constant", "dense", "zero"], 0.3)]
    params = TrainParams(epochs=20, learning_rate=0.3, l2=0.05, seed=9)
    fits = linear.fit_hinge(xs, y, params)
    assert len({fit.weights for fit in fits}) == 3
    for x, fit in zip(xs, fits):
        assert bits(fit) == bits(oracle_fit_hinge(x, y, params))


@pytest.mark.parametrize("models", [1, 3])
def test_margin_of_exactly_one_takes_no_step(models):
    """With all-zero rows, a unit step and no decay, the bias reaches 1.0
    exactly and a second sample of the same class sits on the margin."""
    y = np.array([1.0, 1.0, -1.0, -1.0, 1.0, -1.0])
    xs = [np.zeros((6, 3)) for _ in range(models)]
    params = TrainParams(epochs=4, learning_rate=1.0, l2=0.0, seed=2)
    for x, fit in zip(xs, linear.fit_hinge(xs, y, params)):
        assert bits(fit) == bits(oracle_fit_hinge(x, y, params))


def test_single_class_raises_like_the_oracle():
    y = np.ones(4)
    xs = [np.zeros((4, 2)), np.ones((4, 2))]
    with pytest.raises(DegenerateLabels):
        oracle_fit_hinge(xs[0], y, TrainParams(epochs=1))
    with pytest.raises(DegenerateLabels):
        linear.fit_hinge(xs, y, TrainParams(epochs=1))


def test_divergence_raises_like_the_oracle():
    """A step size near the float64 maximum overflows the weights and the
    bias."""
    rng = np.random.default_rng(5)
    y = np.array([1.0, -1.0, 1.0, -1.0])
    xs = [scaled_matrix(rng, 4, ["dense", "dense"], 0.0), np.zeros((4, 2))]
    params = TrainParams(epochs=3, learning_rate=1e308, l2=0.0)
    with np.errstate(all="ignore"):
        for x in xs:
            with pytest.raises(NonFinite):
                oracle_fit_hinge(x, y, params)
        with pytest.raises(NonFinite):
            linear.fit_hinge(xs, y, params)


def random_rows(seed: int, count: int) -> list[tuple[FeatureVector, bool]]:
    """Random feature rows, some features constant, labels loosely tied to
    the first three."""
    rng = random.Random(seed)
    constant = {i for i in range(15) if rng.random() < 0.2}
    rows = []
    for i in range(count):
        values = [0.5 if j in constant else rng.random() for j in range(15)]
        label = i % 3 == 0 or sum(values[:3]) + rng.gauss(0, 0.3) > 1.6
        rows.append((FeatureVector(*values), label))
    return rows


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("categories", [
    None, {"overlap": (1, 2, 3), "all": tuple(range(1, 16)), "one": (15,),
           "again": (3, 2, 1)}], ids=["paper-categories", "custom"])
def test_ablation_report_equals_one_ablate_per_category(seed, categories):
    """The report's models train together in `_ablate`; other category
    sets reach it directly."""
    train_rows, test_rows = random_rows(seed, 30), random_rows(seed + 10, 20)
    params = TrainParams(epochs=40, learning_rate=0.05, l2=1e-3, seed=seed)
    if categories is None:
        categories = FEATURE_CATEGORIES
        report = ablation_report(train_rows, test_rows, params)
    else:
        report = list(zip(["none", *categories], _ablate(
            [(), *categories.values()], train_rows, test_rows, params)))
    expected = [("none", ablate((), train_rows, test_rows, params))] + [
        (name, ablate(tuple(ids), train_rows, test_rows, params))
        for name, ids in categories.items()]
    assert report == expected


def test_ablation_report_rejects_unknown_feature_ids():
    rows = random_rows(4, 10)
    with pytest.raises(ValueError, match=r"\[0, 16\]"):
        _ablate([(), (0, 3), (16,)], rows, rows, TrainParams(epochs=1))


# ---------------------------------------------------------------------------
# Fast-forwarded runs of update-free steps.

class ProbeLog:
    """Wraps `linear._free_steps`: counts the probes, the longest window of
    steps a probe looked at, the steps it certifies free and the probes that
    stopped at a step whose margins the probe puts at 1 or more for every
    model, in the band where the exact step decides."""

    def __init__(self, free_steps):
        self.free_steps = free_steps
        self.probes = self.longest = self.skipped = self.in_band = 0

    def __call__(self, ahead, b, y, decays, slack):
        run = self.free_steps(ahead, b, y, decays, slack)
        self.probes += 1
        self.longest = max(self.longest, len(y))
        self.skipped += run
        if run < len(y):
            scale = functools.reduce(operator.mul, decays[:run].tolist(), 1.0)
            if all(y[run] * (scale * d + bk) >= 1.0
                   for d, bk in zip(ahead[:, 0, run].tolist(), b)):
                self.in_band += 1
        return run


@pytest.fixture
def probe_log(monkeypatch):
    log = ProbeLog(linear._free_steps)
    monkeypatch.setattr(linear, "_free_steps", log)
    return log


@pytest.fixture
def epoch_losses(monkeypatch):
    """Counts the calls of `linear._epoch_loss`."""
    calls = []
    loss = linear._epoch_loss

    def counted(*args):
        calls.append(None)
        return loss(*args)
    monkeypatch.setattr(linear, "_epoch_loss", counted)
    return calls


@st.composite
def separable_problems(draw):
    """Labels that column 0 separates (positives 1, negatives 0) and noise
    columns, so fits settle into long update-free runs. Negative rows are
    all zero when the noise is off for them: their margin is -b, which a
    dyadic rate with l2 = 0 brings to exactly 1.0 and keeps there, inside a
    run. Decay factors cover exactly 1 (l2 = 0), zero and slightly negative
    (lr * l2 >= 1, on the fit's first step, so the weights that later
    probes see passed through them) and the usual near-1 values; an
    occasional negative entry turns fast-forwarding off."""
    n = draw(st.integers(4, 60))
    dim = draw(st.one_of(st.integers(1, 8), st.sampled_from((15, 40))))
    labels = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    labels[:2] = [True, False]
    y = np.array([1.0 if label else -1.0 for label in labels])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    quiet_negatives = draw(st.booleans())
    xs = []
    for _ in range(draw(st.integers(1, 6))):
        noise = draw(st.sampled_from((0.0, 0.01, 0.3)))
        x = rng.random((n, dim)) * noise
        if quiet_negatives:
            x[y < 0] = 0.0
        x[:, 0] = y > 0
        if draw(st.integers(0, 19)) == 0:
            x[rng.integers(n), rng.integers(dim)] = -0.5
        xs.append(x)
    learning_rate, l2 = draw(st.sampled_from((
        (0.5, 0.0), (0.25, 0.0), (1.0, 0.0), (0.3, 0.0), (0.5, 1e-4),
        (0.01, 1e-4), (2.0, 0.05), (1e8, 1e8),
        (164.26978867497522, 4487573192034803.0))))
    params = TrainParams(epochs=draw(st.integers(2, 40)),
                         learning_rate=learning_rate, l2=l2,
                         seed=draw(st.integers(0, 2**32 - 1)))
    return xs, y, params


def test_fast_forwarded_fits_equal_one_model_fits(probe_log):
    @settings(max_examples=300, deadline=None, database=None)
    @given(separable_problems())
    def check(problem):
        xs, y, params = problem
        for x, fit in zip(xs, linear.fit_hinge(xs, y, params)):
            assert bits(fit) == bits(oracle_fit_hinge(x, y, params))

    check()
    assert probe_log.skipped > 0
    assert probe_log.in_band > 0


@pytest.mark.parametrize("models", [1, 3])
def test_margin_of_exactly_one_falls_back_inside_a_run(models, probe_log):
    """Zero negative rows settle on a margin of exactly 1.0 while the
    positives' margins stay far above it: each such step stops a run, takes
    the exact step, makes no update, and the next probe skips on."""
    rng = np.random.default_rng(3)
    y = np.array([1.0, -1.0] * 10)
    xs = []
    for _ in range(models):
        x = np.zeros((20, 4))
        x[y > 0] = rng.random((10, 4)) * 0.1
        x[y > 0, 0] = 1.0
        xs.append(x)
    params = TrainParams(epochs=30, learning_rate=0.5, l2=0.0, seed=7)
    fits = linear.fit_hinge(xs, y, params)
    assert all(fit.bias == -1.0 for fit in fits)
    for x, fit in zip(xs, fits):
        assert bits(fit) == bits(oracle_fit_hinge(x, y, params))
    assert probe_log.skipped > 0
    assert probe_log.in_band > 0


@pytest.mark.parametrize("models", [1, 3])
def test_runs_cross_epoch_ends(models, probe_log):
    """A separable problem settles into update-free runs longer than an
    epoch: the fit probes fewer times than it has epochs, a probe looks
    past the end of its epoch, and the bits are the oracle's."""
    rng = np.random.default_rng(6)
    y = np.array([1.0, -1.0] * 10)
    xs = []
    for _ in range(models):
        x = rng.random((20, 4)) * 0.01
        x[:, 0] = y > 0
        xs.append(x)
    params = TrainParams(epochs=100, learning_rate=0.5, l2=1e-4, seed=4)
    fits = linear.fit_hinge(xs, y, params)
    assert probe_log.probes < params.epochs
    assert probe_log.longest > len(y)
    assert probe_log.skipped > len(y) * params.epochs // 2
    for x, fit in zip(xs, fits):
        assert bits(fit) == bits(oracle_fit_hinge(x, y, params))


def test_bundled_fits_compute_no_epoch_loss(monkeypatch, epoch_losses):
    """The recipe of scripts/build_models.py trains both bundled models and
    runs the ablation study with no epoch loss computed, since the bound
    holds at every epoch end, and still gives the models' bytes."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import build_models as recipe
    with (recipe.CORPUS / "actionable_sentences.csv").open(newline="") as handle:
        rows = [(row["text"], row["label"] == "1") for row in csv.DictReader(handle)]
    actionable_model = actionable.train(
        rows[:recipe.TRAIN_SPLIT],
        TrainParams(seed=recipe.ACTIONABLE_SEED, **recipe.PARAMS))
    split = {True: [], False: []}
    for doc in recipe.DOCS:
        split[doc.name in recipe.TRAIN_DOCS] += recipe.labeled_rows(doc, actionable_model)
    params = TrainParams(seed=recipe.PROCEDURE_SEED, **recipe.PARAMS)
    procedure_model = classifier.train(split[True], params)
    classifier.ablation_report(split[True], split[False], params)
    assert epoch_losses == []
    models = recipe.CORPUS / "models"
    assert actionable_model.to_json() == (models / "actionable.json").read_text("utf-8")
    assert procedure_model.to_json() == (models / "procedure.json").read_text("utf-8")


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 40), st.integers(1, 12),
       st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from((1.0, 0.0, -2.0**-52, 0.5, 1.0 - 2.0**-40,
                                 0.999999)), min_size=12, max_size=12))
def test_certified_steps_have_margins_of_at_least_one(m, dim, size, seed,
                                                       factors):
    """Each step `_free_steps` certifies is free in exact arithmetic: with
    the weights decayed step by step (`w *= decay`) and the margin from a
    BLAS ddot, every model's margin is at least 1. The probe's sums are
    correctly rounded (`math.fsum`), an order no BLAS kernel takes, so they
    differ from the ddot; each bias puts the first step's ddot margin
    within a few ulps of the ddot of 1, and the decay factors include
    exactly 1, zero and a negative one. A probe that certified on the
    rounded margins alone fails on about one problem in a hundred, so each
    example checks 40 of them."""
    rng = np.random.default_rng(seed)
    decays = np.array(factors[:size])
    slack = np.ldexp(dim + np.arange(size, dtype=float), -50)
    for _ in range(40):
        x = rng.random((size, dim)) * (rng.random((size, 1)) < 0.8)
        w = rng.standard_normal((m, dim)) * 10.0 ** rng.integers(-3, 3)
        y = np.where(rng.random(size) < 0.5, 1.0, -1.0)
        first = [float(x[0].dot(wk)) for wk in w]
        b = [float(y[0] - d + int(rng.integers(-4, 5)) * np.spacing(d))
             for d in first]
        ahead = np.array([[[math.fsum(row * wk) for row in x],
                           [math.fsum(row * np.abs(wk)) for row in x]]
                          for wk in w])
        run = linear._free_steps(ahead, b, y, decays, slack)
        v = w.copy()
        for j in range(run):
            for k in range(m):
                assert y[j] * (float(x[j].dot(v[k])) + b[k]) >= 1.0
            v *= decays[j]


def test_certified_steps_end_at_nan_and_infinite_biases():
    """A NaN or infinity ends a run: a bias of 5 frees every step of a
    zero row, a NaN or infinite bias none, a NaN decay factor the steps
    from the one after it."""
    ahead = np.zeros((1, 2, 3))
    slack = np.ldexp(2 + np.arange(3, dtype=float), -50)
    y = np.ones(3)
    decays = np.ones(3)
    assert linear._free_steps(ahead, [5.0], y, decays, slack) == 3
    for bias in (math.nan, math.inf, -math.inf):
        assert linear._free_steps(ahead, [bias], y, decays, slack) == 0
    assert linear._free_steps(ahead, [5.0], y, np.array([1.0, math.nan, 1.0]),
                              slack) == 2


def first_divergence(fit, epochs: int):
    """The first epoch count at which `fit(epochs)` raises NonFinite, with
    the message, or None."""
    for count in range(1, epochs + 1):
        try:
            with np.errstate(all="ignore"):
                fit(count)
        except NonFinite as exc:
            return count, str(exc)
    return None


@pytest.mark.parametrize("models", [1, 3])
@pytest.mark.parametrize("learning_rate,l2", [
    (1e308, 0.0), (1e154, 0.0), (1e154, 1e-300), (5e153, 0.0), (1e148, 0.0)])
def test_divergence_raises_at_the_oracles_epoch(models, learning_rate, l2):
    """Rates whose weights overflow within a few epochs, with most margins
    far above 1 or far below it, so the steps between updates would be
    update-free: the fit raises NonFinite at the epoch the oracle raises,
    with its message (NaN or infinite loss). Where neither diverges (the
    smallest rate, whose weights grow to near 1e149 while the fit still
    skips steps) the bits match."""
    rng = np.random.default_rng(5)
    y = np.array([1.0, -1.0] * 6)
    xs = [rng.random((12, 3)) for _ in range(models)]

    def params(epochs):
        return TrainParams(epochs=epochs, learning_rate=learning_rate, l2=l2,
                           seed=11)

    expected = first_divergence(
        lambda epochs: [oracle_fit_hinge(x, y, params(epochs)) for x in xs], 6)
    assert first_divergence(
        lambda epochs: linear.fit_hinge(xs, y, params(epochs)), 6) == expected
    if expected is None:
        for x, fit in zip(xs, linear.fit_hinge(xs, y, params(6))):
            assert bits(fit) == bits(oracle_fit_hinge(x, y, params(6)))


@pytest.mark.parametrize("models", [1, 3])
@pytest.mark.parametrize("learning_rate,l2", [
    (1e308, 0.0), (1e154, 0.0), (1e154, 1e-300), (5e153, 0.0), (1e148, 0.0)])
def test_weights_beyond_the_bound_compute_the_loss(models, learning_rate, l2,
                                                   epoch_losses):
    """The cases of `test_divergence_raises_at_the_oracles_epoch`, fitted
    for 1 to 12 epochs; some weights shrink back from where they overflowed
    the loss. The weights pass the bound, so the fit computes the loss at
    epoch ends, and it raises what the oracle raises at the first epoch end
    with a non-finite loss (the first model's, if several), or gives the
    oracle's bits."""
    rng = np.random.default_rng(5)
    y = np.array([1.0, -1.0] * 6)
    xs = [rng.random((12, 3)) for _ in range(models)]

    def params(epochs):
        return TrainParams(epochs=epochs, learning_rate=learning_rate, l2=l2,
                           seed=11)

    firsts = []
    for k, x in enumerate(xs):
        found = first_divergence(
            lambda epochs: oracle_fit_hinge(x, y, params(epochs)), 12)
        if found:
            firsts.append((found[0], k, found[1]))
    for epochs in range(1, 13):
        raised = [(message, k) for first, k, message in sorted(firsts)
                  if first <= epochs]
        try:
            with np.errstate(all="ignore"):
                fits = linear.fit_hinge(xs, y, params(epochs))
        except NonFinite as exc:
            assert raised and str(exc) == raised[0][0]
        else:
            assert not raised
            for x, fit in zip(xs, fits):
                assert bits(fit) == bits(oracle_fit_hinge(x, y, params(epochs)))
    assert epoch_losses


@pytest.mark.parametrize("learning_rate", [1e308, 1e200])
def test_bias_beyond_the_bound_computes_the_loss(learning_rate, epoch_losses):
    """All-zero rows keep the weights at zero while the bias swings between
    0 and +-rate, past the bound: the fit computes the loss, and raises
    where the oracle does (two hinges of 1 + 1e308 overflow the mean) or
    gives its bits."""
    y = np.array([1.0, 1.0, -1.0, -1.0])
    x = np.zeros((4, 2))

    def params(epochs):
        return TrainParams(epochs=epochs, learning_rate=learning_rate, l2=0.0,
                           seed=3)

    expected = first_divergence(lambda epochs: oracle_fit_hinge(x, y, params(epochs)), 4)
    assert (expected is None) == (learning_rate < 1e308)
    assert first_divergence(
        lambda epochs: linear.fit_hinge([x], y, params(epochs)), 4) == expected
    if expected is None:
        fit, = linear.fit_hinge([x], y, params(4))
        assert bits(fit) == bits(oracle_fit_hinge(x, y, params(4)))
    assert epoch_losses


def test_replay_memory_stays_within_a_bound(probe_log):
    """A wide matrix whose second epoch is one long update-free run: the
    decays are replayed in blocks and one model's rows are not copied, so
    the fit's peak allocation stays below half the input (about a quarter
    is measured), where a replay of the whole run at once would take one
    more input's worth, and a copy of the rows another."""
    rng = np.random.default_rng(8)
    y = np.where(rng.random(4000) < 0.5, 1.0, -1.0)
    x = rng.random((4000, 500)) * 0.001
    x[:, 0] = y > 0
    params = TrainParams(epochs=2, learning_rate=0.5, l2=1e-4, seed=3)
    tracemalloc.start()
    try:
        fit, = linear.fit_hinge([x], y, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert probe_log.skipped > 3000
    assert peak < 0.5 * x.nbytes
    assert bits(fit) == bits(oracle_fit_hinge(x, y, params))
