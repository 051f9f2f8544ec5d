"""`linear.fit_hinge` in lockstep against the one-model loop in conftest.

Several scaled matrices that share labels and training parameters are
fitted in one call; each model's weights, bias and epoch losses must equal
the oracle's bit for bit. The ablation study, which fits its models in one
call, must report what one `ablate` call per category reports.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from procmine import linear
from procmine.classifier import ablate, ablation_report
from procmine.features import FEATURE_CATEGORIES, FeatureVector
from procmine.linear import DegenerateLabels, NonFinite, TrainParams

from conftest import oracle_fit_hinge

COLUMN_KINDS = ("dense", "sparse", "constant", "zero")


def bits(fit: linear.FitResult) -> tuple:
    return (tuple(w.hex() for w in fit.weights), fit.bias.hex(),
            tuple(loss.hex() for loss in fit.epoch_losses))


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
    train_rows, test_rows = random_rows(seed, 30), random_rows(seed + 10, 20)
    params = TrainParams(epochs=40, learning_rate=0.05, l2=1e-3, seed=seed)
    report = ablation_report(train_rows, test_rows, params, categories)
    expected = [("none", ablate((), train_rows, test_rows, params))] + [
        (name, ablate(tuple(ids), train_rows, test_rows, params))
        for name, ids in (categories or FEATURE_CATEGORIES).items()]
    assert report == expected


def test_ablation_report_rejects_unknown_feature_ids():
    rows = random_rows(4, 10)
    with pytest.raises(ValueError, match=r"\[0, 16\]"):
        ablation_report(rows, rows, TrainParams(epochs=1),
                        {"bad": (0, 3), "worse": (16,)})
