"""Procedure/non-procedure classification over the document tree.

Chunks are scored level by level from the deepest up. Before a chunk is
scored, `features.update_propagated_features` fills in its two propagated
features in one loop over its items, from the labels of the chunks filed
below each item. Those labels are always decided by then: the chunker
files a chunk under an item that is an ancestor of the chunk's own items,
so the chunk lies strictly deeper than the item's chunk. Training rows
carry the same rule applied to gold labels
(`pipeline.teacher_forced_features`).
The model is a `linear.LinearModel`, whose file, loader and training
recipe it shares with the actionable model.
"""

from __future__ import annotations

from operator import attrgetter
from typing import NamedTuple

from . import linear
from .annotate import ChunkAnnotation
from .chunker import ChunkSet
# update_propagated_features stays imported by name: perfbench/tracer.py
# patches it in this module.
from .features import (FEATURE_CATEGORIES, FEATURE_NAMES, FeatureVector,
                       update_propagated_features)
from .linear import TrainParams

N_FEATURES = len(FEATURE_NAMES)


class MissingPrediction(KeyError):
    """A gold-labeled chunk has no prediction."""


class UnlabeledPrediction(ValueError):
    """A predicted chunk has no gold label."""


class ProcedureClassifierModel(linear.LinearModel):
    MODEL_VERSION = "procedure/1 features=15"
    n_features = N_FEATURES

    def score(self, vector: FeatureVector) -> float:
        return self.scorer.margin(enumerate(vector))


class ChunkPrediction(NamedTuple):
    chunk_id: int
    depth: int
    label: bool
    margin: float
    feature_snapshot: FeatureVector  # the exact vector that was scored


def train(rows: list[tuple[FeatureVector, bool]],
          params: TrainParams) -> ProcedureClassifierModel:
    """Hinge-loss SGD on min-max scaled features; deterministic per seed.
    DegenerateLabels unless `rows` hold both classes."""
    return _train_ablated(rows, params, [()])[0]


def _train_ablated(rows: list[tuple[FeatureVector, bool]], params: TrainParams,
                   ablations: list[tuple[int, ...]],
                   ) -> list[ProcedureClassifierModel]:
    """One model per tuple of feature ids, trained on `rows` with those
    features zeroed, all fitted in one lockstep pass."""
    import numpy as np
    raws = [np.array([_zero_features(vector, feature_ids) for vector, _ in rows],
                     dtype=float)
            for feature_ids in ablations]
    return linear.fit_models(ProcedureClassifierModel, raws,
                             [label for _, label in rows], params)


def _zero_features(vector: FeatureVector, feature_ids) -> FeatureVector:
    if not feature_ids:
        return vector
    return FeatureVector._make(0.0 if fid in feature_ids else value
                               for fid, value in enumerate(vector, 1))


def classify_tree(chunks: ChunkSet,
                  static_features: dict[int, FeatureVector],
                  annotations: dict[int, ChunkAnnotation],
                  model: ProcedureClassifierModel, *,
                  propagate: bool = True,
                  ablate_ids: tuple[int, ...] = ()) -> list[ChunkPrediction]:
    """Score every chunk, deepest level first.

    With propagation off the two propagated features stay at zero. The
    returned list is in processing order: depth descending, then chunk id
    (the sort is stable and chunks iterate in id order).
    """
    labels: dict[int, bool] = {}
    ordered: list[ChunkPrediction] = []
    child_chunks = chunks.child_chunks
    for chunk in sorted(chunks, key=attrgetter("depth"), reverse=True):
        chunk_id = chunk.id
        vector = static_features[chunk_id]
        if propagate:
            vector = update_propagated_features(
                annotations[chunk_id], child_chunks, labels, vector)
        vector = _zero_features(vector, ablate_ids)
        margin = model.score(vector)
        label = labels[chunk_id] = linear.decide(margin)
        ordered.append(ChunkPrediction(chunk_id, chunk.depth, label, margin,
                                       vector))
    return ordered


class Metrics(NamedTuple):
    accuracy: float
    precision: float
    recall: float
    undefined_precision: bool = False
    undefined_recall: bool = False


def evaluate_labels(predicted: dict, gold: dict) -> Metrics:
    """Binary metrics of predicted labels against gold labels, keyed alike,
    with procedures positive; an empty denominator yields 0 with the
    corresponding flag set. MissingPrediction, or else UnlabeledPrediction,
    unless both label the same keys."""
    missing = [key for key in gold if key not in predicted]
    if missing:
        raise MissingPrediction(f"no prediction for chunks {sorted(missing)}")
    if len(predicted) != len(gold):
        raise UnlabeledPrediction(
            f"no label for predicted chunks {sorted(predicted.keys() - gold.keys())}")
    tp = fp = fn = tn = 0
    for key, truth in gold.items():
        if predicted[key] and truth:
            tp += 1
        elif predicted[key]:
            fp += 1
        elif truth:
            fn += 1
        else:
            tn += 1
    total = tp + fp + fn + tn
    undefined_precision = (tp + fp) == 0
    undefined_recall = (tp + fn) == 0
    return Metrics(
        accuracy=(tp + tn) / total if total else 0.0,
        precision=0.0 if undefined_precision else tp / (tp + fp),
        recall=0.0 if undefined_recall else tp / (tp + fn),
        undefined_precision=undefined_precision,
        undefined_recall=undefined_recall)


def evaluate(predictions: list[ChunkPrediction],
             gold: dict[int, bool]) -> Metrics:
    """`evaluate_labels` over the labels of classified chunks."""
    return evaluate_labels({p.chunk_id: p.label for p in predictions}, gold)


def ablate(feature_ids: tuple[int, ...],
           train_rows: list[tuple[FeatureVector, bool]],
           test_rows: list[tuple[FeatureVector, bool]],
           params: TrainParams) -> Metrics:
    """Zero the named features in both splits, retrain, evaluate."""
    return _ablate([tuple(feature_ids)], train_rows, test_rows, params)[0]


def ablation_report(train_rows, test_rows,
                    params: TrainParams) -> list[tuple[str, Metrics]]:
    """Baseline plus one row per feature category with that category removed."""
    ablations = [(), *FEATURE_CATEGORIES.values()]
    return list(zip(["none", *FEATURE_CATEGORIES],
                    _ablate(ablations, train_rows, test_rows, params)))


def _ablate(ablations: list[tuple[int, ...]],
            train_rows: list[tuple[FeatureVector, bool]],
            test_rows: list[tuple[FeatureVector, bool]],
            params: TrainParams) -> list[Metrics]:
    """`ablate` for each tuple of feature ids, its models trained together."""
    unknown = [fid for ids in ablations for fid in ids
               if not 1 <= fid <= N_FEATURES]
    if unknown:
        raise ValueError(f"unknown feature ids {unknown}")
    models = _train_ablated(train_rows, params, ablations)
    gold = {i: label for i, (_, label) in enumerate(test_rows)}
    return [evaluate_labels(
                {i: linear.decide(model.score(_zero_features(vector, ids)))
                 for i, (vector, _) in enumerate(test_rows)}, gold)
            for ids, model in zip(ablations, models)]
