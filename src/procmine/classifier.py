"""Procedure/non-procedure classification over the document tree.

Chunks are scored level by level from the deepest up. Before a chunk is
scored, its two propagated features are filled in by `child_flags` from
the labels of the chunks filed below its items. Those labels are always
decided by then: the chunker files a chunk under an item that is an
ancestor of the chunk's own items, so the chunk lies strictly deeper than
the item's chunk. Training rows carry the same rule applied to gold
labels (`pipeline.teacher_forced_features`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

from . import linear
from .annotate import ChunkAnnotation
from .chunker import ChunkSet
from .docmodel import DocTree
# update_propagated_features stays imported by name: perfbench/tracer.py
# patches it in this module.
from .features import (FEATURE_CATEGORIES, FEATURE_NAMES, FeatureVector,
                       child_flags, update_propagated_features)
from .linear import (MinMaxScaler, Scorer, TrainParams, check_shape, finite,
                     finite_array, read_model)

MODEL_VERSION = "procedure/1 features=15"

N_FEATURES = len(FEATURE_NAMES)


class MissingPrediction(KeyError):
    """A gold-labeled chunk has no prediction."""


@dataclass(frozen=True)
class ProcedureClassifierModel:
    weights: Sequence[float]  # one per feature
    bias: float
    scaler: MinMaxScaler
    version: str = MODEL_VERSION

    @cached_property
    def scorer(self) -> Scorer:
        return Scorer(self.weights, self.bias, self.scaler)

    def score(self, vector: FeatureVector) -> float:
        return self.scorer.margin(enumerate(vector.values()))

    def to_json(self) -> str:
        doc = {
            "version": self.version,
            "weights": [float(w) for w in self.weights],
            "bias": float(self.bias),
            "scaler": self.scaler.pairs(),
        }
        return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"

    @classmethod
    def from_json(cls, data: str | bytes) -> "ProcedureClassifierModel":
        doc = read_model(data, MODEL_VERSION)
        weights = finite_array(doc["weights"], "weights")
        scaler = MinMaxScaler.from_pairs(doc["scaler"])
        check_shape(weights, scaler, N_FEATURES)
        return cls(weights=weights, bias=finite(doc["bias"], "bias"),
                   scaler=scaler, version=MODEL_VERSION)

    @classmethod
    def load(cls, path: str | Path) -> "ProcedureClassifierModel":
        return cls.from_json(Path(path).read_text("utf-8"))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), "utf-8")


@dataclass(frozen=True)
class ChunkPrediction:
    chunk_id: int
    depth: int
    label: bool
    margin: float
    feature_snapshot: FeatureVector  # the exact vector that was scored


def train(rows: list[tuple[FeatureVector, bool]],
          params: TrainParams) -> ProcedureClassifierModel:
    """Hinge-loss SGD on min-max scaled features; deterministic per seed.
    DegenerateLabels unless `rows` hold both classes."""
    import numpy as np
    y = np.array([1.0 if label else -1.0 for _, label in rows])
    linear.check_classes(y)  # before the scaler, which cannot fit zero rows
    raw = np.array([vector.values() for vector, _ in rows], dtype=float)
    scaler = MinMaxScaler.fit(raw)
    x = scaler.transform(raw)
    fit = linear.fit_hinge(x, y, params)
    return ProcedureClassifierModel(weights=fit.weights, bias=fit.bias,
                                    scaler=scaler)


def _zero_features(vector: FeatureVector, feature_ids) -> FeatureVector:
    if not feature_ids:
        return vector
    values = list(vector.values())
    for fid in feature_ids:
        values[fid - 1] = 0.0
    return FeatureVector.from_values(values)


def classify_tree(tree: DocTree, chunks: ChunkSet,
                  static_features: dict[int, FeatureVector],
                  annotations: dict[int, ChunkAnnotation],
                  model: ProcedureClassifierModel, *,
                  propagate: bool = True,
                  ablate_ids: tuple[int, ...] = ()) -> list[ChunkPrediction]:
    """Score every chunk, deepest level first.

    With propagation off the two propagated features stay at zero. The
    returned list is in processing order: depth descending, document order
    within a level.
    """
    labels: dict[int, bool] = {}
    ordered: list[ChunkPrediction] = []
    for depth in sorted(chunks.by_level, reverse=True):
        for chunk_id in chunks.by_level[depth]:
            vector = static_features[chunk_id]
            if propagate:
                vector = update_propagated_features(
                    annotations[chunk_id],
                    child_flags(chunks.chunks[chunk_id], chunks, labels), vector)
            vector = _zero_features(vector, ablate_ids)
            margin = model.score(vector)
            labels[chunk_id] = linear.decide(margin)
            ordered.append(ChunkPrediction(chunk_id=chunk_id, depth=depth,
                                           label=labels[chunk_id], margin=margin,
                                           feature_snapshot=vector))
    return ordered


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float
    recall: float
    undefined_precision: bool = False
    undefined_recall: bool = False


def evaluate_labels(predicted: dict, gold: dict) -> Metrics:
    """Binary metrics of predicted labels against gold labels, keyed alike,
    with procedures positive; an empty denominator yields 0 with the
    corresponding flag set."""
    missing = [key for key in gold if key not in predicted]
    if missing:
        raise MissingPrediction(f"no prediction for chunks {sorted(missing)}")
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
    unknown = [fid for fid in feature_ids if not 1 <= fid <= N_FEATURES]
    if unknown:
        raise ValueError(f"unknown feature ids {unknown}")
    train_z = [(_zero_features(v, feature_ids), label) for v, label in train_rows]
    test_z = [(_zero_features(v, feature_ids), label) for v, label in test_rows]
    model = train(train_z, params)
    predicted = {i: linear.decide(model.score(vector))
                 for i, (vector, _) in enumerate(test_z)}
    gold = {i: label for i, (_, label) in enumerate(test_z)}
    return evaluate_labels(predicted, gold)


def ablation_report(train_rows, test_rows, params: TrainParams,
                    categories: dict[str, tuple[int, ...]] | None = None,
                    ) -> list[tuple[str, Metrics]]:
    """Baseline plus one row per feature category with that category removed."""
    categories = categories or FEATURE_CATEGORIES
    report = [("none", ablate((), train_rows, test_rows, params))]
    for name, ids in categories.items():
        report.append((name, ablate(tuple(ids), train_rows, test_rows, params)))
    return report
