"""Procedure/non-procedure classification over the document tree.

Chunks are scored level by level from the deepest up; once a level is
done, the propagated features of shallower chunks that dominate it are
refreshed before those chunks are scored. Training rows are expected to
carry propagated values computed from gold child labels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import linear
from .annotate import ChunkAnnotation
from .chunker import Chunk, ChunkSet
from .docmodel import DocTree
from .features import (FEATURE_CATEGORIES, FEATURE_NAMES, FeatureVector,
                       PropagationOrderError, update_propagated_features)
from .linear import MinMaxScaler, TrainParams, VersionMismatch, check_shape

MODEL_VERSION = "procedure/1 features=15"

N_FEATURES = len(FEATURE_NAMES)


class MissingPrediction(KeyError):
    """A gold-labeled chunk has no prediction."""


@dataclass
class ProcedureClassifierModel:
    weights: np.ndarray  # one per feature
    bias: float
    scaler: MinMaxScaler
    version: str = MODEL_VERSION

    def score(self, vector: FeatureVector) -> float:
        scaled = self.scaler.transform(vector.to_array()[np.newaxis, :])[0]
        return float(scaled @ self.weights + self.bias)

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
        doc = json.loads(data)
        version = doc.get("version", "")
        if version != MODEL_VERSION:
            raise VersionMismatch(
                f"model version {version!r}, expected {MODEL_VERSION!r}")
        weights = np.array(doc["weights"], dtype=float)
        scaler = MinMaxScaler.from_pairs(doc["scaler"])
        check_shape(weights, scaler, N_FEATURES)
        return cls(weights=weights, bias=doc["bias"], scaler=scaler,
                   version=version)

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
    """Hinge-loss SGD on min-max scaled features; deterministic per seed."""
    raw = np.stack([vector.to_array() for vector, _ in rows])
    scaler = MinMaxScaler.fit(raw)
    x = scaler.transform(raw)
    y = np.array([1.0 if label else -1.0 for _, label in rows])
    fit = linear.fit_hinge(x, y, params)
    return ProcedureClassifierModel(weights=fit.weights, bias=fit.bias,
                                    scaler=scaler)


def _zero_features(vector: FeatureVector, feature_ids) -> FeatureVector:
    if not feature_ids:
        return vector
    values = vector.to_array()
    for fid in feature_ids:
        values[fid - 1] = 0.0
    return FeatureVector.from_array(values)


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
    predictions: dict[int, ChunkPrediction] = {}
    ordered: list[ChunkPrediction] = []
    for depth in sorted(chunks.by_level, reverse=True):
        for chunk_id in chunks.by_level[depth]:
            chunk = chunks.chunks[chunk_id]
            vector = static_features[chunk_id]
            if propagate:
                child_flags = _child_outcomes(chunk, chunks, predictions)
                vector = update_propagated_features(
                    annotations[chunk_id], child_flags, vector)
            vector = _zero_features(vector, ablate_ids)
            margin = model.score(vector)
            prediction = ChunkPrediction(chunk_id=chunk_id, depth=depth,
                                         label=linear.decide(margin),
                                         margin=margin,
                                         feature_snapshot=vector)
            predictions[chunk_id] = prediction
            ordered.append(prediction)
    return ordered


def _child_outcomes(chunk: Chunk, chunks: ChunkSet,
                    predictions: dict[int, ChunkPrediction]) -> dict[int, bool]:
    outcomes: dict[int, bool] = {}
    for node_id in chunk.item_node_ids:
        flag = False
        for child_id in chunks.child_chunks.get(node_id, ()):
            if child_id not in predictions:
                raise PropagationOrderError(
                    f"chunk {child_id} below item {node_id} is unclassified")
            if predictions[child_id].label:
                flag = True
        outcomes[node_id] = flag
    return outcomes


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
