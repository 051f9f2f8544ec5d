import json
import random

import numpy as np
import pytest

from procmine import cli, pipeline
from procmine.chunker import ChunkKind
from procmine.classifier import (ChunkPrediction, Metrics, MissingPrediction,
                                 ProcedureClassifierModel, UnlabeledPrediction,
                                 ablate, ablation_report, classify_tree,
                                 evaluate, train)
from procmine.docmodel import parse_markdown
from procmine.features import FEATURE_NAMES, FeatureVector
from procmine.linear import (DegenerateLabels, MinMaxScaler, TrainParams,
                             VersionMismatch)

from conftest import CORPUS_DIR, random_tree

CORPUS_DOCS = sorted((CORPUS_DIR / "docs").glob("*.md")) + [
    CORPUS_DIR / "nested-fixture.md"]

PARAMS = TrainParams(epochs=200, learning_rate=0.01, l2=1e-4, seed=11)

NESTED_DOC = """# Configuration walkthrough

## Step 1

1. Click the start icon.
2. Type the value.

## Step 2

1. Open the panel.
2. Select the mode.
"""


def toy_rows(seed, count=40):
    """Label equals (imperative fraction > 0.5); other features are noise."""
    rng = random.Random(seed)
    rows = []
    for i in range(count):
        label = i % 2 == 0
        f1 = rng.uniform(0.7, 1.0) if label else rng.uniform(0.0, 0.3)
        noise = [rng.random() for _ in range(14)]
        values = [f1] + noise
        rows.append((FeatureVector(*values), label))
    return rows


def threshold_separable(rows, feature_index) -> bool:
    pos = [v[feature_index] for v, l in rows if l]
    neg = [v[feature_index] for v, l in rows if not l]
    return min(pos) > max(neg) or max(pos) < min(neg)


def hand_model(weight_map: dict[str, float], bias: float) -> ProcedureClassifierModel:
    weights = np.zeros(len(FEATURE_NAMES))
    for name, value in weight_map.items():
        weights[FEATURE_NAMES.index(name)] = value
    scaler = MinMaxScaler(mins=np.zeros(len(FEATURE_NAMES)),
                          maxs=np.ones(len(FEATURE_NAMES)))
    return ProcedureClassifierModel(weights=weights, bias=bias, scaler=scaler)


FLIP_MODEL = hand_model({"n_imperatives": 2.0, "n_inferred_goal": 2.0}, -1.0)


def nested_run(model=FLIP_MODEL, propagate=True):
    tree = parse_markdown(NESTED_DOC, source_name="nested")
    run = pipeline.analyze(tree, actionable_model=None)
    predictions = classify_tree(run.chunks, run.static_features,
                                run.annotations, model, propagate=propagate)
    return run, predictions


class TestTrain:
    def test_toy_separable_reaches_full_training_accuracy(self):
        rows = toy_rows(5)
        assert threshold_separable(rows, 0)  # oracle: f1 alone separates
        model = train(rows, PARAMS)
        correct = sum((model.score(v) >= 0) == label for v, label in rows)
        assert correct == len(rows)

    def test_single_class_raises(self):
        rows = [(FeatureVector(), True), (FeatureVector(n_imperatives=1.0), True)]
        with pytest.raises(DegenerateLabels):
            train(rows, PARAMS)

    def test_deterministic_model_bytes(self):
        rows = toy_rows(5)
        assert train(rows, PARAMS).to_json() == train(rows, PARAMS).to_json()


class TestModelIO:
    @pytest.mark.parametrize("edit", [
        lambda doc: {**doc, "scaler": [1] * 15},
        lambda doc: {**doc, "weights": [None] * 15},
        lambda doc: {**doc, "weights": [True] * 15},
        lambda doc: {**doc, "bias": "1.0"},
        lambda doc: {**doc, "scaler": [{"min": 0, "max": float("inf")}] * 15},
    ], ids=["scaler-ints", "null-weights", "bool-weights", "string-bias",
            "infinite-scaler"])
    def test_malformed_values_are_rejected(self, edit):
        doc = edit(json.loads(FLIP_MODEL.to_json()))
        with pytest.raises(VersionMismatch):
            ProcedureClassifierModel.from_json(json.dumps(doc))

    def test_huge_integer_weight_is_rejected(self):
        text = FLIP_MODEL.to_json().replace('"bias": -1.0', '"bias": 1' + "0" * 400)
        with pytest.raises(VersionMismatch):
            ProcedureClassifierModel.from_json(text)


class TestClassifyTree:
    def test_flip_fixture_with_propagation(self):
        run, predictions = nested_run(propagate=True)
        by_id = {p.chunk_id: p for p in predictions}
        lists = [c for c in run.chunks if c.kind is ChunkKind.LIST]
        group = next(c for c in run.chunks if c.kind is ChunkKind.HEADING_GROUP)
        assert all(by_id[c.id].label for c in lists)
        assert by_id[group.id].label is True
        assert by_id[group.id].feature_snapshot.n_inferred_goal == 1.0

    def test_flip_fixture_without_propagation(self):
        run, predictions = nested_run(propagate=False)
        by_id = {p.chunk_id: p for p in predictions}
        lists = [c for c in run.chunks if c.kind is ChunkKind.LIST]
        group = next(c for c in run.chunks if c.kind is ChunkKind.HEADING_GROUP)
        assert all(by_id[c.id].label for c in lists)  # leaves unchanged
        assert by_id[group.id].label is False
        assert by_id[group.id].feature_snapshot.n_inferred_goal == 0.0

    def test_level_order_contract(self):
        _, predictions = nested_run()
        depths = [p.depth for p in predictions]
        assert depths == sorted(depths, reverse=True)
        assert len({p.chunk_id for p in predictions}) == len(predictions)

    def test_every_chunk_predicted_once(self):
        run, predictions = nested_run()
        assert {p.chunk_id for p in predictions} == set(run.chunks.chunks)

    def test_snapshot_audit_reproduces_margin(self):
        _, predictions = nested_run()
        for p in predictions:
            assert FLIP_MODEL.score(p.feature_snapshot) == p.margin

    def test_margin_zero_is_procedure(self):
        model = hand_model({}, 0.0)
        _, predictions = nested_run(model=model)
        assert all(p.label for p in predictions)
        assert all(p.margin == 0.0 for p in predictions)

    def test_flat_document_propagation_is_noop(self):
        tree = parse_markdown("# T\n1. Click a.\n2. Click b.\n", source_name="flat")
        run = pipeline.analyze(tree, actionable_model=None)
        with_prop = classify_tree(run.chunks, run.static_features,
                                  run.annotations, FLIP_MODEL, propagate=True)
        without = classify_tree(run.chunks, run.static_features,
                                run.annotations, FLIP_MODEL, propagate=False)
        assert [(p.chunk_id, p.label, p.margin) for p in with_prop] == \
               [(p.chunk_id, p.label, p.margin) for p in without]

    def test_empty_chunk_set_empty_predictions(self):
        tree = parse_markdown("# Only a title", source_name="bare")
        run = pipeline.analyze(tree, actionable_model=None)
        assert classify_tree(run.chunks, run.static_features,
                             run.annotations, FLIP_MODEL) == []

    def test_ablate_ids_zero_features_at_inference(self):
        run, baseline = nested_run()
        ablated = classify_tree(run.chunks, run.static_features,
                                run.annotations, FLIP_MODEL,
                                ablate_ids=(1, 6))
        group = next(c for c in run.chunks if c.kind is ChunkKind.HEADING_GROUP)
        by_id = {p.chunk_id: p for p in ablated}
        assert by_id[group.id].label is False
        assert all(p.feature_snapshot.n_imperatives == 0.0 for p in ablated)

    def test_determinism_across_runs(self):
        first = nested_run()[1]
        second = nested_run()[1]
        assert [(p.chunk_id, p.label, p.margin) for p in first] == \
               [(p.chunk_id, p.label, p.margin) for p in second]


class TestProcessingOrder:
    """Predictions come depth descending, then by chunk id: the order the
    chunker's per-level lists had."""

    @staticmethod
    def assert_order(tree):
        run = pipeline.analyze(tree, actionable_model=None)
        predictions = classify_tree(run.chunks, run.static_features,
                                    run.annotations, FLIP_MODEL)
        order = [(p.depth, p.chunk_id) for p in predictions]
        assert order == sorted(order, key=lambda key: (-key[0], key[1]))
        assert [p.depth for p in predictions] == \
            [run.chunks.chunks[p.chunk_id].depth for p in predictions]
        assert sorted(p.chunk_id for p in predictions) == list(run.chunks.chunks)

    @pytest.mark.parametrize("path", CORPUS_DOCS, ids=lambda p: p.stem)
    def test_corpus_documents(self, path):
        self.assert_order(pipeline.load_document(path))

    def test_300_random_trees(self):
        rng = random.Random(909)
        for _ in range(300):
            self.assert_order(random_tree(rng, max_elements=20))


def prediction(chunk_id, label):
    return ChunkPrediction(chunk_id=chunk_id, depth=0, label=label,
                           margin=1.0 if label else -1.0,
                           feature_snapshot=FeatureVector())


class TestEvaluate:
    def test_all_correct(self):
        predictions = [prediction(i, i < 3) for i in range(6)]
        gold = {i: i < 3 for i in range(6)}
        metrics = evaluate(predictions, gold)
        assert (metrics.accuracy, metrics.precision, metrics.recall) == \
            (1.0, 1.0, 1.0)

    def test_complement_balanced_zero_accuracy(self):
        predictions = [prediction(i, i >= 3) for i in range(6)]
        gold = {i: i < 3 for i in range(6)}
        metrics = evaluate(predictions, gold)
        assert metrics.accuracy == 0.0

    def test_hand_computed_case(self):
        # TP=2 FP=1 FN=1 TN=6 -> accuracy 0.8, precision 2/3, recall 2/3
        gold = {1: True, 2: True, 3: True,
                4: False, 5: False, 6: False, 7: False, 8: False, 9: False,
                10: False}
        labels = {1: True, 2: True, 3: False, 4: True,
                  5: False, 6: False, 7: False, 8: False, 9: False, 10: False}
        predictions = [prediction(cid, labels[cid]) for cid in gold]
        metrics = evaluate(predictions, gold)
        assert round(metrics.accuracy, 4) == 0.8
        assert round(metrics.precision, 4) == 0.6667
        assert round(metrics.recall, 4) == 0.6667

    def test_zero_denominator_flags(self):
        predictions = [prediction(1, False), prediction(2, False)]
        metrics = evaluate(predictions, {1: False, 2: False})
        assert metrics.precision == 0.0 and metrics.undefined_precision
        assert metrics.recall == 0.0 and metrics.undefined_recall

    def test_missing_prediction_raises(self):
        with pytest.raises(MissingPrediction):
            evaluate([prediction(1, True)], {1: True, 2: False})

    def test_prediction_without_gold_label_raises(self):
        """Chunks the gold labels lack are named, not left out of the metrics."""
        with pytest.raises(UnlabeledPrediction,
                           match=r"^no label for predicted chunks \[2, 3\]$"):
            evaluate([prediction(1, True), prediction(3, False),
                      prediction(2, True)], {1: True})


class TestAblate:
    def test_removing_all_features_degenerates_to_prior(self):
        rows = toy_rows(9, count=40)  # balanced 50/50
        test = toy_rows(10, count=40)
        metrics = ablate(tuple(range(1, 16)), rows, test, PARAMS)
        prior = 0.5
        assert abs(metrics.accuracy - prior) <= 0.05

    def test_removing_label_feature_breaks_perfection(self):
        train_rows = toy_rows(5)
        test_rows = toy_rows(6)
        full = ablate((), train_rows, test_rows, PARAMS)
        assert full.accuracy == 1.0
        broken = ablate((1,), train_rows, test_rows, PARAMS)
        assert broken.accuracy < 1.0

    def test_unknown_feature_id_rejected(self):
        with pytest.raises(ValueError):
            ablate((16,), toy_rows(5), toy_rows(6), PARAMS)

    def test_report_covers_all_categories(self):
        report = ablation_report(toy_rows(5), toy_rows(6), PARAMS)
        names = [name for name, _ in report]
        assert names == ["none", "Actionable", "Goal-based", "Relatedness",
                         "Structural", "Context-based"]
        assert all(isinstance(m, Metrics) for _, m in report)


@pytest.mark.parametrize("path", CORPUS_DOCS, ids=lambda path: path.name)
def test_prediction_log_equals_its_golden_file(path, tmp_path):
    """`procmine extract --pred-log` on each corpus document with the
    bundled models. The log writes `repr(margin)`, so the golden file pins
    every chunk's label and margin after propagation to the bit."""
    log = tmp_path / "predictions.csv"
    models = CORPUS_DIR / "models"
    assert cli.main(["extract", str(path),
                     "--model", str(models / "procedure.json"),
                     "--actionable-model", str(models / "actionable.json"),
                     "-o", str(tmp_path / "procedures.json"),
                     "--pred-log", str(log)]) == 0
    golden = CORPUS_DIR / "golden" / (path.stem + ".predictions.csv")
    assert log.read_bytes() == golden.read_bytes()
