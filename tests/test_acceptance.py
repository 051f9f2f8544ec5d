"""Acceptance suite: every release criterion, one test each, with an
explicit pass line printed per criterion (run with -s or -rA to see them).

These tests rely on the bundled corpus, models, and golden outputs under
corpus/. Regenerate with scripts/build_models.py after corpus changes.
"""

import csv
import random
import time
from pathlib import Path

import pytest

from procmine import actionable, classifier, extractor, pipeline
from procmine.chunker import ChunkKind, build_chunks
from procmine.cli import read_labels_csv
from procmine.classifier import (ChunkPrediction, ablation_report, evaluate)
from procmine.docmodel import Kind
from procmine.features import FeatureVector
from procmine.goals import GoalCue, annotate_goal
from procmine.linear import TrainParams
from procmine.lingua import Tagger, detect_conditional
from procmine.relatedness import BipartiteGraph

from conftest import (check_links, oracle_projection, oracle_score, parents,
                      random_tree, validate_tree)
from test_relatedness import brute_force_score, random_graph

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"
DOCS = sorted((CORPUS / "docs").glob("*.md"))
FIXTURE = CORPUS / "nested-fixture.md"
TRAIN_DOCS = ("storage-array-setup.md", "db-troubleshooting.md",
              "appliance-quickstart.md")


def note(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


@pytest.fixture(scope="module")
def models():
    return (actionable.ActionableModel.load(CORPUS / "models" / "actionable.json"),
            classifier.ProcedureClassifierModel.load(
                CORPUS / "models" / "procedure.json"))


@pytest.fixture(scope="module")
def tagger():
    return Tagger()


def test_relatedness_oracle_equivalence():
    rng = random.Random(42)
    start = time.monotonic()
    for _ in range(1000):
        graph = random_graph(rng)
        assert oracle_score(graph) == \
            pytest.approx(brute_force_score(graph), abs=1e-9)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    # worked example: edge weights 9, 3, 4 over 3 sentences
    graph = BipartiteGraph(sentence_count=3, edges=(
        (0, "administrator", 3.0), (0, "console", 2.0),
        (1, "administrator", 3.0), (1, "network-tab", 2.0),
        (2, "console", 3.0), (2, "network-tab", 2.0)))
    assert {(i, j): w for i, j, w in oracle_projection(graph)} == \
        {(0, 1): 9.0, (0, 2): 3.0, (1, 2): 4.0}
    assert oracle_score(graph) == 16.0 / 3.0
    note(f"relatedness oracle: PASS (1000 chunks in {elapsed:.2f}s, "
         f"worked example = 16/3)")


def test_chunker_partition_property():
    chunkable = {Kind.LIST_ITEM, Kind.HEADING, Kind.PARAGRAPH}
    rng = random.Random(1234)
    for _ in range(500):
        tree = random_tree(rng)
        assert validate_tree(tree) == []
        chunks = build_chunks(tree)
        seen = set()
        parent_of = parents(tree)
        for chunk in chunks:
            assert chunk.item_node_ids
            assert {parent_of.get(n) for n in chunk.item_node_ids} == \
                {chunk.parent_node_id}
            assert {tree.nodes[n].depth for n in chunk.item_node_ids} == \
                {chunk.depth}
            if chunk.kind is ChunkKind.LIST:
                parent = tree.nodes[chunk.parent_node_id]
                assert parent.kind is Kind.LIST_BLOCK
                assert chunk.item_node_ids == parent.children
            for node_id in chunk.item_node_ids:
                assert node_id not in seen
                seen.add(node_id)
        assert seen == {n.id for n in tree.nodes if n.kind in chunkable}
    note("chunker partition: PASS (500 random trees, zero violations)")


def test_propagation_flip(models):
    actionable_model, procedure_model = models
    tree = pipeline.load_document(FIXTURE)
    chunks = build_chunks(tree)
    lists = [c.id for c in chunks if c.kind is ChunkKind.LIST]
    group = next(c.id for c in chunks if c.kind is ChunkKind.HEADING_GROUP)
    assert len(lists) == 2

    full_payloads, frozen_payloads = set(), set()
    for _ in range(10):
        full = pipeline.run_document(tree, actionable_model, procedure_model)
        frozen = pipeline.run_document(tree, actionable_model, procedure_model,
                                       propagate=False)
        full_labels = {p.chunk_id: p.label for p in full.predictions}
        frozen_labels = {p.chunk_id: p.label for p in frozen.predictions}
        assert all(full_labels[c] for c in lists)
        assert full_labels[group] is True
        assert all(frozen_labels[c] for c in lists)  # leaves unaffected
        assert frozen_labels[group] is False  # only the parent drops out
        full_payloads.add(extractor.serialize(full.procedures))
        frozen_payloads.add(extractor.serialize(frozen.procedures))
    assert len(full_payloads) == 1 and len(frozen_payloads) == 1
    note("propagation flip: PASS (parent flips, leaves stable, "
         "10/10 runs byte-identical)")


def test_golden_end_to_end(models):
    actionable_model, procedure_model = models
    start = time.monotonic()
    tp = fp = fn = tn = 0
    labeled_chunks = 0
    for doc in DOCS + [FIXTURE]:
        run = pipeline.run_document(pipeline.load_document(doc),
                                    actionable_model, procedure_model)
        payload = extractor.serialize(run.procedures)
        golden = (CORPUS / "golden" / (doc.stem + ".procedures.json")).read_bytes()
        assert payload == golden, f"{doc.name}: output differs from golden"
        check_links(run.procedures)
        if doc == FIXTURE:
            continue
        gold = read_labels_csv(CORPUS / "labels" / (doc.stem + ".labels.csv"))
        labeled_chunks += len(gold)
        labels = {p.chunk_id: p.label for p in run.predictions}
        for cid, truth in gold.items():
            predicted = labels[cid]
            tp += predicted and truth
            fp += predicted and not truth
            fn += (not predicted) and truth
            tn += (not predicted) and not truth
    elapsed = time.monotonic() - start
    accuracy = (tp + tn) / (tp + fp + fn + tn)
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    assert len(DOCS) >= 3
    assert labeled_chunks >= 60
    assert accuracy >= 0.85
    assert precision >= 0.75
    assert recall >= 0.80
    assert elapsed < 10.0
    note(f"golden end-to-end: PASS ({len(DOCS)} docs, {labeled_chunks} chunks, "
         f"acc={accuracy:.3f} p={precision:.3f} r={recall:.3f}, "
         f"{elapsed:.2f}s, byte-identical)")


def test_actionable_classifier_bounds(tagger):
    rows = []
    with (CORPUS / "actionable_sentences.csv").open(newline="") as handle:
        for row in csv.DictReader(handle):
            rows.append((row["text"], row["label"] == "1"))
    train_rows, held_out = rows[:200], rows[200:]
    assert len(train_rows) == 200 and len(held_out) == 50
    params = TrainParams(epochs=200, learning_rate=0.01, l2=1e-4, seed=101)
    model = actionable.train(train_rows, params)

    def accuracy(split):
        return sum(actionable.predict(model, tagger.tag(t))[0] == l
                   for t, l in split) / len(split)

    train_acc, held_acc = accuracy(train_rows), accuracy(held_out)
    assert train_acc >= 0.95
    assert held_acc >= 0.80
    again = actionable.train(train_rows, params)
    assert again.to_json() == model.to_json()
    note(f"actionable classifier: PASS (train={train_acc:.3f}, "
         f"held-out={held_acc:.3f}, bit-deterministic)")


def test_detector_unit_suite(tagger):
    assert tagger.tag("Click Start, select ALL Programs").imperative
    assert not tagger.tag("The user enters the password").imperative
    cues = pipeline.PipelineConfig().goal_config()
    goal = annotate_goal(tagger.tag("Creating a Service Instance"),
                         is_heading=True, config=cues)
    assert goal is GoalCue.GERUND_OPENING
    non_goal = annotate_goal(
        tagger.tag("2.1.5 Linux Large Pages and Oracle Databases"),
        is_heading=True, config=cues)
    assert non_goal is None

    rng = random.Random(7)
    openers = ["If", "When", "Unless", "Whenever", "In case"]
    effects = ["restart the server", "the device is ready",
               "check the cable seating", "call the support line",
               "the job stops"]
    conditions = ["the problem persists", "the light blinks",
                  "the response stalls", "of failure", "the fan stops"]
    checked = 0
    while checked < 200:
        opener = rng.choice(openers)
        condition = "of failure" if opener == "In case" else rng.choice(
            [c for c in conditions if c != "of failure"])
        effect = rng.choice(effects)
        if rng.random() < 0.5:
            text = f"{opener} {condition}, {effect}."
        else:
            text = f"{effect.capitalize()} {opener.lower()} {condition}."
        sentence = tagger.tag(text)
        split = detect_conditional(sentence)
        assert split is not None, text
        (a, b), (c, d) = sorted([split.condition_span, split.effect_span])
        assert a == 0 and b == c and d == len(sentence.tags), text
        checked += 1
    note("detector unit suite: PASS (anchored examples + 200 fuzzed "
         "conditionals with partitioning spans)")


def test_ablation_harness(models):
    actionable_model, _ = models
    train_rows, test_rows = [], []
    for doc in DOCS:
        gold = read_labels_csv(CORPUS / "labels" / (doc.stem + ".labels.csv"))
        run = pipeline.analyze(pipeline.load_document(doc), actionable_model)
        forced = pipeline.teacher_forced_features(run, gold)
        rows = [(forced[cid], gold[cid]) for cid in sorted(forced)]
        (train_rows if doc.name in TRAIN_DOCS else test_rows).extend(rows)
    params = TrainParams(epochs=200, learning_rate=0.01, l2=1e-4, seed=701)
    report = dict(ablation_report(train_rows, test_rows, params))
    assert set(report) == {"none", "Actionable", "Goal-based", "Relatedness",
                           "Structural", "Context-based"}
    baseline = report["none"]
    without_actionable = report["Actionable"]
    assert without_actionable.recall <= baseline.recall + 1e-12
    note(f"ablation harness: PASS (5 categories; recall "
         f"{baseline.recall:.3f} -> {without_actionable.recall:.3f} "
         f"without Actionable)")


def test_metrics_arithmetic():
    def prediction(cid, label):
        return ChunkPrediction(chunk_id=cid, depth=0, label=label,
                               margin=0.0, feature_snapshot=FeatureVector())
    gold = {i: i <= 3 for i in range(1, 11)}
    labels = {1: True, 2: True, 3: False, 4: True,
              **{i: False for i in range(5, 11)}}
    metrics = evaluate([prediction(c, labels[c]) for c in gold], gold)
    assert round(metrics.accuracy, 4) == 0.8
    assert round(metrics.precision, 4) == 0.6667
    assert round(metrics.recall, 4) == 0.6667
    note("metrics arithmetic: PASS (0.8000 / 0.6667 / 0.6667)")
