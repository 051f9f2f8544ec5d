#!/usr/bin/env python3
"""Train the bundled models and regenerate the golden outputs.

Deterministic end to end: fixed seeds, fixed train/test split (the three
TRAIN_DOCS documents train the procedure classifier; the actionable model
trains on the first 200 corpus sentences). Writes:

  corpus/models/actionable.json
  corpus/models/procedure.json
  corpus/golden/<doc>.procedures.json   (for every corpus doc + fixture)

and prints chunk-level metrics over the whole corpus plus the propagation
behavior on the nested fixture.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

from procmine import actionable, classifier, extractor, pipeline
from procmine.cli import read_labels_csv
from procmine.linear import TrainParams

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"
DOCS = sorted((CORPUS / "docs").glob("*.md"))
TRAIN_DOCS = ("storage-array-setup.md", "db-troubleshooting.md",
              "appliance-quickstart.md")
FIXTURE = CORPUS / "nested-fixture.md"

ACTIONABLE_SEED = 101
PROCEDURE_SEED = 701
TRAIN_SPLIT = 200

PARAMS = dict(epochs=200, learning_rate=0.01, l2=1e-4)


def train_actionable_model() -> actionable.ActionableModel:
    rows = []
    with (CORPUS / "actionable_sentences.csv").open(newline="") as handle:
        for row in csv.DictReader(handle):
            rows.append((row["text"], row["label"] == "1"))
    train_rows, held_out = rows[:TRAIN_SPLIT], rows[TRAIN_SPLIT:]
    model = actionable.train(train_rows,
                             TrainParams(seed=ACTIONABLE_SEED, **PARAMS))
    from procmine.lingua import Tagger
    tagger = Tagger()
    def accuracy(split):
        hits = sum(actionable.predict(model, tagger.tag(t))[0] == l
                   for t, l in split)
        return hits / len(split)
    print(f"actionable: train acc {accuracy(train_rows):.3f} "
          f"({len(train_rows)} rows), held-out acc {accuracy(held_out):.3f} "
          f"({len(held_out)} rows)")
    model.save(CORPUS / "models" / "actionable.json")
    return model


def labeled_rows(doc: Path, model) -> list:
    gold = read_labels_csv(CORPUS / "labels" / (doc.stem + ".labels.csv"))
    run = pipeline.analyze(pipeline.load_document(doc), model)
    forced = pipeline.teacher_forced_features(run, gold)
    return [(forced[cid], gold[cid]) for cid in sorted(forced)]


def main() -> int:
    (CORPUS / "models").mkdir(exist_ok=True)
    (CORPUS / "golden").mkdir(exist_ok=True)

    actionable_model = train_actionable_model()

    train_rows = []
    for doc in DOCS:
        if doc.name in TRAIN_DOCS:
            train_rows.extend(labeled_rows(doc, actionable_model))
    print(f"procedure classifier: {len(train_rows)} training chunks "
          f"({sum(1 for _, l in train_rows if l)} procedures)")
    procedure_model = classifier.train(
        train_rows, TrainParams(seed=PROCEDURE_SEED, **PARAMS))
    procedure_model.save(CORPUS / "models" / "procedure.json")

    all_gold: dict[str, dict[int, bool]] = {}
    all_predictions = {}
    for doc in DOCS + [FIXTURE]:
        run = pipeline.run_document(pipeline.load_document(doc),
                                    actionable_model, procedure_model)
        payload = extractor.serialize(run.procedures)
        (CORPUS / "golden" / (doc.stem + ".procedures.json")).write_bytes(payload)
        gold = read_labels_csv(CORPUS / "labels" / (doc.stem + ".labels.csv"))
        all_gold[doc.name] = gold
        all_predictions[doc.name] = run.predictions
        metrics = classifier.evaluate(run.predictions, gold)
        marker = "train" if doc.name in TRAIN_DOCS else "test"
        print(f"  {doc.name:28s} [{marker}] acc={metrics.accuracy:.3f} "
              f"p={metrics.precision:.3f} r={metrics.recall:.3f} "
              f"({len(run.procedures)} procedures)")

    # corpus-wide metrics (fixture excluded)
    predicted = {(doc.name, p.chunk_id): p.label
                 for doc in DOCS for p in all_predictions[doc.name]}
    gold = {(doc.name, cid): truth
            for doc in DOCS for cid, truth in all_gold[doc.name].items()}
    corpus = classifier.evaluate_labels(predicted, gold)
    print(f"corpus: accuracy={corpus.accuracy:.3f} "
          f"precision={corpus.precision:.3f} recall={corpus.recall:.3f} "
          f"({len(gold)} chunks)")

    # propagation flip on the fixture
    fixture_tree = pipeline.load_document(FIXTURE)
    full = pipeline.run_document(fixture_tree, actionable_model, procedure_model)
    frozen = pipeline.run_document(fixture_tree, actionable_model,
                                   procedure_model, propagate=False)
    full_labels = {p.chunk_id: p.label for p in full.predictions}
    frozen_labels = {p.chunk_id: p.label for p in frozen.predictions}
    print(f"fixture with propagation:    {full_labels}")
    print(f"fixture without propagation: {frozen_labels}")
    ok = (full_labels == {1: True, 2: True, 3: True}
          and frozen_labels == {1: False, 2: True, 3: True})
    print("propagation flip:", "ok" if ok else "NOT OK")
    return 0 if ok and corpus.accuracy >= 0.85 and corpus.precision >= 0.75 \
        and corpus.recall >= 0.80 else 1


if __name__ == "__main__":
    sys.exit(main())
