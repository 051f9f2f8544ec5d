#!/usr/bin/env python3
"""Write the gold chunk labels for the bundled corpus.

The tables below are manual judgments of every chunk in corpus/docs (and
the nested fixture), keyed by the deterministic chunk ids the chunker
assigns. Rerun after any corpus document changes and re-review the
affected table: the script refuses to write labels whose ids do not line
up with the current chunking.
"""

from __future__ import annotations

import csv
from pathlib import Path

from procmine import chunker, pipeline

ROOT = Path(__file__).resolve().parents[1]
DOCS = ROOT / "corpus" / "docs"
LABELS = ROOT / "corpus" / "labels"

# chunk id -> is the chunk a procedure
GOLD: dict[str, dict[int, int]] = {
    "storage-array-setup.md": {
        1: 0,   # intro paragraph
        2: 0,   # chapter-level heading group
        3: 0,   # about paragraph
        4: 0,   # requirements lead-in
        5: 0,   # requirements list (noun phrases)
        6: 0,   # "Complete the following steps:" lead-in
        7: 1,   # Step 1..Step 4 heading sequence
        8: 0,   # one-line step summary (actionable, not a procedure)
        9: 1,   # unpack list
        10: 0,  # step summary
        11: 1,  # cabling list
        12: 0,  # step summary
        13: 1,  # power-on list
        14: 0,  # step summary
        15: 1,  # management address list
        16: 0,  # lead-in
        17: 1,  # verification list
        18: 0,  # lead-in under the disk-replacement goal heading
        19: 1,  # disk replacement list
        20: 0,  # reference heading group
        21: 0,  # port layout paragraph
        22: 0,  # status light legend list
        23: 0,  # browser support paragraph
    },
    "appliance-quickstart.md": {
        1: 1,   # Step 1..Step 3 heading sequence
        2: 1,   # cabling list
        3: 1,   # setup page list
        4: 1,   # site bundle list
    },
    "db-troubleshooting.md": {
        1: 0,   # intro paragraph
        2: 0,   # Symptoms/Methods/Escalation heading group (alternatives)
        3: 0,   # symptom list
        4: 1,   # Method 1 paragraph procedure (declarative)
        5: 0,   # lead-in
        6: 1,   # Method 2 failover list
        7: 1,   # Method 3 declarative list
        8: 0,   # escalation policy paragraph
        9: 0,   # related reading list
    },
    "network-gateway-guide.md": {
        1: 0,   # intro paragraph
        2: 0,   # chapter-level heading group
        3: 0,   # prerequisites lead-in
        4: 0,   # prerequisites list
        5: 0,   # lead-in
        6: 1,   # Step 1..Step 3 heading sequence
        7: 0,   # step summary
        8: 1,   # mounting list
        9: 0,   # step summary
        10: 1,  # base configuration list
        11: 0,  # step summary
        12: 1,  # validation list
        13: 0,  # handover paragraph (actionable, not a procedure)
        14: 0,  # port map list
    },
    "backup-restore-howto.md": {
        1: 0,   # intro paragraph
        2: 0,   # topical heading group (independent tasks)
        3: 1,   # manual backup paragraph procedure (declarative)
        4: 0,   # lead-in
        5: 1,   # restore list
        6: 1,   # verification list (declarative)
        7: 0,   # retention rules paragraph
        8: 0,   # storage consumption list
    },
    "release-notes.md": {
        1: 0,   # intro paragraph
        2: 0,   # release-section heading group
        3: 0,   # highlights list (imperative, unrelated items)
        4: 0,   # scheduler changes paragraph
        5: 0,   # dashboard changes list
        6: 0,   # lead-in
        7: 1,   # upgrade list
        8: 0,   # known issues list
        9: 0,   # deprecations paragraph
    },
}

FIXTURE_GOLD = {"nested-fixture.md": {1: 1, 2: 1, 3: 1}}


def write_labels(doc_path: Path, gold: dict[int, int]) -> None:
    chunk_ids = sorted(chunker.build_chunks(pipeline.load_document(doc_path)).chunks)
    if chunk_ids != sorted(gold):
        raise SystemExit(
            f"{doc_path.name}: chunk ids {chunk_ids} do not match the gold "
            f"table {sorted(gold)}; re-review the labels")
    out = LABELS / (doc_path.stem + ".labels.csv")
    with out.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["chunk_id", "label"])
        for chunk_id in chunk_ids:
            writer.writerow([chunk_id, gold[chunk_id]])
    positives = sum(gold.values())
    print(f"{doc_path.name}: {len(gold)} chunks, {positives} procedures")


def main() -> None:
    LABELS.mkdir(parents=True, exist_ok=True)
    total = 0
    for name, gold in GOLD.items():
        write_labels(DOCS / name, gold)
        total += len(gold)
    for name, gold in FIXTURE_GOLD.items():
        write_labels(ROOT / "corpus" / name, gold)
    print(f"total labeled chunks (corpus docs): {total}")


if __name__ == "__main__":
    main()
