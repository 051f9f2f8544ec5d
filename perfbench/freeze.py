#!/usr/bin/env python3
"""Regenerate perfbench/digests.json from the program as it is now:

    python3 perfbench/freeze.py

Run it only at a commit whose outputs are known to be right: the benchmark
counts every output that differs from these SHA-256 digests as a failure.
It freezes seeds 0..63: the first documents of synth-large and prose-wide,
the 16 synthetic documents of cli-batch, and train's ablation report.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

DOCS_PER_SEED = {"synth-large": gen.SYNTH_DOCS, "prose-wide": gen.PROSE_DOCS}


def documents(workload: str, seed: int) -> list[tuple[str, bytes]]:
    if workload == "cli-batch":
        return gen.cli_batch_docs(seed)
    if workload == "synth-large":
        return [("doc.json", gen.synth_doc(seed, i, "1k"))
                for i in range(DOCS_PER_SEED[workload])]
    sentences = gen.corpus_sentences(run.ROOT)
    return [("doc.json", gen.prose_doc(sentences, seed, i))
            for i in range(DOCS_PER_SEED[workload])]


def freeze(task: tuple[str, int]) -> tuple[str, int, list[str]]:
    workload, seed = task
    models = run.load_models()
    digests = []
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".perfbench_work") as tmp:
        for name, data in documents(workload, seed):
            path = Path(tmp) / name
            path.write_bytes(data)
            payload, _ = run.process_document(path, *models)
            digests.append(checks.sha256(payload))
    return workload, seed, digests


def main() -> int:
    (run.ROOT / ".perfbench_work").mkdir(exist_ok=True)
    tasks = [(workload, seed) for workload in ("cli-batch", "synth-large", "prose-wide")
             for seed in range(run.FROZEN_SEEDS)]
    table: dict = {workload: {} for workload, _ in tasks}
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        for workload, seed, digests in pool.imap_unordered(freeze, tasks):
            table[workload][str(seed)] = digests
    for workload in table:
        table[workload] = dict(sorted(table[workload].items(), key=lambda kv: int(kv[0])))
    report = run.train_pass()[2]
    table["train"] = {"ablation_report": checks.sha256(report.encode())}
    checks.DIGESTS_PATH.write_text(json.dumps(table, indent=1) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
