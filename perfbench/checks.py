"""Output checks and failure counting.

Every output the benchmark checks is one attempt; an output with any
problem, or one a failed process never wrote, is one failure.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict:
    """Frozen output digests, by workload, seed and document index."""
    return json.loads(DIGESTS_PATH.read_text("utf-8"))


def frozen_digest(table: dict, workload: str, seed: int, index: int) -> str | None:
    digests = table.get(workload, {}).get(str(seed), [])
    return digests[index] if index < len(digests) else None


def input_texts(sdjson: bytes) -> set[str]:
    """Every text an sdjson document gives a tree node."""
    doc = json.loads(sdjson)
    texts = {doc["title"].strip()}

    def add_items(items):
        for item in items:
            texts.add(item["text"])
            if "sublist" in item:
                add_items(item["sublist"]["items"])

    for element in doc["elements"]:
        if element["type"] == "list":
            add_items(element["items"])
        else:
            texts.add(element["text"])
    return texts


def procedure_problems(payload: bytes, texts: set[str]) -> list[str]:
    """Structural problems of a procedures JSON document: it must parse,
    every parentStepId must name an earlier step of its procedure, every
    childProcedureId must name a procedure, and every step text must be
    the text of a node of the input."""
    try:
        procedures = json.loads(payload)
        sequence_ids = {p["sequenceId"] for p in procedures}
        problems = []
        for procedure in procedures:
            seen: set[str] = set()
            for step in procedure["stepList"]:
                where = f"{procedure['sequenceId']}/{step['stepId']}"
                parent = step.get("parentStepId")
                if parent is not None and parent not in seen:
                    problems.append(f"{where}: unresolved parentStepId {parent!r}")
                child = step.get("childProcedureId")
                if child is not None and child not in sequence_ids:
                    problems.append(f"{where}: unresolved childProcedureId {child!r}")
                if step["text"] not in texts:
                    problems.append(f"{where}: step text is not a node text")
                seen.add(step["stepId"])
        return problems
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"malformed procedures JSON: {exc!r}"]


class Ledger:
    """Counts attempted and failed outputs; reports each failure on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            sys.stderr.write(f"check failed: {what}: {'; '.join(problems[:3])}\n")
        return not problems

    def expect_bytes(self, what: str, actual: bytes | None, expected: bytes) -> bool:
        if actual is None:
            return self.record(what, ["no output"])
        return self.record(what, [] if actual == expected else
                           ["differs from the reference bytes"])

    def expect_procedures(self, what: str, payload: bytes | None,
                          texts: set[str], digest: str | None) -> bool:
        if payload is None:
            return self.record(what, ["no output"])
        problems = procedure_problems(payload, texts)
        if digest is not None and sha256(payload) != digest:
            problems.append("SHA-256 differs from the frozen digest")
        return self.record(what, problems)
