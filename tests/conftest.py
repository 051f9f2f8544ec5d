import json
import random
import re
from dataclasses import astuple
from pathlib import Path

import pytest

from procmine import lingua
from procmine.docmodel import DocNode, DocTree, Kind, parse_sdjson

REPO_ROOT = Path(__file__).resolve().parents[1]
CORPUS_DIR = REPO_ROOT / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS_DIR


# ---------------------------------------------------------------------------
# Tree oracle. The parsers build every tree through one builder and check
# nothing afterwards; this independent check of the shape they guarantee
# runs over random, fuzzed and corpus trees in the tests.

def validate_tree(tree: DocTree) -> list[str]:
    """Return a violation descriptor per broken invariant (empty when valid)."""
    violations: list[str] = []
    nodes = tree.nodes

    if tree.root not in nodes:
        return [f"node {tree.root}: root id not present"]
    root = nodes[tree.root]
    if root.kind is not Kind.TITLE:
        violations.append(f"node {root.id}: root is not a title")
    if root.depth != 0:
        violations.append(f"node {root.id}: root depth is {root.depth}, expected 0")
    for node in nodes.values():
        if node.kind is Kind.TITLE and node.id != tree.root:
            violations.append(f"node {node.id}: non-root title")

    parent_count: dict[int, int] = {nid: 0 for nid in nodes}
    for node in nodes.values():
        for child in node.children:
            if child not in nodes:
                violations.append(f"node {node.id}: child {child} does not exist")
                continue
            parent_count[child] += 1
    for nid, count in parent_count.items():
        if nid == tree.root:
            if count:
                violations.append(f"node {nid}: root has a parent")
            continue
        if count == 0:
            violations.append(f"node {nid}: unreachable (no parent)")
        elif count > 1:
            violations.append(f"node {nid}: multiple parents")

    seen: set[int] = set()
    stack: list[int] = [tree.root]
    path: set[int] = set()

    def walk(nid: int) -> None:
        if nid in path:
            violations.append(f"node {nid}: cycle in children references")
            return
        if nid in seen:
            return
        seen.add(nid)
        path.add(nid)
        node = nodes[nid]
        for child in node.children:
            if child not in nodes:
                continue
            child_node = nodes[child]
            if child_node.depth != node.depth + 1:
                violations.append(
                    f"node {child}: depth {child_node.depth}, expected {node.depth + 1}")
            if child_node.kind is Kind.LIST_ITEM and node.kind is not Kind.LIST_BLOCK:
                violations.append(f"node {child}: list item outside a list block")
            if node.kind is Kind.LIST_BLOCK and child_node.kind is not Kind.LIST_ITEM:
                violations.append(f"node {child}: non-item child of list block")
            if (node.kind is Kind.HEADING and child_node.kind is Kind.HEADING
                    and (child_node.level or 0) < (node.level or 0)):
                violations.append(
                    f"node {child}: heading level inversion "
                    f"({child_node.level} under {node.level})")
            walk(child)
        path.discard(nid)

    walk(tree.root)
    return violations


def assert_well_formed(tree: DocTree) -> None:
    """The builder's guarantees: node ids are preorder indexes, and the
    oracle finds no broken invariant."""
    assert [n.id for n in tree.preorder()] == list(range(len(tree.nodes)))
    assert validate_tree(tree) == []


# ---------------------------------------------------------------------------
# Oracles for what the chunker and the extractor guarantee without checking
# at run time.

def assert_children_deeper(chunks) -> None:
    """Every chunk filed under an item lies strictly deeper than the chunk
    holding that item, so deepest-first scoring labels it first."""
    depth_of_item = {node_id: chunk.depth for chunk in chunks
                     for node_id in chunk.item_node_ids}
    for node_id, below in chunks.child_chunks.items():
        for child_id in below:
            assert chunks.chunks[child_id].depth > depth_of_item[node_id], \
                (node_id, child_id)


class DanglingLink(AssertionError):
    """A step references a procedure or step that does not exist."""


def check_links(procedures) -> None:
    known_sequences = {p.sequence_id for p in procedures}
    for procedure in procedures:
        seen: set[str] = set()
        for step in procedure.step_list:
            if step.parent_step_id is not None and step.parent_step_id not in seen:
                raise DanglingLink(
                    f"{procedure.sequence_id}/{step.step_id}: parent step "
                    f"{step.parent_step_id!r} not defined earlier")
            if (step.child_procedure_id is not None
                    and step.child_procedure_id not in known_sequences):
                raise DanglingLink(
                    f"{procedure.sequence_id}/{step.step_id}: child procedure "
                    f"{step.child_procedure_id!r} does not exist")
            seen.add(step.step_id)


# Field-by-field views of the two JSON outputs, for checking that each
# carries every field: `astuple` lists all dataclass fields in order, so a
# field the writer leaves out makes the two views differ.

def node_fields(tree: DocTree) -> list[tuple]:
    return [astuple(node) for node in tree.nodes.values()]


def tree_json_node_fields(text: str) -> list[tuple]:
    """The same rows read back from `tree_to_json` output."""
    return [(n["id"], Kind(n["kind"]), n["text"], n["depth"], tuple(n["children"]),
             n.get("level"), n.get("ordered"), n.get("image", False))
            for n in json.loads(text)["nodes"]]


def procedure_fields(procedures) -> list[tuple]:
    return [(p.sequence_id, p.goal, [astuple(step) for step in p.step_list])
            for p in procedures]


def procedures_json_fields(payload: bytes) -> list[tuple]:
    """The same rows read back from `extractor.serialize` output."""
    return [(p["sequenceId"], p["goal"],
             [(s["stepId"], s["text"], s["actionable"], s["conditional"],
               s.get("parentStepId"), s.get("childProcedureId"))
              for s in p["stepList"]])
            for p in json.loads(payload)]


# ---------------------------------------------------------------------------
# Oracle: the sentence split before it became linear. Each boundary
# searched the whole text before it for the word run ending there, and
# checked every short parenthesized span.

_ORACLE_BOUNDARY_RE = re.compile(r"[.!?]+(?=\s+[A-Z0-9])")


def oracle_split_sentences(text: str) -> list[str]:
    if not text or not text.strip():
        return []
    short_parens = [(a, b) for a, b in lingua._paren_spans(text) if b - a < 40]
    cuts: list[int] = []
    for match in _ORACLE_BOUNDARY_RE.finditer(text):
        end = match.end()
        if any(a < match.start() < b for a, b in short_parens):
            continue
        preceding = re.search(r"[\w.]+$", text[:match.start()])
        if (preceding and preceding.group(0).rstrip(".").lower()
                in lingua._ABBREVIATIONS):
            continue
        cuts.append(end)
    pieces = []
    last = 0
    for cut in cuts:
        pieces.append(text[last:cut].strip())
        last = cut
    pieces.append(text[last:].strip())
    return [p for p in pieces if p]


# ---------------------------------------------------------------------------
# Random document generation (generated documents go through the sdjson
# parser, so the trees carry the builder's guarantees).

_WORDS = ("server", "network", "adapter", "console", "service", "instance",
          "cluster", "backup", "storage", "user", "password", "address")
_VERBS = ("Click", "Type", "Select", "Open", "Restart", "Verify", "Check")


def _sentence(rng: random.Random) -> str:
    verb = rng.choice(_VERBS)
    noun = rng.choice(_WORDS)
    extra = rng.choice(_WORDS)
    return f"{verb} the {noun} on the {extra}."


def _paragraph(rng: random.Random) -> dict:
    text = " ".join(_sentence(rng) for _ in range(rng.randint(1, 3)))
    return {"type": "paragraph", "text": text}


def _list_items(rng: random.Random, depth: int) -> list[dict]:
    items = []
    for _ in range(rng.randint(1, 4)):
        item = {"text": _sentence(rng)}
        if rng.random() < 0.2:
            item["image"] = True
        if depth < 2 and rng.random() < 0.3:
            item["sublist"] = {"ordered": rng.random() < 0.5,
                               "items": _list_items(rng, depth + 1)}
        items.append(item)
    return items


def random_sdjson(rng: random.Random, max_elements: int = 12) -> dict:
    elements = []
    level = 0
    for _ in range(rng.randint(0, max_elements)):
        roll = rng.random()
        if roll < 0.35:
            level = max(1, min(4, level + rng.choice((-1, 0, 1, 1))))
            elements.append({"type": "heading", "level": level,
                             "text": f"{rng.choice(_WORDS).title()} section"})
        elif roll < 0.7:
            elements.append(_paragraph(rng))
        else:
            elements.append({"type": "list", "ordered": rng.random() < 0.5,
                             "items": _list_items(rng, 0)})
    return {"version": "sdjson/1", "title": "Generated document",
            "elements": elements}


def random_tree(rng: random.Random, max_elements: int = 12) -> DocTree:
    return parse_sdjson(json.dumps(random_sdjson(rng, max_elements)))


def deep_list_markdown(depth: int = 1100) -> str:
    """Two ordered items, then a bullet list nested `depth` levels deep below
    the second."""
    lines = ["# Manual", "1. Click the icon.", "2. Type the value."]
    lines += ["  " * (d + 1) + f"- option {d}" for d in range(depth)]
    return "\n".join(lines)


def make_tree(nodes: list[DocNode], root: int = 0,
              source: str = "test") -> DocTree:
    return DocTree(nodes={n.id: n for n in nodes}, root=root, source_name=source)
