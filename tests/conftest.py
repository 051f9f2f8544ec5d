import json
import random
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from procmine import docmodel, linear, lingua
from procmine.docmodel import DocNode, DocTree, Kind, parse_sdjson
from procmine.goals import GoalCue, GoalCueConfig, strip_section_numbering
from procmine.relatedness import ROLE_WEIGHTS, BipartiteGraph

REPO_ROOT = Path(__file__).resolve().parents[1]
CORPUS_DIR = REPO_ROOT / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS_DIR


# ---------------------------------------------------------------------------
# Tree oracle. The parsers build every tree through one builder and check
# nothing afterwards; this independent check of the shape they guarantee
# runs over random, fuzzed and corpus trees in the tests.

def parents(tree: DocTree) -> dict[int, int]:
    """Node id -> its parent's id, for every node but the title."""
    return {child: node.id for node in tree.nodes for child in node.children}


def validate_tree(tree: DocTree) -> list[str]:
    """Return a violation descriptor per broken invariant (empty when valid).
    Nodes are named by their position in `tree.nodes`."""
    violations: list[str] = []
    nodes = tree.nodes

    if not nodes:
        return ["no nodes"]
    root = nodes[0]
    if root.kind is not Kind.TITLE:
        violations.append("node 0: root is not a title")
    if root.depth != 0:
        violations.append(f"node 0: root depth is {root.depth}, expected 0")
    for nid, node in enumerate(nodes):
        if node.kind is Kind.TITLE and nid != 0:
            violations.append(f"node {nid}: non-root title")

    parent_count = [0] * len(nodes)
    for nid, node in enumerate(nodes):
        for child in node.children:
            if not 0 <= child < len(nodes):
                violations.append(f"node {nid}: child {child} does not exist")
                continue
            parent_count[child] += 1
    for nid, count in enumerate(parent_count):
        if nid == 0:
            if count:
                violations.append("node 0: root has a parent")
            continue
        if count == 0:
            violations.append(f"node {nid}: unreachable (no parent)")
        elif count > 1:
            violations.append(f"node {nid}: multiple parents")

    visited: list[int] = []  # the ids of the nodes the walk reaches, in order
    seen: set[int] = set()
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
        visited.append(node.id)
        for child in node.children:
            if not 0 <= child < len(nodes):
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

    walk(0)
    if visited != list(range(len(nodes))):
        violations.append("the walk from node 0 does not visit ids 0, 1, 2, ... in order")
    return violations


def assert_well_formed(tree: DocTree) -> None:
    """The builder's guarantees: node ids are preorder indexes, and the
    oracle finds no broken invariant."""
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
# carries every field: `tuple` lists all record fields in order, so a
# field the writer leaves out makes the two views differ.

def node_fields(tree: DocTree) -> list[tuple]:
    return [tuple(node) for node in tree.nodes]


def tree_json_node_fields(text: str) -> list[tuple]:
    """The same rows read back from `tree_to_json` output."""
    return [(n["id"], Kind(n["kind"]), n["text"], n["depth"], tuple(n["children"]),
             n.get("level"), n.get("ordered"), n.get("image", False))
            for n in json.loads(text)["nodes"]]


def procedure_fields(procedures) -> list[tuple]:
    return [(p.sequence_id, p.goal, [tuple(step) for step in p.step_list])
            for p in procedures]


def procedures_json_fields(payload: bytes) -> list[tuple]:
    """The same rows read back from `extractor.serialize` output."""
    return [(p["sequenceId"], p["goal"],
             [(s["stepId"], s["text"], s["actionable"], s["conditional"],
               s.get("parentStepId"), s.get("childProcedureId"))
              for s in p["stepList"]])
            for p in json.loads(payload)]


def tree_to_sdjson(tree: DocTree) -> dict:
    """An sdjson/1 document that parses to `tree`: its headings, paragraphs
    and section-level lists as elements in document order, each list with
    its sublists. A tree sdjson cannot spell (an image flag on the title or
    on a list block, an item with two sublists) fails an assertion."""
    def image(node: DocNode) -> dict:
        return {"image": True} if node.associated_image else {}

    def spell_list(block: DocNode) -> dict:
        assert not block.associated_image, f"list block {block.id} has an image"
        items = []
        for item in (tree.nodes[i] for i in block.children):
            assert len(item.children) <= 1, f"item {item.id} has two sublists"
            entry = {"text": item.text, **image(item)}
            if item.children:
                entry["sublist"] = spell_list(tree.nodes[item.children[0]])
            items.append(entry)
        return {"type": "list", "ordered": block.ordered, "items": items}

    root = tree.nodes[0]
    assert not root.associated_image, "the title has an image"
    parent_of = parents(tree)
    elements = []
    for node in tree.nodes:
        if node.kind is Kind.HEADING:
            elements.append({"type": "heading", "level": node.level,
                             "text": node.text, **image(node)})
        elif node.kind is Kind.PARAGRAPH:
            elements.append({"type": "paragraph", "text": node.text, **image(node)})
        elif (node.kind is Kind.LIST_BLOCK
              and tree.nodes[parent_of[node.id]].kind is not Kind.LIST_ITEM):
            elements.append(spell_list(node))
    return {"version": "sdjson/1", "title": root.text, "elements": elements}


def sdjson_to_markdown(doc: dict) -> str:
    """The Markdown spelling of an sdjson/1 document: `# title`, then each
    element as a block, blocks apart by a blank line. Headings are ATX,
    list items are marked `1.` or `-` and indented 2 spaces per level, and
    ` ![](x.png)` follows the text of each element whose image flag is set.
    Two adjacent lists of one marker style come back as one list block."""
    def text(element: dict) -> str:
        return element["text"] + (" ![](x.png)" if element.get("image") else "")

    def list_lines(block: dict, depth: int) -> list[str]:
        marker = "1." if block["ordered"] else "-"
        lines = []
        for item in block["items"]:
            lines.append(f"{'  ' * depth}{marker} {text(item)}")
            if "sublist" in item:
                lines += list_lines(item["sublist"], depth + 1)
        return lines

    blocks = ["# " + doc["title"]]
    for element in doc["elements"]:
        if element["type"] == "heading":
            blocks.append("#" * element["level"] + " " + text(element))
        elif element["type"] == "paragraph":
            blocks.append(text(element))
        else:
            blocks.append("\n".join(list_lines(element, 0)))
    return "\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# Oracle: `extractor.serialize` before it wrote the schema directly.

def oracle_serialize(procedures) -> bytes:
    """The payload as dicts and lists through `json.dumps`."""
    payload = []
    for procedure in procedures:
        steps = []
        for step in procedure.step_list:
            entry: dict = {
                "stepId": step.step_id,
                "text": step.text,
                "actionable": step.actionable,
                "conditional": step.conditional,
            }
            if step.parent_step_id is not None:
                entry["parentStepId"] = step.parent_step_id
            if step.child_procedure_id is not None:
                entry["childProcedureId"] = step.child_procedure_id
            steps.append(entry)
        payload.append({
            "sequenceId": procedure.sequence_id,
            "goal": procedure.goal,
            "stepList": steps,
        })
    text = json.dumps(payload, indent=2, ensure_ascii=False)
    return (text + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Oracles: the propagation rule and the extractor before they made one loop
# per chunk and per step. Propagation built an item -> flag dict per chunk
# and two lists of flags; extraction walked every step's child chunks
# through a generator and a fold list, and built records by keyword.

def child_flags(chunk, chunks, labels: dict[int, bool]) -> dict[int, bool]:
    """The propagation rule: item node id -> whether some chunk filed
    directly below that item is labeled a procedure in `labels` (chunk id
    -> label). A chunk missing from `labels` counts as not a procedure."""
    return {node_id: any(labels.get(child_id, False)
                         for child_id in chunks.child_chunks.get(node_id, ()))
            for node_id in chunk.item_node_ids}


def oracle_update_propagated_features(annotation, child_predictions, current):
    """Recompute the two propagated features from `child_flags`."""
    items = annotation.items
    with_child = [child_predictions[item.node_id] for item in items]
    inferred = sum(with_child) / len(items) if items else 0.0
    non_actionable = [child_predictions[item.node_id] for item in items
                      if not item.actionable]
    return current._replace(
        n_inferred_goal=inferred,
        n_non_actionable_goals=(sum(non_actionable) / len(non_actionable)
                                if non_actionable else 0.0))


def oracle_extract(predictions, chunks, tree, annotations):
    """One procedure per procedure-labeled chunk, in document order."""
    from procmine.chunker import ChunkKind
    from procmine.extractor import Procedure, Step
    labels = {p.chunk_id: p.label for p in predictions}
    procedure_chunks = sorted(
        (cid for cid, label in labels.items() if label),
        key=lambda cid: chunks.chunks[cid].item_node_ids[0])
    sequence_ids = {cid: f"seq-{i}" for i, cid in enumerate(procedure_chunks, 1)}
    procedures = []
    for chunk_id in procedure_chunks:
        steps = []
        stack = [(item, None) for item in reversed(annotations[chunk_id].items)]
        while stack:
            item, parent_step = stack.pop()
            below = chunks.child_chunks.get(item.node_id, ())
            link = next((sequence_ids[c] for c in below if labels.get(c)), None)
            step_id = f"s{len(steps) + 1}"
            steps.append(Step(step_id=step_id, text=tree.nodes[item.node_id].text,
                              actionable=item.actionable,
                              conditional=item.conditional,
                              parent_step_id=parent_step,
                              child_procedure_id=link))
            if link is not None:
                continue
            folded = [(sub_item, step_id) for child_id in below
                      if chunks.chunks[child_id].kind is ChunkKind.LIST
                      for sub_item in annotations[child_id].items]
            stack.extend(reversed(folded))
        procedures.append(Procedure(sequence_id=sequence_ids[chunk_id],
                                    goal=chunks.chunks[chunk_id].goal,
                                    step_list=tuple(steps)))
    return procedures


# ---------------------------------------------------------------------------
# Oracle: the Markdown parser before it made one pass over the input lines.
# It split lines only at \n, found the title in a pass of its own, retried
# the image pattern from every `![` and re-joined an item's whole text for
# each continuation line.

ORACLE_IMAGE_RE = re.compile(r"!\[[^\]]*\]\([^)]*\)")
_ORACLE_ATX_RE = re.compile(r"^(#{1,6})\s+(.*)$")
_ORACLE_ORDERED_RE = re.compile(r"^(\s*)(\d+)[.)]\s+(.*)$")
_ORACLE_UNORDERED_RE = re.compile(r"^(\s*)[-*+]\s+(.*)$")


def _oracle_atx_text(content: str) -> str:
    text = content.strip()
    body = text.rstrip("#")
    if body != text and (not body or body[-1].isspace()):
        return body.strip()
    return text


def oracle_strip_images(text: str) -> tuple[str, bool]:
    stripped, n = ORACLE_IMAGE_RE.subn("", text)
    return re.sub(r"\s{2,}", " ", stripped).strip(), n > 0


class _OracleBuilder(docmodel._Builder):
    def extend(self, node_id: int, text: str = "", image: bool = False) -> None:
        row = self._rows[node_id]
        if text:
            row[docmodel._TEXT] = (row[docmodel._TEXT] + " " + text).strip()
        if image:
            row[docmodel._IMAGE] = True


class _OracleMarkdownParser:
    def __init__(self, source_name: str, title: str):
        self.builder = _OracleBuilder(source_name, title)
        self.list_stack: list[list] = []
        self.para_lines: list[str] = []

    def flush_paragraph(self) -> None:
        if not self.para_lines:
            return
        text = " ".join(line.strip() for line in self.para_lines)
        self.para_lines = []
        text, has_image = oracle_strip_images(text)
        parent = self.builder.section
        if not text and has_image:
            siblings = self.builder.children(parent)
            self.builder.extend(siblings[-1] if siblings else parent, image=True)
            return
        self.builder.child(parent, Kind.PARAGRAPH, text, image=has_image)

    def close_lists(self, down_to: int = -1) -> None:
        while self.list_stack and self.list_stack[-1][0] > down_to:
            self.list_stack.pop()

    def open_list(self, indent: int, ordered: bool) -> None:
        if self.list_stack:
            parent = self.list_stack[-1][3]
        else:
            parent = self.builder.section
        block = self.builder.child(parent, Kind.LIST_BLOCK, "", ordered=ordered)
        self.list_stack.append([indent, block, ordered, None])

    def add_item(self, indent: int, ordered: bool, text: str) -> None:
        self.flush_paragraph()
        self.close_lists(down_to=indent)
        top = self.list_stack[-1] if self.list_stack else None
        if top is None or top[0] < indent:
            self.open_list(indent, ordered)
        elif top[2] != ordered:
            self.list_stack.pop()
            self.open_list(indent, ordered)
        top = self.list_stack[-1]
        text, has_image = oracle_strip_images(text)
        top[3] = self.builder.child(top[1], Kind.LIST_ITEM, text, image=has_image)

    def add_heading(self, level: int, text: str) -> None:
        self.flush_paragraph()
        self.close_lists()
        text, has_image = oracle_strip_images(text)
        self.builder.heading(level, text, has_image)


def oracle_parse_markdown(text: str, source_name: str = "document") -> DocTree:
    lines = text.replace("\t", "  ").split("\n")

    title_text = None
    title_line = None
    for i, line in enumerate(lines):
        match = _ORACLE_ATX_RE.match(line)
        if match and len(match.group(1)) == 1:
            title_text, _ = oracle_strip_images(_oracle_atx_text(match.group(2)))
            title_line = i
            break
    parser = _OracleMarkdownParser(source_name, title_text or source_name)

    for i, line in enumerate(lines):
        if i == title_line:
            continue
        if not line.strip():
            parser.flush_paragraph()
            continue
        heading = _ORACLE_ATX_RE.match(line)
        if heading:
            parser.add_heading(len(heading.group(1)),
                               _oracle_atx_text(heading.group(2)))
            continue
        ordered = _ORACLE_ORDERED_RE.match(line)
        if ordered:
            parser.add_item(len(ordered.group(1)) // 2, True, ordered.group(3))
            continue
        unordered = _ORACLE_UNORDERED_RE.match(line)
        if unordered:
            parser.add_item(len(unordered.group(1)) // 2, False, unordered.group(2))
            continue
        if parser.list_stack and not parser.para_lines and line[:1].isspace():
            item = parser.list_stack[-1][3]
            if item is not None:
                parser.builder.extend(item, *oracle_strip_images(line.strip()))
                continue
        if not parser.para_lines:
            parser.close_lists()
        parser.para_lines.append(line)
    parser.flush_paragraph()
    return parser.builder.freeze()


# ---------------------------------------------------------------------------
# Oracle: the sentence split before it became linear. Each boundary
# searched the whole text before it for the word run ending there, and
# checked every short parenthesized span.

_ORACLE_BOUNDARY_RE = re.compile(r"[.!?]+(?=\s+[A-Z0-9])")
# `lingua._BOUNDARY_RE` while its lookbehind came first: the same whole
# runs of terminal marks, but `re` tried the pattern at every position.
ORACLE_RUN_BOUNDARY_RE = re.compile(r"(?<![.!?])[.!?]+(?=\s+[A-Z0-9])")


def oracle_paren_spans(text: str) -> list[tuple[int, int]]:
    """`lingua._paren_spans` before it found the parentheses by regex: a
    walk over every character."""
    spans: list[tuple[int, int]] = []
    stack: list[int] = []
    for i, ch in enumerate(text):
        if ch == "(":
            stack.append(i)
        elif ch == ")" and stack:
            spans.append((stack.pop(), i))
    return spans


def oracle_split_sentences(text: str) -> list[str]:
    if not text or not text.strip():
        return []
    short_parens = [(a, b) for a, b in oracle_paren_spans(text) if b - a < 40]
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
# Oracle: annotation before each sentence became one token pass. Each token
# was a (surface, tag) tuple, every detector lower-cased the surfaces it
# read, and entity extraction ran the imperative detector again.

class OracleToken(NamedTuple):
    surface: str
    tag: str


@dataclass(frozen=True)
class OracleSentence:
    text: str
    tokens: tuple[OracleToken, ...]

    def slice(self, start: int, end: int) -> "OracleSentence":
        tokens = self.tokens[start:end]
        return OracleSentence(text=" ".join(t.surface for t in tokens),
                              tokens=tokens)


def oracle_tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    for raw in lingua._TOKEN_RE.findall(text):
        if raw.lower().endswith("n't") and len(raw) > 3:
            tokens.append(raw[:-3])
            tokens.append("n't")
        else:
            tokens.append(raw)
    return tokens


class OracleTagger:
    def __init__(self, lexicon: lingua.Lexicon | None = None):
        self.lexicon = lexicon or lingua.default_lexicon()

    def tag(self, text: str) -> OracleSentence:
        tokens = oracle_tokenize(text)
        tags: list[str] = []
        for i, surface in enumerate(tokens):
            tags.append(self._tag_one(surface, i, tokens, tags))
        return OracleSentence(text=text, tokens=tuple(
            OracleToken(s, t) for s, t in zip(tokens, tags)))

    def _tag_one(self, surface, i, tokens, tags):
        if not lingua._WORD_RE.search(surface):
            return lingua.PUNCT
        word = surface.lower()
        if lingua._NUM_RE.fullmatch(word):
            return lingua.NUM
        if word in lingua._BE_FORMS:
            return lingua._BE_FORMS[word]
        closed = self.lexicon.closed.get(word)
        if closed is not None:
            return closed
        kinds = self.lexicon.verb_forms.get(word)
        if kinds:
            tag = self._verb_tag(surface, kinds, i, tokens, tags)
            if tag is not None:
                return tag
        return self._suffix_tag(word)

    def _verb_tag(self, surface, kinds, i, tokens, tags):
        if "gerund" in kinds:
            return lingua.VBG
        if "third" in kinds and "base" not in kinds:
            return lingua.VBZ
        prev = next((tags[j] for j in range(i - 1, -1, -1) if tags[j] not in
                     (lingua.PUNCT, lingua.ADV, lingua.NEG, lingua.NUM)), None)
        if "participle" in kinds and self._recent_aux(i, tokens, tags):
            return lingua.VBN
        if "participle" in kinds and prev in (lingua.DET, lingua.ADJ, lingua.PREP):
            return lingua.VBN
        if "past" in kinds:
            if "base" not in kinds:
                return lingua.VBD
            if prev in (lingua.NOUN, lingua.PRON):
                return lingua.VBD
        if "base" in kinds:
            if prev in (lingua.DET, lingua.ADJ):
                return lingua.NOUN
            if (i > 0 and surface[0].isupper()
                    and (tags[i - 1] in lingua.VERB_TAGS
                         or tags[i - 1] == lingua.NOUN)):
                return lingua.NOUN
            return lingua.VB
        if "participle" in kinds:
            return lingua.VBN
        return None

    def _recent_aux(self, i, tokens, tags):
        steps = 0
        for j in range(i - 1, -1, -1):
            if tags[j] in (lingua.ADV, lingua.NEG):
                continue
            steps += 1
            if steps > 3:
                return False
            if tokens[j].lower() in lingua._AUX_SURFACES:
                return True
            if tags[j] in (lingua.PUNCT, lingua.CONJ):
                return False
        return False

    def _suffix_tag(self, word):
        if len(word) > 4 and word.endswith("ing"):
            return lingua.VBG
        if len(word) > 3 and word.endswith("ed"):
            return lingua.VBD
        if word.endswith(("tion", "ment", "ness", "sion", "ity")):
            return lingua.NOUN
        if len(word) > 3 and word.endswith("ly"):
            return lingua.ADV
        if word.endswith(("able", "ible", "ful", "ous", "ive", "ical")):
            return lingua.ADJ
        return lingua.NOUN


def sentence_terms(text: str) -> list[str]:
    """The actionable model's terms of a whole text: its lower-cased word
    tokens, punctuation stripped. `Tagger.tag` gives them one whitespace
    word at a time, as `TaggedSentence.terms`."""
    return lingua._TERM_RE.findall(text.lower())


def oracle_tag(tagger: lingua.Tagger, text: str) -> lingua.TaggedSentence:
    """`Tagger.tag` before the word table: one `findall` over the whole
    text, each token lower-cased and tagged as it comes, and the terms
    from `sentence_terms` of the text."""
    surfaces: list[str] = []
    lowers: list[str] = []
    tags: list[str] = []
    for raw in lingua._TOKEN_RE.findall(text):
        lower = raw.lower()
        if lower == raw:
            lower = raw
        if len(raw) > 3 and lower.endswith("n't"):
            head, lower = raw[:-3], lower[:-3]
            tokens = ((head, head if lower == head else lower), ("n't", "n't"))
        else:
            tokens = ((raw, lower),)
        for surface, word in tokens:
            entry = tagger._entry(surface, word)
            surfaces.append(surface)
            lowers.append(word)
            tags.append(entry if type(entry) is str else tagger._verb_tag(
                surface, word, entry, len(tags), lowers, tags))
    tagged = tuple(tags)
    return lingua.TaggedSentence(text, tuple(surfaces), tuple(lowers), tagged,
                                 lingua._imperative(tagged, lowers),
                                 tuple(sentence_terms(text)))


def oracle_detect_imperative(sentence: OracleSentence) -> bool:
    for token in sentence.tokens:
        if token.tag in (lingua.PUNCT, lingua.ADV, lingua.NUM):
            continue
        if token.surface.lower() == "please":
            continue
        return token.tag == lingua.VB
    return False


def oracle_find_opener(sentence: OracleSentence) -> int | None:
    surfaces = [t.surface.lower() for t in sentence.tokens]
    for i, word in enumerate(surfaces):
        if word in ("if", "when", "unless", "whenever"):
            return i
        if word == "in" and i + 1 < len(surfaces) and surfaces[i + 1] == "case":
            return i
    return None


def oracle_detect_conditional(sentence: OracleSentence):
    n = len(sentence.tokens)
    if n == 0:
        return None
    opener = oracle_find_opener(sentence)
    if opener is None:
        return None
    first_content = next((i for i, t in enumerate(sentence.tokens)
                          if t.tag not in (lingua.PUNCT, lingua.NUM)), 0)
    if opener <= first_content:
        comma = next((i for i in range(opener + 1, n)
                      if sentence.tokens[i].surface == ","), None)
        if comma is None:
            condition, effect = (0, n), (n, n)
        else:
            condition, effect = (0, comma + 1), (comma + 1, n)
    else:
        condition, effect = (opener, n), (0, opener)
    return lingua.ConditionalSplit(
        condition_span=condition, effect_span=effect,
        effect_imperative=oracle_detect_imperative(sentence.slice(*effect)))


def oracle_profile(sentence: OracleSentence) -> tuple[bool, bool, bool]:
    """The three-valued tense, two-valued voice and polarity that profiles
    were read as before they became bits, mapped to (present, active,
    positive): "present" is the tense with no past-tense verb, so a mixed
    tense reads False like a past one."""
    tags = [t.tag for t in sentence.tokens]
    past = lingua.VBD in tags
    present = lingua.VBZ in tags or lingua.VBP in tags
    tense = ("mixed" if past and present else "past" if past else "present")
    voice = "active"
    for i, token in enumerate(sentence.tokens):
        if token.surface.lower() in lingua._BE_FORMS:
            if lingua.VBN in tags[i + 1:i + 4]:
                voice = "passive"
                break
    polarity = "negative" if lingua.NEG in tags else "positive"
    return tense == "present", voice == "active", polarity == "positive"


def oracle_annotate_goal(sentence: OracleSentence, *, is_heading: bool,
                         config: GoalCueConfig) -> GoalCue | None:
    if not is_heading:
        return None
    stripped = strip_section_numbering(sentence.text.strip()).lower()
    for prefix in config.prefixes:
        if re.match(rf"{re.escape(prefix)}(\s*\d+)?\s*(:|\b)", stripped):
            return GoalCue.METHOD_PREFIX
    if config.gerund_opening:
        for token in sentence.tokens:
            if token.tag in (lingua.NUM, lingua.PUNCT):
                continue
            if token.tag == lingua.VBG:
                return GoalCue.GERUND_OPENING
            break
    return None


def oracle_extract_entities(sentence: OracleSentence) -> list[tuple[str, float]]:
    tokens = sentence.tokens
    runs: list[tuple[int, int]] = []
    i = 0
    while i < len(tokens):
        if tokens[i].tag in (lingua.ADJ, lingua.NOUN):
            start, last_noun = i, -1
            while i < len(tokens) and tokens[i].tag in (lingua.ADJ, lingua.NOUN):
                if tokens[i].tag == lingua.NOUN:
                    last_noun = i
                i += 1
            if last_noun >= 0:
                runs.append((start, last_noun + 1))
        else:
            i += 1
    if not runs:
        return []
    verb = next((i for i, t in enumerate(tokens)
                 if t.tag in lingua.VERB_TAGS), None)
    imperative = oracle_detect_imperative(sentence)

    def governed(start: int) -> bool:
        for j in range(start - 1, -1, -1):
            tag = tokens[j].tag
            if tag in (lingua.DET, lingua.ADJ):
                continue
            return tag == lingua.PREP and tokens[j].surface.lower() != "to"
        return False

    entities: list[tuple[str, float]] = []
    object_taken = False
    for start, end in runs:
        surface = " ".join(t.surface.lower() for t in tokens[start:end])
        if verb is not None and end <= verb and not imperative:
            role = "subject"
        elif (verb is not None and start > verb and not object_taken
              and not governed(start)):
            role = "object"
            object_taken = True
        else:
            role = "other"
        entities.append((surface, ROLE_WEIGHTS[role]))
    return entities


def oracle_bipartite_edges(sentences: list[OracleSentence]) -> tuple:
    best: dict[tuple[int, str], float] = {}
    for index, sentence in enumerate(sentences):
        for surface, weight in oracle_extract_entities(sentence):
            key = (index, surface)
            best[key] = max(best.get(key, 0.0), weight)
    return tuple((i, surface, w) for (i, surface), w in best.items())


def mention_pairs(graph: BipartiteGraph) -> int:
    """Sentence pairs summed over entities: c * (c - 1) / 2 for an entity
    mentioned in c sentences of the graph. The projection's work for it."""
    counts = Counter(entity for _, entity, _ in graph.edges)
    return sum(c * (c - 1) // 2 for c in counts.values())


# ---------------------------------------------------------------------------
# Relatedness oracle. `chunk_relatedness` groups its mentions with
# `relatedness._group` and sums pairs with `relatedness._pair_sums`; this
# projection of a `build_bipartite` graph shares neither.

def oracle_mentions(graph: BipartiteGraph) -> dict[str, list[tuple[int, float]]]:
    """Entity -> its (sentence, weight) edges in edge order, the entities
    in order of first mention: the grouping of a graph whose edges come as
    `build_bipartite` makes them, one per (sentence, entity) in increasing
    sentence order."""
    by_entity: dict[str, list[tuple[int, float]]] = {}
    for index, entity, weight in graph.edges:
        by_entity.setdefault(entity, []).append((index, weight))
    return by_entity


def oracle_projection(graph: BipartiteGraph) -> tuple[tuple[int, int, float], ...]:
    """The (i, j, weight) edges, i < j, of the graph's one-mode projection
    onto its sentences, in (i, j) order: for each pair that shares
    entities, the products of their weights summed from 0.0 over the
    entities in order of first mention, divided once by j - i."""
    sums: dict[tuple[int, int], float] = {}
    for mentions in oracle_mentions(graph).values():
        for a, (i, wi) in enumerate(mentions):
            for j, wj in mentions[a + 1:]:
                sums[i, j] = sums.get((i, j), 0.0) + wi * wj
    return tuple((i, j, total / (j - i)) for (i, j), total in sorted(sums.items()))


def oracle_score(graph: BipartiteGraph) -> float:
    """The average out-degree of `oracle_projection`: its weights totalled
    left to right from 0.0, never compensated, over the sentence count."""
    if graph.sentence_count <= 1:
        return 0.0
    total = 0.0
    for _, _, weight in oracle_projection(graph):
        total += weight
    return total / graph.sentence_count


def oracle_tf_idf(text: str, vocab) -> dict[int, float]:
    """Term index -> tf-idf of the vocabulary terms in `text`: idf added
    once per occurrence, starting from 0.0. The bag that `actionable`
    scored and trained on before the score table."""
    index, idf = vocab.index, vocab.idf
    bag: dict[int, float] = {}
    for term in sentence_terms(text):
        i = index.get(term)
        if i is not None:
            bag[i] = bag.get(i, 0.0) + idf[i]
    return bag


def dense_features(sentence: lingua.TaggedSentence, vocab) -> np.ndarray:
    """One row of all len(vocab.terms) + 3 actionable features, each absent
    term 0.0: the tf-idf of `oracle_tf_idf`, then the `profile` bits. The
    row `actionable.train` fills."""
    row = np.zeros(len(vocab.terms) + 3)
    for i, value in oracle_tf_idf(sentence.text, vocab).items():
        row[i] = value
    row[len(vocab.terms):] = lingua.profile(sentence)
    return row


def oracle_margin(model, sentence: OracleSentence) -> float:
    """`actionable.predict`'s margin: `Scorer.margin` over the sparse
    features, the tf-idf of `oracle_tf_idf` in index order, then the bits
    of the oracle's profile."""
    size = len(model.vocabulary.terms)
    features = sorted(oracle_tf_idf(sentence.text, model.vocabulary).items())
    bits = oracle_profile(sentence)
    features.extend(zip(range(size, size + 3),
                        (1.0 if bit else 0.0 for bit in bits)))
    return model.scorer.margin(features)


# ---------------------------------------------------------------------------
# Oracle: the item and unit flags before each was worked out once per item.
# `annotate_chunk` took three `any()` passes over an item's sentences, and
# `compute_static_features` four more over each unit, then a fraction of
# each flag list.

def oracle_item_flags(sentences) -> tuple[bool, bool, bool]:
    """(actionable, conditional, is_goal) of an item's sentences."""
    return (any(s.tagged.imperative or s.non_imperative_actionable
                for s in sentences),
            any(s.split is not None for s in sentences),
            any(s.goal is not None for s in sentences))


def oracle_unit_flags(unit) -> tuple[bool, bool, bool, bool]:
    """(imperative, conditional, non-imperative actionable, effect
    imperative) of one unit: a list of annotated sentences."""
    return (any(s.tagged.imperative for s in unit),
            any(s.split is not None for s in unit),
            any(s.non_imperative_actionable and not s.tagged.imperative
                for s in unit),
            any(s.split is not None and s.split.effect_imperative
                for s in unit))


def oracle_fraction(flags: list[bool], denominator: int) -> float:
    return sum(flags) / denominator if denominator else 0.0


def oracle_actionable_features(paragraphs: bool, items,
                               size: int) -> tuple[float, float, float, float]:
    """Features 1-4 of a chunk: units are sentences in a paragraph chunk,
    items in any other."""
    if paragraphs:
        units = [[s] for item in items for s in item.sentences]
    else:
        units = [list(item.sentences) for item in items]
    flags = [oracle_unit_flags(u) for u in units]
    imperative, conditional, non_imperative, effect = (
        [f[k] for f in flags] for k in range(4))
    return (oracle_fraction(imperative, size),
            oracle_fraction(conditional, size),
            oracle_fraction(non_imperative, size),
            oracle_fraction(effect, sum(conditional)))


# ---------------------------------------------------------------------------
# Oracle: `linear.fit_hinge` before it fitted several models in lockstep. One
# model per call, each step's rate worked out in Python floats, each margin
# from `x @ w`.

def oracle_fit_hinge(x: np.ndarray, y: np.ndarray,
                     params: linear.TrainParams) -> linear.FitResult:
    linear.check_classes(y)
    n, dim = x.shape
    rng = np.random.Generator(np.random.PCG64(params.seed))
    rows, labels = list(x), y.tolist()
    w = np.zeros(dim, dtype=float)
    b = 0.0
    t = 0
    losses: list[float] = []
    for _ in range(params.epochs):
        for i in rng.permutation(n).tolist():
            t += 1
            lr = params.learning_rate / (1.0 + params.learning_rate * params.l2 * t)
            xi, yi = rows[i], labels[i]
            margin = yi * (float(xi @ w) + b)
            w *= 1.0 - lr * params.l2
            if margin < 1.0:
                w += lr * yi * xi
                b += lr * yi
        margins = y * (x @ w + b)
        hinge = np.maximum(0.0, 1.0 - margins).mean()
        loss = float(hinge + 0.5 * params.l2 * float(w @ w))
        if not np.isfinite(loss) or not np.all(np.isfinite(w)):
            raise linear.NonFinite(f"training diverged (loss={loss})")
        losses.append(loss)
    return linear.FitResult(weights=tuple(w.tolist()), bias=b)


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


def make_tree(nodes: list[DocNode], source: str = "test") -> DocTree:
    return DocTree(nodes=tuple(nodes), source_name=source)
