"""Hierarchical document model: node/tree types, ingestion, validation.

Two ingestion paths produce the same tree shape: a structured-document JSON
format (``sdjson/1``) emitted by upstream converters, and a Markdown subset
for authoring test corpora by hand. Trees are immutable once built.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import IO, Iterable

from . import lingua


class Kind(str, Enum):
    TITLE = "title"
    HEADING = "heading"
    PARAGRAPH = "paragraph"
    LIST_BLOCK = "list_block"
    LIST_ITEM = "list_item"
    FIGURE = "figure"


class SchemaError(ValueError):
    """Malformed or missing field in structured-document JSON input."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


def decode_utf8(data: bytes) -> str:
    """Decode document bytes; invalid UTF-8 is a SchemaError, not a crash."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not valid UTF-8: {exc.reason} at byte {exc.start}") from None


class HierarchyError(ValueError):
    """Heading levels violate the outline ordering of the document."""


@dataclass(frozen=True)
class DocNode:
    id: int
    kind: Kind
    text: str
    depth: int
    children: tuple[int, ...] = ()
    level: int | None = None  # headings only
    ordered: bool | None = None  # list blocks only
    associated_image: bool = False


@dataclass(eq=False)
class DocTree:
    """Id-indexed node collection. Treated as immutable after construction."""

    nodes: dict[int, DocNode]
    root: int
    source_name: str = ""

    def node(self, node_id: int) -> DocNode:
        return self.nodes[node_id]

    @cached_property
    def parents(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for node in self.nodes.values():
            for child in node.children:
                out[child] = node.id
        return out

    def parent_of(self, node_id: int) -> int | None:
        return self.parents.get(node_id)

    @cached_property
    def position(self) -> dict[int, int]:
        """Node id -> preorder (document-order) index."""
        return {node.id: i for i, node in enumerate(self.preorder())}

    @cached_property
    def sentences(self) -> dict[int, tuple[str, ...]]:
        """Node id -> the node's sentences, split once per document."""
        return {node_id: tuple(lingua.split_sentences(node.text))
                for node_id, node in self.nodes.items()}

    @cached_property
    def sentences_before(self) -> list[int]:
        """Entry i: total sentences of the first i nodes in preorder, so the
        nodes at preorder indexes [i, j) hold entry j - entry i sentences."""
        out = [0]
        for node_id in self.position:  # preorder
            out.append(out[-1] + len(self.sentences[node_id]))
        return out

    def preorder(self, start: int | None = None) -> Iterable[DocNode]:
        stack = [self.root if start is None else start]
        while stack:
            node = self.nodes[stack.pop()]
            yield node
            stack.extend(reversed(node.children))


class _Builder:
    """Accumulates nodes with list-valued children, then freezes them."""

    def __init__(self, source_name: str):
        self.source_name = source_name
        self._nodes: list[dict] = []

    def add(self, kind: Kind, text: str, depth: int, *, level: int | None = None,
            ordered: bool | None = None, image: bool = False) -> int:
        node_id = len(self._nodes)
        self._nodes.append({
            "id": node_id, "kind": kind, "text": text, "depth": depth,
            "children": [], "level": level, "ordered": ordered, "image": image,
        })
        return node_id

    def attach(self, parent: int, child: int) -> None:
        self._nodes[parent]["children"].append(child)

    def set_image(self, node_id: int) -> None:
        self._nodes[node_id]["image"] = True

    def depth(self, node_id: int) -> int:
        return self._nodes[node_id]["depth"]

    def children(self, node_id: int) -> list[int]:
        return self._nodes[node_id]["children"]

    def freeze(self, root: int = 0) -> DocTree:
        nodes = {
            raw["id"]: DocNode(
                id=raw["id"], kind=raw["kind"], text=raw["text"], depth=raw["depth"],
                children=tuple(raw["children"]), level=raw["level"],
                ordered=raw["ordered"], associated_image=raw["image"],
            )
            for raw in self._nodes
        }
        return DocTree(nodes=nodes, root=root, source_name=self.source_name)


# ---------------------------------------------------------------------------
# Structured-document JSON ("sdjson/1")

SDJSON_VERSION = "sdjson/1"


def _require(mapping: dict, key: str, kind: type, path: str):
    if key not in mapping:
        raise SchemaError(f"missing field '{key}'", path)
    value = mapping[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise SchemaError(f"field '{key}' must be {kind.__name__}", path)
    if kind is str:
        _check_encodable(value, key, path)
    return value


def _check_encodable(text: str, key: str, path: str) -> None:
    try:  # a lone surrogate escape ("\\ud800") parses but cannot be written out
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise SchemaError(f"field '{key}' holds a lone surrogate", path) from None


def _add_list(builder: _Builder, parent: int, obj: dict, path: str) -> None:
    if "type" in obj and obj["type"] != "list":
        raise SchemaError("sublist must have type 'list'", path)
    ordered = _require(obj, "ordered", bool, path)
    items = _require(obj, "items", list, path)
    if not items:
        raise SchemaError("field 'items' must be non-empty", path)
    block = builder.add(Kind.LIST_BLOCK, "", builder.depth(parent) + 1, ordered=ordered)
    builder.attach(parent, block)
    for i, item in enumerate(items):
        item_path = f"{path}.items[{i}]"
        if not isinstance(item, dict):
            raise SchemaError("item must be an object", item_path)
        text = _require(item, "text", str, item_path)
        node = builder.add(Kind.LIST_ITEM, text, builder.depth(block) + 1,
                           image=bool(item.get("image", False)))
        builder.attach(block, node)
        if "sublist" in item:
            sub = item["sublist"]
            if not isinstance(sub, dict):
                raise SchemaError("field 'sublist' must be an object", item_path)
            _add_list(builder, node, sub, f"{item_path}.sublist")


def parse_sdjson(data: bytes | str | IO, source_name: str = "") -> DocTree:
    """Parse structured-document JSON into a validated tree.

    Raises SchemaError on malformed input (with the offending path), also
    when it nests too deep for the recursive JSON decoder, sublist reader or
    validator, and HierarchyError on impossible heading levels.
    """
    if hasattr(data, "read"):
        data = data.read()
    if isinstance(data, bytes):
        data = decode_utf8(data)
    try:
        return _parse_sdjson(data, source_name)
    except RecursionError:
        raise SchemaError("nested too deep") from None


def _parse_sdjson(data: str, source_name: str) -> DocTree:
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("top-level value must be an object")
    version = doc.get("version")
    if version != SDJSON_VERSION:
        raise SchemaError(f"unsupported version {version!r}, expected {SDJSON_VERSION!r}")
    title = doc.get("title")
    if not isinstance(title, str) or not title.strip():
        raise SchemaError("no root title")
    _check_encodable(title, "title", "$")
    elements = _require(doc, "elements", list, "$")

    builder = _Builder(source_name or title)
    root = builder.add(Kind.TITLE, title.strip(), 0)
    # Outline stack of (heading level, node id); the title acts as level 0.
    stack: list[tuple[int, int]] = [(0, root)]

    for i, element in enumerate(elements):
        path = f"$.elements[{i}]"
        if not isinstance(element, dict):
            raise SchemaError("element must be an object", path)
        etype = _require(element, "type", str, path)
        if etype == "heading":
            level = _require(element, "level", int, path)
            if level < 1:
                raise HierarchyError(f"{path}: heading level must be >= 1, got {level}")
            text = _require(element, "text", str, path)
            while stack[-1][0] >= level:
                stack.pop()
            parent = stack[-1][1]
            node = builder.add(Kind.HEADING, text, builder.depth(parent) + 1,
                               level=level, image=bool(element.get("image", False)))
            builder.attach(parent, node)
            stack.append((level, node))
        elif etype == "paragraph":
            text = _require(element, "text", str, path)
            parent = stack[-1][1]
            node = builder.add(Kind.PARAGRAPH, text, builder.depth(parent) + 1,
                               image=bool(element.get("image", False)))
            builder.attach(parent, node)
        elif etype == "list":
            _add_list(builder, stack[-1][1], element, path)
        else:
            raise SchemaError(f"unknown element type {etype!r}", path)

    tree = builder.freeze(root)
    inversions = [v for v in validate_tree(tree) if "heading level" in v]
    if inversions:
        raise HierarchyError("; ".join(inversions))
    return tree


# ---------------------------------------------------------------------------
# Markdown subset

_ATX_RE = re.compile(r"^(#{1,6})\s+(.*)$")
_ORDERED_RE = re.compile(r"^(\s*)(\d+)[.)]\s+(.*)$")
_UNORDERED_RE = re.compile(r"^(\s*)[-*+]\s+(.*)$")
_IMAGE_RE = re.compile(r"!\[[^\]]*\]\([^)]*\)")


def _strip_images(text: str) -> tuple[str, bool]:
    stripped, n = _IMAGE_RE.subn("", text)
    return re.sub(r"\s{2,}", " ", stripped).strip(), n > 0


class _MarkdownParser:
    def __init__(self, source_name: str):
        self.builder = _Builder(source_name)
        self.heading_stack: list[tuple[int, int]] = []  # (level, node id)
        # open lists: (indent level, block id, ordered, last item id)
        self.list_stack: list[list] = []
        self.para_lines: list[str] = []

    def container(self) -> int:
        return self.heading_stack[-1][1]

    def last_sibling(self, parent: int) -> int | None:
        children = self.builder.children(parent)
        return children[-1] if children else None

    def flush_paragraph(self) -> None:
        if not self.para_lines:
            return
        text = " ".join(line.strip() for line in self.para_lines)
        self.para_lines = []
        text, has_image = _strip_images(text)
        parent = self.container()
        if not text and has_image:
            # A bare figure marks the node it illustrates: the element just
            # before it, falling back to the enclosing section.
            target = self.last_sibling(parent)
            self.builder.set_image(target if target is not None else parent)
            return
        node = self.builder.add(Kind.PARAGRAPH, text, self.builder.depth(parent) + 1,
                                image=has_image)
        self.builder.attach(parent, node)

    def close_lists(self, down_to: int = -1) -> None:
        while self.list_stack and self.list_stack[-1][0] > down_to:
            self.list_stack.pop()

    def open_list(self, indent: int, ordered: bool) -> None:
        if self.list_stack:
            parent = self.list_stack[-1][3]  # nest under the last open item
        else:
            parent = self.container()
        block = self.builder.add(Kind.LIST_BLOCK, "", self.builder.depth(parent) + 1,
                                 ordered=ordered)
        self.builder.attach(parent, block)
        self.list_stack.append([indent, block, ordered, None])

    def add_item(self, indent: int, ordered: bool, text: str) -> None:
        self.flush_paragraph()
        self.close_lists(down_to=indent)
        top = self.list_stack[-1] if self.list_stack else None
        if top is None or top[0] < indent:
            self.open_list(indent, ordered)
        elif top[2] != ordered:  # marker style switch starts a new block
            self.list_stack.pop()
            self.open_list(indent, ordered)
        top = self.list_stack[-1]
        text, has_image = _strip_images(text)
        item = self.builder.add(Kind.LIST_ITEM, text, self.builder.depth(top[1]) + 1,
                                image=has_image)
        self.builder.attach(top[1], item)
        top[3] = item

    def add_heading(self, level: int, text: str) -> None:
        self.flush_paragraph()
        self.close_lists()
        text, has_image = _strip_images(text)
        while self.heading_stack[-1][0] >= level:
            self.heading_stack.pop()
        parent = self.container()
        node = self.builder.add(Kind.HEADING, text, self.builder.depth(parent) + 1,
                                level=level, image=has_image)
        self.builder.attach(parent, node)
        self.heading_stack.append((level, node))


def parse_markdown(text: str, source_name: str = "document") -> DocTree:
    """Parse an ATX-heading/list/paragraph Markdown subset into a tree.

    The first level-1 heading becomes the title (the source name when there
    is none). Nesting indents are 2 spaces; tabs count as 2 spaces. Nothing
    is fatal: unrecognized lines are folded into paragraphs.
    """
    lines = text.replace("\t", "  ").split("\n")

    title_text = None
    title_line = None
    for i, line in enumerate(lines):
        match = _ATX_RE.match(line)
        if match and len(match.group(1)) == 1:
            title_text, _ = _strip_images(match.group(2).strip())
            title_line = i
            break
    parser = _MarkdownParser(source_name)
    root = parser.builder.add(Kind.TITLE, title_text or source_name, 0)
    parser.heading_stack.append((0, root))

    for i, line in enumerate(lines):
        if i == title_line:
            continue
        if not line.strip():
            parser.flush_paragraph()
            continue
        heading = _ATX_RE.match(line)
        if heading:
            parser.add_heading(len(heading.group(1)), heading.group(2).strip())
            continue
        ordered = _ORDERED_RE.match(line)
        if ordered:
            parser.add_item(len(ordered.group(1)) // 2, True, ordered.group(3))
            continue
        unordered = _UNORDERED_RE.match(line)
        if unordered:
            parser.add_item(len(unordered.group(1)) // 2, False, unordered.group(2))
            continue
        if parser.list_stack and not parser.para_lines and line[:1].isspace():
            # indented continuation of the current list item
            item = parser.list_stack[-1][3]
            if item is not None:
                extra, has_image = _strip_images(line.strip())
                raw = parser.builder._nodes[item]
                if extra:
                    raw["text"] = (raw["text"] + " " + extra).strip()
                if has_image:
                    raw["image"] = True
                continue
        if not parser.para_lines:
            parser.close_lists()
        parser.para_lines.append(line)
    parser.flush_paragraph()
    return parser.builder.freeze(root)


# ---------------------------------------------------------------------------
# Validation

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


# ---------------------------------------------------------------------------
# Canonical tree JSON (CLI `ingest` output; round-trips losslessly)

TREE_FORMAT = "doctree/1"


def tree_to_json(tree: DocTree) -> str:
    nodes = []
    for node in tree.nodes.values():
        entry: dict = {
            "id": node.id,
            "kind": node.kind.value,
            "text": node.text,
            "depth": node.depth,
            "children": list(node.children),
        }
        if node.level is not None:
            entry["level"] = node.level
        if node.ordered is not None:
            entry["ordered"] = node.ordered
        if node.associated_image:
            entry["image"] = True
        nodes.append(entry)
    doc = {"format": TREE_FORMAT, "source": tree.source_name,
           "root": tree.root, "nodes": nodes}
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def tree_from_json(data: str | bytes) -> DocTree:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    doc = json.loads(data)
    if doc.get("format") != TREE_FORMAT:
        raise SchemaError(f"unsupported tree format {doc.get('format')!r}")
    nodes = {}
    for raw in doc["nodes"]:
        nodes[raw["id"]] = DocNode(
            id=raw["id"], kind=Kind(raw["kind"]), text=raw["text"],
            depth=raw["depth"], children=tuple(raw["children"]),
            level=raw.get("level"), ordered=raw.get("ordered"),
            associated_image=raw.get("image", False),
        )
    return DocTree(nodes=nodes, root=doc["root"], source_name=doc.get("source", ""))
