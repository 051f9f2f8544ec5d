"""Hierarchical document model: node/tree types and ingestion.

Two ingestion paths produce the same tree shape: a structured-document JSON
format (``sdjson/1``) emitted by upstream converters, and a Markdown subset
for authoring test corpora by hand. Both build through one `_Builder`,
which alone keeps the heading outline and sets every node's parent and
depth, so a parsed tree needs no separate validation pass. Trees are
immutable once built.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import IO, Iterable, Iterator

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
    """A heading level below 1: the outline has no place for it."""


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
    """Id-indexed node collection. Treated as immutable after construction.

    Node ids are preorder indexes: the root is 0, and `nodes` holds the
    nodes in document order. `_Builder` guarantees this for every parsed
    tree, so code that needs document order reads the id."""

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
    def sentences(self) -> dict[int, tuple[str, ...]]:
        """Node id -> the node's sentences, split once per document."""
        return {node_id: tuple(lingua.split_sentences(node.text))
                for node_id, node in self.nodes.items()}

    @cached_property
    def sentences_before(self) -> list[int]:
        """Entry i: total sentences of nodes 0 .. i - 1, so the nodes with
        ids in [i, j) hold entry j - entry i sentences."""
        out = [0]
        for node_id in self.nodes:  # ids in order, which is preorder
            out.append(out[-1] + len(self.sentences[node_id]))
        return out

    def preorder(self, start: int | None = None) -> Iterable[DocNode]:
        stack = [self.root if start is None else start]
        while stack:
            node = self.nodes[stack.pop()]
            yield node
            stack.extend(reversed(node.children))


class _Builder:
    """Accumulates nodes with list-valued children, then freezes them.

    The only code that decides tree shape: it keeps the heading outline,
    gives each node its parent's depth plus one and attaches it. Parsers add
    nodes in document order, so node ids are preorder indexes.
    """

    def __init__(self, source_name: str, title: str):
        self.source_name = source_name
        self._nodes: list[dict] = [{
            "id": 0, "kind": Kind.TITLE, "text": title, "depth": 0,
            "children": [], "level": None, "ordered": None, "image": False,
        }]
        # Outline stack of (heading level, node id); the title acts as level 0.
        self._outline: list[tuple[int, int]] = [(0, 0)]

    @property
    def section(self) -> int:
        """The innermost open heading (or the title)."""
        return self._outline[-1][1]

    def child(self, parent: int, kind: Kind, text: str, *, level: int | None = None,
              ordered: bool | None = None, image: bool = False) -> int:
        node_id = len(self._nodes)
        self._nodes.append({
            "id": node_id, "kind": kind, "text": text,
            "depth": self._nodes[parent]["depth"] + 1, "children": [],
            "level": level, "ordered": ordered, "image": image,
        })
        self._nodes[parent]["children"].append(node_id)
        return node_id

    def heading(self, level: int, text: str, image: bool) -> int:
        """Close every open section of `level` or deeper and open this one
        under the nearest lower-level heading."""
        while self._outline[-1][0] >= level:
            self._outline.pop()
        node_id = self.child(self.section, Kind.HEADING, text, level=level, image=image)
        self._outline.append((level, node_id))
        return node_id

    def extend(self, node_id: int, text: str = "", image: bool = False) -> None:
        """Append continuation text and an image flag to an existing node."""
        raw = self._nodes[node_id]
        if text:
            raw["text"] = (raw["text"] + " " + text).strip()
        if image:
            raw["image"] = True

    def children(self, node_id: int) -> list[int]:
        return self._nodes[node_id]["children"]

    def freeze(self) -> DocTree:
        nodes = {
            raw["id"]: DocNode(
                id=raw["id"], kind=raw["kind"], text=raw["text"], depth=raw["depth"],
                children=tuple(raw["children"]), level=raw["level"],
                ordered=raw["ordered"], associated_image=raw["image"],
            )
            for raw in self._nodes
        }
        return DocTree(nodes=nodes, root=0, source_name=self.source_name)


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


def _image(mapping: dict, path: str) -> bool:
    """An absent flag is false; anything but a JSON boolean is an error."""
    return "image" in mapping and _require(mapping, "image", bool, path)


def _open_list(builder: _Builder, parent: int, obj: dict,
               path: str) -> tuple[int, Iterator[tuple[int, object]], str]:
    if "type" in obj and obj["type"] != "list":
        raise SchemaError("sublist must have type 'list'", path)
    ordered = _require(obj, "ordered", bool, path)
    items = _require(obj, "items", list, path)
    if not items:
        raise SchemaError("field 'items' must be non-empty", path)
    block = builder.child(parent, Kind.LIST_BLOCK, "", ordered=ordered)
    return block, enumerate(items), path


def _add_list(builder: _Builder, parent: int, obj: dict, path: str) -> None:
    """Add a list and its sublists in document order. One stack entry per
    open list: (block id, its items not yet added, path)."""
    stack = [_open_list(builder, parent, obj, path)]
    while stack:
        block, items, path = stack[-1]
        for i, item in items:
            item_path = f"{path}.items[{i}]"
            if not isinstance(item, dict):
                raise SchemaError("item must be an object", item_path)
            text = _require(item, "text", str, item_path)
            node = builder.child(block, Kind.LIST_ITEM, text,
                                 image=_image(item, item_path))
            if "sublist" in item:
                sub = item["sublist"]
                if not isinstance(sub, dict):
                    raise SchemaError("field 'sublist' must be an object", item_path)
                stack.append(_open_list(builder, node, sub, f"{item_path}.sublist"))
                break  # the sublist's items come before this list's next item
        else:
            stack.pop()


def parse_sdjson(data: bytes | str | IO, source_name: str = "") -> DocTree:
    """Parse structured-document JSON into a tree.

    Raises SchemaError on malformed input (with the offending path), also
    when it nests too deep for the recursive JSON decoder, and
    HierarchyError on a heading level below 1.
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

    builder = _Builder(source_name or title, title.strip())
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
            builder.heading(level, text, _image(element, path))
        elif etype == "paragraph":
            text = _require(element, "text", str, path)
            builder.child(builder.section, Kind.PARAGRAPH, text,
                          image=_image(element, path))
        elif etype == "list":
            _add_list(builder, builder.section, element, path)
        else:
            raise SchemaError(f"unknown element type {etype!r}", path)
    return builder.freeze()


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
    def __init__(self, source_name: str, title: str):
        self.builder = _Builder(source_name, title)
        # open lists: (indent level, block id, ordered, last item id)
        self.list_stack: list[list] = []
        self.para_lines: list[str] = []

    def flush_paragraph(self) -> None:
        if not self.para_lines:
            return
        text = " ".join(line.strip() for line in self.para_lines)
        self.para_lines = []
        text, has_image = _strip_images(text)
        parent = self.builder.section
        if not text and has_image:
            # A bare figure marks the node it illustrates: the element just
            # before it, falling back to the enclosing section.
            siblings = self.builder.children(parent)
            self.builder.extend(siblings[-1] if siblings else parent, image=True)
            return
        self.builder.child(parent, Kind.PARAGRAPH, text, image=has_image)

    def close_lists(self, down_to: int = -1) -> None:
        while self.list_stack and self.list_stack[-1][0] > down_to:
            self.list_stack.pop()

    def open_list(self, indent: int, ordered: bool) -> None:
        if self.list_stack:
            parent = self.list_stack[-1][3]  # nest under the last open item
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
        elif top[2] != ordered:  # marker style switch starts a new block
            self.list_stack.pop()
            self.open_list(indent, ordered)
        top = self.list_stack[-1]
        text, has_image = _strip_images(text)
        top[3] = self.builder.child(top[1], Kind.LIST_ITEM, text, image=has_image)

    def add_heading(self, level: int, text: str) -> None:
        self.flush_paragraph()
        self.close_lists()
        text, has_image = _strip_images(text)
        self.builder.heading(level, text, has_image)


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
    parser = _MarkdownParser(source_name, title_text or source_name)

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
                parser.builder.extend(item, *_strip_images(line.strip()))
                continue
        if not parser.para_lines:
            parser.close_lists()
        parser.para_lines.append(line)
    parser.flush_paragraph()
    return parser.builder.freeze()


# ---------------------------------------------------------------------------
# Canonical tree JSON (CLI `ingest` output; lossless, no command reads it back)

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
