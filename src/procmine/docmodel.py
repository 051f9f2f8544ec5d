"""Hierarchical document model: node/tree types and ingestion.

Two ingestion paths produce the same tree shape: a structured-document JSON
format (``sdjson/1``) emitted by upstream converters, and a Markdown subset
for authoring test corpora by hand, read in one pass over its lines as
`lingua.input_lines` ends them. Both build through one `_Builder`, which
alone keeps the heading outline and sets every node's parent and depth, so
a parsed tree needs no separate validation pass. The builder keeps each
node as one row, a list in `DocNode` field order, and `freeze` makes each
row a `DocNode` with `_make`: on a 2-core virtual machine a 1k-node
sdjson document parses in about 1.8 ms, where one dict per node, then a
`DocNode` built by keyword from it, took 2.7 ms. Trees are immutable once
built: each `DocNode` is a NamedTuple, and `DocTree` a plain class, read as
frozen, that caches its sentence split. A malformed document raises
`SchemaError`.
`load_json` reads every JSON input file, documents and model files alike,
and `require` every field, so a bad one is a `SchemaError` naming its
path. Valid input formats no path: a path is passed as its parent path
and the key or index below it, and only an error writes it out.
"""

from __future__ import annotations

import json
import re
import sys
from enum import Enum
from functools import cached_property
from itertools import accumulate
from typing import Iterator, NamedTuple

from . import lingua


class Kind(str, Enum):
    TITLE = "title"
    HEADING = "heading"
    PARAGRAPH = "paragraph"
    LIST_BLOCK = "list_block"
    LIST_ITEM = "list_item"


class SchemaError(ValueError):
    """A document or model file that is not UTF-8 or not JSON, or a bad
    JSON field, whose path (`$.elements[2]`) starts the message."""

    def __init__(self, message: str, path: str | tuple = ""):
        path = _json_path(path)
        super().__init__(f"{path}: {message}" if path else message)


def _json_path(path: str | tuple) -> str:
    """The text of a JSON path, given as its text or as the pair (parent
    path, key or list index), which only an error writes out: `$.a` for
    the key `a` below `$`, `$.a[2]` for the index 2 below `$.a`."""
    keys = []
    while type(path) is not str:  # a loop: sublists nest as deep as JSON may
        path, key = path
        keys.append(f"[{key}]" if type(key) is int else f".{key}")
    return path + "".join(reversed(keys))


def load_json(data: bytes | str) -> dict:
    """The JSON object an input file's bytes or text hold. SchemaError when
    they are not UTF-8, not JSON or not an object, hold an integer too long
    for `int`, or nest too deep for the recursive JSON decoder."""
    if isinstance(data, bytes):
        data = lingua.decode_utf8(data, SchemaError)
    try:
        doc = json.loads(data)
    except RecursionError:
        raise SchemaError("nested too deep") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    except ValueError:  # `int` refuses a literal of over 4,300 digits
        raise SchemaError("holds an integer too long to read") from None
    if not isinstance(doc, dict):
        raise SchemaError("top-level value must be a JSON object")
    return doc


def require(mapping: dict, key: str, kind: type, path: str | tuple,
            each: type | None = None):
    """The field `key` of the object at JSON path `path`; SchemaError unless
    it is there and of `kind` (see `_of_kind`), and, when `each` is given,
    a list whose every entry is of `each` (the error names its path). The
    path is written out only into an error, so pass a list entry's path as
    the pair (list path, index) rather than formatting it."""
    if key not in mapping:
        raise SchemaError(f"missing field '{key}'", path)
    value = _of_kind(mapping[key], kind, path, key)
    if each is not None:
        where = (path, key)
        value = [_of_kind(entry, each, where, i) for i, entry in enumerate(value)]
    return value


def _of_kind(value, kind: type, path: str | tuple, key: str | int):
    """`value` if it is of `kind`: of that exact JSON type (so a bool is no
    int), or an int within float range for `float`, the number kind (given
    as a float); a str must also be encodable as UTF-8. Else SchemaError
    naming the field `key` at `path`, or entry `key` of the list at `path`."""
    if type(value) is kind and (kind is not str or value.isascii()):
        return value
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    path, what = (((path, key), "entry") if type(key) is int
                  else (path, f"field '{key}'"))
    if type(value) is not kind:
        raise SchemaError(f"{what} must be {kind.__name__}", path)
    try:  # a lone surrogate escape ("\\ud800") parses but cannot be written out
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise SchemaError(f"{what} holds a lone surrogate", path) from None
    return value


class DocNode(NamedTuple):
    id: int
    kind: Kind
    text: str
    depth: int
    children: tuple[int, ...] = ()
    level: int | None = None  # headings only
    ordered: bool | None = None  # list blocks only
    associated_image: bool = False


class DocTree:
    """The nodes in document order. Treated as immutable after construction.

    Node ids are preorder indexes, so `nodes[i].id == i` and `nodes[0]` is
    the title. `_Builder` guarantees this for every parsed tree, so code
    that needs document order reads the id."""

    def __init__(self, nodes: tuple[DocNode, ...], source_name: str = ""):
        self.nodes = nodes
        self.source_name = source_name

    @cached_property
    def sentences(self) -> tuple[tuple[str, ...], ...]:
        """Entry i: node i's sentences, split once per document."""
        return tuple(tuple(lingua.split_sentences(node.text)) for node in self.nodes)

    @cached_property
    def sentences_before(self) -> list[int]:
        """Entry i: total sentences of nodes 0 .. i - 1, so the nodes with
        ids in [i, j) hold entry j - entry i sentences."""
        return [0, *accumulate(map(len, self.sentences))]


# Indexes into a `_Builder` row, which lists a node's fields in `DocNode` order.
_TEXT, _DEPTH, _CHILDREN, _IMAGE = 2, 3, 4, 7


class _Builder:
    """Accumulates nodes with list-valued children, then freezes them.

    The only code that decides tree shape: it keeps the heading outline,
    gives each node its parent's depth plus one and attaches it. Parsers add
    nodes in document order, so node ids are preorder indexes. Each node is
    one row, a list of its `DocNode` fields in order.
    """

    def __init__(self, source_name: str, title: str):
        self.source_name = source_name
        self._rows: list[list] = [[0, Kind.TITLE, title, 0, [], None, None, False]]
        # Outline stack of (heading level, node id); the title acts as level 0.
        self._outline: list[tuple[int, int]] = [(0, 0)]
        # Node id -> its text pieces, for the nodes `extend` gave text.
        self._pieces: dict[int, list[str]] = {}

    @property
    def section(self) -> int:
        """The innermost open heading (or the title)."""
        return self._outline[-1][1]

    def child(self, parent: int, kind: Kind, text: str, *, level: int | None = None,
              ordered: bool | None = None, image: bool = False) -> int:
        rows = self._rows
        node_id = len(rows)
        row = rows[parent]
        rows.append([node_id, kind, text, row[_DEPTH] + 1, [], level, ordered, image])
        row[_CHILDREN].append(node_id)
        return node_id

    def heading(self, level: int, text: str, image: bool) -> int:
        """Close every open section of `level` or deeper and open this one
        under the nearest lower-level heading."""
        while self._outline[-1][0] >= level:
            self._outline.pop()
        node_id = self.child(self.section, Kind.HEADING, text, level=level, image=image)
        self._outline.append((level, node_id))
        return node_id

    def set_text(self, node_id: int, text: str) -> None:
        self._rows[node_id][_TEXT] = text

    def extend(self, node_id: int, text: str = "", image: bool = False) -> None:
        """Append stripped continuation text and an image flag to an existing
        node. `freeze` joins the node's non-empty pieces once, by spaces."""
        if text:
            self._pieces.setdefault(node_id, [self._rows[node_id][_TEXT]]).append(text)
        if image:
            self._rows[node_id][_IMAGE] = True

    def children(self, node_id: int) -> list[int]:
        return self._rows[node_id][_CHILDREN]

    def freeze(self) -> DocTree:
        rows = self._rows
        for node_id, pieces in self._pieces.items():
            rows[node_id][_TEXT] = " ".join(filter(None, pieces))
        for row in rows:
            row[_CHILDREN] = tuple(row[_CHILDREN])
        return DocTree(nodes=tuple(map(DocNode._make, rows)),
                       source_name=self.source_name)


# ---------------------------------------------------------------------------
# Structured-document JSON ("sdjson/1")

SDJSON_VERSION = "sdjson/1"


def _image(mapping: dict, path: tuple) -> bool:
    """An absent flag is false; anything but a JSON boolean is an error."""
    return "image" in mapping and require(mapping, "image", bool, path)


def _open_list(builder: _Builder, parent: int, obj: dict,
               path: str | tuple) -> tuple[int, Iterator[tuple[int, dict]], tuple]:
    if "type" in obj and obj["type"] != "list":
        raise SchemaError("sublist must have type 'list'", path)
    ordered = require(obj, "ordered", bool, path)
    items = require(obj, "items", list, path, dict)
    if not items:
        raise SchemaError("field 'items' must be non-empty", path)
    block = builder.child(parent, Kind.LIST_BLOCK, "", ordered=ordered)
    return block, enumerate(items), (path, "items")


def _add_list(builder: _Builder, parent: int, obj: dict, path: str | tuple) -> None:
    """Add a list and its sublists in document order. One stack entry per
    open list: (block id, its items not yet added, the path of its items)."""
    stack = [_open_list(builder, parent, obj, path)]
    while stack:
        block, items, items_path = stack[-1]
        for i, item in items:
            item_path = (items_path, i)
            text = require(item, "text", str, item_path)
            node = builder.child(block, Kind.LIST_ITEM, text,
                                 image=_image(item, item_path))
            if "sublist" in item:
                sub = require(item, "sublist", dict, item_path)
                stack.append(_open_list(builder, node, sub, (item_path, "sublist")))
                break  # the sublist's items come before this list's next item
        else:
            stack.pop()


def parse_sdjson(data: bytes | str, source_name: str = "") -> DocTree:
    """Parse structured-document JSON into a tree.

    Raises SchemaError on malformed input (with the offending path), also
    when `load_json` refuses it or it gives a heading level below 1.
    """
    doc = load_json(data)
    version = doc.get("version")
    if version != SDJSON_VERSION:
        raise SchemaError(f"unsupported version {version!r}, expected {SDJSON_VERSION!r}")
    title = doc.get("title")
    if not isinstance(title, str) or not title.strip():
        raise SchemaError("no root title")
    _of_kind(title, str, "$", "title")
    elements = require(doc, "elements", list, "$", dict)

    builder = _Builder(source_name or title, title.strip())
    for i, element in enumerate(elements):
        path = ("$.elements", i)
        etype = require(element, "type", str, path)
        if etype == "heading":
            level = require(element, "level", int, path)
            if level < 1:
                raise SchemaError(f"heading level must be >= 1, got {level}", path)
            text = require(element, "text", str, path)
            builder.heading(level, text, _image(element, path))
        elif etype == "paragraph":
            text = require(element, "text", str, path)
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
# A list item: its indent, the number of an ordered marker (`1.`, `1)`;
# none for `-`, `*`, `+`) and its text.
_ITEM_RE = re.compile(r"^(\s*)(?:(\d+)[.)]|[-*+])\s+(.*)$")
# From each `![`, the longest prefix of an image `![alt](src)`: group 2 is
# set only for a whole image, and a partial one consumes what no image
# starting inside it could use, so each character is read once.
_IMAGE_RE = re.compile(r"!\[[^\]]*(?:\](\([^)]*(\))?)?)?")


def _atx_text(content: str) -> str:
    """An ATX heading's text without its closing sequence, a run of `#`
    that ends the line after a space (CommonMark): "## Reset ##" gives
    "Reset" and "# C#" keeps "C#"."""
    text = content.strip()
    body = text.rstrip("#")
    if body != text and (not body or body[-1].isspace()):
        return body.strip()
    return text


def _strip_images(text: str) -> tuple[str, bool]:
    """`text` without its images, spaces collapsed, and whether it had one
    (a removed image always shortens it)."""
    stripped = _IMAGE_RE.sub(lambda match: "" if match[2] else match[0], text)
    return re.sub(r"\s{2,}", " ", stripped).strip(), len(stripped) < len(text)


def parse_markdown(text: str, source_name: str = "document") -> DocTree:
    """Parse an ATX-heading/list/paragraph Markdown subset into a tree, in
    one pass over its `lingua.input_lines`, so `\\r\\n` and a lone `\\r` end
    a line as `\\n` does.

    The first level-1 heading becomes the title (the source name when there
    is none); its line adds no node and ends no paragraph. Nesting indents
    are 2 spaces; tabs count as 2 spaces. An indented line right after an
    item continues it. Nothing is fatal: unrecognized lines are folded into
    paragraphs.
    """
    builder = _Builder(source_name, source_name)
    titled = False
    paragraph: list[str] = []  # the lines of the pending paragraph
    lists: list[list] = []  # open lists: [indent, block id, ordered, last item id]
    # A blank line after the last flushes the pending paragraph.
    for line in [*lingua.input_lines(text.replace("\t", "  ")), ""]:
        heading = item = None
        if line.strip():
            heading = _ATX_RE.match(line)
            item = None if heading else _ITEM_RE.match(line)
            if heading and not titled and len(heading[1]) == 1:
                titled = True
                title, _ = _strip_images(_atx_text(heading[2]))
                if title:
                    builder.set_text(0, title)
                continue
            if heading is None and item is None:
                if lists and not paragraph and line[:1].isspace():
                    builder.extend(lists[-1][3], *_strip_images(line.strip()))
                    continue
                if not paragraph:
                    lists.clear()
                paragraph.append(line.strip())
                continue

        # A blank line, a heading or an item ends the pending paragraph.
        if paragraph:
            body, image = _strip_images(" ".join(paragraph))
            paragraph.clear()
            if body or not image:
                builder.child(builder.section, Kind.PARAGRAPH, body, image=image)
            else:
                # A bare figure marks the node it illustrates: the element
                # just before it, falling back to the enclosing section.
                siblings = builder.children(builder.section)
                builder.extend(siblings[-1] if siblings else builder.section,
                               image=True)
        if heading:
            lists.clear()
            builder.heading(len(heading[1]), *_strip_images(_atx_text(heading[2])))
        elif item:
            indent, ordered = len(item[1]) // 2, item[2] is not None
            while lists and lists[-1][0] > indent:
                lists.pop()
            if lists and lists[-1][0] == indent and lists[-1][2] != ordered:
                lists.pop()  # a marker style switch starts a new block
            if not lists or lists[-1][0] < indent:
                # nest under the last item of the innermost open list
                parent = lists[-1][3] if lists else builder.section
                block = builder.child(parent, Kind.LIST_BLOCK, "", ordered=ordered)
                lists.append([indent, block, ordered, None])
            body, image = _strip_images(item[3])
            lists[-1][3] = builder.child(lists[-1][1], Kind.LIST_ITEM, body,
                                         image=image)
    return builder.freeze()


# ---------------------------------------------------------------------------
# Canonical tree JSON (CLI `ingest` output; lossless, no command reads it back)

TREE_FORMAT = "doctree/1"


def tree_to_json(tree: DocTree) -> str:
    nodes = []
    for node in tree.nodes:
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
           "root": 0, "nodes": nodes}
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
