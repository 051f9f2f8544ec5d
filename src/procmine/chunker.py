"""Group document-tree nodes into candidate procedure chunks.

Three grouping rules: a list's items form a chunk; sibling headings of
equal level under one parent form a chunk; paragraphs under one parent
form a chunk. Every list item, heading, and paragraph lands in exactly
one chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .docmodel import DocNode, DocTree, Kind
# split_sentences stays importable from here: perfbench/tracer.py patches it
# by module.
from .lingua import split_sentences


class ChunkKind(str, Enum):
    LIST = "list"
    HEADING_GROUP = "heading_group"
    PARAGRAPH_GROUP = "paragraph_group"


@dataclass(frozen=True)
class Chunk:
    id: int
    kind: ChunkKind
    item_node_ids: tuple[int, ...]
    depth: int
    context_text: str
    parent_node_id: int


@dataclass(eq=False)
class ChunkSet:
    chunks: dict[int, Chunk]
    by_level: dict[int, list[int]]
    # node id -> chunk ids directly dominated by that node (no other chunk
    # item on the path between the node and the chunk's items)
    child_chunks: dict[int, list[int]]

    def __iter__(self):
        return iter(self.chunks.values())

    def __len__(self):
        return len(self.chunks)

    def in_document_order(self) -> list[Chunk]:
        return list(self.chunks.values())


_ITEM_KINDS = frozenset({Kind.LIST_ITEM, Kind.HEADING, Kind.PARAGRAPH})
_CONTEXT_DONOR_KINDS = frozenset({Kind.PARAGRAPH, Kind.HEADING, Kind.TITLE})


def _chunk_anchor(chunk: Chunk, tree: DocTree) -> int:
    """Node whose siblings/parent supply the chunk's context: the list block
    for list chunks, the first item otherwise."""
    if chunk.kind is ChunkKind.LIST:
        return chunk.parent_node_id
    return chunk.item_node_ids[0]


def chunk_context(chunk: Chunk, tree: DocTree) -> str:
    """Context text: last sentence of the nearest preceding sibling with
    text, else the enclosing node's text, else empty."""
    anchor = _chunk_anchor(chunk, tree)
    parent_id = tree.parent_of(anchor)
    if parent_id is None:
        return ""
    siblings = tree.node(parent_id).children
    index = siblings.index(anchor)
    for sib_id in reversed(siblings[:index]):
        sibling = tree.node(sib_id)
        if sibling.kind in _CONTEXT_DONOR_KINDS and sibling.text.strip():
            sentences = tree.sentences[sib_id]
            return sentences[-1] if sentences else sibling.text.strip()
    return tree.node(parent_id).text.strip()


def chunk_size(chunk: Chunk, tree: DocTree) -> int:
    """Items for list chunks, one sentence per heading for heading groups,
    total sentences for paragraph groups."""
    if chunk.kind is ChunkKind.LIST:
        return len(chunk.item_node_ids)
    if chunk.kind is ChunkKind.HEADING_GROUP:
        return len(chunk.item_node_ids)
    return sum(len(tree.sentences[nid]) or 1 for nid in chunk.item_node_ids)


def _dominating_item(tree: DocTree, chunk: Chunk,
                     is_item: set[int]) -> int | None:
    """Nearest ancestor of the chunk that is itself a chunk item."""
    current = chunk.parent_node_id
    while current is not None:
        if current in is_item:
            return current
        current = tree.parent_of(current)
    return None


def build_chunks(tree: DocTree) -> ChunkSet:
    """Traverse the tree and build the chunk set (document order)."""
    groups: list[tuple[ChunkKind, list[int], int]] = []  # kind, items, parent

    def visit(node: DocNode) -> None:
        if node.kind is Kind.LIST_BLOCK:
            items = [c for c in node.children]
            if items:
                groups.append((ChunkKind.LIST, items, node.id))
        else:
            headings: dict[int, list[int]] = {}
            paragraphs: list[int] = []
            for child_id in node.children:
                child = tree.node(child_id)
                if child.kind is Kind.HEADING:
                    headings.setdefault(child.level or 0, []).append(child_id)
                elif child.kind is Kind.PARAGRAPH:
                    paragraphs.append(child_id)
            emitted: set[int] = set()
            for child_id in node.children:
                child = tree.node(child_id)
                if child.kind is Kind.HEADING and child.level not in emitted:
                    groups.append((ChunkKind.HEADING_GROUP,
                                   headings[child.level or 0], node.id))
                    emitted.add(child.level)
                elif child.kind is Kind.PARAGRAPH and "para" not in emitted:
                    groups.append((ChunkKind.PARAGRAPH_GROUP, paragraphs, node.id))
                    emitted.add("para")
        for child_id in node.children:
            visit(tree.node(child_id))

    visit(tree.node(tree.root))

    chunks: dict[int, Chunk] = {}
    by_level: dict[int, list[int]] = {}
    is_item: set[int] = set()
    for chunk_id, (kind, items, parent) in enumerate(groups, start=1):
        depth = tree.node(items[0]).depth
        chunk = Chunk(id=chunk_id, kind=kind, item_node_ids=tuple(items),
                      depth=depth, context_text="", parent_node_id=parent)
        chunks[chunk_id] = chunk
        by_level.setdefault(depth, []).append(chunk_id)
        is_item.update(items)

    # context needs the full set (siblings may be other chunks' anchors)
    for chunk_id, chunk in list(chunks.items()):
        context = chunk_context(chunk, tree)
        chunks[chunk_id] = Chunk(id=chunk.id, kind=chunk.kind,
                                 item_node_ids=chunk.item_node_ids,
                                 depth=chunk.depth, context_text=context,
                                 parent_node_id=chunk.parent_node_id)

    child_chunks: dict[int, list[int]] = {}
    for chunk in chunks.values():
        owner = _dominating_item(tree, chunk, is_item)
        if owner is not None:
            child_chunks.setdefault(owner, []).append(chunk.id)

    return ChunkSet(chunks=chunks, by_level=by_level, child_chunks=child_chunks)

