"""Group document-tree nodes into candidate procedure chunks.

Three grouping rules: a list's items form a chunk; sibling headings of
equal level under one parent form a chunk; paragraphs under one parent
form a chunk. Every list item, heading, and paragraph lands in exactly
one chunk.

`build_chunks` makes one preorder walk with an explicit stack, so any
nesting depth works, and emits each chunk complete:

- Order: at each node, its heading and paragraph groups in the order of
  their first items, then the chunks below its children; a list chunk is
  emitted when the walk reaches its list block.
- Context: the last sentence of the last sibling with text (paragraph,
  heading or title) before the chunk's anchor, else the stripped text of
  the anchor's parent. The anchor is the list block for a list chunk and
  the first item otherwise, so a list block's context is worked out while
  its parent's children are scanned and travels on the stack.
- Goal: the context, if it is not empty; else the stripped text of the
  nearest heading at or above the items' parent whose stripped text is not
  empty; else the stripped title. The walk carries the last two as one
  fallback on the stack, so no chunk walks up the tree.
- `intro_node_id` is the node whose text introduces the chunk: the list
  block's parent for a list chunk, the items' parent otherwise.
- `child_chunks` files each chunk under the nearest chunk item at or above
  its parent node, which also travels on the stack.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .docmodel import DocNode, DocTree, Kind
# split_sentences stays importable from here: perfbench/tracer.py patches it
# by module.
from .lingua import split_sentences


class ChunkKind(str, Enum):
    LIST = "list"
    HEADING_GROUP = "heading_group"
    PARAGRAPH_GROUP = "paragraph_group"


class Chunk(NamedTuple):
    id: int
    kind: ChunkKind
    item_node_ids: tuple[int, ...]
    depth: int
    context_text: str
    parent_node_id: int
    intro_node_id: int
    goal: str


class ChunkSet:
    def __init__(self, chunks: dict[int, Chunk], child_chunks: dict[int, list[int]]):
        self.chunks = chunks
        # node id -> chunk ids directly dominated by that node (no other
        # chunk item on the path between the node and the chunk's items)
        self.child_chunks = child_chunks

    def __iter__(self):
        return iter(self.chunks.values())

    def __len__(self):
        return len(self.chunks)


_CONTEXT_DONOR_KINDS = frozenset({Kind.PARAGRAPH, Kind.HEADING, Kind.TITLE})
_GROUP_KINDS = {Kind.HEADING: ChunkKind.HEADING_GROUP,
                Kind.PARAGRAPH: ChunkKind.PARAGRAPH_GROUP}


def chunk_size(chunk: Chunk, tree: DocTree) -> int:
    """Items for list chunks, one sentence per heading for heading groups,
    total sentences for paragraph groups."""
    if chunk.kind is not ChunkKind.PARAGRAPH_GROUP:
        return len(chunk.item_node_ids)
    return sum(len(tree.sentences[nid]) or 1 for nid in chunk.item_node_ids)


def build_chunks(tree: DocTree) -> ChunkSet:
    """One preorder walk with an explicit stack; chunk ids follow the walk."""
    chunks: dict[int, Chunk] = {}
    child_chunks: dict[int, list[int]] = {}

    def emit(kind: ChunkKind, items: list[DocNode], context: str, parent: int,
             intro: int, owner: int | None, fallback: str) -> None:
        chunk_id = len(chunks) + 1
        chunks[chunk_id] = Chunk(
            id=chunk_id, kind=kind, item_node_ids=tuple(n.id for n in items),
            depth=items[0].depth, context_text=context, parent_node_id=parent,
            intro_node_id=intro, goal=context or fallback)
        if owner is not None:
            child_chunks.setdefault(owner, []).append(chunk_id)

    # (node, its parent's id, the context of a chunk anchored at it, the
    # nearest chunk item at or above it, the goal of a chunk below it with
    # no context: the nearest heading text at or above it, else the title)
    root = tree.nodes[0]
    stack: list[tuple[DocNode, int | None, str, int | None, str]] = [
        (root, None, "", None, root.text.strip())]
    while stack:
        node, parent, context_here, owner, fallback = stack.pop()
        if not node.children:
            continue
        is_block = node.kind is Kind.LIST_BLOCK
        groups: dict[tuple[ChunkKind, int | None], tuple[str, list[DocNode]]] = {}
        context = node.text.strip()  # until a child donates a sentence
        below = []
        for child_id in node.children:
            child = tree.nodes[child_id]
            group = None if is_block else _GROUP_KINDS.get(child.kind)
            if group is not None:
                key = (group, child.level)
                if key not in groups:
                    groups[key] = (context, [])
                groups[key][1].append(child)
            item = is_block or group is not None
            text = child.text.strip()
            below.append((child, node.id, context, child.id if item else owner,
                          text if text and child.kind is Kind.HEADING
                          else fallback))
            if text and child.kind in _CONTEXT_DONOR_KINDS:
                sentences = tree.sentences[child.id]
                context = sentences[-1] if sentences else text
        if is_block:
            emit(ChunkKind.LIST, [entry[0] for entry in below], context_here,
                 node.id, parent, owner, fallback)
        for (kind, _), (group_context, items) in groups.items():
            emit(kind, items, group_context, node.id, node.id, owner, fallback)
        stack.extend(reversed(below))

    return ChunkSet(chunks=chunks, child_chunks=child_chunks)
