"""The 15-feature vector scored per chunk.

`FeatureVector` is a tuple: field i - 1 is feature id i, the order the
scorer, the training matrix and the feature CSV columns f1..f15 read.
Thirteen features are static functions of the chunk, its annotations, and
the tree. Two (inferred_goal, non_actionable_goals) depend on how chunks
below this one were classified. `update_propagated_features` fills them in
with one loop over the chunk's items, for the bottom-up classification
pass and for teacher forcing alike.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .annotate import ChunkAnnotation
from .chunker import Chunk, ChunkKind, chunk_size
from .docmodel import DocTree
# split_sentences stays importable from here: perfbench/tracer.py patches it
# by module.
from .lingua import split_sentences


class FeatureVector(NamedTuple):
    n_imperatives: float = 0.0  # 1 fraction of imperative units
    n_conditionals: float = 0.0  # 2 fraction of conditional units
    n_actionables: float = 0.0  # 3 fraction of non-imperative actionable units
    n_effect_actionable: float = 0.0  # 4 fraction of conditionals whose effect is actionable
    n_discourse_goals: float = 0.0  # 5 fraction of items carrying discourse goal cues
    n_inferred_goal: float = 0.0  # 6 propagated: items with procedure children
    n_non_actionable_goals: float = 0.0  # 7 propagated: non-actionable items with procedure children
    if_parent_is_goal: float = 0.0  # 8 enclosing node is a discourse goal
    relatedness: float = 0.0  # 9 entity-graph coherence score
    depth_level: float = 0.0  # 10 tree depth of the chunk items
    chunk_size: float = 0.0  # 11 items or sentences in the chunk
    avg_sibling_distance: float = 0.0  # 12 mean sentences between consecutive items
    n_associated_image: float = 0.0  # 13 fraction of items with an associated image
    context_non_procedural: float = 0.0  # 14 context wording suggests scope/properties
    context_procedural: float = 0.0  # 15 context wording suggests steps/flow


FEATURE_NAMES = FeatureVector._fields

FEATURE_CATEGORIES = {
    "Actionable": (1, 2, 3, 4),
    "Goal-based": (5, 6, 7, 8),
    "Relatedness": (9,),
    "Structural": (10, 11, 12, 13),
    "Context-based": (14, 15),
}


class ContextLexicons(NamedTuple):
    procedural: frozenset[str]
    non_procedural: frozenset[str]


_CONTEXT_WORD_RE = re.compile(r"[a-z0-9]+")


def _context_flags(context: str, lexicons: ContextLexicons) -> tuple[float, float]:
    words = set(_CONTEXT_WORD_RE.findall(context.lower()))
    non_procedural = 1.0 if words & lexicons.non_procedural else 0.0
    procedural = 1.0 if words & lexicons.procedural else 0.0
    return non_procedural, procedural


def _ratio(count: int, denominator: int) -> float:
    return count / denominator if denominator else 0.0


def avg_sibling_distance(chunk: Chunk, tree: DocTree) -> float:
    """Mean number of sentences in nodes strictly between consecutive chunk
    items in document order (an item's own nested content lies between it
    and the next item)."""
    if len(chunk.item_node_ids) < 2:
        return 0.0
    before = tree.sentences_before  # indexed by node id: ids are preorder
    # nothing lies between a and b unless b comes after a
    counts = [max(0, before[b] - before[a + 1])
              for a, b in zip(chunk.item_node_ids, chunk.item_node_ids[1:])]
    return sum(counts) / len(counts)


def compute_static_features(chunk: Chunk, tree: DocTree,
                            annotation: ChunkAnnotation,
                            lexicons: ContextLexicons) -> FeatureVector:
    """All features except the two propagated ones, which start at 0.

    Features 1-4 count units: items for list and heading chunks (a
    multi-sentence item counts once, by its flags), sentences for
    paragraph chunks."""
    size = chunk_size(chunk, tree)
    paragraphs = chunk.kind is ChunkKind.PARAGRAPH_GROUP
    imperative = conditional = non_imperative = effect = goals = images = 0
    for item in annotation.items:
        goals += item.is_goal
        images += tree.nodes[item.node_id].associated_image
        if not paragraphs:
            imperative += item.imperative
            conditional += item.conditional
            non_imperative += item.non_imperative_actionable
            effect += item.effect_imperative
            continue
        for s in item.sentences:
            if s.tagged.imperative:
                imperative += 1
            elif s.non_imperative_actionable:
                non_imperative += 1
            if s.split is not None:
                conditional += 1
                effect += s.split.effect_imperative

    non_procedural, procedural = _context_flags(chunk.context_text, lexicons)

    return FeatureVector(
        _ratio(imperative, size),
        _ratio(conditional, size),
        _ratio(non_imperative, size),
        _ratio(effect, conditional),
        _ratio(goals, size),
        0.0,
        0.0,
        1.0 if annotation.parent_is_goal else 0.0,
        annotation.relatedness,
        float(chunk.depth),
        float(size),
        avg_sibling_distance(chunk, tree),
        _ratio(images, size),
        non_procedural,
        procedural)


def update_propagated_features(annotation: ChunkAnnotation,
                               child_chunks: dict[int, list[int]],
                               labels: dict[int, bool],
                               current: FeatureVector) -> FeatureVector:
    """`current` with the two propagated features recomputed: the fraction
    of items with a procedure child, and of non-actionable items with one.

    The propagation rule: an item has a procedure child when some chunk
    filed directly below it (`child_chunks`, node id -> chunk ids, as in
    `ChunkSet.child_chunks`) is labeled a procedure in `labels` (chunk id
    -> label). A chunk missing from `labels` counts as not a procedure.
    One pass over the items counts both fractions; only the two
    propagated fields change.
    """
    items = annotation.items
    with_child = non_actionable = non_actionable_with_child = 0
    get_children, get_label = child_chunks.get, labels.get
    for item in items:
        has_child = False
        for child_id in get_children(item.node_id, ()):
            if get_label(child_id, False):
                has_child = True
                break
        with_child += has_child
        if not item.actionable:
            non_actionable += 1
            non_actionable_with_child += has_child
    return FeatureVector._make((
        *current[:5],
        _ratio(with_child, len(items)),
        _ratio(non_actionable_with_child, non_actionable),
        *current[7:]))
