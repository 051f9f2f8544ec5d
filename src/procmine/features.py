"""The 15-feature vector scored per chunk.

Thirteen features are static functions of the chunk, its annotations, and
the tree. Two (inferred_goal, non_actionable_goals) depend on how chunks
below this one were classified and are filled in during the bottom-up
classification pass.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cache
from operator import attrgetter
from pathlib import Path

from .annotate import ChunkAnnotation, ItemAnnotation
from .chunker import Chunk, ChunkKind, ChunkSet, chunk_size
from .docmodel import DocTree
# split_sentences stays importable from here: perfbench/tracer.py patches it
# by module.
from .lingua import bundled_data_dir, split_sentences

FEATURE_NAMES = (
    "n_imperatives",          # 1  fraction of imperative units
    "n_conditionals",         # 2  fraction of conditional units
    "n_actionables",          # 3  fraction of non-imperative actionable units
    "n_effect_actionable",    # 4  fraction of conditionals whose effect is actionable
    "n_discourse_goals",      # 5  fraction of items carrying discourse goal cues
    "n_inferred_goal",        # 6  propagated: items with procedure children
    "n_non_actionable_goals", # 7  propagated: non-actionable items with procedure children
    "if_parent_is_goal",      # 8  enclosing node is a discourse goal
    "relatedness",            # 9  entity-graph coherence score
    "depth_level",            # 10 tree depth of the chunk items
    "chunk_size",             # 11 items or sentences in the chunk
    "avg_sibling_distance",   # 12 mean sentences between consecutive items
    "n_associated_image",     # 13 fraction of items with an associated image
    "context_non_procedural", # 14 context wording suggests scope/properties
    "context_procedural",     # 15 context wording suggests steps/flow
)

FEATURE_CATEGORIES = {
    "Actionable": (1, 2, 3, 4),
    "Goal-based": (5, 6, 7, 8),
    "Relatedness": (9,),
    "Structural": (10, 11, 12, 13),
    "Context-based": (14, 15),
}


_FEATURE_VALUES = attrgetter(*FEATURE_NAMES)


@dataclass(frozen=True)
class FeatureVector:
    n_imperatives: float = 0.0
    n_conditionals: float = 0.0
    n_actionables: float = 0.0
    n_effect_actionable: float = 0.0
    n_discourse_goals: float = 0.0
    n_inferred_goal: float = 0.0
    n_non_actionable_goals: float = 0.0
    if_parent_is_goal: float = 0.0
    relatedness: float = 0.0
    depth_level: float = 0.0
    chunk_size: float = 0.0
    avg_sibling_distance: float = 0.0
    n_associated_image: float = 0.0
    context_non_procedural: float = 0.0
    context_procedural: float = 0.0

    def values(self) -> tuple[float, ...]:
        """The features in FEATURE_NAMES order."""
        return _FEATURE_VALUES(self)

    @classmethod
    def from_values(cls, values) -> "FeatureVector":
        return cls(**{name: float(v) for name, v in zip(FEATURE_NAMES, values)})


@dataclass(frozen=True)
class ContextLexicons:
    procedural: frozenset[str]
    non_procedural: frozenset[str]

    @classmethod
    def load(cls, procedural_path: str | Path,
             non_procedural_path: str | Path) -> "ContextLexicons":
        def read(path):
            return frozenset(
                line.strip().lower()
                for line in Path(path).read_text("utf-8").splitlines()
                if line.strip() and not line.startswith("#"))
        return cls(procedural=read(procedural_path),
                   non_procedural=read(non_procedural_path))

    @classmethod
    @cache  # read once per process; the config is frozen
    def bundled(cls) -> "ContextLexicons":
        data = bundled_data_dir()
        return cls.load(data / "context_procedural.txt",
                        data / "context_nonprocedural.txt")


_CONTEXT_WORD_RE = re.compile(r"[a-z0-9]+")


def _context_flags(context: str, lexicons: ContextLexicons) -> tuple[float, float]:
    words = set(_CONTEXT_WORD_RE.findall(context.lower()))
    non_procedural = 1.0 if words & lexicons.non_procedural else 0.0
    procedural = 1.0 if words & lexicons.procedural else 0.0
    return non_procedural, procedural


def _units(chunk: Chunk, items: tuple[ItemAnnotation, ...]) -> list[list]:
    """Aggregation units for the actionable-fraction features: items for
    list and heading chunks (a multi-sentence item counts once), individual
    sentences for paragraph chunks."""
    if chunk.kind is ChunkKind.PARAGRAPH_GROUP:
        return [[s] for item in items for s in item.sentences]
    return [list(item.sentences) for item in items]


def _fraction(flags: list[bool], denominator: int) -> float:
    return sum(flags) / denominator if denominator else 0.0


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
                            lexicons: ContextLexicons | None = None) -> FeatureVector:
    """All features except the two propagated ones, which start at 0."""
    lexicons = lexicons or ContextLexicons.bundled()
    units = _units(chunk, annotation.items)
    size = chunk_size(chunk, tree)

    unit_imperative = [any(s.annotations.imperative for s in u) for u in units]
    unit_conditional = [any(s.annotations.conditional for s in u) for u in units]
    unit_non_imp_actionable = [
        any(s.non_imperative_actionable and not s.annotations.imperative for s in u)
        for u in units]
    unit_effect = [any(s.annotations.conditional and s.annotations.effect_imperative
                       for s in u) for u in units]
    conditional_count = sum(unit_conditional)
    effect_fraction = (sum(unit_effect) / conditional_count
                       if conditional_count else 0.0)

    goal_items = [item.is_goal for item in annotation.items]
    image_items = [item.associated_image for item in annotation.items]

    non_procedural, procedural = _context_flags(chunk.context_text, lexicons)

    return FeatureVector(
        n_imperatives=_fraction(unit_imperative, size),
        n_conditionals=_fraction(unit_conditional, size),
        n_actionables=_fraction(unit_non_imp_actionable, size),
        n_effect_actionable=effect_fraction,
        n_discourse_goals=_fraction(goal_items, size),
        n_inferred_goal=0.0,
        n_non_actionable_goals=0.0,
        if_parent_is_goal=1.0 if annotation.parent_is_goal else 0.0,
        relatedness=annotation.relatedness,
        depth_level=float(chunk.depth),
        chunk_size=float(size),
        avg_sibling_distance=avg_sibling_distance(chunk, tree),
        n_associated_image=_fraction(image_items, size),
        context_non_procedural=non_procedural,
        context_procedural=procedural,
    )


def child_flags(chunk: Chunk, chunks: ChunkSet,
                labels: dict[int, bool]) -> dict[int, bool]:
    """The propagation rule: item node id -> whether some chunk filed
    directly below that item is labeled a procedure in `labels` (chunk id
    -> label). A chunk missing from `labels` counts as not a procedure."""
    return {node_id: any(labels.get(child_id, False)
                         for child_id in chunks.child_chunks.get(node_id, ()))
            for node_id in chunk.item_node_ids}


def update_propagated_features(annotation: ChunkAnnotation,
                               child_predictions: dict[int, bool],
                               current: FeatureVector) -> FeatureVector:
    """Recompute the two propagated features from per-item child outcomes.

    `child_predictions` maps every item node id to whether some chunk
    directly below it was classified as a procedure (see `child_flags`).
    Only the two propagated fields change.
    """
    items = annotation.items
    with_child = [child_predictions[item.node_id] for item in items]
    inferred = _fraction(with_child, len(items))
    non_actionable = [item for item in items if not item.actionable]
    if non_actionable:
        flagged = [child_predictions[item.node_id] for item in non_actionable]
        non_actionable_goals = _fraction(flagged, len(non_actionable))
    else:
        non_actionable_goals = 0.0
    return replace(current, n_inferred_goal=inferred,
                   n_non_actionable_goals=non_actionable_goals)

