"""Per-chunk sentence annotation: runs the detectors, the goal cues, and
the actionable-statement model over every sentence of every chunk item and
bundles the results the feature stage needs."""

from __future__ import annotations

from dataclasses import dataclass

from . import actionable as actionable_mod
from . import lingua
from .actionable import ActionableModel
from .chunker import Chunk, ChunkSet
from .docmodel import DocNode, DocTree, Kind
from .goals import GoalAnnotation, GoalCue, GoalCueConfig, annotate_goal
from .lingua import SentenceAnnotations, TaggedSentence, Tagger
from .relatedness import Role, chunk_relatedness


@dataclass(frozen=True)
class AnnotatedSentence:
    tagged: TaggedSentence
    annotations: SentenceAnnotations
    goal: GoalAnnotation
    non_imperative_actionable: bool

    @property
    def actionable(self) -> bool:
        return self.annotations.imperative or self.non_imperative_actionable


@dataclass(frozen=True)
class ItemAnnotation:
    node_id: int
    sentences: tuple[AnnotatedSentence, ...]
    associated_image: bool

    @property
    def imperative(self) -> bool:
        return any(s.annotations.imperative for s in self.sentences)

    @property
    def conditional(self) -> bool:
        return any(s.annotations.conditional for s in self.sentences)

    @property
    def non_imperative_actionable(self) -> bool:
        return any(s.non_imperative_actionable and not s.annotations.imperative
                   for s in self.sentences)

    @property
    def actionable(self) -> bool:
        return any(s.actionable for s in self.sentences)

    @property
    def is_goal(self) -> bool:
        return any(s.goal.is_goal for s in self.sentences)


@dataclass(frozen=True)
class ChunkAnnotation:
    chunk_id: int
    items: tuple[ItemAnnotation, ...]
    context_text: str
    parent_is_goal: bool
    relatedness: float


def annotate_sentence_text(text: str, *, is_heading: bool, tagger: Tagger,
                           goal_config: GoalCueConfig,
                           model: ActionableModel | None) -> AnnotatedSentence:
    tagged = tagger.tag(text)
    annotations = lingua.annotate_sentence(tagged)
    goal = annotate_goal(tagged, is_heading=is_heading, config=goal_config)
    if goal.cue is GoalCue.GERUND_OPENING:
        non_imperative = True  # gerund-opening goals read as actionable
    elif annotations.imperative or model is None:
        non_imperative = False
    else:
        prof = lingua.Profile(tense=annotations.tense, voice=annotations.voice,
                              polarity=annotations.polarity)
        non_imperative, _ = actionable_mod.predict(model, tagged, prof)
    return AnnotatedSentence(tagged=tagged, annotations=annotations, goal=goal,
                             non_imperative_actionable=non_imperative)


def _effective_parent(chunk: Chunk, tree: DocTree) -> int | None:
    """The node whose text introduces the chunk: the list block's parent for
    list chunks, the items' parent otherwise."""
    parent = chunk.parent_node_id
    if tree.node(parent).kind is Kind.LIST_BLOCK:
        return tree.parent_of(parent)
    return parent


def _heading_is_goal(node: DocNode, *, tagger: Tagger,
                     goal_config: GoalCueConfig) -> bool:
    if node.kind not in (Kind.HEADING, Kind.TITLE) or not node.text.strip():
        return False
    return annotate_goal(tagger.tag(node.text), is_heading=True,
                         config=goal_config).is_goal


def annotate_chunk(chunk: Chunk, tree: DocTree, *, tagger: Tagger,
                   goal_config: GoalCueConfig,
                   model: ActionableModel | None,
                   role_weights: dict[Role, float] | None = None,
                   parent_goals: dict[int, bool] | None = None) -> ChunkAnnotation:
    """`parent_goals` memoizes the goal flag of parent nodes by node id, so
    chunks sharing a parent heading tag it once."""
    items: list[ItemAnnotation] = []
    all_tagged: list[TaggedSentence] = []
    for node_id in chunk.item_node_ids:
        node = tree.node(node_id)
        is_heading = node.kind in (Kind.HEADING, Kind.TITLE)
        sentences = tuple(
            annotate_sentence_text(text, is_heading=is_heading, tagger=tagger,
                                   goal_config=goal_config, model=model)
            for text in tree.sentences[node_id]
        )
        all_tagged.extend(s.tagged for s in sentences)
        items.append(ItemAnnotation(node_id=node_id, sentences=sentences,
                                    associated_image=node.associated_image))

    parent_goals = {} if parent_goals is None else parent_goals
    parent_id = _effective_parent(chunk, tree)
    if parent_id is not None and parent_id not in parent_goals:
        parent_goals[parent_id] = _heading_is_goal(
            tree.node(parent_id), tagger=tagger, goal_config=goal_config)

    return ChunkAnnotation(
        chunk_id=chunk.id,
        items=tuple(items),
        context_text=chunk.context_text,
        parent_is_goal=parent_goals.get(parent_id, False),
        relatedness=chunk_relatedness(all_tagged, role_weights),
    )


def annotate_chunks(tree: DocTree, chunks: ChunkSet, *, tagger: Tagger | None = None,
                    goal_config: GoalCueConfig | None = None,
                    model: ActionableModel | None = None,
                    role_weights: dict[Role, float] | None = None,
                    ) -> dict[int, ChunkAnnotation]:
    tagger = tagger or Tagger()
    goal_config = goal_config or GoalCueConfig.bundled()
    parent_goals: dict[int, bool] = {}
    return {
        chunk.id: annotate_chunk(chunk, tree, tagger=tagger,
                                 goal_config=goal_config, model=model,
                                 role_weights=role_weights,
                                 parent_goals=parent_goals)
        for chunk in chunks
    }
