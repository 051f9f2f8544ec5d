"""Per-chunk sentence annotation: runs the detectors, the goal cues, and
the actionable-statement model over every sentence of every chunk item and
bundles the results the feature stage needs.

Each record holds each fact once, set when it is built: a sentence its
tagged tokens (which carry its imperative flag), conditional split, goal
cue and actionable reading; an item its node, its sentences and the
six flags later stages read, each set in one loop over its sentences; a
chunk its items, its introducing node's goal reading and its relatedness.
Nothing here repeats the tree (an item's image flag is its node's) or the
chunk id that keys each record. The tense, voice and polarity bits of
`lingua.profile` are not stored: `actionable.predict` reads them off the
tags of the sentences it scores, their only reader.

The records are NamedTuples, like every record built per node, sentence,
chunk or step: one 1k-node synth document (`perfbench/gen.py`, seed 3)
builds 6,027 of them, 1,000 of them `DocNode`s. A frozen dataclass sets
each field through `object.__setattr__`; with five fields it took
1.1-1.5 us to build, a NamedTuple 0.4 us by position and 0.9 us by keyword
(Python 3.11, 2-vCPU Xeon VM, fastest of 5 x 200,000).
"""

from __future__ import annotations

from typing import NamedTuple

from . import actionable as actionable_mod
from .actionable import ActionableModel
from .chunker import Chunk, ChunkKind, ChunkSet
from .docmodel import DocNode, DocTree, Kind
from .goals import GoalCue, GoalCueConfig, annotate_goal, heading_goal
from .lingua import ConditionalSplit, TaggedSentence, Tagger, detect_conditional
from .relatedness import chunk_relatedness


class AnnotatedSentence(NamedTuple):
    tagged: TaggedSentence  # with its imperative flag
    split: ConditionalSplit | None  # None unless the sentence is conditional
    goal: GoalCue | None  # None unless the sentence carries a goal cue
    non_imperative_actionable: bool


class ItemAnnotation(NamedTuple):
    """The flags say whether some sentence of the item has the property;
    the features of list and heading chunks, whose units are items, count
    them."""
    node_id: int
    sentences: tuple[AnnotatedSentence, ...]
    actionable: bool  # imperative or non_imperative_actionable
    conditional: bool  # some sentence has a conditional split
    is_goal: bool  # some sentence carries a goal cue
    imperative: bool  # some sentence is imperative
    non_imperative_actionable: bool  # some sentence not imperative reads actionable
    effect_imperative: bool  # some conditional split has an imperative effect


class ChunkAnnotation(NamedTuple):
    items: tuple[ItemAnnotation, ...]
    parent_is_goal: bool
    relatedness: float


def annotate_sentence_text(text: str, *, is_heading: bool, tagger: Tagger,
                           goal_config: GoalCueConfig,
                           model: ActionableModel | None) -> AnnotatedSentence:
    tagged = tagger.tag(text)
    goal = annotate_goal(tagged, is_heading=is_heading, config=goal_config)
    if goal is GoalCue.GERUND_OPENING:
        non_imperative = True  # gerund-opening goals read as actionable
    elif tagged.imperative or model is None:
        non_imperative = False
    else:
        non_imperative, _ = actionable_mod.predict(model, tagged)
    return AnnotatedSentence(tagged=tagged, split=detect_conditional(tagged),
                             goal=goal, non_imperative_actionable=non_imperative)


def _heading_is_goal(node: DocNode, *, tagger: Tagger,
                     goal_config: GoalCueConfig) -> bool:
    """The goal reading of a whole heading or title, tagged on its own."""
    if node.kind not in (Kind.HEADING, Kind.TITLE) or not node.text.strip():
        return False
    return annotate_goal(tagger.tag(node.text), is_heading=True,
                         config=goal_config) is not None


def _item_heading_is_goal(node: DocNode, item: ItemAnnotation, *,
                          goal_config: GoalCueConfig) -> bool:
    """`_heading_is_goal` of a heading from its item's tagged sentences.
    Their tokens are the heading's tokens in order, and the tagger looks
    only backward, so the first token that is not NUM or PUNCT has the
    same tag in its sentence as in the whole heading."""
    tags = (tag for s in item.sentences for tag in s.tagged.tags)
    return heading_goal(node.text, tags, goal_config) is not None


def annotate_chunk(chunk: Chunk, tree: DocTree, *, tagger: Tagger,
                   goal_config: GoalCueConfig,
                   model: ActionableModel | None,
                   parent_is_goal: bool) -> ChunkAnnotation:
    """`parent_is_goal` is the goal flag of the chunk's introducing node."""
    items: list[ItemAnnotation] = []
    tagged: list[TaggedSentence] = []  # the chunk's, for its relatedness
    for node_id in chunk.item_node_ids:
        is_heading = tree.nodes[node_id].kind in (Kind.HEADING, Kind.TITLE)
        sentences: list[AnnotatedSentence] = []
        imperative = non_imperative = conditional = effect = goal = False
        for text in tree.sentences[node_id]:
            s = annotate_sentence_text(text, is_heading=is_heading,
                                       tagger=tagger, goal_config=goal_config,
                                       model=model)
            sentences.append(s)
            tagged.append(s.tagged)
            if s.tagged.imperative:
                imperative = True
            elif s.non_imperative_actionable:
                non_imperative = True
            if s.split is not None:
                conditional = True
                if s.split.effect_imperative:
                    effect = True
            if s.goal is not None:
                goal = True
        items.append(ItemAnnotation(
            node_id=node_id, sentences=tuple(sentences),
            actionable=imperative or non_imperative, conditional=conditional,
            is_goal=goal, imperative=imperative,
            non_imperative_actionable=non_imperative, effect_imperative=effect))
    return ChunkAnnotation(items=tuple(items), parent_is_goal=parent_is_goal,
                           relatedness=chunk_relatedness(tagged))


def annotate_chunks(tree: DocTree, chunks: ChunkSet, *, tagger: Tagger,
                    goal_config: GoalCueConfig,
                    model: ActionableModel | None = None
                    ) -> dict[int, ChunkAnnotation]:
    """Annotate every chunk. A heading's goal reading as an introducing
    node comes from its heading-group item, which the chunker emits before
    the chunks below the heading; only the title is tagged on its own. No
    other kind of node carries a goal cue."""
    intro_goals = {0: _heading_is_goal(
        tree.nodes[0], tagger=tagger, goal_config=goal_config)}
    out: dict[int, ChunkAnnotation] = {}
    for chunk in chunks:
        annotation = out[chunk.id] = annotate_chunk(
            chunk, tree, tagger=tagger, goal_config=goal_config, model=model,
            parent_is_goal=intro_goals.get(chunk.intro_node_id, False))
        if chunk.kind is ChunkKind.HEADING_GROUP:
            for item in annotation.items:
                intro_goals[item.node_id] = _item_heading_is_goal(
                    tree.nodes[item.node_id], item, goal_config=goal_config)
    return out
