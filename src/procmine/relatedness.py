"""Relatedness (coherence) of a chunk's sentences through shared entities.

Sentences and the noun-phrase entities they mention form a bipartite graph
whose edges are weighted by the entity's grammatical role (subject >
object > other, assigned positionally around the main verb). A role is its
weight, fixed in `ROLE_WEIGHTS`. Projecting onto the sentence set yields a
directed graph between sentence pairs that share entities, discounted by
how far apart they are; the chunk score is the average out-degree of that
projection.

A chunk's mentions have one form, the grouping by entity: each entity's
(sentence, maximum weight) mentions in sentence order, the entities in
order of first mention. `extract_entities` is one walk over a sentence's
tags that finds its noun runs, its verb and the prepositions that govern
a run; the runs before the verb get their weight once, after the walk,
and a sentence with no NOUN returns at once. `chunk_relatedness` scores a
chunk of at most one sentence 0.0 without walking its sentences.
Otherwise it groups each sentence's (surface, weight) pairs as soon as
they are made, counting the mention pairs of the grouping as it goes (for
each entity mentioned in c sentences, c * (c - 1) / 2). A chunk with none,
where no entity has two mentions, scores 0.0 without a projection. Every
other chunk is scored by one of two paths:

- below `VECTOR_MIN_MENTION_PAIRS`, or below `IMPORT_MIN_MENTION_PAIRS`
  when no other code has imported numpy yet, straight from the dict of
  pair sums (`_pair_sums`), each divided by its distance and added in
  (i, j) order; no `ProjectionGraph` is built. `_pair_sums` is the one
  pair loop: `_projection`, which `project` and `describe_graph` read,
  builds the edges from it, and
  `relatedness_score(project(build_bipartite(...)))` is the oracle the
  other paths are tested against.
- otherwise `streamed_score` over `project_blocks`, which builds and sums
  the mention pairs with numpy one block of sentence rows at a time. A
  block holds about `_BLOCK_PAIRS` pairs, or one row that has more, so
  memory is O(mentions + max(block, one row)), not O(mention pairs).

Both paths give the same score to the bit. Every weight is a
`ROLE_WEIGHTS` value (1, 2 or 3), so every product is a small integer and
each pair's sum is exact in any order of addition; the vector path packs
(i, j - i, product) into one integer key, sorts the keys and sums each
pair as integers. A key takes 2 * b + 4 bits, b the bit length of the
sentence count: the keys are 32-bit, which sort faster, for a chunk of
fewer than 2^13 (8,192) sentences and 64-bit for a larger one. Each sum
is divided once by the same distance. The edge weights are then totalled
left to right in (i, j) order from 0.0: by a loop in `relatedness_score`
and in the dict path (the builtin `sum` of floats is compensated from
Python 3.12 on) and by `np.cumsum` per block in `streamed_score`, the
running total carried from block to block.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING, NamedTuple

from .lingua import ADJ, DET, NOUN, PREP, VERB_TAGS, TaggedSentence

if TYPE_CHECKING:
    import numpy as np


ROLE_WEIGHTS = {"subject": 3.0, "object": 2.0, "other": 1.0}
_ROLE_VALUES = frozenset(ROLE_WEIGHTS.values())
_SUBJECT, _OBJECT, _OTHER = ROLE_WEIGHTS.values()

# Mention pairs from which `chunk_relatedness` projects with numpy. Below
# it numpy's fixed cost per call (about 0.1 ms) outweighs the loop it
# replaces: a numpy-only prototype made every synth-large run slower (74 ->
# 80 ms per document; its chunks have at most 73 mention pairs). On runs of
# corpus sentences the two paths break even near 100 pairs, and at 2,500
# pairs numpy is about 6 times faster.
VECTOR_MIN_MENTION_PAIRS = 128

# Mention pairs from which `chunk_relatedness` imports numpy to project
# with it, where no other code has. The import takes 168-185 ms and the
# dict path about 1.6 us per pair (6.1 ms for 3,979 pairs), so the import
# pays only from about 100,000 pairs.
IMPORT_MIN_MENTION_PAIRS = 100_000

# Mention pairs per block of `project_blocks`: its memory beyond the
# graph's edges is O(max(block, one row)). On prose-wide's wide chunk
# (272,766 pairs; 2-vCPU Xeon VM), 2^14 gave a 2.5 MB tracemalloc peak
# and the fastest projection; 2^16 gave 7.2 MB and took 34% longer.
_BLOCK_PAIRS = 1 << 14


class BipartiteGraph(NamedTuple):
    sentence_count: int
    edges: tuple[tuple[int, str, float], ...]  # (sentence index, entity key, weight)


class ProjectionGraph(NamedTuple):
    sentence_count: int
    directed_edges: tuple[tuple[int, int, float], ...]  # i < j


def extract_entities(sentence: TaggedSentence) -> list[tuple[str, float]]:
    """(surface, role weight) of each noun run of the sentence, in order.

    A noun run is a maximal ADJ/NOUN stretch up to its last NOUN; its
    surface is the run's lowercase words. Runs ending before the verb are
    subjects (none in imperatives); the first run after the verb that no
    preposition other than "to" governs (across determiners and adjectives)
    is the object; everything else is other. One walk of the tags finds the
    runs, the verb and the governing prepositions; the runs before the verb
    get their weight once, after it, and a sentence with no NOUN has none.
    """
    tags = sentence.tags
    if NOUN not in tags:
        return []
    lowers = sentence.lowers
    before: list[str] = []  # the surfaces of the runs before the verb
    after: list[tuple[str, float]] = []
    verb = object_taken = governs = False
    # Whether the nearest tag so far other than DET and ADJ is a
    # preposition other than "to": it governs a run starting here.
    governed = False
    start = last = -1  # the open ADJ/NOUN stretch and its last NOUN
    for i, tag in enumerate(tags):
        if tag == NOUN or tag == ADJ:
            if start < 0:
                start, governs = i, governed
            if tag == NOUN:
                last = i
            continue
        if last >= 0:
            surface = " ".join(lowers[start:last + 1])
            if not verb:
                before.append(surface)
            elif object_taken or governs:
                after.append((surface, _OTHER))
            else:
                after.append((surface, _OBJECT))
                object_taken = True
            governed = False  # the run's NOUN stops the look-back
            last = -1
        start = -1
        if tag != DET:
            governed = tag == PREP and lowers[i] != "to"
            if not verb and tag in VERB_TAGS:
                verb = True
    if last >= 0:  # a run that reaches the last token
        surface = " ".join(lowers[start:last + 1])
        if not verb:
            before.append(surface)
        else:
            after.append((surface, _OTHER if object_taken or governs else _OBJECT))
    if not before:
        return after
    weight = _SUBJECT if verb and not sentence.imperative else _OTHER
    return [(surface, weight) for surface in before] + after


# Each entity's mentions, (sentence index, weight), in sentence order; the
# entities in order of first mention.
_Mentions = dict[str, list[tuple[int, float]]]


def _group(rows: Iterable[tuple[int, Iterable[tuple[str, float]]]],
           ) -> tuple[_Mentions, int]:
    """The mentions of rows (sentence index, (entity, weight) pairs) that
    come in increasing sentence order, and their mention pairs: for each
    entity mentioned in c sentences, c * (c - 1) / 2. An entity mentioned
    more than once in a sentence keeps its maximum weight there."""
    by_entity: _Mentions = {}
    pairs = 0
    for index, row in rows:
        for entity, weight in row:
            mentions = by_entity.get(entity)
            if mentions is None:
                by_entity[entity] = [(index, weight)]
                continue
            last_index, last_weight = mentions[-1]
            if last_index != index:
                pairs += len(mentions)  # one with each earlier mention
                mentions.append((index, weight))
            elif last_weight < weight:
                mentions[-1] = (index, weight)
    return by_entity, pairs


def _graph_mentions(graph: BipartiteGraph) -> _Mentions:
    return _group((index, ((entity, weight),))
                  for index, entity, weight in graph.edges)[0]


def build_bipartite(sentences: list[TaggedSentence]) -> BipartiteGraph:
    """One weighted edge per (sentence, entity), in order of first mention
    within each sentence; repeat mentions keep the maximum role weight."""
    edges: list[tuple[int, str, float]] = []
    for index, sentence in enumerate(sentences):
        best: dict[str, float] = {}
        for surface, weight in extract_entities(sentence):
            if best.get(surface, 0.0) < weight:
                best[surface] = weight
        edges += ((index, surface, weight) for surface, weight in best.items())
    return BipartiteGraph(sentence_count=len(sentences), edges=tuple(edges))


def _pair_sums(by_entity: _Mentions) -> dict[tuple[int, int], float]:
    """For each sentence pair (i, j), i < j, that shares entities, the
    products of their weights summed from 0.0 over the entities in order
    of first mention."""
    pair_sums: dict[tuple[int, int], float] = {}
    get = pair_sums.get
    for mentions in by_entity.values():
        if len(mentions) < 2:
            continue  # most entities: one sentence mentions them
        for a, (i, wi) in enumerate(mentions):
            for j, wj in mentions[a + 1:]:
                pair_sums[i, j] = get((i, j), 0.0) + wi * wj
    return pair_sums


def _projection(by_entity: _Mentions, sentence_count: int) -> ProjectionGraph:
    """The pair sums in (i, j) order, each divided once by the pair
    distance j - i."""
    edges = tuple((i, j, total / (j - i))
                  for (i, j), total in sorted(_pair_sums(by_entity).items()))
    return ProjectionGraph(sentence_count=sentence_count, directed_edges=edges)


def project(graph: BipartiteGraph) -> ProjectionGraph:
    """Weighted one-mode projection onto sentences: for each pair (i, j)
    with shared entities, sum the products of their edge weights and divide
    once by the pair distance j - i. Edges must come as `build_bipartite`
    makes them: one per (sentence, entity), in increasing sentence order."""
    return _projection(_graph_mentions(graph), graph.sentence_count)


def relatedness_score(projection: ProjectionGraph) -> float:
    """Average out-degree: total projected edge weight over sentence count."""
    if projection.sentence_count <= 1 or not projection.directed_edges:
        return 0.0
    # Left to right on every interpreter: from Python 3.12 on the builtin
    # `sum` of floats is compensated, and `streamed_score` must match.
    total = 0.0
    for _, _, weight in projection.directed_edges:
        total += weight
    return total / projection.sentence_count


def project_blocks(by_entity: _Mentions, sentence_count: int,
                   ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """`_projection` with numpy, streamed: the (i, j, weight) columns of its
    directed edges in (i, j) order, with bit-identical weights. Each block
    holds whole rows i and at most `_BLOCK_PAIRS` mention pairs, or one row
    that has more. Every weight must be a `ROLE_WEIGHTS` value; any other
    raises ValueError before the first block."""
    import numpy as np  # only wide chunks pay for the import
    if not {w for m in by_entity.values() for _, w in m} <= _ROLE_VALUES:
        raise ValueError("project_blocks needs ROLE_WEIGHTS values as weights")
    # The mentions in entity order, each entity's in sentence order;
    # `later` counts the mentions of its entity after each: the pairs it
    # starts.
    # Bits enough for j - i. A key takes 2 * shift + 4 bits: an int32 where
    # that fits, else an int64, which holds it below 2^29 sentences.
    shift = sentence_count.bit_length()
    key_type = np.int32 if 2 * shift + 4 <= 31 else np.int64
    sentence = np.array([i for m in by_entity.values() for i, _ in m], dtype=key_type)
    weight = np.array([w for m in by_entity.values() for _, w in m], dtype=key_type)
    counts = np.array([len(m) for m in by_entity.values()], dtype=np.int64)
    later = np.repeat(np.cumsum(counts), counts) - 1 - np.arange(len(sentence))
    # The same mentions by sentence row; `rank` is each one's place in
    # entity order, where the later mentions of its entity follow it.
    rank = np.argsort(sentence, kind="stable")
    row_sentence = sentence[rank]
    row_weight = weight[rank]
    later = later[rank]
    # Row bounds and the pairs that the rows before each bound start.
    bounds = np.append(np.flatnonzero(np.diff(row_sentence, prepend=-1)),
                       len(row_sentence))
    pairs_before = np.concatenate(([0], np.cumsum(later)))[bounds]
    row = 0
    while row < len(bounds) - 1:
        end = max(row + 1, int(np.searchsorted(
            pairs_before, pairs_before[row] + _BLOCK_PAIRS, side="right")) - 1)
        lo, hi = bounds[row], bounds[end]
        row = end
        count = later[lo:hi]
        if not count.any():
            continue
        # Every mention a of the block's rows with each later mention b of
        # its entity, as one key (i, j - i, product) that sorts by (i, j).
        step = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        b = np.repeat(rank[lo:hi], count) + 1 + step
        i = np.repeat(row_sentence[lo:hi], count)
        key = (((i << shift) | (sentence[b] - i)) << 4
               | (np.repeat(row_weight[lo:hi], count) * weight[b]))
        key.sort()
        pair = key >> 4
        starts = np.flatnonzero(np.diff(pair, prepend=-1))  # pair >= 1
        sums = np.add.reduceat(key & 15, starts)  # exact integers
        pair = pair[starts]
        i = pair >> shift
        distance = pair & ((1 << shift) - 1)
        yield i, i + distance, sums / distance


def streamed_score(by_entity: _Mentions, sentence_count: int) -> float:
    """`relatedness_score(_projection(by_entity, sentence_count))` from
    `project_blocks`: each block is added onto the running total left to
    right by `np.cumsum`, the total carried from block to block."""
    import numpy as np
    if sentence_count <= 1:
        return 0.0
    total = 0.0
    for _, _, weights in project_blocks(by_entity, sentence_count):
        total = float(np.cumsum(np.concatenate(([total], weights)))[-1])
    return total / sentence_count


def chunk_relatedness(sentences: list[TaggedSentence]) -> float:
    """`relatedness_score(project(build_bipartite(sentences)))`, from one
    walk per sentence, grouped by entity as it is made. A chunk of at most
    one sentence scores 0.0 whatever its entities, so it walks none; one
    where no entity has two mentions scores 0.0 without a projection."""
    if len(sentences) <= 1:
        return 0.0
    by_entity, pairs = _group(enumerate(map(extract_entities, sentences)))
    if not pairs:
        return 0.0
    if pairs < VECTOR_MIN_MENTION_PAIRS or (
            pairs < IMPORT_MIN_MENTION_PAIRS and "numpy" not in sys.modules):
        # `relatedness_score(_projection(...))`: each pair's edge weight
        # added left to right in (i, j) order as it is divided.
        total = 0.0
        for (i, j), pair_sum in sorted(_pair_sums(by_entity).items()):
            total += pair_sum / (j - i)
        return total / len(sentences)
    return streamed_score(by_entity, len(sentences))


def describe_graph(sentences: list[TaggedSentence]) -> str:
    """Line-oriented debug dump: entities with roles, projection edges, score."""
    role_of = {weight: role for role, weight in ROLE_WEIGHTS.items()}
    rows = list(enumerate(map(extract_entities, sentences)))
    lines = [f"entity s{index} {surface!r} {role_of[weight]}"
             for index, row in rows for surface, weight in row]
    projection = _projection(_group(rows)[0], len(sentences))
    for i, j, weight in projection.directed_edges:
        lines.append(f"edge s{i} -> s{j} weight={weight:g}")
    lines.append(f"score {relatedness_score(projection):g}")
    return "\n".join(lines)
