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

- below `VECTOR_MIN_MENTION_PAIRS`, below `IMPORT_MIN_MENTION_PAIRS`
  when no other code has imported numpy yet, or where numpy cannot be
  imported at all, straight from the dict of pair sums (`_pair_sums`),
  each divided by its distance and added in (i, j) order. `_pair_sums` is
  the one pair loop in this module; `describe_graph` prints its edges.
- otherwise `streamed_score` over `project_blocks`, which builds and sums
  the mention pairs with numpy one block of sentence rows at a time. A
  block holds about `_BLOCK_PAIRS` pairs, or one row that has more, so
  memory is O(mentions + max(block, one row)), not O(mention pairs).

Both paths give the same score to the bit. Every weight is a
`ROLE_WEIGHTS` value (1, 2 or 3), so every product is a small integer and
each pair's sum is exact in any order of addition. The vector path packs
a pair into one integer key, (i << b | j - i) << 4 | w_i * w_j, b the bit
length of the sentence count: a key takes 2 * b + 4 bits, so the keys are
32-bit, which sort faster, for a chunk of fewer than 2^13 (8,192)
sentences and 64-bit for a larger one. That key is the row term
i * (2^(b + 4) - 16) plus 16 * j + w_i * w_j, which a partner table of
three rows, one per weight w_i, holds for every mention of sentence j: a
block's keys are its mentions' row terms plus one gather from the table.
Sorted, the keys of one pair form a run, whose sum is the difference of
the running sum of the 4-bit products at the run's ends. Each sum is
divided once by the same distance. The edge weights are then totalled
left to right in (i, j) order from 0.0: by a loop in the dict path (the
builtin `sum` of floats is compensated from Python 3.12 on) and by
`np.add.accumulate` per block in `streamed_score`, the running total added
into the block's first weight. The tests check both paths against an
oracle projection of `build_bipartite`'s edges that shares no code with
`_group` or `_pair_sums`.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

from .lingua import ADJ, DET, NOUN, PREP, VERB_TAGS, TaggedSentence

if TYPE_CHECKING:
    import numpy as np


ROLE_WEIGHTS = {"subject": 3.0, "object": 2.0, "other": 1.0}
_SUBJECT, _OBJECT, _OTHER = ROLE_WEIGHTS.values()

# Mention pairs from which `chunk_relatedness` projects with numpy. Below
# it numpy's fixed cost per call (about 0.08 ms) outweighs the loop it
# replaces: a numpy-only prototype made every synth-large run slower (74 ->
# 80 ms per document; its chunks have at most 73 mention pairs). On
# prefixes of prose-wide's wide chunk the two paths break even near 130
# pairs (134 pairs: 83 us on the dict path, 80 us with numpy), and at
# 2,500 pairs numpy is about 8 times faster.
VECTOR_MIN_MENTION_PAIRS = 128

# Mention pairs from which `chunk_relatedness` imports numpy to project
# with it, where no other code has. The import takes 168-185 ms and the
# dict path about 1.6 us per pair (6.1 ms for 3,979 pairs), so the import
# pays only from about 100,000 pairs.
IMPORT_MIN_MENTION_PAIRS = 100_000

# Mention pairs per block of `project_blocks`: its memory beyond the
# graph's edges is O(max(block, one row)). On prose-wide's wide chunk
# (272,766 pairs; 2-vCPU Xeon VM), `streamed_score` took 5.6 ms with 2^13,
# 5.7 ms with 2^14 and 6.0 ms with 2^15, at tracemalloc peaks of 0.9, 1.3
# and 2.1 MB; 2^16 took 7.0 ms at 3.7 MB. 2^13 and 2^14 are level within
# the spread of the runs.
_BLOCK_PAIRS = 1 << 14


class BipartiteGraph(NamedTuple):
    sentence_count: int
    edges: tuple[tuple[int, str, float], ...]  # (sentence index, entity key, weight)


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


def build_bipartite(sentences: list[TaggedSentence]) -> BipartiteGraph:
    """One weighted edge per (sentence, entity), in order of first mention
    within each sentence; repeat mentions keep the maximum role weight.
    No command calls it: it is kept for the benchmark's tracer, which
    counts mention pairs with it, and for the tests' oracle."""
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


def project_blocks(by_entity: _Mentions, sentence_count: int,
                   ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The projection with numpy, streamed: the (i, j, weight) columns of
    its directed edges in (i, j) order, each weight the pair's `_pair_sums`
    sum divided once by j - i, to the bit. Each block holds whole rows i
    and at most `_BLOCK_PAIRS` mention pairs, or one row that has more. Every weight must be a `ROLE_WEIGHTS` value; any other
    raises ValueError before the first block."""
    import numpy as np  # only wide chunks pay for the import
    # The mentions in entity order, each entity's in sentence order, as
    # (sentence, weight) rows of one flat array.
    counts = np.fromiter(map(len, by_entity.values()), np.int64, len(by_entity))
    size = int(counts.sum())
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(by_entity.values())),
                       np.float64, 2 * size).reshape(size, 2)
    weight = flat[:, 1]
    if not ((weight == _SUBJECT) | (weight == _OBJECT) | (weight == _OTHER)).all():
        raise ValueError("project_blocks needs ROLE_WEIGHTS values as weights")
    # Bits enough for j - i. A key takes 2 * shift + 4 bits: an int32 where
    # that fits, else an int64, which holds it below 2^29 sentences.
    shift = sentence_count.bit_length()
    key_type = np.int32 if 2 * shift + 4 <= 31 else np.int64
    sentence = flat[:, 0].astype(key_type)
    weight = weight.astype(key_type)
    # The key of mention a's pair with a later mention b of its entity,
    # (i << shift | j - i) << 4 | w_a * w_b, is a row term of a,
    # i * (2^(shift + 4) - 16), plus 16 * j + w_a * w_b: row w_a - 1 of the
    # partner table, at b.
    partner = (np.arange(1, 4, dtype=key_type)[:, None] * weight
               + 16 * sentence).ravel()
    # `later` counts the mentions of its entity after each mention: the
    # pairs it starts.
    later = np.repeat(np.cumsum(counts), counts) - 1 - np.arange(size)
    # The same mentions by sentence row; `rank` is each one's place in
    # entity order, where the later mentions of its entity follow it, and
    # `first` the place in the partner table of its first partner. A
    # stable sort of 16-bit values is a radix sort, 4 times as fast.
    rank = np.argsort(sentence.astype(np.uint16) if shift <= 16 else sentence,
                      kind="stable")
    row_sentence = sentence[rank]
    row_term = row_sentence * key_type((1 << shift + 4) - 16)
    first = (weight[rank] - 1) * size + rank + 1
    later = later[rank]
    # Row bounds and the pairs that the rows before each bound start.
    bounds = np.append(np.flatnonzero(np.diff(row_sentence, prepend=-1)), size)
    pairs_before = np.concatenate(([0], np.cumsum(later)))[bounds]
    row = 0
    while row < len(bounds) - 1:
        end = max(row + 1, int(np.searchsorted(
            pairs_before, pairs_before[row] + _BLOCK_PAIRS, side="right")) - 1)
        lo, hi = bounds[row], bounds[end]
        pairs = int(pairs_before[end] - pairs_before[row])
        row = end
        if not pairs:
            continue
        # Every mention a of the block's rows with each later mention of its
        # entity, the partners of a taking consecutive places in the table.
        count = later[lo:hi]
        start = np.cumsum(count) - count  # a's first pair in the block
        key = np.repeat(first[lo:hi] - start, count)
        key += np.arange(pairs)
        key = partner.take(key)
        key += np.repeat(row_term[lo:hi], count)
        key.sort()
        # Each run of one pair (i, j) summed as the difference of the
        # running sum of its products at the run's ends. The running sum
        # may wrap around in a 32-bit key, but no run's sum does, so each
        # difference is exact.
        pair = key >> 4
        ends = np.append(np.flatnonzero(pair[1:] != pair[:-1]), pairs - 1)
        key &= 15
        sums = np.add.accumulate(key, out=key)[ends]
        sums[1:] -= sums[:-1].copy()
        pair = pair[ends]
        i = pair >> shift
        distance = pair & ((1 << shift) - 1)
        yield i, i + distance, sums / distance


def streamed_score(by_entity: _Mentions, sentence_count: int) -> float:
    """The chunk score from `project_blocks`: the edge weights totalled
    left to right, each block's by `np.add.accumulate` in place, the first
    onto the running total carried from block to block, over the sentence
    count."""
    import numpy as np
    if sentence_count <= 1:
        return 0.0
    total = 0.0
    for _, _, weights in project_blocks(by_entity, sentence_count):
        weights[0] += total
        total = float(np.add.accumulate(weights, out=weights)[-1])
    return total / sentence_count


def chunk_relatedness(sentences: list[TaggedSentence]) -> float:
    """The average out-degree of the chunk's projection: its edge weights
    totalled left to right in (i, j) order, over the sentence count. One
    walk per sentence, grouped by entity as it is made. A chunk of at most
    one sentence scores 0.0 whatever its entities, so it walks none; one
    where no entity has two mentions scores 0.0 without a projection."""
    if len(sentences) <= 1:
        return 0.0
    by_entity, pairs = _group(enumerate(map(extract_entities, sentences)))
    if not pairs:
        return 0.0
    if pairs >= VECTOR_MIN_MENTION_PAIRS and (
            pairs >= IMPORT_MIN_MENTION_PAIRS or "numpy" in sys.modules):
        try:
            import numpy  # noqa: F401
        except ImportError:
            pass  # an interpreter without numpy: the dict path, same bits
        else:
            return streamed_score(by_entity, len(sentences))
    # Each edge weight added left to right in (i, j) order as it is divided,
    # not by `sum`, which compensates from Python 3.12 on.
    total = 0.0
    for (i, j), pair_sum in sorted(_pair_sums(by_entity).items()):
        total += pair_sum / (j - i)
    return total / len(sentences)


def describe_graph(sentences: list[TaggedSentence]) -> str:
    """Line-oriented debug dump: entities with roles, projection edges, score."""
    role_of = {weight: role for role, weight in ROLE_WEIGHTS.items()}
    rows = list(enumerate(map(extract_entities, sentences)))
    lines = [f"entity s{index} {surface!r} {role_of[weight]}"
             for index, row in rows for surface, weight in row]
    for (i, j), total in sorted(_pair_sums(_group(rows)[0]).items()):
        lines.append(f"edge s{i} -> s{j} weight={total / (j - i):g}")
    lines.append(f"score {chunk_relatedness(sentences):g}")
    return "\n".join(lines)
