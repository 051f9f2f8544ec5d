"""Relatedness (coherence) of a chunk's sentences through shared entities.

Sentences and the noun-phrase entities they mention form a bipartite graph
whose edges are weighted by the entity's grammatical role (subject >
object > other, assigned positionally around the main verb). The weights
are fixed, `ROLE_WEIGHTS`, and no setting changes them. Projecting onto
the sentence set yields a directed graph between sentence pairs that
share entities, discounted by how far apart they are; the chunk score is
the average out-degree of that projection.

`chunk_relatedness` scores a chunk of at most one sentence 0.0 without
building its graph. Otherwise it projects by one of two paths, chosen by
the graph's mention pairs (for each entity mentioned in c sentences,
c * (c - 1) / 2):

- below `VECTOR_MIN_MENTION_PAIRS`, or below `IMPORT_MIN_MENTION_PAIRS`
  when no other code has imported numpy yet, `project`, a dict of pair
  sums, scored by `relatedness_score`. It is also the oracle the other
  path is tested against.
- otherwise `streamed_score` over `project_blocks`, which builds and sums
  the mention pairs with numpy one block of sentence rows at a time. A
  block holds about `_BLOCK_PAIRS` pairs, or one row that has more, so
  memory is O(edges + max(block, one row)), not O(mention pairs).

Both paths give the same score to the bit. Every edge weight is a
`ROLE_WEIGHTS` value (1, 2 or 3), so every product is a small integer and
each pair's sum is exact in any order of addition; the vector path packs
(i, j - i, product) into one int64 key, sorts the keys and sums each pair
as integers. Each sum is divided once by the same distance. The edge
weights are then totalled left to right in (i, j) order from 0.0: by a
loop in `relatedness_score` (the builtin `sum` of floats is compensated
from Python 3.12 on) and by `np.cumsum` per block in `streamed_score`, the
running total carried from block to block.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .lingua import ADJ, DET, NOUN, PREP, PUNCT, VERB_TAGS, TaggedSentence

if TYPE_CHECKING:
    import numpy as np


class Role(str, Enum):
    SUBJECT = "subject"
    OBJECT = "object"
    OTHER = "other"


ROLE_WEIGHTS = {Role.SUBJECT: 3.0, Role.OBJECT: 2.0, Role.OTHER: 1.0}
_ROLE_VALUES = frozenset(ROLE_WEIGHTS.values())

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


# Entity and the graphs are tuples: a chunk's sentences make thousands of
# entities, and a tuple builds in a third of a frozen dataclass's time (0.4
# against 1.1-1.5 us by position; see `annotate`).
class Entity(NamedTuple):
    surface: str  # normalized lowercase noun phrase
    role: Role


class BipartiteGraph(NamedTuple):
    sentence_count: int
    edges: tuple[tuple[int, str, float], ...]  # (sentence index, entity key, weight)


class ProjectionGraph(NamedTuple):
    sentence_count: int
    directed_edges: tuple[tuple[int, int, float], ...]  # i < j


def extract_entities(sentence: TaggedSentence) -> list[Entity]:
    """Noun runs with positional roles around the first main verb.

    A noun run is a maximal ADJ/NOUN stretch up to its last NOUN. Runs
    ending before the verb are subjects (none in imperatives); the first
    run after the verb that no preposition other than "to" governs (across
    determiners and adjectives) is the object; everything else is other.
    One walk of the tags finds the runs, the verb and the governing
    prepositions; the roles of runs before the verb wait for its end.
    """
    lowers = sentence.lowers
    surfaces: list[str] = []
    roles: list[Role | None] = []  # None: before the verb, if any
    verb = object_taken = False
    # Whether the nearest tag so far other than DET and ADJ is a
    # preposition other than "to": it governs a run starting here.
    governed = False
    start = last = -1  # the open ADJ/NOUN stretch and its last NOUN
    # A closing PUNCT ends a stretch that reaches the last token.
    for i, tag in enumerate((*sentence.tags, PUNCT)):
        if tag == NOUN or tag == ADJ:
            if start < 0:
                start, governs = i, governed
            if tag == NOUN:
                last = i
            continue
        if last >= 0:
            surfaces.append(" ".join(lowers[start:last + 1]))
            if not verb:
                roles.append(None)
            elif object_taken or governs:
                roles.append(Role.OTHER)
            else:
                roles.append(Role.OBJECT)
                object_taken = True
            governed = False  # the run's NOUN stops the look-back
            last = -1
        start = -1
        if tag != DET:
            governed = tag == PREP and lowers[i] != "to"
            if tag in VERB_TAGS:
                verb = True
    before = Role.SUBJECT if verb and not sentence.imperative else Role.OTHER
    return [Entity(surface, before if role is None else role)
            for surface, role in zip(surfaces, roles)]


def build_bipartite(sentences: list[TaggedSentence]) -> BipartiteGraph:
    """One weighted edge per (sentence, entity); repeat mentions keep the
    maximum role weight."""
    best: dict[tuple[int, str], float] = {}  # in order of first mention
    for index, sentence in enumerate(sentences):
        for entity in extract_entities(sentence):
            key = (index, entity.surface)
            weight = ROLE_WEIGHTS[entity.role]
            best[key] = max(best.get(key, weight), weight)
    return BipartiteGraph(sentence_count=len(sentences), edges=tuple(
        (index, surface, weight) for (index, surface), weight in best.items()))


def project(graph: BipartiteGraph) -> ProjectionGraph:
    """Weighted one-mode projection onto sentences: for each pair (i, j)
    with shared entities, sum the products of their edge weights and divide
    once by the pair distance j - i. Edges must come as `build_bipartite`
    makes them: one per (sentence, entity), in increasing sentence order."""
    by_entity: dict[str, list[tuple[int, float]]] = {}
    for index, entity, weight in graph.edges:
        by_entity.setdefault(entity, []).append((index, weight))
    pair_sums: dict[tuple[int, int], float] = {}
    for mentions in by_entity.values():
        for a, (i, wi) in enumerate(mentions):
            for j, wj in mentions[a + 1:]:
                pair_sums[(i, j)] = pair_sums.get((i, j), 0.0) + wi * wj
    edges = tuple((i, j, total / (j - i))
                  for (i, j), total in sorted(pair_sums.items()))
    return ProjectionGraph(sentence_count=graph.sentence_count,
                           directed_edges=edges)


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


def mention_pairs(graph: BipartiteGraph) -> int:
    """Sentence pairs summed over entities: c * (c - 1) / 2 for an entity
    mentioned in c sentences. The projection's work for the graph."""
    counts: dict[str, int] = {}
    for _, entity, _ in graph.edges:
        counts[entity] = counts.get(entity, 0) + 1
    return sum(c * (c - 1) // 2 for c in counts.values())


def project_blocks(graph: BipartiteGraph,
                   ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """`project` with numpy, streamed: the (i, j, weight) columns of its
    directed edges in (i, j) order, with bit-identical weights. Each block
    holds whole rows i and at most `_BLOCK_PAIRS` mention pairs, or one row
    that has more. Edges must come as for `project`, each weighted by a
    `ROLE_WEIGHTS` value; any other weight raises ValueError before the
    first block."""
    import numpy as np  # only wide chunks pay for the import
    if not {w for _, _, w in graph.edges} <= _ROLE_VALUES:
        raise ValueError("project_blocks needs ROLE_WEIGHTS values as weights")
    codes: dict[str, int] = {}
    entity = np.array([codes.setdefault(e, len(codes)) for _, e, _ in graph.edges],
                      dtype=np.int64)
    sentence = np.array([i for i, _, _ in graph.edges], dtype=np.int64)
    weight = np.array([w for _, _, w in graph.edges], dtype=np.int64)
    # Mentions grouped by entity, each group in sentence order; `rank` is a
    # mention's place in that order and `later` counts the mentions of its
    # entity after it: the pairs it starts.
    by_entity = np.argsort(entity, kind="stable")
    rank = np.empty_like(by_entity)
    rank[by_entity] = np.arange(len(by_entity))
    later = np.cumsum(np.bincount(entity))[entity] - 1 - rank
    grouped_sentence = sentence[by_entity]
    grouped_weight = weight[by_entity]
    # Row bounds (a row's mentions are contiguous edges) and the pairs
    # that the rows before each bound start.
    bounds = np.append(np.flatnonzero(np.diff(sentence, prepend=-1)), len(sentence))
    pairs_before = np.concatenate(([0], np.cumsum(later)))[bounds]
    # Bits enough for j - i; the keys fit an int64 below 2^29 sentences.
    shift = graph.sentence_count.bit_length()
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
        i = np.repeat(sentence[lo:hi], count)
        key = (((i << shift) | (grouped_sentence[b] - i)) << 4
               | (np.repeat(weight[lo:hi], count) * grouped_weight[b]))
        key.sort()
        pair = key >> 4
        starts = np.flatnonzero(np.diff(pair, prepend=-1))  # pair >= 1
        sums = np.add.reduceat(key & 15, starts)  # exact integers
        pair = pair[starts]
        i = pair >> shift
        distance = pair & ((1 << shift) - 1)
        yield i, i + distance, sums / distance


def streamed_score(graph: BipartiteGraph) -> float:
    """`relatedness_score(project(graph))` from `project_blocks`: each block
    is added onto the running total left to right by `np.cumsum`, the
    total carried from block to block."""
    import numpy as np
    if graph.sentence_count <= 1:
        return 0.0
    total = 0.0
    for _, _, weights in project_blocks(graph):
        total = float(np.cumsum(np.concatenate(([total], weights)))[-1])
    return total / graph.sentence_count


def chunk_relatedness(sentences: list[TaggedSentence]) -> float:
    """`relatedness_score(project(build_bipartite(sentences)))`. A chunk of
    at most one sentence scores 0.0 whatever its entities, so it builds no
    graph."""
    if len(sentences) <= 1:
        return 0.0
    graph = build_bipartite(sentences)
    pairs = mention_pairs(graph)
    if pairs < VECTOR_MIN_MENTION_PAIRS or (
            pairs < IMPORT_MIN_MENTION_PAIRS and "numpy" not in sys.modules):
        return relatedness_score(project(graph))
    return streamed_score(graph)


def describe_graph(sentences: list[TaggedSentence]) -> str:
    """Line-oriented debug dump: entities with roles, projection edges, score."""
    lines: list[str] = []
    for index, sentence in enumerate(sentences):
        for entity in extract_entities(sentence):
            lines.append(f"entity s{index} {entity.surface!r} {entity.role.value}")
    graph = build_bipartite(sentences)
    projection = project(graph)
    for i, j, weight in projection.directed_edges:
        lines.append(f"edge s{i} -> s{j} weight={weight:g}")
    lines.append(f"score {relatedness_score(projection):g}")
    return "\n".join(lines)
