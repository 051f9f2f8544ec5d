"""Relatedness (coherence) of a chunk's sentences through shared entities.

Sentences and the noun-phrase entities they mention form a bipartite graph
whose edges are weighted by the entity's grammatical role (subject >
object > other, assigned positionally around the main verb). The weights
are fixed, `ROLE_WEIGHTS`, and no setting changes them. Projecting onto
the sentence set yields a directed graph between sentence pairs that
share entities, discounted by how far apart they are; the chunk score is
the average out-degree of that projection.

`chunk_relatedness` projects by one of two paths, chosen by the graph's
mention pairs (for each entity mentioned in c sentences, c * (c - 1) / 2):

- below `VECTOR_MIN_MENTION_PAIRS`, `project`, a dict of pair sums, scored
  by `relatedness_score`. It is also the oracle the other path is tested
  against.
- from that constant up, `project_arrays`, which builds and sums every
  mention pair with numpy.

Both paths give the same score to the bit. Each pair's products are added
in the same order (entities in first-mention order), each sum is divided
by the same distance, and the edge weights are totalled by the builtin
`sum` in the same (i, j) order, so the paths agree on every interpreter
whatever its float `sum` does.
"""

from __future__ import annotations

from dataclasses import dataclass
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

# Mention pairs from which `chunk_relatedness` projects with numpy. Below
# it numpy's fixed cost per call (about 0.1 ms) outweighs the loop it
# replaces: a numpy-only prototype made every synth-large run slower (74 ->
# 80 ms per document; its chunks have at most 73 mention pairs). On runs of
# corpus sentences the two paths break even near 100 pairs, and at 2,500
# pairs numpy is about 6 times faster.
VECTOR_MIN_MENTION_PAIRS = 128


class Entity(NamedTuple):  # a tuple: a chunk's sentences make thousands
    surface: str  # normalized lowercase noun phrase
    role: Role


@dataclass(frozen=True)
class BipartiteGraph:
    sentence_count: int
    edges: tuple[tuple[int, str, float], ...]  # (sentence index, entity key, weight)


@dataclass(frozen=True)
class ProjectionGraph:
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
    best: dict[tuple[int, str], float] = {}
    order: list[tuple[int, str]] = []
    for index, sentence in enumerate(sentences):
        for entity in extract_entities(sentence):
            key = (index, entity.surface)
            weight = ROLE_WEIGHTS[entity.role]
            if key not in best:
                best[key] = weight
                order.append(key)
            else:
                best[key] = max(best[key], weight)
    edges = tuple((idx, surface, best[(idx, surface)]) for idx, surface in order)
    return BipartiteGraph(sentence_count=len(sentences), edges=edges)


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
    total = sum(weight for _, _, weight in projection.directed_edges)
    return total / projection.sentence_count


def mention_pairs(graph: BipartiteGraph) -> int:
    """Sentence pairs summed over entities: c * (c - 1) / 2 for an entity
    mentioned in c sentences. The projection's work for the graph."""
    counts: dict[str, int] = {}
    for _, entity, _ in graph.edges:
        counts[entity] = counts.get(entity, 0) + 1
    return sum(c * (c - 1) // 2 for c in counts.values())


def project_arrays(graph: BipartiteGraph,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`project` with numpy: the (i, j, weight) columns of its directed
    edges, sorted by (i, j), with bit-identical weights. Edges must come as
    for `project`."""
    import numpy as np  # only wide chunks pay for the import
    n = graph.sentence_count
    codes: dict[str, int] = {}
    entity = np.array([codes.setdefault(e, len(codes)) for _, e, _ in graph.edges],
                      dtype=np.int64)
    # Mentions grouped by entity in first-mention order, each group in
    # increasing sentence order: `project`'s loop order.
    by_entity = np.argsort(entity, kind="stable")
    sentence = np.array([i for i, _, _ in graph.edges], dtype=np.int64)[by_entity]
    weight = np.array([w for _, _, w in graph.edges], dtype=float)[by_entity]
    counts = np.bincount(entity, minlength=len(codes))
    rank = np.arange(len(entity)) - np.repeat(np.cumsum(counts) - counts, counts)
    later = np.repeat(counts, counts) - 1 - rank  # mentions after each one
    # Every mention a paired with each later mention b of its entity.
    a = np.repeat(np.arange(len(entity)), later)
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(later) - later, later)
    key = sentence[a] * n + sentence[b]
    order = np.argsort(key, kind="stable")  # keeps entity order within a pair
    key = key[order]
    product = (weight[a] * weight[b])[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))  # keys are >= 1
    sizes = np.diff(starts, append=len(key))
    # Start from 0.0 as `project` does (so a -0.0 product sums to 0.0),
    # then add the r-th product of each pair that shares more than r
    # entities, round by round, in `project`'s order.
    total = 0.0 + product[starts]
    for r in range(1, int(sizes.max(initial=1))):
        more = np.flatnonzero(sizes > r)
        total[more] += product[starts[more] + r]
    i, j = np.divmod(key[starts], n)
    return i, j, total / (j - i)


def chunk_relatedness(sentences: list[TaggedSentence]) -> float:
    graph = build_bipartite(sentences)
    if mention_pairs(graph) < VECTOR_MIN_MENTION_PAIRS:
        return relatedness_score(project(graph))
    _, _, weights = project_arrays(graph)
    # The builtin sum over the same (i, j) order as `relatedness_score`.
    return sum(weights.tolist()) / graph.sentence_count


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
