"""Relatedness (coherence) of a chunk's sentences through shared entities.

Sentences and the noun-phrase entities they mention form a bipartite graph
whose edges are weighted by the entity's grammatical role (subject >
object > other, assigned positionally around the main verb). Projecting
onto the sentence set yields a directed graph between sentence pairs that
share entities, discounted by how far apart they are; the chunk score is
the average out-degree of that projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .lingua import (ADJ, DET, NOUN, PREP, VERB_TAGS, TaggedSentence,
                     detect_imperative)


class Role(str, Enum):
    SUBJECT = "subject"
    OBJECT = "object"
    OTHER = "other"


DEFAULT_ROLE_WEIGHTS = {Role.SUBJECT: 3.0, Role.OBJECT: 2.0, Role.OTHER: 1.0}


@dataclass(frozen=True)
class Entity:
    surface: str  # normalized lowercase noun phrase
    role: Role
    sentence_index: int


@dataclass(frozen=True)
class BipartiteGraph:
    sentence_count: int
    edges: tuple[tuple[int, str, float], ...]  # (sentence index, entity key, weight)


@dataclass(frozen=True)
class ProjectionGraph:
    sentence_count: int
    directed_edges: tuple[tuple[int, int, float], ...]  # i < j


def _noun_runs(sentence: TaggedSentence) -> list[tuple[int, int]]:
    """Maximal (ADJ|NOUN)* NOUN token runs, as [start, end) index pairs."""
    runs: list[tuple[int, int]] = []
    i = 0
    tokens = sentence.tokens
    while i < len(tokens):
        if tokens[i].tag in (ADJ, NOUN):
            start = i
            last_noun = -1
            while i < len(tokens) and tokens[i].tag in (ADJ, NOUN):
                if tokens[i].tag == NOUN:
                    last_noun = i
                i += 1
            if last_noun >= 0:
                runs.append((start, last_noun + 1))
        else:
            i += 1
    return runs


def _first_main_verb(sentence: TaggedSentence) -> int | None:
    for i, token in enumerate(sentence.tokens):
        if token.tag in VERB_TAGS:
            return i
    return None


def _preposition_governed(sentence: TaggedSentence, start: int) -> bool:
    for j in range(start - 1, -1, -1):
        tag = sentence.tokens[j].tag
        if tag in (DET, ADJ):
            continue
        if tag == PREP and sentence.tokens[j].surface.lower() != "to":
            return True
        return False
    return False


def normalize_entity(tokens: list[str]) -> str:
    return " ".join(t.lower() for t in tokens)


def extract_entities(sentence: TaggedSentence,
                     sentence_index: int = 0) -> list[Entity]:
    """Noun runs with positional roles around the first main verb.

    Runs ending before the verb are subjects (none in imperatives); the
    first non-preposition-governed run after the verb is the object;
    everything else, including preposition-governed runs, is other.
    """
    runs = _noun_runs(sentence)
    if not runs:
        return []
    verb = _first_main_verb(sentence)
    imperative = detect_imperative(sentence)
    entities: list[Entity] = []
    object_taken = False
    for start, end in runs:
        surface = normalize_entity([t.surface for t in sentence.tokens[start:end]])
        if verb is not None and end <= verb and not imperative:
            role = Role.SUBJECT
        elif (verb is not None and start > verb and not object_taken
              and not _preposition_governed(sentence, start)):
            role = Role.OBJECT
            object_taken = True
        else:
            role = Role.OTHER
        entities.append(Entity(surface=surface, role=role,
                               sentence_index=sentence_index))
    return entities


def build_bipartite(sentences: list[TaggedSentence],
                    role_weights: dict[Role, float] | None = None) -> BipartiteGraph:
    """One weighted edge per (sentence, entity); repeat mentions keep the
    maximum role weight."""
    weights = role_weights or DEFAULT_ROLE_WEIGHTS
    best: dict[tuple[int, str], float] = {}
    order: list[tuple[int, str]] = []
    for index, sentence in enumerate(sentences):
        for entity in extract_entities(sentence, index):
            key = (index, entity.surface)
            weight = weights[entity.role]
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


def chunk_relatedness(sentences: list[TaggedSentence],
                      role_weights: dict[Role, float] | None = None) -> float:
    return relatedness_score(project(build_bipartite(sentences, role_weights)))


def describe_graph(sentences: list[TaggedSentence],
                   role_weights: dict[Role, float] | None = None) -> str:
    """Line-oriented debug dump: entities with roles, projection edges, score."""
    lines: list[str] = []
    for index, sentence in enumerate(sentences):
        for entity in extract_entities(sentence, index):
            lines.append(f"entity s{index} {entity.surface!r} {entity.role.value}")
    graph = build_bipartite(sentences, role_weights)
    projection = project(graph)
    for i, j, weight in projection.directed_edges:
        lines.append(f"edge s{i} -> s{j} weight={weight:g}")
    lines.append(f"score {relatedness_score(projection):g}")
    return "\n".join(lines)
