import csv
import itertools
import math
import random
import time
import tracemalloc
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from procmine import pipeline, relatedness
from procmine.lingua import Tagger
from procmine.relatedness import (ROLE_WEIGHTS, VECTOR_MIN_MENTION_PAIRS,
                                  BipartiteGraph, ProjectionGraph,
                                  build_bipartite, chunk_relatedness,
                                  describe_graph, extract_entities, project,
                                  project_blocks, relatedness_score,
                                  streamed_score)

from conftest import mention_pairs

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


@pytest.fixture(scope="module")
def tagger():
    return Tagger()


@pytest.fixture(scope="module")
def corpus_chunk(tagger):
    """2,000 corpus sentences in one chunk: shuffled copies of the labeled
    actionable sentences."""
    with (CORPUS / "actionable_sentences.csv").open(newline="") as handle:
        texts = [row["text"] for row in csv.DictReader(handle)]
    rng = random.Random(3)
    chunk = []
    while len(chunk) < 2000:
        copy = texts[:]
        rng.shuffle(copy)
        chunk += copy
    return [tagger.tag(text) for text in chunk[:2000]]


def brute_force_score(graph: BipartiteGraph) -> float:
    """Independent oracle: triple loop over sentence pairs and entity keys."""
    if graph.sentence_count <= 1:
        return 0.0
    entities = sorted({e for _, e, _ in graph.edges})
    weight = {(i, e): w for i, e, w in graph.edges}
    total = 0.0
    for i in range(graph.sentence_count):
        for j in range(graph.sentence_count):
            if i >= j:
                continue
            pair = 0.0
            for entity in entities:
                wi = weight.get((i, entity))
                wj = weight.get((j, entity))
                if wi is not None and wj is not None:
                    pair += wi * wj
            total += pair / (j - i)
    return total / graph.sentence_count


def random_graph(rng: random.Random) -> BipartiteGraph:
    n = rng.randint(1, 6)
    entity_pool = [f"e{k}" for k in range(rng.randint(1, 8))]
    edges = []
    for i in range(n):
        for entity in rng.sample(entity_pool, rng.randint(0, len(entity_pool))):
            edges.append((i, entity, float(rng.choice((3, 2, 1)))))
    return BipartiteGraph(sentence_count=n, edges=tuple(edges))


# Weight triples for `varied_graph`: the role weights, then zeros,
# negatives (products of -0.0 and 0.0 included) and fractions that round.
# `project` takes them all; `project_blocks` only the first.
ROLE_WEIGHT_SET = tuple(ROLE_WEIGHTS.values())
SUBJECT, OBJECT, OTHER = ROLE_WEIGHT_SET
WEIGHT_SETS = (ROLE_WEIGHT_SET, (0.0, -1.0, 2.5), (-0.0, 0.0, -3.0),
               (0.1, 0.2, 0.7), (-1.5, 1e-3, 7.0))


def varied_graph(rng: random.Random, weights=None) -> BipartiteGraph:
    """Up to 12 sentences over up to 10 entities, weighted from `weights`
    (by default a random one of `WEIGHT_SETS`); an entity appears in a
    sentence at most once and sentences come in increasing order, as
    `build_bipartite` makes them."""
    n = rng.randint(1, 12)
    pool = [f"e{k}" for k in range(rng.randint(1, 10))]
    weights = weights or rng.choice(WEIGHT_SETS)
    edges = []
    for i in range(n):
        for entity in rng.sample(pool, rng.randint(0, len(pool))):
            edges.append((i, entity, rng.choice(weights)))
    return BipartiteGraph(sentence_count=n, edges=tuple(edges))


def sentences_with_mention_pairs(tagger, target: int):
    """Tagged sentences whose graph has exactly `target` mention pairs:
    the i-th noun is named in the first c_i sentences, with the c_i taken
    greedily so that the c_i * (c_i - 1) / 2 sum to `target`."""
    nouns = ("console", "server", "adapter", "switch", "network", "cluster",
             "printer", "backup")
    counts = []
    left = target
    while left:
        c = 2
        while (c + 1) * c // 2 <= left:
            c += 1
        counts.append(c)
        left -= c * (c - 1) // 2
    assert len(counts) <= len(nouns)
    return [tagger.tag("Check the " + " and the ".join(
                nouns[k] for k, c in enumerate(counts) if c > i) + ".")
            for i in range(max(counts))]


def mentions(graph: BipartiteGraph) -> dict[str, list[int]]:
    """Entity -> the sentences that mention it, in edge order."""
    by_entity: dict[str, list[int]] = {}
    for index, entity, _ in graph.edges:
        by_entity.setdefault(entity, []).append(index)
    return by_entity


def row_pairs(graph: BipartiteGraph) -> Counter:
    """Sentence i -> the mention pairs (i, j > i) it starts."""
    rows: Counter = Counter()
    for sentences in mentions(graph).values():
        for rank, i in enumerate(sentences):
            rows[i] += len(sentences) - 1 - rank
    return rows


def blocks_of(graph: BipartiteGraph) -> list:
    """`project_blocks` of the graph's grouped mentions."""
    return list(project_blocks(relatedness._graph_mentions(graph),
                               graph.sentence_count))


def streamed(graph: BipartiteGraph) -> float:
    """`streamed_score` of the graph's grouped mentions."""
    return streamed_score(relatedness._graph_mentions(graph),
                          graph.sentence_count)


def concatenated_blocks(graph: BipartiteGraph):
    """`project_blocks` joined: its edges as `project`'s tuples, and the
    bytes of its weights."""
    blocks = blocks_of(graph)
    edges = [edge for i, j, weights in blocks
             for edge in zip(i.tolist(), j.tolist(), weights.tolist())]
    return edges, b"".join(weights.tobytes() for _, _, weights in blocks)


def left_to_right(weights) -> float:
    total = 0.0
    for weight in weights:
        total += weight
    return total


class TestExtractEntities:
    def test_declarative_subject_object(self, tagger):
        entities = extract_entities(tagger.tag("The administrator opens the console."))
        assert dict(entities) == {"administrator": SUBJECT, "console": OBJECT}

    def test_imperative_first_post_verb_is_object(self, tagger):
        entities = extract_entities(tagger.tag("Click Start."))
        assert entities == [("start", OBJECT)]

    def test_pronoun_only_sentence_has_no_entities(self, tagger):
        assert extract_entities(tagger.tag("Restart it.")) == []

    def test_preposition_governed_is_other(self, tagger):
        entities = extract_entities(
            tagger.tag("The administrator logs into the console."))
        assert dict(entities)["console"] == OTHER

    def test_second_object_is_other(self, tagger):
        entities = extract_entities(
            tagger.tag("The installer copies the files to the disk."))
        assert dict(entities) == {"installer": SUBJECT, "files": OBJECT,
                                  "disk": OTHER}

    def test_imperative_has_no_subject(self, tagger):
        entities = extract_entities(tagger.tag("Restart the server."))
        assert entities and all(weight != SUBJECT for _, weight in entities)

    def test_adjective_modifiers_join_run(self, tagger):
        entities = extract_entities(tagger.tag("Open the main console."))
        assert entities[0][0] == "main console"


class TestBuildBipartite:
    def test_repeat_mention_keeps_max_weight(self, tagger):
        sentence = tagger.tag("The console connects to the console.")
        graph = build_bipartite([sentence])
        assert graph.edges == ((0, "console", 3.0),)

    def test_no_shared_entities_still_has_edges(self, tagger):
        graph = build_bipartite([tagger.tag("The server starts."),
                                 tagger.tag("The printer stops.")])
        assert len(graph.edges) == 2
        entities = {e for _, e, _ in graph.edges}
        assert entities == {"server", "printer"}

    def test_worked_example_has_six_edges(self, tagger):
        sentences = [
            tagger.tag("The administrator opens the console."),
            tagger.tag("The administrator checks the network-tab."),
            tagger.tag("The console shows the network-tab."),
        ]
        graph = build_bipartite(sentences)
        assert len(graph.edges) == 6
        weights = {(i, e): w for i, e, w in graph.edges}
        assert weights[(0, "administrator")] == 3.0
        assert weights[(0, "console")] == 2.0
        assert weights[(1, "administrator")] == 3.0
        assert weights[(1, "network-tab")] == 2.0
        assert weights[(2, "console")] == 3.0
        assert weights[(2, "network-tab")] == 2.0


class TestProjection:
    def test_worked_example_edge_weights(self, tagger):
        sentences = [
            tagger.tag("The administrator opens the console."),
            tagger.tag("The administrator checks the network-tab."),
            tagger.tag("The console shows the network-tab."),
        ]
        projection = project(build_bipartite(sentences))
        weights = {(i, j): w for i, j, w in projection.directed_edges}
        assert weights == {(0, 1): 9.0, (0, 2): 3.0, (1, 2): 4.0}

    def test_single_sentence_no_edges(self, tagger):
        projection = project(build_bipartite([tagger.tag("Open the console.")]))
        assert projection.directed_edges == ()

    def test_identical_adjacent_subject_sets(self):
        # k shared subject entities at distance 1 weigh 9k
        for k in (1, 2, 3):
            edges = tuple((i, f"e{m}", 3.0) for i in (0, 1) for m in range(k))
            projection = project(BipartiteGraph(sentence_count=2, edges=edges))
            assert projection.directed_edges == ((0, 1, 9.0 * k),)

    def test_edges_equal_pair_loop_on_every_weight_set(self):
        # Each pair's products in first-mention order of the entities, from
        # 0.0, divided once by the distance: the bits `project` must give.
        rng = random.Random(11)
        for _ in range(500):
            graph = varied_graph(rng)
            by_entity = mentions(graph)
            weight = {(i, e): w for i, e, w in graph.edges}
            expected = []
            for i, j in combinations(range(graph.sentence_count), 2):
                shared = [e for e in by_entity
                          if (i, e) in weight and (j, e) in weight]
                total = 0.0
                for e in shared:
                    total += weight[(i, e)] * weight[(j, e)]
                if shared:
                    expected.append((i, j, total / (j - i)))
            edges = project(graph).directed_edges
            assert edges == tuple(expected)
            assert [math.copysign(1.0, w) for _, _, w in edges] == \
                [math.copysign(1.0, w) for _, _, w in expected]

    def test_distance_discount_exact(self):
        for d in (1, 2, 3, 4, 5):
            edges = ((0, "x", 2.0), (d, "x", 3.0))
            projection = project(BipartiteGraph(sentence_count=d + 1, edges=edges))
            assert projection.directed_edges == ((0, d, 6.0 / d),)


class TestRelatednessScore:
    def test_worked_example_score(self, tagger):
        sentences = [
            tagger.tag("The administrator opens the console."),
            tagger.tag("The administrator checks the network-tab."),
            tagger.tag("The console shows the network-tab."),
        ]
        score = chunk_relatedness(sentences)
        assert score == pytest.approx(16.0 / 3.0, abs=1e-12)

    def test_no_shared_entities_scores_zero(self, tagger):
        assert chunk_relatedness([tagger.tag("The server starts."),
                                  tagger.tag("The printer stops.")]) == 0.0

    def test_single_sentence_scores_zero(self, tagger):
        assert chunk_relatedness([tagger.tag("Open the console.")]) == 0.0

    def test_oracle_equivalence_1000_random_chunks(self):
        rng = random.Random(42)
        start = time.monotonic()
        for _ in range(1000):
            graph = random_graph(rng)
            fast = relatedness_score(project(graph))
            assert fast == pytest.approx(brute_force_score(graph), abs=1e-9)
        assert time.monotonic() - start < 5.0

    def test_total_is_left_to_right_not_compensated(self):
        # From Python 3.12 on the builtin `sum` of floats is compensated;
        # the score adds left to right, as `streamed_score` does.
        rng = random.Random(9)
        differ = 0
        for _ in range(500):
            graph = varied_graph(rng, ROLE_WEIGHT_SET)
            projection = project(graph)
            weights = [w for _, _, w in projection.directed_edges]
            if graph.sentence_count <= 1 or not weights:
                continue
            expected = left_to_right(weights) / graph.sentence_count
            assert relatedness_score(projection) == expected
            differ += math.fsum(weights) / graph.sentence_count != expected
        assert differ >= 20
        projection = ProjectionGraph(sentence_count=3, directed_edges=(
            (0, 1, 1.0), (0, 2, 1e-16), (1, 2, 1e-16)))
        assert relatedness_score(projection) == 1.0 / 3
        assert math.fsum(w for _, _, w in projection.directed_edges) / 3 != 1.0 / 3

    def test_chunk_total_is_left_to_right_not_compensated(self, tagger):
        """The dict path of `chunk_relatedness` totals its own edge weights:
        left to right, like `relatedness_score`, never compensated. Every
        chunk of four of these sentences is scored; some of them add up
        differently under `math.fsum`, the first being the chunk below."""
        texts = ("Check the disk.", "The disk stops.", "The user opens the disk.",
                 "Restart the fan.")
        differ = 0
        for combo in itertools.product(texts, repeat=4):
            chunk = [tagger.tag(text) for text in combo]
            weights = [w for _, _, w in project(build_bipartite(chunk)).directed_edges]
            expected = left_to_right(weights) / len(chunk) if weights else 0.0
            assert chunk_relatedness(chunk).hex() == expected.hex()
            differ += math.fsum(weights) / len(chunk) != expected
        assert differ >= 10, differ
        chunk = [tagger.tag(text) for text in (
            "Check the disk.", "Check the disk.", "The disk stops.", "Check the disk.")]
        weights = [w for _, _, w in project(build_bipartite(chunk)).directed_edges]
        assert left_to_right(weights) == 22.333333333333336 != math.fsum(weights)
        assert chunk_relatedness(chunk) == 22.333333333333336 / 4

    def test_adding_shared_entity_never_decreases_score(self):
        rng = random.Random(7)
        for _ in range(100):
            graph = random_graph(rng)
            if graph.sentence_count < 2:
                continue
            base = relatedness_score(project(graph))
            i, j = sorted(rng.sample(range(graph.sentence_count), 2))
            existing = {e for _, e, _ in graph.edges}
            fresh = "brand-new-entity"
            assert fresh not in existing
            grown = BipartiteGraph(
                sentence_count=graph.sentence_count,
                edges=graph.edges + ((i, fresh, 1.0), (j, fresh, 1.0)))
            assert relatedness_score(project(grown)) >= base


class TestShortChunks:
    """A chunk of at most one sentence scores 0.0 without a graph; every
    chunk still scores what the graph path gives, bit for bit."""

    ONE_SENTENCE_TEXTS = ("", "Open the console.",
                          "The server sends the server log to the server.",
                          "The administrator opens the console and the console log.")

    def test_corpus_chunks_equal_the_graph_path(self):
        docs = sorted((CORPUS / "docs").glob("*.md")) + [
            CORPUS / "nested-fixture.md"]
        sizes = Counter()
        for path in docs:
            run = pipeline.analyze(pipeline.load_document(path), None)
            for annotation in run.annotations.values():
                sentences = [s.tagged for item in annotation.items
                             for s in item.sentences]
                sizes[min(len(sentences), 2)] += 1
                expected = relatedness_score(project(build_bipartite(sentences)))
                assert chunk_relatedness(sentences).hex() == expected.hex()
                assert annotation.relatedness.hex() == expected.hex()
        assert sizes[1] and sizes[2], sizes

    @pytest.mark.parametrize("text", ONE_SENTENCE_TEXTS)
    def test_zero_and_one_sentence_equal_the_graph_path(self, tagger, text):
        for sentences in ([], [tagger.tag(text)]):
            expected = relatedness_score(project(build_bipartite(sentences)))
            assert chunk_relatedness(sentences).hex() == expected.hex() == \
                (0.0).hex()

    def test_no_entities_extracted_below_two_sentences(self, tagger,
                                                       monkeypatch):
        calls = []
        walk = relatedness.extract_entities

        def counting(sentence):
            calls.append(sentence)
            return walk(sentence)
        monkeypatch.setattr(relatedness, "extract_entities", counting)
        one = [tagger.tag(self.ONE_SENTENCE_TEXTS[2])]
        assert chunk_relatedness([]) == chunk_relatedness(one) == 0.0
        assert calls == []
        assert chunk_relatedness(one * 2) > 0.0
        assert len(calls) == 2  # one walk per sentence


class TestNoRepeatedEntity:
    """A chunk where no entity has two mentions scores 0.0 without a
    projection; one where some entity has scores what the graph path
    gives."""

    @pytest.fixture
    def projections(self, monkeypatch):
        calls = []
        for name in ("_pair_sums", "streamed_score"):
            def counting(*args, name=name, real=getattr(relatedness, name)):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(relatedness, name, counting)
        return calls

    @pytest.mark.parametrize("vector_min", [0, VECTOR_MIN_MENTION_PAIRS])
    def test_no_projection_without_a_repeat(self, tagger, monkeypatch,
                                            projections, vector_min):
        monkeypatch.setattr(relatedness, "VECTOR_MIN_MENTION_PAIRS", vector_min)
        chunks = ([tagger.tag("The server starts."), tagger.tag("The printer stops.")],
                  # one entity twice in one sentence is one mention
                  [tagger.tag("The server sends the server log to the server."),
                   tagger.tag("Restart it."), tagger.tag("")])
        for chunk in chunks:
            assert chunk_relatedness(chunk) == 0.0
            assert mention_pairs(build_bipartite(chunk)) == 0
        assert projections == []
        chunk = [tagger.tag("Restart the server."), tagger.tag("The server stops.")]
        expected = relatedness_score(project(build_bipartite(chunk)))
        assert expected > 0.0
        projections.clear()  # the oracle's own pair loop
        assert chunk_relatedness(chunk).hex() == expected.hex()
        assert projections == ["streamed_score" if vector_min == 0
                               else "_pair_sums"]

    def test_grouping_counts_the_mention_pairs(self):
        rng = random.Random(12)
        for _ in range(300):
            graph = varied_graph(rng)
            _, pairs = relatedness._group(
                (index, ((entity, weight),)) for index, entity, weight in graph.edges)
            assert pairs == mention_pairs(graph)


class TestVectorProjection:
    """`project_blocks` against `project`, the oracle: equal to the bit."""

    def test_weights_equal_project_on_1000_random_graphs(self):
        rng = random.Random(5)
        seen = {"shared 2+": 0, "one sentence": 0, "nothing shared": 0}
        for _ in range(1000):
            graph = varied_graph(rng, ROLE_WEIGHT_SET)
            expected = project(graph).directed_edges
            edges, weight_bytes = concatenated_blocks(graph)
            assert edges == list(expected)
            # == treats -0.0 and 0.0 as equal: compare the bits too.
            assert weight_bytes == np.array([w for _, _, w in expected],
                                            dtype=float).tobytes()
            assert streamed(graph) == relatedness_score(project(graph))
            shared = Counter(pair for sentences in mentions(graph).values()
                             for pair in combinations(sentences, 2))
            seen["shared 2+"] += any(c >= 2 for c in shared.values())
            seen["one sentence"] += graph.sentence_count == 1
            seen["nothing shared"] += not shared
        assert all(count >= 20 for count in seen.values()), seen

    def test_other_weights_raise_value_error(self):
        rng = random.Random(6)
        raised = 0
        for _ in range(200):
            weights = rng.choice(WEIGHT_SETS[1:])
            graph = varied_graph(rng, weights)
            if not graph.edges:
                assert blocks_of(graph) == []
                continue
            with pytest.raises(ValueError, match="ROLE_WEIGHTS"):
                blocks_of(graph)
            raised += 1
        assert raised >= 100
        # One stray weight among role weights is enough, whether it is
        # paired or not.
        graph = BipartiteGraph(sentence_count=3, edges=(
            (0, "x", 3.0), (1, "x", 2.0), (2, "x", 1.0), (2, "y", 2.5)))
        with pytest.raises(ValueError, match="ROLE_WEIGHTS"):
            streamed(graph)
        for stray in (math.nan, 0.0, -1.0, 3.5):
            for edges in (((1, "x", stray), (1, "y", 2.0)),
                          ((1, "x", 2.0), (1, "z", stray))):
                graph = BipartiteGraph(sentence_count=3, edges=(
                    (0, "x", 3.0), (0, "y", 1.0), *edges,
                    (2, "x", 1.0), (2, "y", 3.0)))
                with pytest.raises(ValueError, match="ROLE_WEIGHTS"):
                    blocks_of(graph)
                with pytest.raises(ValueError, match="ROLE_WEIGHTS"):
                    streamed(graph)

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_block_bounds_keep_project_bits(self, monkeypatch, block):
        monkeypatch.setattr(relatedness, "_BLOCK_PAIRS", block)
        rng = random.Random(block)
        seen = {"row over a block": 0, "rows sharing a block": 0}
        for _ in range(300):
            graph = varied_graph(rng, ROLE_WEIGHT_SET)
            expected = project(graph).directed_edges
            edges, weight_bytes = concatenated_blocks(graph)
            assert edges == list(expected)
            assert weight_bytes == np.array([w for _, _, w in expected],
                                            dtype=float).tobytes()
            # No row is split: each block starts past the last one's rows.
            block_rows = [i.tolist() for i, _, _ in blocks_of(graph)]
            assert all(a[-1] < b[0] for a, b in zip(block_rows, block_rows[1:]))
            assert streamed(graph) == relatedness_score(project(graph))
            rows = row_pairs(graph)
            seen["row over a block"] += any(c > block for c in rows.values())
            seen["rows sharing a block"] += any(len(set(i)) > 1 for i in block_rows)
        # A block of one pair has room for one row with pairs.
        assert seen["row over a block"] >= 20, seen
        assert block == 1 or seen["rows sharing a block"] >= 20, seen

    @pytest.mark.parametrize("block", [1, relatedness._BLOCK_PAIRS])
    def test_rows_out_of_first_mention_order(self, monkeypatch, block):
        # The grouping lists "a" before "b"; sentence 1 lists "b" first.
        monkeypatch.setattr(relatedness, "_BLOCK_PAIRS", block)
        graph = BipartiteGraph(sentence_count=3, edges=(
            (0, "a", 3.0), (0, "b", 2.0), (1, "b", 1.0), (1, "a", 2.0),
            (2, "a", 1.0), (2, "b", 3.0)))
        assert list(relatedness._graph_mentions(graph)) == ["a", "b"]
        expected = project(graph).directed_edges
        assert expected == ((0, 1, 8.0), (0, 2, 4.5), (1, 2, 5.0))
        edges, weight_bytes = concatenated_blocks(graph)
        assert edges == list(expected)
        assert weight_bytes == np.array([w for _, _, w in expected],
                                        dtype=float).tobytes()
        assert streamed(graph) == relatedness_score(project(graph))

    @pytest.mark.parametrize("pairs", [VECTOR_MIN_MENTION_PAIRS - 1,
                                       VECTOR_MIN_MENTION_PAIRS])
    def test_score_equal_below_and_at_the_constant(self, tagger, monkeypatch,
                                                   pairs):
        sentences = sentences_with_mention_pairs(tagger, pairs)
        graph = build_bipartite(sentences)
        assert mention_pairs(graph) == pairs
        oracle = relatedness_score(project(graph))
        assert oracle > 0
        assert chunk_relatedness(sentences) == oracle
        # The same chunk through the other path.
        other = 0 if pairs < VECTOR_MIN_MENTION_PAIRS else pairs + 1
        monkeypatch.setattr(relatedness, "VECTOR_MIN_MENTION_PAIRS", other)
        assert chunk_relatedness(sentences) == oracle

    @pytest.mark.parametrize("sentence_count",
                             [(1 << 13) - 1, 1 << 13, (1 << 14) - 1],
                             ids=["int32-keys", "int64-keys",
                                  "int64-keys-past-2^31"])
    def test_projection_at_the_key_width_boundary(self, sentence_count):
        """A chunk of 8,191 sentences is projected with 32-bit keys and one
        of 8,192 with 64-bit ones; one of 16,383 has keys from 2^31 up,
        which a 32-bit key would wrap. The groupings are built by hand,
        with pairs of product 3 x 3 at the largest distance and at the last
        row, whose keys are the largest, and enough others for several
        blocks."""
        last = sentence_count - 1
        rng = random.Random(sentence_count)
        by_entity = {"far": [(0, SUBJECT), (last, SUBJECT)],
                     "tail": [(last - 1, SUBJECT), (last, SUBJECT)]}
        for k in range(400):
            sentences = sorted(rng.sample(range(sentence_count), 12))
            by_entity[f"e{k}"] = [(i, rng.choice(ROLE_WEIGHT_SET))
                                  for i in sentences]
        by_entity["spread"] = [(i, rng.choice(ROLE_WEIGHT_SET))
                               for i in range(0, sentence_count, 97)]
        expected = relatedness._projection(by_entity, sentence_count)
        assert (0, last, 9.0 / last) in expected.directed_edges
        assert expected.directed_edges[-1] == (last - 1, last, 9.0)
        blocks = list(project_blocks(by_entity, sentence_count))
        assert len(blocks) > 1
        edges = [edge for i, j, weights in blocks
                 for edge in zip(i.tolist(), j.tolist(), weights.tolist())]
        assert edges == list(expected.directed_edges)
        assert streamed_score(by_entity, sentence_count).hex() == \
            relatedness_score(expected).hex()

    @pytest.mark.parametrize("block", [1, relatedness._BLOCK_PAIRS])
    @pytest.mark.parametrize("sentence_count", [(1 << 13) - 1, 1 << 13],
                             ids=["int32-keys", "int64-keys"])
    def test_repeated_pairs_keep_their_sums(self, monkeypatch, block,
                                            sentence_count):
        """Runs of one pair in the sorted keys, summed from the running sum
        of their products: the first row's 300 pairs with the last sentence
        are one run of 3 x 3 products (2,700); each of the next rows has 4
        pairs with its successor, one run, and they fill the first block of
        `_BLOCK_PAIRS` pairs to its end; a lone row has one pair, a whole
        block when a block holds one pair."""
        monkeypatch.setattr(relatedness, "_BLOCK_PAIRS", block)
        last = sentence_count - 1
        rng = random.Random(sentence_count)
        by_entity = {f"s{k}": [(0, SUBJECT), (last, SUBJECT)] for k in range(300)}
        rows = (relatedness._BLOCK_PAIRS - 300) // 4 if block > 1 else 40
        for r in range(1, rows + 1):
            for k in range(4):
                by_entity[f"r{r}-{k}"] = [(r, rng.choice(ROLE_WEIGHT_SET)),
                                          (r + 1, rng.choice(ROLE_WEIGHT_SET))]
        lone = rows + 5
        by_entity["lone"] = [(lone, OBJECT), (lone + 7, OTHER)]
        for k in range(200):
            sentences = sorted(rng.sample(range(lone + 8, last), 12))
            by_entity[f"e{k}"] = [(i, rng.choice(ROLE_WEIGHT_SET))
                                  for i in sentences]
        expected = relatedness._projection(by_entity, sentence_count)
        assert (0, last, 2700 / last) in expected.directed_edges
        blocks = list(project_blocks(by_entity, sentence_count))
        edges = [edge for i, j, weights in blocks
                 for edge in zip(i.tolist(), j.tolist(), weights.tolist())]
        assert edges == list(expected.directed_edges)
        assert b"".join(weights.tobytes() for _, _, weights in blocks) == \
            np.array([w for _, _, w in expected.directed_edges]).tobytes()
        assert streamed_score(by_entity, sentence_count).hex() == \
            relatedness_score(expected).hex()
        ends = [(i[-1], j[-1]) for i, j, _ in blocks]
        if block > 1:
            assert 300 + 4 * rows == block
            assert ends[0] == (rows, rows + 1)
        else:
            assert (rows, rows + 1) in ends
            assert [(i.tolist(), j.tolist()) for i, j, _ in blocks].count(
                ([lone], [lone + 7])) == 1

    def test_2000_sentence_corpus_chunk(self, corpus_chunk):
        graph = build_bipartite(corpus_chunk)
        assert mention_pairs(graph) >= VECTOR_MIN_MENTION_PAIRS
        assert chunk_relatedness(corpus_chunk) == relatedness_score(project(graph))

    def test_2000_sentence_corpus_chunk_memory_grows_with_edges(self,
                                                                corpus_chunk):
        # 5,224 edges and 272,940 mention pairs. Holding every pair at once
        # took about 92 bytes a pair (25 MB) at peak; in blocks it is 2.5 MB.
        graph = build_bipartite(corpus_chunk)
        assert mention_pairs(graph) > 50 * len(graph.edges)
        chunk_relatedness(corpus_chunk)
        tracemalloc.start()
        try:
            chunk_relatedness(corpus_chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * (len(graph.edges) + relatedness._BLOCK_PAIRS)


    @pytest.mark.parametrize("vector_min", [0, 1 << 30])
    def test_each_walk_freed_once_grouped(self, tagger, monkeypatch,
                                          vector_min):
        # Either path: no more than the walk being grouped and the next
        # one are alive at once, whatever the chunk's length.
        live = [0, 0]  # walks alive now, and the most at once

        class Walk(list):
            def __init__(self, pairs):
                super().__init__(pairs)
                live[0] += 1
                live[1] = max(live)

            def __del__(self):
                live[0] -= 1
        walk = relatedness.extract_entities
        monkeypatch.setattr(relatedness, "extract_entities",
                            lambda sentence: Walk(walk(sentence)))
        monkeypatch.setattr(relatedness, "VECTOR_MIN_MENTION_PAIRS", vector_min)
        sentences = [tagger.tag("The administrator opens the console.")] * 50
        assert chunk_relatedness(sentences) > 0.0
        assert live[0] == 0 and 1 <= live[1] <= 2, live


class TestDescribeGraph:
    def test_dump_contains_entities_edges_score(self, tagger):
        sentences = [tagger.tag("The administrator opens the console."),
                     tagger.tag("The administrator checks the adapter.")]
        dump = describe_graph(sentences)
        assert "entity s0 'administrator' subject" in dump
        assert "edge s0 -> s1" in dump
        assert dump.splitlines()[-1].startswith("score ")
