import json
import random

import numpy as np
import pytest

from procmine import cli, pipeline
from procmine.actionable import ActionableModel
from procmine.chunker import ChunkKind, build_chunks, chunk_size
from procmine.classifier import ProcedureClassifierModel
from procmine.docmodel import parse_markdown, parse_sdjson
from procmine.features import (FEATURE_CATEGORIES, FEATURE_NAMES,
                               FeatureVector, avg_sibling_distance,
                               update_propagated_features)
from procmine.linear import MinMaxScaler
from procmine.lingua import split_sentences

from conftest import (CORPUS_DIR, oracle_actionable_features,
                      oracle_item_flags, oracle_unit_flags, random_sdjson,
                      random_tree)

FRACTION_FIELDS = ("n_imperatives", "n_conditionals", "n_actionables",
                   "n_effect_actionable", "n_discourse_goals",
                   "n_inferred_goal", "n_non_actionable_goals",
                   "n_associated_image")


def brute_force_sibling_distance(chunk, tree) -> float:
    """Independent oracle: for every pair of consecutive items, rebuild the
    preorder map, scan every node and split each one in between again."""
    if len(chunk.item_node_ids) < 2:
        return 0.0
    order, stack = {}, [0]
    while stack:
        node = tree.nodes[stack.pop()]
        order[node.id] = len(order)
        stack.extend(reversed(node.children))
    counts = []
    for a, b in zip(chunk.item_node_ids, chunk.item_node_ids[1:]):
        between = [nid for nid, pos in order.items()
                   if order[a] < pos < order[b]]
        counts.append(sum(len(split_sentences(tree.nodes[nid].text))
                          for nid in between))
    return sum(counts) / len(counts)


def analyze_md(text):
    tree = parse_markdown(text, source_name="doc")
    return pipeline.analyze(tree, actionable_model=None)


def chunk_of(run, kind):
    return next(c for c in run.chunks if c.kind is kind)


class TestStaticFeatures:
    def test_imperative_fraction_three_of_four(self):
        run = analyze_md("# T\n"
                         "1. Click the icon.\n"
                         "2. Type the name.\n"
                         "3. Select the option.\n"
                         "4. The system stores the result.\n")
        chunk = chunk_of(run, ChunkKind.LIST)
        assert run.static_features[chunk.id].n_imperatives == 0.75

    def test_no_conditionals_effect_fraction_zero(self):
        run = analyze_md("# T\n1. Click the icon.\n2. Type the name.\n")
        chunk = chunk_of(run, ChunkKind.LIST)
        vector = run.static_features[chunk.id]
        assert vector.n_conditionals == 0.0
        assert vector.n_effect_actionable == 0.0

    def test_effect_actionable_fraction(self):
        run = analyze_md("# T\n"
                         "1. If the light blinks, restart the router.\n"
                         "2. When the menu opens, the list appears.\n"
                         "3. Press the reset button.\n")
        chunk = chunk_of(run, ChunkKind.LIST)
        vector = run.static_features[chunk.id]
        assert vector.n_conditionals == pytest.approx(2 / 3)
        assert vector.n_effect_actionable == pytest.approx(1 / 2)

    def test_avg_sibling_distance_five(self):
        run = analyze_md(
            "# T\n"
            "## A\nOne here. Two here. Three here. Four here.\n"
            "## B\nOne here. Two here. Three here. Four here. Five here. Six here.\n"
            "## C\nTail text.\n")
        chunk = chunk_of(run, ChunkKind.HEADING_GROUP)
        assert run.static_features[chunk.id].avg_sibling_distance == 5.0

    def test_single_item_chunk_distance_zero(self):
        run = analyze_md("# T\n## Only\ntext here.\n")
        chunk = chunk_of(run, ChunkKind.HEADING_GROUP)
        assert run.static_features[chunk.id].avg_sibling_distance == 0.0

    def test_depth_and_size(self):
        run = analyze_md("# T\n## S\n1. a one.\n2. b two.\n3. c three.\n")
        chunk = chunk_of(run, ChunkKind.LIST)
        vector = run.static_features[chunk.id]
        assert vector.depth_level == 3.0  # title 0 / heading 1 / block 2 / items 3
        assert vector.chunk_size == 3.0

    def test_discourse_goal_fraction_on_heading_group(self):
        run = analyze_md("# T\n"
                         "## Creating the instance\ntext a.\n"
                         "## Reference tables\ntext b.\n")
        chunk = chunk_of(run, ChunkKind.HEADING_GROUP)
        assert run.static_features[chunk.id].n_discourse_goals == 0.5

    def test_parent_goal_flag(self):
        run = analyze_md("# Creating a Service Instance\n"
                         "1. Click the icon.\n2. Type the name.\n")
        chunk = chunk_of(run, ChunkKind.LIST)
        assert run.static_features[chunk.id].if_parent_is_goal == 1.0

    def test_context_lexicon_flags(self):
        run = analyze_md("# T\nComplete the following steps:\n\n"
                         "1. Click the icon.\n2. Type the name.\n")
        chunk = chunk_of(run, ChunkKind.LIST)
        vector = run.static_features[chunk.id]
        assert vector.context_procedural == 1.0
        assert vector.context_non_procedural == 0.0

    def test_non_procedural_context_flag(self):
        run = analyze_md("# T\nThe requirements are listed below.\n\n"
                         "- memory\n- disk space\n")
        chunk = chunk_of(run, ChunkKind.LIST)
        vector = run.static_features[chunk.id]
        assert vector.context_non_procedural == 1.0

    def test_image_fraction(self):
        run = analyze_md("# T\n1. Click here ![a](a.png)\n2. Plain item.\n")
        chunk = chunk_of(run, ChunkKind.LIST)
        assert run.static_features[chunk.id].n_associated_image == 0.5

    def test_propagated_fields_start_at_zero(self):
        run = analyze_md("# T\n## S\n1. Click the icon.\n")
        for vector in run.static_features.values():
            assert vector.n_inferred_goal == 0.0
            assert vector.n_non_actionable_goals == 0.0

    def test_multi_sentence_item_counts_once(self):
        run = analyze_md("# T\n"
                         "1. Click the icon. The dialog opens with details.\n"
                         "2. The system stores the result.\n")
        chunk = chunk_of(run, ChunkKind.LIST)
        assert run.static_features[chunk.id].n_imperatives == 0.5


CORPUS_DOCS = sorted(CORPUS_DIR.glob("docs/*.md")) + [
    CORPUS_DIR / "nested-fixture.md"]
ACTIONABLE_MODEL = ActionableModel.load(CORPUS_DIR / "models" / "actionable.json")


def with_corpus_text(doc: dict, rng: random.Random, pool: list[str]) -> dict:
    """`doc` with most paragraph and list item texts replaced by one to
    three sentences of `pool`, so that conditional and non-imperative
    sentences occur beside the generator's imperatives."""
    def retext(element):
        if rng.random() < 0.8:
            element["text"] = " ".join(rng.choices(pool, k=rng.randint(1, 3)))

    def retext_items(items):
        for item in items:
            retext(item)
            if "sublist" in item:
                retext_items(item["sublist"]["items"])
    for element in doc["elements"]:
        if element["type"] == "paragraph":
            retext(element)
        elif element["type"] == "list":
            retext_items(element["items"])
    return doc


# What each flag oracle run must meet enough times, so that no flag is
# compared only where it is False.
SEEN_KINDS = ("conditional", "effect imperative", "non-imperative actionable",
              "multi-sentence list item", "paragraph chunk")


class TestFlagOracle:
    """The item flags and features 1-4, worked out once per item, against
    the `any()` passes and fractions they replaced (`conftest`), the
    features bit for bit. The bundled actionable model is loaded so that
    non-imperative actionable sentences occur."""

    def check(self, run: pipeline.DocumentRun, seen: dict[str, int]) -> None:
        for chunk in run.chunks:
            items = run.annotations[chunk.id].items
            paragraphs = chunk.kind is ChunkKind.PARAGRAPH_GROUP
            for item in items:
                flags = (item.actionable, item.conditional, item.is_goal,
                         item.imperative, item.non_imperative_actionable,
                         item.effect_imperative)
                assert all(type(flag) is bool for flag in flags)
                assert flags[:3] == oracle_item_flags(item.sentences)
                assert (item.imperative, item.conditional,
                        item.non_imperative_actionable,
                        item.effect_imperative) == \
                    oracle_unit_flags(item.sentences)
                seen["multi-sentence list item"] += (
                    not paragraphs and len(item.sentences) > 1)
                for s in item.sentences:
                    seen["conditional"] += s.split is not None
                    seen["effect imperative"] += (
                        s.split is not None and s.split.effect_imperative)
                    seen["non-imperative actionable"] += (
                        s.non_imperative_actionable and not s.tagged.imperative)
            seen["paragraph chunk"] += paragraphs
            expected = oracle_actionable_features(
                paragraphs, items, chunk_size(chunk, run.tree))
            got = run.static_features[chunk.id][:4]
            assert [v.hex() for v in got] == [v.hex() for v in expected]

    def test_corpus_chunks(self):
        seen = dict.fromkeys(SEEN_KINDS, 0)
        for path in CORPUS_DOCS:
            self.check(pipeline.analyze(pipeline.load_document(path),
                                        ACTIONABLE_MODEL), seen)
        # The corpus's list items each hold one sentence.
        assert seen.pop("multi-sentence list item") == 0
        assert all(seen.values()), seen

    def test_random_documents(self):
        pool = [text for path in CORPUS_DOCS
                for texts in pipeline.load_document(path).sentences
                for text in texts]
        rng = random.Random(26)
        seen = dict.fromkeys(SEEN_KINDS, 0)
        for _ in range(150):
            doc = with_corpus_text(random_sdjson(rng, rng.randint(1, 20)),
                                   rng, pool)
            self.check(pipeline.analyze(parse_sdjson(json.dumps(doc)),
                                        ACTIONABLE_MODEL), seen)
        assert all(value > 20 for value in seen.values()), seen


class TestSiblingDistanceOracle:
    def test_oracle_equivalence_random_documents(self):
        rng = random.Random(12)
        multi_item = 0
        for _ in range(300):
            tree = random_tree(rng, max_elements=rng.randint(1, 30))
            for chunk in build_chunks(tree):
                multi_item += len(chunk.item_node_ids) > 1
                assert avg_sibling_distance(chunk, tree) == \
                    brute_force_sibling_distance(chunk, tree)
        assert multi_item > 500

    @pytest.mark.parametrize("path", sorted(CORPUS_DIR.glob("docs/*.md"))
                             + [CORPUS_DIR / "nested-fixture.md"],
                             ids=lambda p: p.stem)
    def test_oracle_equivalence_corpus(self, path):
        tree = pipeline.load_document(path)
        for chunk in build_chunks(tree):
            assert avg_sibling_distance(chunk, tree) == \
                brute_force_sibling_distance(chunk, tree)


def with_children(flags: dict[int, bool]):
    """(child_chunks, labels) that give each item node id in `flags` one
    chunk below it, labeled with the item's flag."""
    child_chunks = {nid: [1000 + i] for i, nid in enumerate(flags)}
    labels = {1000 + i: flag for i, flag in enumerate(flags.values())}
    return child_chunks, labels


class TestPropagatedFeatures:
    def _heading_run(self, n=8):
        lines = ["# T"]
        for i in range(1, n + 1):
            lines += [f"## Step {i}", f"1. Click the item {i}.", f"2. Type the value {i}."]
        return analyze_md("\n".join(lines))

    def test_all_items_with_procedure_children(self):
        run = self._heading_run(8)
        group = chunk_of(run, ChunkKind.HEADING_GROUP)
        child_map = {nid: True for nid in group.item_node_ids}
        updated = update_propagated_features(run.annotations[group.id],
                                             *with_children(child_map),
                                             run.static_features[group.id])
        assert updated.n_inferred_goal == 1.0

    def test_leaf_chunk_stays_zero(self):
        run = self._heading_run(2)
        leaf = chunk_of(run, ChunkKind.LIST)
        child_map = {nid: False for nid in leaf.item_node_ids}
        updated = update_propagated_features(run.annotations[leaf.id],
                                             *with_children(child_map),
                                             run.static_features[leaf.id])
        assert updated.n_inferred_goal == 0.0
        assert updated.n_non_actionable_goals == 0.0

    def test_non_actionable_goal_fraction(self):
        run = analyze_md("# T\n"
                         "1. Click the icon.\n"
                         "2. Type the name.\n"
                         "3. The overview of the product.\n"
                         "4. The description of the module.\n")
        chunk = chunk_of(run, ChunkKind.LIST)
        annotation = run.annotations[chunk.id]
        actionables = [item.actionable for item in annotation.items]
        assert actionables == [True, True, False, False]
        ids = chunk.item_node_ids
        child_map = {ids[0]: False, ids[1]: False, ids[2]: True, ids[3]: False}
        updated = update_propagated_features(annotation,
                                             *with_children(child_map),
                                             run.static_features[chunk.id])
        assert updated.n_inferred_goal == 0.25
        assert updated.n_non_actionable_goals == 0.5

    def test_only_propagated_fields_change(self):
        run = self._heading_run(3)
        group = chunk_of(run, ChunkKind.HEADING_GROUP)
        base = run.static_features[group.id]
        updated = update_propagated_features(
            run.annotations[group.id],
            *with_children({nid: True for nid in group.item_node_ids}), base)
        for name in FEATURE_NAMES:
            if name in ("n_inferred_goal", "n_non_actionable_goals"):
                continue
            assert getattr(updated, name) == getattr(base, name)


class TestScale:
    SCALER = MinMaxScaler(mins=np.zeros(len(FEATURE_NAMES)),
                          maxs=np.full(len(FEATURE_NAMES), 2.0))

    def score_of(self, vector, name):
        """The model score reads out one scaled feature: unit weight, no bias."""
        weights = np.zeros(len(FEATURE_NAMES))
        weights[FEATURE_NAMES.index(name)] = 1.0
        model = ProcedureClassifierModel(weights=weights, bias=0.0,
                                         scaler=self.SCALER)
        return model.score(vector)

    def test_training_minimum_scales_to_zero(self):
        raw = np.array([FeatureVector()])
        assert self.SCALER.transform(raw)[0].tolist() == [0.0] * len(FEATURE_NAMES)

    def test_above_maximum_clips_to_one(self):
        vector = FeatureVector()._replace(chunk_size=99.0)
        assert self.score_of(vector, "chunk_size") == 1.0

    def test_midpoint_scales_to_half(self):
        vector = FeatureVector()._replace(relatedness=1.0)
        assert self.score_of(vector, "relatedness") == 0.5

    def test_constant_feature_scales_to_zero(self):
        scaler = MinMaxScaler(mins=np.ones(3), maxs=np.ones(3))
        assert scaler.transform(np.ones((1, 3)))[0].tolist() == [0.0, 0.0, 0.0]


class TestFeatureBounds:
    def test_fuzz_fractions_in_unit_interval(self):
        rng = random.Random(2024)
        for _ in range(60):
            tree = random_tree(rng)
            run = pipeline.analyze(tree, actionable_model=None)
            for vector in run.static_features.values():
                for name in FRACTION_FIELDS:
                    value = getattr(vector, name)
                    assert 0.0 <= value <= 1.0, (name, value)
                assert vector.depth_level >= 0.0
                assert vector.chunk_size >= 1.0
                assert vector.avg_sibling_distance >= 0.0
                assert vector.relatedness >= 0.0

    def test_array_round_trip_preserves_order(self):
        vector = FeatureVector(*[float(i) for i in range(1, 16)])
        assert FeatureVector(*np.array(vector).tolist()) == vector
        assert tuple(vector) == tuple(float(i) for i in range(1, 16))
        assert [getattr(vector, name) for name in FEATURE_NAMES] == list(vector)

    def test_categories_hold_each_feature_id_once(self):
        ids = sorted(fid for ids in FEATURE_CATEGORIES.values() for fid in ids)
        assert ids == list(range(1, len(FEATURE_NAMES) + 1)) == list(range(1, 16))


CORPUS_DOCS = sorted((CORPUS_DIR / "docs").glob("*.md")) + [
    CORPUS_DIR / "nested-fixture.md"]


@pytest.mark.parametrize("path", CORPUS_DOCS, ids=lambda path: path.name)
def test_features_csv_equals_its_golden_file(path, tmp_path):
    """`procmine features` on each corpus document with the bundled
    actionable model. The golden file pins every chunk's actionable
    fraction (f3), which the actionable margins decide, and its relatedness
    (f9) to the bit."""
    out = tmp_path / "features.csv"
    assert cli.main(["features", str(path), "--actionable-model",
                     str(CORPUS_DIR / "models" / "actionable.json"),
                     "-o", str(out)]) == 0
    golden = CORPUS_DIR / "golden" / (path.stem + ".features.csv")
    assert out.read_bytes() == golden.read_bytes()
