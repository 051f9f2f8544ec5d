import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from procmine import pipeline
from procmine.chunker import ChunkKind, build_chunks
from procmine.classifier import ProcedureClassifierModel
from procmine.docmodel import parse_markdown
from procmine.features import (FEATURE_NAMES, FeatureVector,
                               avg_sibling_distance, compute_static_features,
                               update_propagated_features)
from procmine.linear import MinMaxScaler
from procmine.lingua import split_sentences

from conftest import CORPUS_DIR, random_tree

FRACTION_FIELDS = ("n_imperatives", "n_conditionals", "n_actionables",
                   "n_effect_actionable", "n_discourse_goals",
                   "n_inferred_goal", "n_non_actionable_goals",
                   "n_associated_image")


def brute_force_sibling_distance(chunk, tree) -> float:
    """Independent oracle: for every pair of consecutive items, rebuild the
    preorder map, scan every node and split each one in between again."""
    if len(chunk.item_node_ids) < 2:
        return 0.0
    order = {node.id: i for i, node in enumerate(tree.preorder())}
    counts = []
    for a, b in zip(chunk.item_node_ids, chunk.item_node_ids[1:]):
        between = [nid for nid, pos in order.items()
                   if order[a] < pos < order[b]]
        counts.append(sum(len(split_sentences(tree.node(nid).text))
                          for nid in between))
    return sum(counts) / len(counts)


def analyze_md(text):
    tree = parse_markdown(text, source_name="doc")
    return pipeline.analyze(tree, actionable_model=None)


def chunk_of(run, kind):
    return next(c for c in run.chunks if c.kind is kind)


class TestStaticFeatures:
    def test_config_less_calls_read_the_bundled_lexicons_once(self,
                                                              monkeypatch):
        run = analyze_md("# T\nAfter setup:\n\n1. Click the icon.\n2. Type it.\n")
        chunk = chunk_of(run, ChunkKind.LIST)
        compute_static_features(chunk, run.tree, run.annotations[chunk.id])
        reads = []
        read_text = Path.read_text
        monkeypatch.setattr(Path, "read_text", lambda self, *a, **k: (
            reads.append(self.name), read_text(self, *a, **k))[1])
        for _ in range(3):
            assert compute_static_features(
                chunk, run.tree, run.annotations[chunk.id]) == \
                run.static_features[chunk.id]
        assert reads == []

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
                                             child_map,
                                             run.static_features[group.id])
        assert updated.n_inferred_goal == 1.0

    def test_leaf_chunk_stays_zero(self):
        run = self._heading_run(2)
        leaf = chunk_of(run, ChunkKind.LIST)
        child_map = {nid: False for nid in leaf.item_node_ids}
        updated = update_propagated_features(run.annotations[leaf.id],
                                             child_map,
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
        updated = update_propagated_features(annotation, child_map,
                                             run.static_features[chunk.id])
        assert updated.n_inferred_goal == 0.25
        assert updated.n_non_actionable_goals == 0.5

    def test_only_propagated_fields_change(self):
        run = self._heading_run(3)
        group = chunk_of(run, ChunkKind.HEADING_GROUP)
        base = run.static_features[group.id]
        updated = update_propagated_features(
            run.annotations[group.id],
            {nid: True for nid in group.item_node_ids}, base)
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
        raw = np.array([FeatureVector().values()])
        assert self.SCALER.transform(raw)[0].tolist() == [0.0] * len(FEATURE_NAMES)

    def test_above_maximum_clips_to_one(self):
        vector = replace(FeatureVector(), chunk_size=99.0)
        assert self.score_of(vector, "chunk_size") == 1.0

    def test_midpoint_scales_to_half(self):
        vector = replace(FeatureVector(), relatedness=1.0)
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
        assert FeatureVector.from_values(vector.values()) == vector
        assert vector.values() == tuple(float(i) for i in range(1, 16))
