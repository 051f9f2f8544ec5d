import json
import random
from pathlib import Path

import pytest

from procmine import (actionable, chunker, classifier, extractor, features,
                      lingua, pipeline)
from procmine.docmodel import DocTree, Kind, parse_sdjson

from conftest import random_sdjson, random_tree

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


@pytest.fixture(scope="module")
def models():
    return (actionable.ActionableModel.load(CORPUS / "models" / "actionable.json"),
            classifier.ProcedureClassifierModel.load(
                CORPUS / "models" / "procedure.json"))


def run_random_doc(rng, models):
    tree = parse_sdjson(json.dumps(random_sdjson(rng)))
    return pipeline.run_document(tree, models[0], models[1])


class TestPipelineProperties:
    def test_random_documents_uphold_output_invariants(self, models):
        rng = random.Random(2718)
        for _ in range(40):
            run = run_random_doc(rng, models)
            # every chunk predicted exactly once, deepest level first
            assert {p.chunk_id for p in run.predictions} == \
                set(run.chunks.chunks)
            depths = [p.depth for p in run.predictions]
            assert depths == sorted(depths, reverse=True)
            # one procedure per positive prediction
            positives = sum(p.label for p in run.predictions)
            assert len(run.procedures) == positives
            # snapshot audit holds under the bundled model
            for p in run.predictions:
                assert models[1].score(p.feature_snapshot) == p.margin
            # links resolve, sequence ids unique, serialization round-trips
            ids = [p.sequence_id for p in run.procedures]
            assert len(ids) == len(set(ids))
            payload = extractor.serialize(run.procedures)
            assert extractor.deserialize(payload) == run.procedures

    def test_same_document_twice_is_byte_identical(self, models):
        rng = random.Random(99)
        doc = json.dumps(random_sdjson(rng))
        first = pipeline.run_document(parse_sdjson(doc), *models)
        second = pipeline.run_document(parse_sdjson(doc), *models)
        assert extractor.serialize(first.procedures) == \
            extractor.serialize(second.procedures)
        assert [(p.chunk_id, p.label, p.margin) for p in first.predictions] == \
            [(p.chunk_id, p.label, p.margin) for p in second.predictions]

    def test_pipeline_without_actionable_model(self, models):
        # the actionable model is optional; detectors still drive f1/f2
        tree = pipeline.load_document(CORPUS / "nested-fixture.md")
        run = pipeline.run_document(tree, None, models[1])
        labels = {p.chunk_id: p.label for p in run.predictions}
        assert labels == {1: True, 2: True, 3: True}


class TestLinearWork:
    """Counts, not timings: per-document work that must not grow with the
    number of chunks."""

    def test_one_split_per_node_one_preorder_per_document(self, models,
                                                          monkeypatch):
        tree = random_tree(random.Random(5), max_elements=400)
        nodes = len(tree.nodes)
        assert nodes > 500
        calls = {"split": 0, "preorder": 0, "tag": 0}
        split, preorder, tag = (lingua.split_sentences, DocTree.preorder,
                                lingua.Tagger.tag)

        def counting_split(text):
            calls["split"] += 1
            return split(text)

        def counting_preorder(self, start=None):
            calls["preorder"] += 1
            return preorder(self, start)

        def counting_tag(self, text):
            calls["tag"] += 1
            return tag(self, text)

        for module in (lingua, chunker, features):  # every importing module
            monkeypatch.setattr(module, "split_sentences", counting_split)
        monkeypatch.setattr(DocTree, "preorder", counting_preorder)
        monkeypatch.setattr(lingua.Tagger, "tag", counting_tag)
        run = pipeline.run_document(tree, None, models[1])

        assert len(run.chunks) > 100
        assert calls["split"] <= nodes
        assert calls["preorder"] <= 2
        # every item sentence once, plus each heading at most once as the
        # parent of the chunks below it
        sentences = sum(len(item.sentences) for a in run.annotations.values()
                        for item in a.items)
        headings = sum(n.kind in (Kind.HEADING, Kind.TITLE)
                       for n in tree.nodes.values())
        assert calls["tag"] <= sentences + headings
