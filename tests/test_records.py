"""The records built per node, sentence, item, chunk or step are immutable
NamedTuples with the field order they had as frozen dataclasses.

A frozen dataclass sets each field through `object.__setattr__`, and a
1k-node document builds thousands of these records (figures in
`procmine.annotate`). Callers may rely on `_fields`, `_replace` and `tuple()`.
"""

import pytest

from procmine.annotate import AnnotatedSentence, ChunkAnnotation, ItemAnnotation
from procmine.chunker import Chunk
from procmine.classifier import ChunkPrediction
from procmine.docmodel import DocNode, Kind
from procmine.extractor import Procedure, Step
from procmine.lingua import ConditionalSplit, TaggedSentence
from procmine.relatedness import BipartiteGraph

FIELDS = {
    DocNode: ("id", "kind", "text", "depth", "children", "level", "ordered",
              "associated_image"),
    TaggedSentence: ("text", "surfaces", "lowers", "tags", "imperative",
                     "terms"),
    ConditionalSplit: ("condition_span", "effect_span", "effect_imperative"),
    AnnotatedSentence: ("tagged", "split", "goal", "non_imperative_actionable"),
    ItemAnnotation: ("node_id", "sentences", "actionable", "conditional",
                     "is_goal", "imperative", "non_imperative_actionable",
                     "effect_imperative"),
    ChunkAnnotation: ("items", "parent_is_goal", "relatedness"),
    Chunk: ("id", "kind", "item_node_ids", "depth", "context_text",
            "parent_node_id", "intro_node_id", "goal"),
    ChunkPrediction: ("chunk_id", "depth", "label", "margin",
                      "feature_snapshot"),
    Step: ("step_id", "text", "actionable", "conditional", "parent_step_id",
           "child_procedure_id"),
    Procedure: ("sequence_id", "goal", "step_list"),
    BipartiteGraph: ("sentence_count", "edges"),
}

RECORDS = pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)


@RECORDS
def test_record_is_a_tuple_without_instance_dict(cls):
    record = cls(*range(len(FIELDS[cls])))
    assert isinstance(record, tuple)
    assert not hasattr(record, "__dict__")


@RECORDS
def test_field_order_is_kept(cls):
    assert cls._fields == FIELDS[cls]


@RECORDS
def test_fields_cannot_be_set(cls):
    record = cls(*range(len(FIELDS[cls])))
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_defaults_apply_when_built_by_keyword():
    node = DocNode(id=0, kind=Kind.TITLE, text="Guide", depth=0)
    assert (node.children, node.level, node.ordered, node.associated_image) == \
        ((), None, None, False)
    step = Step(step_id="s1", text="Open the lid.", actionable=True,
                conditional=False)
    assert (step.parent_step_id, step.child_procedure_id) == (None, None)
