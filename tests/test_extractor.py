import json

import numpy as np
import pytest

from procmine import pipeline
from procmine.chunker import ChunkKind
from procmine.classifier import classify_tree
from procmine.docmodel import parse_markdown
from procmine.extractor import Procedure, Step, extract, serialize
from procmine.features import FEATURE_NAMES
from procmine.linear import MinMaxScaler

from conftest import (DanglingLink, check_links, deep_list_markdown,
                      procedure_fields, procedures_json_fields)
from test_classifier import FLIP_MODEL, NESTED_DOC, hand_model

IMPERATIVE_ONLY = hand_model({"n_imperatives": 2.0}, -1.0)


def run_and_extract(markdown, model):
    tree = parse_markdown(markdown, source_name="doc")
    run = pipeline.analyze(tree, actionable_model=None)
    predictions = classify_tree(run.tree, run.chunks, run.static_features,
                                run.annotations, model)
    procedures = extract(predictions, run.chunks, run.tree, run.annotations)
    return run, predictions, procedures


class TestExtract:
    def test_heading_procedure_links_child_procedures(self):
        run, predictions, procedures = run_and_extract(NESTED_DOC, FLIP_MODEL)
        assert len(procedures) == 3
        parent = procedures[0]
        assert [s.text for s in parent.step_list] == ["Step 1", "Step 2"]
        children = [s.child_procedure_id for s in parent.step_list]
        assert children == ["seq-2", "seq-3"]
        assert {p.sequence_id for p in procedures} == {"seq-1", "seq-2", "seq-3"}

    def test_one_procedure_per_labeled_chunk(self):
        run, predictions, procedures = run_and_extract(NESTED_DOC, FLIP_MODEL)
        labeled = [p for p in predictions if p.label]
        assert len(procedures) == len(labeled)

    def test_flat_list_goal_from_context(self):
        markdown = ("# Manual\n"
                    "Complete the following steps:\n\n"
                    "1. Click the icon.\n"
                    "2. Type the value.\n")
        _, _, procedures = run_and_extract(markdown, IMPERATIVE_ONLY)
        flat = next(p for p in procedures
                    if p.goal == "Complete the following steps:")
        assert [s.parent_step_id for s in flat.step_list] == [None, None]
        assert all(s.actionable for s in flat.step_list)

    def test_nested_non_procedure_list_folds_into_substeps(self):
        markdown = ("# Manual\n"
                    "Complete the following steps:\n\n"
                    "1. Click the icon.\n"
                    "2. Choose one mode from the list\n"
                    "  - option alpha description\n"
                    "  - option beta description\n"
                    "3. Type the value.\n")
        run, predictions, procedures = run_and_extract(markdown, IMPERATIVE_ONLY)
        nested = next(c for c in run.chunks if c.kind is ChunkKind.LIST
                      and c.depth > 3)
        by_id = {p.chunk_id: p for p in predictions}
        assert by_id[nested.id].label is False  # options are not a procedure
        procedure = next(p for p in procedures
                         if p.goal == "Complete the following steps:")
        texts = [s.text for s in procedure.step_list]
        assert texts == ["Click the icon.", "Choose one mode from the list",
                         "option alpha description", "option beta description",
                         "Type the value."]
        parents = [s.parent_step_id for s in procedure.step_list]
        assert parents == [None, None, "s2", "s2", None]
        assert procedure.step_list[2].actionable is False

    def test_1100_deep_non_procedure_lists_fold_in_preorder(self):
        _, _, procedures = run_and_extract(deep_list_markdown(1100),
                                           IMPERATIVE_ONLY)
        check_links(procedures)
        assert len(procedures) == 1
        steps = procedures[0].step_list
        assert [s.step_id for s in steps] == [f"s{i}" for i in range(1, 1103)]
        assert [s.text for s in steps[2:]] == [f"option {d}" for d in range(1100)]
        assert [s.parent_step_id for s in steps] == \
            [None, None] + [f"s{i}" for i in range(2, 1102)]

    def test_goal_falls_back_to_nearest_heading(self):
        markdown = ("# Manual\n"
                    "## Creating the cluster\n"
                    "1. Click the icon.\n"
                    "2. Type the value.\n")
        _, _, procedures = run_and_extract(markdown, IMPERATIVE_ONLY)
        # the list's context is the heading text itself (parent fallback)
        assert any(p.goal == "Creating the cluster" for p in procedures)

    def test_conditional_steps_flagged(self):
        markdown = ("# Manual\n"
                    "1. If the light blinks, restart the router.\n"
                    "2. Press the reset button.\n")
        _, _, procedures = run_and_extract(markdown, IMPERATIVE_ONLY)
        steps = procedures[0].step_list
        assert steps[0].conditional is True
        assert steps[1].conditional is False

    def test_links_resolve_and_are_acyclic(self):
        _, _, procedures = run_and_extract(NESTED_DOC, FLIP_MODEL)
        ids = {p.sequence_id for p in procedures}
        for procedure in procedures:
            seen = set()
            for step in procedure.step_list:
                if step.parent_step_id is not None:
                    assert step.parent_step_id in seen
                if step.child_procedure_id is not None:
                    assert step.child_procedure_id in ids
                    assert step.child_procedure_id != procedure.sequence_id
                seen.add(step.step_id)

    def test_dangling_parent_step_raises(self):
        bad = Procedure(sequence_id="seq-1", goal="g", step_list=(
            Step(step_id="s1", text="x", actionable=True, conditional=False,
                 parent_step_id="s9"),))
        with pytest.raises(DanglingLink):
            check_links([bad])

    def test_dangling_child_procedure_raises(self):
        bad = Procedure(sequence_id="seq-1", goal="g", step_list=(
            Step(step_id="s1", text="x", actionable=True, conditional=False,
                 child_procedure_id="seq-9"),))
        with pytest.raises(DanglingLink):
            check_links([bad])


class TestSerialize:
    def test_empty_list(self):
        assert serialize([]) == b"[]\n"

    def test_single_step_omits_optional_fields(self):
        procedure = Procedure(sequence_id="seq-1", goal="Do the thing",
                              step_list=(Step(step_id="s1", text="Click.",
                                              actionable=True,
                                              conditional=False),))
        data = json.loads(serialize([procedure]))
        assert data == [{"sequenceId": "seq-1", "goal": "Do the thing",
                         "stepList": [{"stepId": "s1", "text": "Click.",
                                       "actionable": True,
                                       "conditional": False}]}]
        assert "parentStepId" not in serialize([procedure]).decode()

    def test_key_order_and_line_endings(self):
        procedure = Procedure(sequence_id="seq-1", goal="g",
                              step_list=(Step(step_id="s1", text="t",
                                              actionable=False,
                                              conditional=True,
                                              parent_step_id=None,
                                              child_procedure_id="seq-1"),))
        payload = serialize([procedure]).decode()
        assert "\r" not in payload
        assert payload.endswith("\n")
        assert payload.index('"sequenceId"') < payload.index('"goal"') \
            < payload.index('"stepList"')
        assert payload.index('"stepId"') < payload.index('"text"') \
            < payload.index('"actionable"') < payload.index('"conditional"') \
            < payload.index('"childProcedureId"')

    def test_json_carries_every_field(self):
        _, _, procedures = run_and_extract(NESTED_DOC, FLIP_MODEL)
        assert procedures_json_fields(serialize(procedures)) == \
            procedure_fields(procedures)

    def test_deterministic_bytes(self):
        first = serialize(run_and_extract(NESTED_DOC, FLIP_MODEL)[2])
        second = serialize(run_and_extract(NESTED_DOC, FLIP_MODEL)[2])
        assert first == second
