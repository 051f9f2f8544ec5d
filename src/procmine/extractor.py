"""Turn procedure-labeled chunks into serializable procedure objects.

Each procedure-labeled chunk yields exactly one procedure: its goal is
the chunk's (see `chunker`), and its items become steps in document order
with actionable/conditional flags. A step whose node dominates another
procedure-labeled chunk links to it through childProcedureId; otherwise
each non-procedure list chunk directly below the step is folded in as
sub-steps carrying parentStepId.

Folding uses an explicit stack, so any nesting depth works: steps come in
preorder (a step, then its folded sub-steps, then its next sibling), are
numbered s1, s2, ... in that order, and each reads its flags off its
item's annotation: its own chunk's, or the folded list chunk's.

Every link resolves by construction: a sub-step's parentStepId names the
step popped just before its own entry was pushed, so that step is already
in the list, and a childProcedureId is read from the sequence ids of the
procedure-labeled chunks, each of which yields a procedure.
"""

from __future__ import annotations

from json.encoder import encode_basestring
from typing import NamedTuple

from .annotate import ChunkAnnotation
from .chunker import ChunkKind, ChunkSet
from .classifier import ChunkPrediction
from .docmodel import DocTree

_JSON_BOOLS = {True: "true", False: "false"}


class Step(NamedTuple):
    step_id: str
    text: str
    actionable: bool
    conditional: bool
    parent_step_id: str | None = None
    child_procedure_id: str | None = None


class Procedure(NamedTuple):
    sequence_id: str
    goal: str
    step_list: tuple[Step, ...]


def extract(predictions: list[ChunkPrediction], chunks: ChunkSet,
            tree: DocTree,
            annotations: dict[int, ChunkAnnotation]) -> list[Procedure]:
    """One procedure per procedure-labeled chunk, sequence ids in document
    order ("seq-1", "seq-2", ...)."""
    child_chunks, chunk_of, nodes = chunks.child_chunks, chunks.chunks, tree.nodes
    labels = {p.chunk_id: p.label for p in predictions}
    procedure_chunks = sorted(  # node ids are preorder: document order
        (cid for cid, label in labels.items() if label),
        key=lambda cid: chunk_of[cid].item_node_ids[0])
    sequence_ids = {cid: f"seq-{i}" for i, cid in enumerate(procedure_chunks, 1)}

    procedures: list[Procedure] = []
    for chunk_id in procedure_chunks:
        steps: list[Step] = []
        stack = [(item, None) for item in reversed(annotations[chunk_id].items)]
        while stack:
            item, parent_step = stack.pop()
            node_id = item.node_id
            step_id = f"s{len(steps) + 1}"
            link = None
            below = child_chunks.get(node_id)
            if below:
                for child_id in below:
                    if labels.get(child_id):
                        link = sequence_ids[child_id]
                        break
                else:
                    # no chunk below is a procedure: its list chunks become
                    # sub-steps (a linked step's nested content lives in its
                    # own procedure)
                    folded = [(sub_item, step_id) for child_id in below
                              if chunk_of[child_id].kind is ChunkKind.LIST
                              for sub_item in annotations[child_id].items]
                    stack.extend(reversed(folded))
            steps.append(Step(step_id, nodes[node_id].text, item.actionable,
                              item.conditional, parent_step, link))
        procedures.append(Procedure(sequence_ids[chunk_id],
                                    chunk_of[chunk_id].goal, tuple(steps)))
    return procedures


def serialize(procedures: list[Procedure]) -> bytes:
    """Deterministic UTF-8 JSON: fixed key order, 2-space indent, LF line
    endings, optional fields omitted when absent.

    The bytes of `json.dumps(payload, indent=2, ensure_ascii=False)` and a
    newline, written directly: `json` serves any indent from its pure-Python
    encoder. Strings are quoted by the function that encoder uses."""
    quote = encode_basestring
    entries = []
    for procedure in procedures:
        steps = []
        for step in procedure.step_list:
            fields = [f'"stepId": {quote(step.step_id)}',
                      f'"text": {quote(step.text)}',
                      f'"actionable": {_JSON_BOOLS[step.actionable]}',
                      f'"conditional": {_JSON_BOOLS[step.conditional]}']
            if step.parent_step_id is not None:
                fields.append(f'"parentStepId": {quote(step.parent_step_id)}')
            if step.child_procedure_id is not None:
                fields.append(
                    f'"childProcedureId": {quote(step.child_procedure_id)}')
            steps.append("      {\n        " + ",\n        ".join(fields)
                         + "\n      }")
        step_list = ("[\n" + ",\n".join(steps) + "\n    ]") if steps else "[]"
        entries.append(f'  {{\n    "sequenceId": {quote(procedure.sequence_id)},'
                       f'\n    "goal": {quote(procedure.goal)},'
                       f'\n    "stepList": {step_list}\n  }}')
    text = ("[\n" + ",\n".join(entries) + "\n]") if entries else "[]"
    return (text + "\n").encode("utf-8")
