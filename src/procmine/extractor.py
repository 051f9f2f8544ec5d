"""Turn procedure-labeled chunks into serializable procedure objects.

Each procedure-labeled chunk yields exactly one procedure: its items
become steps in document order with actionable/conditional flags. A step
whose node dominates another procedure-labeled chunk links to it through
childProcedureId; otherwise each non-procedure list chunk directly below
the step is folded in as sub-steps carrying parentStepId.

Folding uses an explicit stack, so any nesting depth works: steps come in
preorder (a step, then its folded sub-steps, then its next sibling), are
numbered s1, s2, ... in that order, and read their flags from one node id
-> (actionable, conditional) table built per document.

Every link resolves by construction: a sub-step's parentStepId names the
step popped just before its own entry was pushed, so that step is already
in the list, and a childProcedureId is read from the sequence ids of the
procedure-labeled chunks, each of which yields a procedure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .annotate import ChunkAnnotation
from .chunker import Chunk, ChunkKind, ChunkSet
from .classifier import ChunkPrediction
from .docmodel import DocTree, Kind


@dataclass(frozen=True)
class Step:
    step_id: str
    text: str
    actionable: bool
    conditional: bool
    parent_step_id: str | None = None
    child_procedure_id: str | None = None


@dataclass(frozen=True)
class Procedure:
    sequence_id: str
    goal: str
    step_list: tuple[Step, ...]


def _nearest_heading_text(tree: DocTree, node_id: int) -> str | None:
    current = tree.parent_of(node_id)
    while current is not None:
        node = tree.node(current)
        if node.kind is Kind.HEADING and node.text.strip():
            return node.text.strip()
        current = tree.parent_of(current)
    return None


def _goal_for(chunk: Chunk, tree: DocTree) -> str:
    context = chunk.context_text.strip()
    if context:
        return context
    heading = _nearest_heading_text(tree, chunk.item_node_ids[0])
    if heading:
        return heading
    return tree.node(tree.root).text.strip()


def extract(predictions: list[ChunkPrediction], chunks: ChunkSet,
            tree: DocTree,
            annotations: dict[int, ChunkAnnotation]) -> list[Procedure]:
    """One procedure per procedure-labeled chunk, sequence ids in document
    order ("seq-1", "seq-2", ...)."""
    labels = {p.chunk_id: p.label for p in predictions}
    procedure_chunks = sorted(  # node ids are preorder: document order
        (cid for cid, label in labels.items() if label),
        key=lambda cid: chunks.chunks[cid].item_node_ids[0])
    sequence_ids = {cid: f"seq-{i}" for i, cid in enumerate(procedure_chunks, 1)}

    flags = {item.node_id: (item.actionable, item.conditional)
             for annotation in annotations.values() for item in annotation.items}

    procedures: list[Procedure] = []
    for chunk_id in procedure_chunks:
        chunk = chunks.chunks[chunk_id]
        steps: list[Step] = []
        stack = [(node_id, None) for node_id in reversed(chunk.item_node_ids)]
        while stack:
            node_id, parent_step = stack.pop()
            below = chunks.child_chunks.get(node_id, ())
            link = next((sequence_ids[c] for c in below if labels.get(c)), None)
            actionable, conditional = flags[node_id]
            step_id = f"s{len(steps) + 1}"
            steps.append(Step(step_id=step_id, text=tree.node(node_id).text,
                              actionable=actionable, conditional=conditional,
                              parent_step_id=parent_step,
                              child_procedure_id=link))
            if link is not None:
                continue  # the nested content lives in its own procedure
            # no chunk below is a procedure: its list chunks become sub-steps
            folded = [(sub_node, step_id) for child_id in below
                      if chunks.chunks[child_id].kind is ChunkKind.LIST
                      for sub_node in chunks.chunks[child_id].item_node_ids]
            stack.extend(reversed(folded))

        procedures.append(Procedure(sequence_id=sequence_ids[chunk_id],
                                    goal=_goal_for(chunk, tree),
                                    step_list=tuple(steps)))
    return procedures


def serialize(procedures: list[Procedure]) -> bytes:
    """Deterministic UTF-8 JSON: fixed key order, 2-space indent, LF line
    endings, optional fields omitted when absent."""
    payload = []
    for procedure in procedures:
        steps = []
        for step in procedure.step_list:
            entry: dict = {
                "stepId": step.step_id,
                "text": step.text,
                "actionable": step.actionable,
                "conditional": step.conditional,
            }
            if step.parent_step_id is not None:
                entry["parentStepId"] = step.parent_step_id
            if step.child_procedure_id is not None:
                entry["childProcedureId"] = step.child_procedure_id
            steps.append(entry)
        payload.append({
            "sequenceId": procedure.sequence_id,
            "goal": procedure.goal,
            "stepList": steps,
        })
    text = json.dumps(payload, indent=2, ensure_ascii=False)
    return (text + "\n").encode("utf-8")
