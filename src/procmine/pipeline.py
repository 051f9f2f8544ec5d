"""End-to-end wiring: document -> tree -> chunks -> annotations ->
features -> bottom-up classification -> extracted procedures.

`PipelineConfig` is the one run configuration: the lexicon directory, or
None for the bundled set. Each lexicon file comes from that directory when
it holds it and from the bundled set otherwise. `_lexicons` is the one
loader of them all, through `lingua.lexicon_lines`, once per process per
directory; the same read-only tagger, goal cues and context lists go to
every document run that names that directory. Each document run is
otherwise self-contained: it shares no mutable state with other runs, so
the CLI can run several documents in forked worker processes.
"""

from __future__ import annotations

from functools import cache
from pathlib import Path
from typing import NamedTuple

from . import chunker, classifier, extractor, features
from .actionable import ActionableModel
from .annotate import ChunkAnnotation, annotate_chunks
from .chunker import ChunkSet
from .classifier import ChunkPrediction, ProcedureClassifierModel
from .docmodel import DocTree, SchemaError, parse_markdown, parse_sdjson
from .extractor import Procedure
from .features import ContextLexicons, FeatureVector
from .goals import GoalCueConfig
from .lingua import (LexiconError, Tagger, decode_utf8, lexicon_file,
                     lexicon_lines, load_lexicon, read_input)


def _goal_cues(path: Path) -> GoalCueConfig:
    """Goal cues from `prefix:<words>` and `gerund_opening:on|off` lines;
    without a prefix line the default prefixes stay."""
    gerund, prefixes = True, []
    for lineno, line in lexicon_lines(path):
        key, _, value = (part.strip() for part in line.partition(":"))
        if key == "prefix" and value:
            prefixes.append(value)
        elif key == "gerund_opening" and value in ("on", "off"):
            gerund = value == "on"
        else:
            raise LexiconError(f"{path}, line {lineno}: expected prefix:<word> "
                               f"or gerund_opening:on|off, got {line!r}")
    return GoalCueConfig(gerund, tuple(prefixes) or GoalCueConfig().prefixes)


@cache
def _lexicons(lexicon_dir: Path | None
              ) -> tuple[Tagger, GoalCueConfig, ContextLexicons]:
    """The tagger, goal cues and context lexicons of a run, read once per
    process per directory and shared read-only by every run that names it.
    A bad file raises LexiconError; an unreadable one, or a directory that
    is missing or is not a directory, OSError."""
    if lexicon_dir is not None and not Path(lexicon_dir).is_dir():
        raise OSError(f"{lexicon_dir} is missing or is not a directory")

    def words(name: str) -> frozenset[str]:
        return frozenset(text for _, text in
                         lexicon_lines(lexicon_file(lexicon_dir, name)))

    # Without a directory the tagger shares lingua's cached bundled lexicon.
    tagger = Tagger() if lexicon_dir is None else Tagger(load_lexicon(lexicon_dir))
    return (tagger, _goal_cues(lexicon_file(lexicon_dir, "goal_cues.txt")),
            ContextLexicons(procedural=words("context_procedural.txt"),
                            non_procedural=words("context_nonprocedural.txt")))


class PipelineConfig(NamedTuple):
    lexicon_dir: Path | None = None

    def tagger(self) -> Tagger:
        return _lexicons(self.lexicon_dir)[0]

    def goal_config(self) -> GoalCueConfig:
        return _lexicons(self.lexicon_dir)[1]

    def context_lexicons(self) -> ContextLexicons:
        return _lexicons(self.lexicon_dir)[2]


class DocumentRun(NamedTuple):
    tree: DocTree
    chunks: ChunkSet
    annotations: dict[int, ChunkAnnotation]
    static_features: dict[int, FeatureVector]
    predictions: list[ChunkPrediction]  # empty until `run_document` classifies
    procedures: list[Procedure]


def load_document(path: str | Path, fmt: str | None = None) -> DocTree:
    """Parse a document file; format inferred from the suffix when not given."""
    path = Path(path)
    if fmt is None:
        fmt = "sdjson" if path.suffix.lower() == ".json" else "md"
    data = read_input(path)
    if fmt == "sdjson":
        return parse_sdjson(data, source_name=path.name)
    if fmt == "md":
        return parse_markdown(decode_utf8(data, SchemaError), source_name=path.stem)
    raise ValueError(f"unknown format {fmt!r}")


def analyze(tree: DocTree, actionable_model: ActionableModel | None,
            config: PipelineConfig | None = None) -> DocumentRun:
    """Everything up to (but not including) classification."""
    config = config or PipelineConfig()
    chunks = chunker.build_chunks(tree)
    annotations = annotate_chunks(
        tree, chunks, tagger=config.tagger(), goal_config=config.goal_config(),
        model=actionable_model)
    lexicons = config.context_lexicons()
    static = {
        chunk.id: features.compute_static_features(chunk, tree,
                                                   annotations[chunk.id],
                                                   lexicons)
        for chunk in chunks
    }
    return DocumentRun(tree=tree, chunks=chunks, annotations=annotations,
                       static_features=static, predictions=[], procedures=[])


def run_document(tree: DocTree, actionable_model: ActionableModel | None,
                 procedure_model: ProcedureClassifierModel,
                 config: PipelineConfig | None = None, *,
                 propagate: bool = True,
                 ablate_ids: tuple[int, ...] = ()) -> DocumentRun:
    """Full pipeline on one parsed document."""
    run = analyze(tree, actionable_model, config)
    predictions = classifier.classify_tree(
        run.chunks, run.static_features, run.annotations, procedure_model,
        propagate=propagate, ablate_ids=ablate_ids)
    return run._replace(predictions=predictions, procedures=extractor.extract(
        predictions, run.chunks, run.tree, run.annotations))


class LabelMismatch(ValueError):
    """Gold labels that do not label exactly a document's chunks: the ids
    of the chunks they give no label, and of those the document lacks."""

    def __init__(self, missing: list[int], foreign: list[int]):
        super().__init__("; ".join(
            ([f"no label for chunks {missing}"] if missing else [])
            + ([f"labels chunks {foreign} that the document lacks"]
               if foreign else [])))


def teacher_forced_features(run: DocumentRun,
                            gold: dict[int, bool]) -> dict[int, FeatureVector]:
    """Feature vectors with the propagated pair filled in from gold labels
    of dominated chunks (training-time propagation): the rule that
    `classifier.classify_tree` applies to its own labels. Teacher forcing
    reads every chunk's label, so LabelMismatch unless `gold` labels
    exactly the run's chunks."""
    missing = [chunk.id for chunk in run.chunks if chunk.id not in gold]
    foreign = sorted(gold.keys() - run.chunks.chunks.keys())
    if missing or foreign:
        raise LabelMismatch(missing, foreign)
    child_chunks = run.chunks.child_chunks
    return {chunk.id: features.update_propagated_features(
                run.annotations[chunk.id], child_chunks, gold,
                run.static_features[chunk.id])
            for chunk in run.chunks}
