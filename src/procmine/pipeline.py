"""End-to-end wiring: document -> tree -> chunks -> annotations ->
features -> bottom-up classification -> extracted procedures.

`PipelineConfig` is the one run configuration: a flat key=value file
merged with command-line flags (flags win), whose referenced paths are
checked up front so a bad config fails before any work starts. Each
lexicon file comes from its `lexicon_dir` when that holds it and from the
bundled set otherwise. `_lexicons` is the one loader of them all, through
`lingua.lexicon_lines`, once per process per directory; the same
read-only tagger, goal cues and context lists go to every document run
that names that directory. Each document run is otherwise self-contained:
it shares no mutable state with other runs, so the CLI can run several
documents in forked worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache
from pathlib import Path

from . import chunker, classifier, extractor, features
from .actionable import ActionableModel
from .annotate import ChunkAnnotation, annotate_chunks
from .chunker import ChunkSet
from .classifier import ChunkPrediction, ProcedureClassifierModel
from .docmodel import DocTree, decode_utf8, parse_markdown, parse_sdjson
from .extractor import Procedure
from .features import ContextLexicons, FeatureVector
from .goals import GoalCueConfig
from .lingua import (LexiconError, Tagger, lexicon_file, lexicon_lines,
                     load_lexicon)

_PATH_KEYS = ("lexicon_dir", "actionable_model", "procedure_model")


class ConfigError(ValueError):
    pass


def _read_config_file(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text("utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


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
    return GoalCueConfig(gerund, tuple(prefixes) or GoalCueConfig.prefixes)


@cache
def _lexicons(lexicon_dir: Path | None
              ) -> tuple[Tagger, GoalCueConfig, ContextLexicons]:
    """The tagger, goal cues and context lexicons of a run, read once per
    process per directory and shared read-only by every run that names it.
    A bad file raises LexiconError; an unreadable one, OSError."""
    def words(name: str) -> frozenset[str]:
        return frozenset(text for _, text in
                         lexicon_lines(lexicon_file(lexicon_dir, name)))

    # Without a directory the tagger shares lingua's cached bundled lexicon.
    tagger = Tagger() if lexicon_dir is None else Tagger(load_lexicon(lexicon_dir))
    return (tagger, _goal_cues(lexicon_file(lexicon_dir, "goal_cues.txt")),
            ContextLexicons(procedural=words("context_procedural.txt"),
                            non_procedural=words("context_nonprocedural.txt")))


@dataclass
class PipelineConfig:
    lexicon_dir: Path | None = None
    actionable_model: Path | None = None
    procedure_model: Path | None = None
    seed: int | None = None

    @classmethod
    def from_sources(cls, config_path: str | Path | None,
                     overrides: dict) -> "PipelineConfig":
        """The key=value file at `config_path` (if any) with every
        non-None value of `overrides` taking precedence; a key that names
        no setting is a ConfigError."""
        values = _read_config_file(config_path) if config_path is not None else {}
        values.update((k, v) for k, v in overrides.items() if v is not None)
        unknown = [key for key in values if key not in _KEYS]
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        config = cls()
        for key in _PATH_KEYS:
            if values.get(key):
                setattr(config, key, Path(values[key]))
        if "seed" in values:
            config.seed = int(values["seed"])
        return config

    def check_paths(self) -> list[str]:
        """`key: path` for every configured path that does not exist or,
        for lexicon_dir, is not a directory."""
        problems = []
        for key in _PATH_KEYS:
            value = getattr(self, key)
            if value is None:
                continue
            if not value.exists():
                problems.append(f"{key}: {value} does not exist")
            elif key == "lexicon_dir" and not value.is_dir():
                problems.append(f"{key}: {value} is not a directory")
        return problems

    def tagger(self) -> Tagger:
        return _lexicons(self.lexicon_dir)[0]

    def goal_config(self) -> GoalCueConfig:
        return _lexicons(self.lexicon_dir)[1]

    def context_lexicons(self) -> ContextLexicons:
        return _lexicons(self.lexicon_dir)[2]


_KEYS = tuple(f.name for f in fields(PipelineConfig))


@dataclass
class DocumentRun:
    tree: DocTree
    chunks: ChunkSet
    annotations: dict[int, ChunkAnnotation]
    static_features: dict[int, FeatureVector]
    predictions: list[ChunkPrediction] = field(default_factory=list)
    procedures: list[Procedure] = field(default_factory=list)


def load_document(path: str | Path, fmt: str | None = None) -> DocTree:
    """Parse a document file; format inferred from the suffix when not given."""
    path = Path(path)
    if fmt is None:
        fmt = "sdjson" if path.suffix.lower() == ".json" else "md"
    data = path.read_bytes()
    if fmt == "sdjson":
        return parse_sdjson(data, source_name=path.name)
    if fmt == "md":
        return parse_markdown(decode_utf8(data), source_name=path.stem)
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
                       static_features=static)


def run_document(tree: DocTree, actionable_model: ActionableModel | None,
                 procedure_model: ProcedureClassifierModel,
                 config: PipelineConfig | None = None, *,
                 propagate: bool = True,
                 ablate_ids: tuple[int, ...] = ()) -> DocumentRun:
    """Full pipeline on one parsed document."""
    run = analyze(tree, actionable_model, config)
    run.predictions = classifier.classify_tree(
        run.tree, run.chunks, run.static_features, run.annotations,
        procedure_model, propagate=propagate, ablate_ids=ablate_ids)
    run.procedures = extractor.extract(run.predictions, run.chunks, run.tree,
                                       run.annotations)
    return run


def teacher_forced_features(run: DocumentRun,
                            gold: dict[int, bool]) -> dict[int, FeatureVector]:
    """Feature vectors with the propagated pair filled in from gold labels
    of dominated chunks (training-time propagation): the rule that
    `classifier.classify_tree` applies to its own labels."""
    return {chunk.id: features.update_propagated_features(
                run.annotations[chunk.id],
                features.child_flags(chunk, run.chunks, gold),
                run.static_features[chunk.id])
            for chunk in run.chunks}
