"""End-to-end wiring: document -> tree -> chunks -> annotations ->
features -> bottom-up classification -> extracted procedures.

`PipelineConfig` is the one run configuration: a flat key=value file
merged with command-line flags (flags win), whose referenced paths are
checked up front so a bad config fails before any work starts. It reads
each lexicon once and hands the same read-only tagger and lexicons to
every document run with it. Each document run is otherwise self-contained:
it shares no mutable state with other runs, and the CLI processes multiple
documents one after another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, TypeVar

from . import chunker, classifier, extractor, features
from .actionable import ActionableModel
from .annotate import ChunkAnnotation, annotate_chunks
from .chunker import ChunkSet
from .classifier import ChunkPrediction, ProcedureClassifierModel
from .docmodel import DocTree, decode_utf8, parse_markdown, parse_sdjson
from .extractor import Procedure
from .features import ContextLexicons, FeatureVector
from .goals import GoalCueConfig
from .lingua import Tagger, bundled_data_dir, load_lexicon
from .relatedness import DEFAULT_ROLE_WEIGHTS, Role

_PATH_KEYS = ("lexicon_dir", "cue_file", "context_procedural",
              "context_nonprocedural", "actionable_model", "procedure_model")
_KEYS = (*_PATH_KEYS, "role_weights", "seed")

T = TypeVar("T")


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


@dataclass
class PipelineConfig:
    lexicon_dir: Path | None = None
    cue_file: Path | None = None
    context_procedural: Path | None = None
    context_nonprocedural: Path | None = None
    actionable_model: Path | None = None
    procedure_model: Path | None = None
    role_weights: dict[Role, float] = field(
        default_factory=lambda: dict(DEFAULT_ROLE_WEIGHTS))
    seed: int | None = None
    # Lexicons read so far, not a setting: see `_once`.
    _loaded: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

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
        weights = values.get("role_weights")
        if weights:
            parts = weights.replace(",", " ").split()
            if len(parts) != 3:
                raise ConfigError(f"role_weights needs 3 numbers, got {weights!r}")
            config.role_weights = dict(zip((Role.SUBJECT, Role.OBJECT, Role.OTHER),
                                           map(float, parts)))
        if "seed" in values:
            config.seed = int(values["seed"])
        return config

    def check_paths(self) -> list[str]:
        """`key: path` for every configured path that does not exist."""
        missing = []
        for key in _PATH_KEYS:
            value = getattr(self, key)
            if value is not None and not value.exists():
                missing.append(f"{key}: {value}")
        return missing

    def _once(self, key: tuple, load: Callable[[], T]) -> T:
        """`load()` the first time this config meets `key`, the same object
        after, so a run reads each lexicon file once however many documents
        it processes. Keys hold the fields the value is read from: setting
        one of them later makes a fresh load."""
        if key not in self._loaded:
            self._loaded[key] = load()
        return self._loaded[key]

    def tagger(self) -> Tagger:
        if self.lexicon_dir is None:
            return Tagger()  # the bundled lexicon is cached by lingua
        return self._once(("tagger", self.lexicon_dir),
                          lambda: Tagger(load_lexicon(self.lexicon_dir)))

    def _lexicon_file(self, explicit: Path | None, name: str) -> Path:
        """The explicitly configured file, else `name` in lexicon_dir when it
        exists there, else the bundled `name`."""
        if explicit is not None:
            return explicit
        if self.lexicon_dir is not None and (Path(self.lexicon_dir) / name).exists():
            return Path(self.lexicon_dir) / name
        return bundled_data_dir() / name

    def goal_config(self) -> GoalCueConfig:
        return self._once(
            ("goals", self.lexicon_dir, self.cue_file),
            lambda: GoalCueConfig.load(
                self._lexicon_file(self.cue_file, "goal_cues.txt")))

    def context_lexicons(self) -> ContextLexicons:
        return self._once(
            ("context", self.lexicon_dir, self.context_procedural,
             self.context_nonprocedural),
            lambda: ContextLexicons.load(
                self._lexicon_file(self.context_procedural,
                                   "context_procedural.txt"),
                self._lexicon_file(self.context_nonprocedural,
                                   "context_nonprocedural.txt")))


# The configuration of every call that passes none, shared so that such
# callers also read each lexicon once per process.
_DEFAULT_CONFIG = PipelineConfig()


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
    config = config or _DEFAULT_CONFIG
    chunks = chunker.build_chunks(tree)
    annotations = annotate_chunks(
        tree, chunks, tagger=config.tagger(), goal_config=config.goal_config(),
        model=actionable_model, role_weights=config.role_weights)
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
    of dominated chunks (training-time propagation)."""
    out: dict[int, FeatureVector] = {}
    for chunk in run.chunks:
        child_flags = {}
        for node_id in chunk.item_node_ids:
            child_flags[node_id] = any(
                gold.get(child_id, False)
                for child_id in run.chunks.child_chunks.get(node_id, ()))
        out[chunk.id] = features.update_propagated_features(
            run.annotations[chunk.id], child_flags, run.static_features[chunk.id])
    return out
