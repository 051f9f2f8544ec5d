"""procmine: identify and extract procedures from structured technical documents."""

from .actionable import ActionableModel, Vocabulary, build_vocabulary, featurize
from .annotate import AnnotatedSentence, ChunkAnnotation, ItemAnnotation, annotate_chunks
from .chunker import Chunk, ChunkKind, ChunkSet, build_chunks, chunk_context, chunk_size
from .classifier import (ChunkPrediction, Metrics, ProcedureClassifierModel,
                         ablate, classify_tree, evaluate)
from .docmodel import (DocNode, DocTree, HierarchyError, Kind, SchemaError,
                       parse_markdown, parse_sdjson, validate_tree)
from .extractor import Procedure, Step, extract, serialize
from .features import (FEATURE_CATEGORIES, FEATURE_NAMES, FeatureVector,
                       compute_static_features, update_propagated_features)
from .goals import GoalAnnotation, GoalCue, GoalCueConfig, annotate_goal
from .linear import DegenerateLabels, NonFinite, TrainParams, VersionMismatch
from .lingua import (Polarity, TaggedSentence, Tagger, Tense, Voice,
                     detect_conditional, detect_imperative, profile,
                     split_sentences)
from .pipeline import PipelineConfig, analyze, load_document, run_document
from .relatedness import (BipartiteGraph, Entity, ProjectionGraph, Role,
                          build_bipartite, extract_entities, project,
                          relatedness_score)

__version__ = "0.1.0"
