"""procmine: identify and extract procedures from structured technical documents."""

from .actionable import ActionableModel, Vocabulary, build_vocabulary
from .annotate import AnnotatedSentence, ChunkAnnotation, ItemAnnotation, annotate_chunks
from .chunker import Chunk, ChunkKind, ChunkSet, build_chunks, chunk_size
from .classifier import (ChunkPrediction, Metrics, ProcedureClassifierModel,
                         ablate, classify_tree, evaluate)
from .docmodel import (DocNode, DocTree, Kind, SchemaError, parse_markdown,
                       parse_sdjson)
from .extractor import Procedure, Step, extract, serialize
from .features import (FEATURE_CATEGORIES, FEATURE_NAMES, FeatureVector,
                       compute_static_features, update_propagated_features)
from .goals import GoalCue, GoalCueConfig, annotate_goal
from .linear import DegenerateLabels, NonFinite, TrainParams, VersionMismatch
from .lingua import (TaggedSentence, Tagger, detect_conditional, profile,
                     split_sentences)
from .pipeline import PipelineConfig, analyze, load_document, run_document
from .relatedness import (BipartiteGraph, ProjectionGraph, build_bipartite,
                          extract_entities, project, relatedness_score)

__version__ = "0.1.0"
