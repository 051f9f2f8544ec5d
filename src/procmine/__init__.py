"""procmine: identify and extract procedures from structured technical documents.

The package exports the Python API that README documents and the two
exceptions it raises: `SchemaError` for a malformed document, and
`VersionMismatch` for a model file or model values that do not fit. Every
other name lives in its module.
"""

from .actionable import ActionableModel, Vocabulary
from .annotate import AnnotatedSentence, ChunkAnnotation, ItemAnnotation
from .chunker import Chunk, ChunkSet
from .classifier import ChunkPrediction, Metrics, ProcedureClassifierModel
from .docmodel import DocNode, DocTree, SchemaError, parse_markdown, parse_sdjson
from .extractor import Procedure, Step, serialize
from .features import FeatureVector
from .goals import GoalCue, GoalCueConfig, annotate_goal
from .linear import TrainParams, VersionMismatch
from .lingua import TaggedSentence, profile
from .pipeline import PipelineConfig, analyze, load_document, run_document
from .relatedness import (BipartiteGraph, build_bipartite, chunk_relatedness,
                          extract_entities)

__version__ = "0.1.0"
