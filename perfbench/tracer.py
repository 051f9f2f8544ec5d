"""Span tracer for the traced benchmark run.

`Tracer.install` replaces procmine's public functions, at the name each
caller looks them up, with wrappers that record one span per call:
(id, parent id, name, start, end, cpu, size). Spans stay in memory until
the run writes them out. Parents come from a per-thread stack, so spans
made in the CLI's worker threads nest correctly.

`cpu` is the CPU time of the calling thread inside the span. Self times
use it rather than wall time because the CLI runs documents on a thread
pool: there a span's wall time also counts the other threads' work while
it waits for the interpreter lock.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import math
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int  # 0 for a root span
    name: str
    start: float  # wall clock, perf_counter seconds
    end: float
    cpu: float  # thread CPU seconds between start and end
    size: int | None  # nodes, chunks, procedures or bytes, by span name


def _nodes_of_arg(args, result):
    return len(args[0].nodes)


def _nodes_of_result(args, result):
    return len(result.nodes)


def _len_of_result(args, result):
    return len(result)


# (module, attribute, span name, size function). An attribute "Class.method"
# patches the method on the class. A name imported with `from x import f`
# is a separate binding, so it is patched in every importing module.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("procmine.pipeline", "load_document", "pipeline.load", None),
    ("procmine.pipeline", "run_document", "pipeline.run", _nodes_of_arg),
    ("procmine.pipeline", "analyze", "pipeline.analyze", _nodes_of_arg),
    ("procmine.pipeline", "PipelineConfig.tagger", "pipeline.config_load", None),
    ("procmine.pipeline", "PipelineConfig.goal_config", "pipeline.config_load", None),
    ("procmine.pipeline", "PipelineConfig.context_lexicons", "pipeline.config_load", None),
    ("procmine.pipeline", "parse_sdjson", "docmodel.parse", _nodes_of_result),
    ("procmine.pipeline", "parse_markdown", "docmodel.parse", _nodes_of_result),
    ("procmine.chunker", "build_chunks", "chunker.build", _len_of_result),
    ("procmine.chunker", "split_sentences", "lingua.split", None),
    ("procmine.features", "split_sentences", "lingua.split", None),
    ("procmine.lingua", "split_sentences", "lingua.split", None),
    ("procmine.lingua", "Tagger.tag", "lingua.tag", None),
    ("procmine.pipeline", "annotate_chunks", "annotate.chunks", None),
    ("procmine.annotate", "annotate_sentence_text", "annotate.sentence", None),
    ("procmine.annotate", "annotate_goal", "goals.annotate", None),
    ("procmine.annotate", "chunk_relatedness", "relatedness.chunk", None),
    ("procmine.actionable", "predict", "actionable.predict", None),
    ("procmine.actionable", "train", "actionable.train", None),
    ("procmine.linear", "fit_hinge", "linear.fit", None),
    ("procmine.features", "compute_static_features", "features.compute", None),
    ("procmine.features", "avg_sibling_distance", "features.sibling_distance", None),
    ("procmine.features", "update_propagated_features", "features.propagate", None),
    ("procmine.classifier", "update_propagated_features", "features.propagate", None),
    ("procmine.classifier", "classify_tree", "classifier.classify", None),
    ("procmine.classifier", "train", "classifier.train", None),
    ("procmine.classifier", "ablate", "classifier.ablate", None),
    ("procmine.classifier", "ablation_report", "classifier.ablation", None),
    ("procmine.extractor", "extract", "extractor.extract", _len_of_result),
    ("procmine.extractor", "serialize", "extractor.serialize", _len_of_result),
)

# Spans whose size is the node count of the document they process; stage
# spans are grouped by the nearest such ancestor to fit size exponents.
DOCUMENT_SPANS = frozenset({"doc", "pipeline.run", "pipeline.analyze",
                            "docmodel.parse"})

# Entry span of each pipeline stage, for the size exponents.
STAGES = {
    "docmodel": "docmodel.parse",
    "chunker": "chunker.build",
    "annotate": "annotate.chunks",
    "features": "features.compute",
    "classifier": "classifier.classify",
    "extractor": "extractor.extract",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def wrap(self, fn: Callable, name: str,
             size_of: Callable | None = None) -> Callable:
        spans, ids = self.spans, self._ids
        clock, cpu = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start, cpu_start = clock(), cpu()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append(Span(span_id, parent, name, start, clock(),
                                  cpu() - cpu_start, None))
                raise
            spent, end = cpu() - cpu_start, clock()
            stack.pop()
            size = size_of(args, result) if size_of is not None else None
            spans.append(Span(span_id, parent, name, start, end, spent, size))
            return result
        return traced

    def install(self) -> None:
        for module_name, attr, name, size_of in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(original, name, size_of))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's CPU time minus that of its direct children.

    Children run on their parent's thread, one after another, so their
    intervals never overlap and their sum is the part they cover."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent:
            covered[span.parent] += span.cpu
    return {span.id: span.cpu - covered[span.id] for span in spans}


class NameTotals(NamedTuple):
    calls: int
    self_s: float
    size: int


def totals_by_name(spans: list[Span]) -> dict[str, NameTotals]:
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    seconds: dict[str, float] = defaultdict(float)
    sizes: dict[str, int] = defaultdict(int)
    for span in spans:
        calls[span.name] += 1
        seconds[span.name] += own[span.id]
        sizes[span.name] += span.size or 0
    return {name: NameTotals(calls[name], seconds[name], sizes[name])
            for name in calls}


def size_exponents(spans: list[Span]) -> dict[str, float]:
    """Per stage: least-squares slope of log(stage CPU time per document)
    against log(document nodes). 1 means linear cost, 2 quadratic.

    A stage with fewer than two distinct document sizes gets no entry."""
    by_id = {span.id: span for span in spans}

    def document_of(span: Span) -> Span | None:
        while span is not None:
            if span.name in DOCUMENT_SPANS and span.size:
                return span
            span = by_id.get(span.parent)
        return None

    out: dict[str, float] = {}
    for stage, entry in STAGES.items():
        per_doc: dict[int, list] = {}
        for span in spans:
            if span.name != entry:
                continue
            doc = document_of(span)
            if doc is None:
                continue
            slot = per_doc.setdefault(doc.id, [doc.size, 0.0])
            slot[1] += span.cpu
        points = [(math.log(n), math.log(t)) for n, t in per_doc.values() if t > 0]
        if len({x for x, _ in points}) < 2:
            continue
        mean_x = sum(x for x, _ in points) / len(points)
        mean_y = sum(y for _, y in points) / len(points)
        sxx = sum((x - mean_x) ** 2 for x, _ in points)
        sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
        out[stage] = sxy / sxx
    return out


def mention_pairs(run) -> int:
    """Sum over the entities of each chunk of (sentences mentioning it)^2:
    the work the relatedness projection does for the chunk."""
    from procmine.relatedness import build_bipartite
    total = 0
    for annotation in run.annotations.values():
        tagged = [s.tagged for item in annotation.items for s in item.sentences]
        mentions: dict[str, int] = defaultdict(int)
        for _, entity, _ in build_bipartite(tagged).edges:
            mentions[entity] += 1
        total += sum(count * count for count in mentions.values())
    return total
