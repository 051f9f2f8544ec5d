#!/usr/bin/env python3
"""procmine benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from a procmine checkout. It builds its inputs from --seed, runs the
workload closed-loop from this one process for --seconds seconds, checks
every output, prints a readable table and, as the last line of stdout, one
JSON object with `correct`, `attempted`, `failed` and `metrics`. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 a traced run
reports the per-layer ones instead. perfbench/README.md defines them all.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
from tracer import (Span, Tracer, mention_pairs, size_exponents,  # noqa: E402
                    totals_by_name)

WORKLOADS = ("cli-batch", "synth-large", "prose-wide", "train")
REQUIRED = ("src/procmine/cli.py", "corpus/models/actionable.json",
            "corpus/models/procedure.json", "corpus/actionable_sentences.csv",
            "corpus/nested-fixture.md", "corpus/golden")
MODELS = ROOT / "corpus" / "models"
FROZEN_SEEDS = 64  # seeds 0..63 have frozen output digests in digests.json
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150

# The training recipe of scripts/build_models.py.
TRAIN_DOCS = ("storage-array-setup.md", "db-troubleshooting.md",
              "appliance-quickstart.md")
ACTIONABLE_SEED = 101
PROCEDURE_SEED = 701
TRAIN_SPLIT = 200
TRAIN_PARAMS = dict(epochs=200, learning_rate=0.01, l2=1e-4)

END_TO_END_UNITS = {"setup_s": "s", "latency_p50_ms": "ms",
                    "nodes_per_s": "nodes/s", "peak_rss_mb": "MB"}
STAGE_NAMES = ("docmodel", "chunker", "annotate", "features", "classifier",
               "extractor")
PER_LAYER_UNITS = {
    "docmodel.parse_s": "s", "docmodel.nodes": "count",
    "chunker.build_s": "s", "chunker.chunks": "count",
    "features.s": "s", "features.sibling_distance_s": "s",
    "annotate.s": "s", "annotate.sentences": "count",
    "relatedness.s": "s", "relatedness.calls": "count",
    "relatedness.mention_pairs": "count",
    "lingua.split_calls": "count", "lingua.split_s": "s",
    "lingua.split_per_sentence": "calls/sentence",
    "lingua.tag_calls": "count", "lingua.tag_s": "s",
    "lingua.tag_per_sentence": "calls/sentence",
    "goals.calls": "count", "goals.s": "s",
    "actionable.predict_calls": "count", "actionable.predict_s": "s",
    "actionable.train_s": "s",
    "linear.fit_calls": "count", "linear.fit_s": "s",
    "classifier.classify_s": "s", "classifier.train_s": "s",
    "classifier.ablation_s": "s",
    "extractor.extract_s": "s", "extractor.serialize_s": "s",
    "extractor.procedures": "count", "extractor.bytes_out": "bytes",
    "pipeline.config_load_calls": "count", "pipeline.config_load_s": "s",
    "cli.import_s": "s", "cli.model_load_s": "s",
    "trace.overhead_ratio": "ratio",
    **{f"{stage}.size_exponent": "slope" for stage in STAGE_NAMES},
}


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.ledger = checks.Ledger()
        self.digests = checks.load_digests()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.notes: list[str] = []
        self.probes: list[tuple[float, float, float]] = []

    def frozen(self, seed: int, index: int) -> str | None:
        return checks.frozen_digest(self.digests, self.workload, seed, index)

    def probe(self) -> None:
        """One set-up probe: a fresh interpreter that imports procmine's CLI
        and loads both models and the lexicon. Records (wall time to exit at
        reference speed, import phase, load phase as measured)."""
        log = self.work / "probe.log"
        reference = calib.interpreter(self.env)
        before = reference.time()
        code, wall, _ = run_child([sys.executable, str(HERE / "setup_probe.py"),
                                   str(MODELS)], self.env, log)
        factor = reference.scale(before, reference.time())
        try:
            phases = json.loads(log.read_text("utf-8").splitlines()[-1])
            timing = (wall * factor, float(phases["import_s"]),
                      float(phases["model_load_s"]))
        except (ValueError, IndexError, KeyError, TypeError):
            timing = None
        problems = [] if code == 0 and timing else [f"exit code {code}, phases {timing}"]
        if self.ledger.record("setup probe", problems):
            self.probes.append(timing)

    def setup(self) -> dict[str, float]:
        """Medians over the probes run so far."""
        if not self.probes:
            return {"setup_s": 0.0, "import_s": 0.0, "model_load_s": 0.0}
        walls, imports, loads = zip(*self.probes)
        return {"setup_s": statistics.median(walls),
                "import_s": statistics.median(imports),
                "model_load_s": statistics.median(loads)}


# ---------------------------------------------------------------------------
# Child processes and set-up

def run_child(cmd: list[str], env: dict, log: Path) -> tuple[int, float, float]:
    """Run `cmd` to its end; return (exit code, wall seconds, peak RSS MB)."""
    with log.open("wb") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=handle, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: end the child too
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_bytes()[-2000:].decode("utf-8", "replace")
        sys.stderr.write(f"{cmd[1]} exited {proc.returncode}:\n{tail}\n")
    return proc.returncode, wall, usage.ru_maxrss / 1024


def load_models():
    from procmine import lingua
    from procmine.actionable import ActionableModel
    from procmine.classifier import ProcedureClassifierModel
    actionable_model = ActionableModel.load(MODELS / "actionable.json")
    procedure_model = ProcedureClassifierModel.load(MODELS / "procedure.json")
    lingua.default_lexicon()
    return actionable_model, procedure_model


def process_document(path: Path, actionable_model, procedure_model):
    """File bytes to procedures JSON bytes, in process."""
    from procmine import extractor, pipeline
    tree = pipeline.load_document(path)
    run = pipeline.run_document(tree, actionable_model, procedure_model)
    return extractor.serialize(run.procedures), run


# ---------------------------------------------------------------------------
# Statistics

def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with at
    least 10 samples beyond it, never below the median."""
    xs = sorted(samples)
    n = len(xs)
    k = n - 11
    if k < (n - 1) / 2:
        return statistics.median(xs), 50.0, n // 2
    return xs[k], 100.0 * k / (n - 1), n - 1 - k


def closed_loop(bench: Bench, inputs: list, measure,
                reference: calib.Reference) -> list[list[tuple[float, float]]]:
    """Run `measure(input)` over `inputs` in turn, again and again, for
    --seconds and at least one full round; return each input's
    (wall latency, calibration factor) samples. The reference task is
    timed between every two calls of `measure` (calib.py).

    The set-up probes run at even intervals across the same window, so
    that they sample the same machine conditions as the workload."""
    samples: list[list[tuple[float, float]]] = [[] for _ in inputs]
    start = time.perf_counter()
    deadline = start + bench.seconds
    probe_at = [start + bench.seconds * i / SETUP_PROBES for i in range(SETUP_PROBES)]
    rounds = 0
    before = reference.time()
    while rounds == 0 or time.perf_counter() < deadline:
        for i, item in enumerate(inputs):
            if rounds and time.perf_counter() >= deadline:
                break
            if probe_at and time.perf_counter() >= probe_at[0]:
                while probe_at and time.perf_counter() >= probe_at[0]:
                    probe_at.pop(0)
                    bench.probe()
                before = reference.time()
            latency = measure(item)
            after = reference.time()
            if latency is not None:
                samples[i].append((latency, reference.scale(before, after)))
            before = after
        rounds += 1
    for _ in probe_at:
        bench.probe()
    return samples


def end_to_end(bench: Bench, samples: list[list[tuple[float, float]]],
               nodes: list[int], peak_rss_mb: float, unit: str) -> dict[str, float]:
    """Gated times are at reference speed (calib.py): on a shared machine
    the same work can take 1.6 to 1.9 times as long in spells lasting
    minutes, longer than a run. An input's latency is the median of its
    scaled repetitions."""
    runs = [wall for per_input in samples for wall, _ in per_input]
    scaled = [(statistics.median(wall * factor for wall, factor in per_input), n)
              for per_input, n in zip(samples, nodes) if per_input]
    if not scaled:
        bench.notes.append("no unit of work completed; latency metrics are 0")
        return {"setup_s": bench.setup()["setup_s"], "latency_p50_ms": 0.0,
                "nodes_per_s": 0.0, "peak_rss_mb": peak_rss_mb}
    factors = [factor for per_input in samples for _, factor in per_input]
    value, pct, beyond = tail(runs)
    bench.notes.append(f"latency unit: {unit}; {len(scaled)} inputs, {len(runs)} runs; "
                       "latency_p50_ms is the median over inputs of each "
                       "input's median repetition at reference speed")
    bench.notes.append(f"machine speed: median calibration factor "
                       f"{statistics.median(factors):.3f} (below 1: slower than reference)")
    bench.notes.append(f"not gated, wall time as measured: over all {len(runs)} runs, "
                       f"median {statistics.median(runs) * 1000:.1f} ms, latency_tail_ms "
                       f"{value * 1000:.1f} ms at p{pct:.0f} with {beyond} runs beyond")
    return {"setup_s": bench.setup()["setup_s"],
            "latency_p50_ms": statistics.median(t for t, _ in scaled) * 1000,
            "nodes_per_s": sum(n for _, n in scaled) / sum(t for t, _ in scaled),
            "peak_rss_mb": peak_rss_mb}


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def per_layer(bench: Bench, span_sets: list[list[Span]], pairs: int,
              overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics as averages per traced pass; times are self times."""
    for _ in range(SETUP_PROBES):
        bench.probe()
    setup = bench.setup()
    passes = len(span_sets)
    totals: dict[str, list[float]] = {}
    for spans in span_sets:
        for name, t in totals_by_name(spans).items():
            slot = totals.setdefault(name, [0, 0.0, 0])
            slot[0] += t.calls
            slot[1] += t.self_s
            slot[2] += t.size

    def calls(*names):
        return sum(totals.get(n, (0, 0.0, 0))[0] for n in names) / passes

    def secs(*names):
        return sum(totals.get(n, (0, 0.0, 0))[1] for n in names) / passes

    def size(name):
        return totals.get(name, (0, 0.0, 0))[2] / passes

    sentences = calls("annotate.sentence")
    features = [n for n in totals if n.startswith("features.")]
    metrics = {
        "docmodel.parse_s": secs("docmodel.parse"),
        "docmodel.nodes": size("docmodel.parse"),
        "chunker.build_s": secs("chunker.build"),
        "chunker.chunks": size("chunker.build"),
        "features.s": secs(*features),
        "features.sibling_distance_s": secs("features.sibling_distance"),
        "annotate.s": secs("annotate.chunks", "annotate.sentence"),
        "annotate.sentences": sentences,
        "relatedness.s": secs("relatedness.chunk"),
        "relatedness.calls": calls("relatedness.chunk"),
        "relatedness.mention_pairs": pairs / passes,
        "lingua.split_calls": calls("lingua.split"),
        "lingua.split_s": secs("lingua.split"),
        "lingua.split_per_sentence":
            calls("lingua.split") / sentences if sentences else 0.0,
        "lingua.tag_calls": calls("lingua.tag"),
        "lingua.tag_s": secs("lingua.tag"),
        "lingua.tag_per_sentence":
            calls("lingua.tag") / sentences if sentences else 0.0,
        "goals.calls": calls("goals.annotate"),
        "goals.s": secs("goals.annotate"),
        "actionable.predict_calls": calls("actionable.predict"),
        "actionable.predict_s": secs("actionable.predict"),
        "actionable.train_s": secs("actionable.train"),
        "linear.fit_calls": calls("linear.fit"),
        "linear.fit_s": secs("linear.fit"),
        "classifier.classify_s": secs("classifier.classify"),
        "classifier.train_s": secs("classifier.train"),
        "classifier.ablation_s": secs("classifier.ablate", "classifier.ablation"),
        "extractor.extract_s": secs("extractor.extract"),
        "extractor.serialize_s": secs("extractor.serialize"),
        "extractor.procedures": size("extractor.extract"),
        "extractor.bytes_out": size("extractor.serialize"),
        "pipeline.config_load_calls": calls("pipeline.config_load"),
        "pipeline.config_load_s": secs("pipeline.config_load"),
        "cli.import_s": setup["import_s"],
        "cli.model_load_s": setup["model_load_s"],
        "trace.overhead_ratio": overhead_ratio,
    }
    exponents: dict[str, list[float]] = {}
    for spans in span_sets:
        for stage, slope in size_exponents(spans).items():
            exponents.setdefault(stage, []).append(slope)
    for stage in STAGE_NAMES:
        slopes = exponents.get(stage)
        metrics[f"{stage}.size_exponent"] = statistics.median(slopes) if slopes else 0.0
    unreached = sorted(name for name in PER_LAYER_UNITS
                       if metrics[name] == 0 and not name.startswith("cli."))
    if unreached:
        bench.notes.append("0 because this workload does not reach them "
                           "(or has one document size): " + ", ".join(unreached))
    return metrics


def write_spans(bench: Bench, span_sets: list[list]) -> None:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    for i, spans in enumerate(span_sets):
        path = out / f"{bench.workload}-seed{bench.seed}-pass{i}.spans.jsonl"
        with path.open("w") as handle:
            for span in spans:
                handle.write(json.dumps(list(span)) + "\n")
    bench.notes.append(f"spans written to {out.name}/{bench.workload}-seed{bench.seed}-*")


# ---------------------------------------------------------------------------
# In-process document workloads: synth-large and prose-wide

def document_workload(bench: Bench, make, count: int, ladder, trace: bool):
    """`make(seed, index)` gives a document of the timed size; the timed run
    cycles through documents 0..count-1. `ladder` lists (label, bytes)
    documents of other sizes that the traced pass adds."""
    models = load_models()

    def one(what, data, digest, process=process_document):
        path = bench.work / "doc.json"
        path.write_bytes(data)
        start = time.perf_counter()
        try:
            payload, run = process(path, *models)
        except Exception as exc:  # a crash is one failed output
            bench.ledger.record(what, [f"raised {exc!r}"])
            return None
        latency = time.perf_counter() - start
        bench.ledger.expect_procedures(what, payload, checks.input_texts(data), digest)
        return latency, len(run.tree.nodes), run

    def seeded(seed, index, data=None, **kwargs):
        return one(f"{bench.workload} seed {seed} doc {index}",
                   data or make(seed, index), bench.frozen(seed, index), **kwargs)

    seeded(bench.seed % FROZEN_SEEDS, 0)  # warm-up: caches, frozen digest
    docs = [make(bench.seed, index) for index in range(count)]
    if not trace:
        nodes = [0] * count

        def measure(index):
            result = seeded(bench.seed, index, docs[index])
            if result is None:
                return None
            nodes[index] = result[1]
            return result[0]

        samples = closed_loop(bench, list(range(count)), measure, calib.KERNEL)
        return end_to_end(bench, samples, nodes, self_rss_mb(),
                          "one document in process")

    # Documents 0 and 1 alternate untraced and traced runs for the overhead
    # ratio (fastest of two each); the ladder adds larger documents to the
    # traced pass for the size exponents.
    tracer = Tracer()
    traced_process = tracer.wrap(process_document, "doc",
                                 lambda args, result: len(result[1].tree.nodes))
    untraced, traced, results = {}, {}, []
    for _ in range(2):
        for index in (0, 1):
            plain = seeded(bench.seed, index, docs[index])
            with tracer.installed():
                result = seeded(bench.seed, index, docs[index], process=traced_process)
            results.append(result)
            if plain and result:
                untraced.setdefault(index, []).append(plain[0])
                traced.setdefault(index, []).append(result[0])
    with tracer.installed():
        results += [one(f"{bench.workload} {label} doc", data, None,
                        process=traced_process) for label, data in ladder]
    pairs = sum(mention_pairs(r[2]) for r in results if r)
    ratio = (sum(min(t) for t in traced.values()) /
             sum(min(u) for u in untraced.values())) if untraced else 0.0
    bench.notes.append("traced pass: documents 0 and 1 twice each, then "
                       f"{[label for label, _ in ladder]}")
    write_spans(bench, [tracer.spans])
    return per_layer(bench, [tracer.spans], pairs, ratio)


def synth_large(bench: Bench, trace: bool):
    ladder = [(size, gen.synth_doc(bench.seed, 0, size))
              for size in ("2k", "8k")] if trace else []
    return document_workload(
        bench, lambda seed, index: gen.synth_doc(seed, index, "1k"),
        gen.SYNTH_DOCS, ladder, trace)


def prose_wide(bench: Bench, trace: bool):
    sentences = gen.corpus_sentences(ROOT)
    ladder = [(f"{n}-paragraph", gen.prose_doc(sentences, bench.seed, 0, n))
              for n in (250, 500)] if trace else []
    return document_workload(
        bench, lambda seed, index: gen.prose_doc(sentences, seed, index),
        gen.PROSE_DOCS, ladder, trace)


# ---------------------------------------------------------------------------
# cli-batch: one `procmine extract` process over the corpus and 16
# synthetic documents

def cli_batch(bench: Bench, trace: bool):
    from procmine import pipeline
    corpus = sorted((ROOT / "corpus" / "docs").glob("*.md"))
    corpus.append(ROOT / "corpus" / "nested-fixture.md")
    in_dir = bench.work / "in"
    in_dir.mkdir()
    synthetic = []
    for index, (name, data) in enumerate(gen.cli_batch_docs(bench.seed)):
        (in_dir / name).write_bytes(data)
        synthetic.append((in_dir / name, checks.input_texts(data),
                          bench.frozen(bench.seed, index)))
    inputs = corpus + [path for path, _, _ in synthetic]
    nodes = sum(len(pipeline.load_document(path).nodes) for path in inputs)
    out_dir = bench.work / "out"
    extract = ["extract", *map(str, inputs), "--model", str(MODELS / "procedure.json"),
               "--actionable-model", str(MODELS / "actionable.json"),
               "-o", str(out_dir)]

    peak_rss = [0.0]

    def invoke(prefix: list[str]) -> float | None:
        shutil.rmtree(out_dir, ignore_errors=True)
        code, wall, rss = run_child([sys.executable, *prefix, *extract], bench.env,
                                    bench.work / "cli.log")
        peak_rss[0] = max(peak_rss[0], rss)

        def output(path: Path) -> bytes | None:
            target = out_dir / (path.stem + ".procedures.json")
            return target.read_bytes() if target.is_file() else None

        for path in corpus:
            golden = ROOT / "corpus" / "golden" / (path.stem + ".procedures.json")
            bench.ledger.expect_bytes(f"cli-batch {path.name}", output(path),
                                      golden.read_bytes())
        for path, texts, digest in synthetic:
            bench.ledger.expect_procedures(f"cli-batch seed {bench.seed} {path.name}",
                                           output(path), texts, digest)
        return wall if code == 0 else None

    unit = f"one procmine extract process over {len(inputs)} documents"
    if not trace:
        samples = closed_loop(bench, [["-m", "procmine.cli"]], invoke,
                              calib.threaded_process(bench.env))
        return end_to_end(bench, samples, [nodes], peak_rss[0], unit)

    untraced, traced, span_sets, pairs = [], [], [], 0
    for i in range(2):
        untraced.append(invoke(["-m", "procmine.cli"]))
        spans_path = bench.work / f"spans-{i}.json"
        wall = invoke([str(HERE / "cli_traced.py"), str(spans_path)])
        if spans_path.is_file():
            dump = json.loads(spans_path.read_text())
            span_sets.append([Span(*row) for row in dump["spans"]])
            pairs += dump["mention_pairs"]
            wall = wall - dump["after_main_s"] if wall is not None else None
        traced.append(wall)
    if None in untraced or None in traced or not span_sets:
        bench.notes.append("a CLI process failed; per-layer metrics are incomplete")
        span_sets = span_sets or [[]]
        ratio = 0.0
    else:
        ratio = min(traced) / min(untraced)
    bench.notes.append(f"traced pass: {unit}; 2 traced processes alternating with "
                       "2 untraced, overhead from the fastest of each")
    write_spans(bench, span_sets)
    return per_layer(bench, span_sets, pairs, ratio)


# ---------------------------------------------------------------------------
# train: the steps of scripts/build_models.py, writing nothing

def train_pass():
    """Train both models and run the ablation study, as scripts/build_models.py
    does. Returns (actionable JSON, procedure JSON, ablation report, nodes
    analysed, document runs)."""
    from procmine import actionable, classifier, pipeline
    from procmine.cli import read_labels_csv
    from procmine.linear import TrainParams
    corpus = ROOT / "corpus"
    with (corpus / "actionable_sentences.csv").open(newline="") as handle:
        rows = [(row["text"], row["label"] == "1") for row in csv.DictReader(handle)]
    actionable_model = actionable.train(
        rows[:TRAIN_SPLIT], TrainParams(seed=ACTIONABLE_SEED, **TRAIN_PARAMS))

    runs = []

    def labeled_rows(doc: Path) -> list:
        gold = read_labels_csv(corpus / "labels" / (doc.stem + ".labels.csv"))
        run = pipeline.analyze(pipeline.load_document(doc), actionable_model)
        runs.append(run)
        forced = pipeline.teacher_forced_features(run, gold)
        return [(forced[cid], gold[cid]) for cid in sorted(forced)]

    docs = sorted((corpus / "docs").glob("*.md"))
    train_rows = [row for doc in docs if doc.name in TRAIN_DOCS
                  for row in labeled_rows(doc)]
    params = TrainParams(seed=PROCEDURE_SEED, **TRAIN_PARAMS)
    procedure_model = classifier.train(train_rows, params)
    test_rows = [row for doc in docs if doc.name not in TRAIN_DOCS
                 for row in labeled_rows(doc)]
    report = classifier.ablation_report(train_rows, test_rows, params)
    report_text = "".join(f"{name},{m.accuracy!r},{m.precision!r},{m.recall!r}\n"
                          for name, m in report)
    nodes = sum(len(run.tree.nodes) for run in runs)
    return (actionable_model.to_json(), procedure_model.to_json(), report_text,
            nodes, runs)


def train(bench: Bench, trace: bool):
    models = {name: (MODELS / f"{name}.json").read_text("utf-8")
              for name in ("actionable", "procedure")}
    report_digest = bench.digests["train"]["ablation_report"]

    def one(process=train_pass):
        start = time.perf_counter()
        try:
            actionable_json, procedure_json, report, nodes, runs = process()
        except Exception as exc:  # a crash fails the pass's three outputs
            for what in ("actionable model", "procedure model", "ablation report"):
                bench.ledger.record(f"train {what}", [f"raised {exc!r}"])
            return None
        latency = time.perf_counter() - start
        bench.ledger.expect_bytes("train actionable model",
                                  actionable_json.encode(), models["actionable"].encode())
        bench.ledger.expect_bytes("train procedure model",
                                  procedure_json.encode(), models["procedure"].encode())
        bench.ledger.record("train ablation report",
                            [] if checks.sha256(report.encode()) == report_digest
                            else ["SHA-256 differs from the frozen digest"])
        return latency, nodes, runs

    unit = "one training pass"
    one()  # warm-up: lexicon cache, first-call costs
    if not trace:
        nodes = [0]

        def measure(_):
            result = one()
            if result is None:
                return None
            nodes[0] = result[1]
            return result[0]

        samples = closed_loop(bench, [None], measure, calib.KERNEL)
        return end_to_end(bench, samples, nodes, self_rss_mb(), unit)

    passes = 3
    span_sets, untraced, traced, pairs = [], [], [], 0
    for _ in range(passes):
        plain = one()
        tracer = Tracer()
        with tracer.installed():
            result = one()
        span_sets.append(tracer.spans)
        if plain is not None and result is not None:
            untraced.append(plain[0])
            traced.append(result[0])
            pairs += sum(mention_pairs(run) for run in result[2])
    bench.notes.append(f"traced pass: {unit}; {passes} traced passes alternating with "
                       f"{passes} untraced, overhead from the fastest of each")
    write_spans(bench, span_sets)
    return per_layer(bench, span_sets, pairs,
                     min(traced) / min(untraced) if untraced else 0.0)


RUNNERS = {"cli-batch": cli_batch, "synth-large": synth_large,
           "prose-wide": prose_wide, "train": train}


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        sys.stderr.write(f"perfbench: {ROOT} is not a procmine checkout; "
                         f"missing {', '.join(missing)}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    # SIGTERM unwinds like Ctrl-C, so that child processes are ended and
    # the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(args.workload, args.seed, args.seconds, work)
    try:
        metrics = RUNNERS[args.workload](bench, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    ledger = bench.ledger
    print(f"procmine benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'timed'} run")
    for name, unit in units.items():
        if unit in ("count", "bytes") and float(metrics[name]).is_integer():
            metrics[name] = int(metrics[name])
        print(f"  {name:30s} {metrics[name]:>16.6g} {unit}")
    print(f"  {'failed_ratio':30s} {ledger.failed:>7d} / {ledger.attempted} outputs")
    for note in bench.notes:
        print(f"  note: {note}")
    print(json.dumps({
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
