"""Command-line interface.

Subcommands: ingest, extract, features, train-actionable, train, eval,
ablate. Machine-readable output goes to stdout or -o targets; diagnostics
go to stderr. Exit codes: 0 ok, 2 malformed document, 64 usage, 65 bad
data or model file, 66 unreadable input.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

from . import classifier as classifier_mod
from . import extractor, pipeline
from .actionable import ActionableModel, EmptyCorpus
from .actionable import train as train_actionable_model
from .classifier import (Metrics, ProcedureClassifierModel, ablation_report,
                         evaluate)
from .config import ConfigError, RunConfig
from .docmodel import HierarchyError, SchemaError, tree_to_json
from .features import FEATURE_CATEGORIES, FEATURE_NAMES, FeatureVector
from .linear import DegenerateLabels, NonFinite, TrainParams, VersionMismatch
from .pipeline import PipelineConfig
from .relatedness import describe_graph

EX_OK = 0
EX_DOCUMENT = 2
EX_USAGE = 64
EX_DATA = 65
EX_NOINPUT = 66


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        raise CliError(f"{self.prog}: {message}", EX_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="procmine",
                     description="Extract procedures from technical documents.")
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p):
        p.add_argument("--config", help="key=value run configuration file")
        p.add_argument("--seed", type=int, help="random seed (training)")
        p.add_argument("--lexicon-dir", dest="lexicon_dir",
                       help="directory overriding the bundled lexicons")

    p_ingest = sub.add_parser("ingest", help="parse a document to tree JSON")
    p_ingest.add_argument("input")
    p_ingest.add_argument("-f", "--format", choices=["md", "sdjson"])
    p_ingest.add_argument("-o", "--output", help="tree JSON path (default stdout)")
    shared(p_ingest)

    p_extract = sub.add_parser("extract", help="run the full pipeline")
    p_extract.add_argument("inputs", nargs="+")
    p_extract.add_argument("-f", "--format", choices=["md", "sdjson"])
    p_extract.add_argument("--model", help="procedure classifier model JSON")
    p_extract.add_argument("--actionable-model", dest="actionable_model")
    p_extract.add_argument("-o", "--output",
                           help="output file (single input) or directory")
    p_extract.add_argument("--pred-log", dest="pred_log",
                           help="prediction log CSV (directory for multiple inputs)")
    p_extract.add_argument("--no-propagation", action="store_true")
    p_extract.add_argument("--ablate", help="comma-separated feature ids to zero")
    p_extract.add_argument("--dump-graphs", action="store_true",
                           help="dump per-chunk entity graphs to stderr")
    shared(p_extract)

    p_features = sub.add_parser("features", help="dump per-chunk feature vectors")
    p_features.add_argument("input")
    p_features.add_argument("-f", "--format", choices=["md", "sdjson"])
    p_features.add_argument("--actionable-model", dest="actionable_model")
    p_features.add_argument("--labels", help="gold chunk labels CSV for training dumps")
    p_features.add_argument("-o", "--output", help="feature CSV (default stdout)")
    p_features.add_argument("--chunk-dump", dest="chunk_dump",
                            help="also write a chunk summary CSV here")
    shared(p_features)

    p_ta = sub.add_parser("train-actionable",
                          help="train the actionable-statement model")
    p_ta.add_argument("corpus", help="CSV with text,label rows")
    p_ta.add_argument("-o", "--output", required=True)
    p_ta.add_argument("--epochs", type=int, default=200)
    p_ta.add_argument("--learning-rate", dest="learning_rate", type=float,
                      default=0.01)
    p_ta.add_argument("--l2", type=float, default=1e-4)
    shared(p_ta)

    p_train = sub.add_parser("train", help="train the procedure classifier")
    p_train.add_argument("features", nargs="+", help="labeled feature CSVs")
    p_train.add_argument("-o", "--output", required=True)
    p_train.add_argument("--epochs", type=int, default=200)
    p_train.add_argument("--learning-rate", dest="learning_rate", type=float,
                         default=0.01)
    p_train.add_argument("--l2", type=float, default=1e-4)
    shared(p_train)

    p_eval = sub.add_parser("eval", help="score predictions against gold labels")
    p_eval.add_argument("predictions", help="prediction log CSV")
    p_eval.add_argument("gold", help="gold labels CSV")
    shared(p_eval)

    p_ablate = sub.add_parser("ablate", help="feature-elimination study")
    p_ablate.add_argument("--train", nargs="+", required=True,
                          help="labeled feature CSVs (training split)")
    p_ablate.add_argument("--test", nargs="+", required=True,
                          help="labeled feature CSVs (evaluation split)")
    group = p_ablate.add_mutually_exclusive_group()
    group.add_argument("--category", choices=sorted(FEATURE_CATEGORIES))
    group.add_argument("--ids", help="comma-separated feature ids to remove")
    p_ablate.add_argument("-o", "--output", help="report CSV (default stdout)")
    p_ablate.add_argument("--epochs", type=int, default=200)
    p_ablate.add_argument("--learning-rate", dest="learning_rate", type=float,
                          default=0.01)
    p_ablate.add_argument("--l2", type=float, default=1e-4)
    shared(p_ablate)
    return parser


def _run_config(args) -> RunConfig:
    overrides = {
        "lexicon_dir": getattr(args, "lexicon_dir", None),
        "actionable_model": getattr(args, "actionable_model", None),
        "procedure_model": getattr(args, "model", None),
        "seed": getattr(args, "seed", None),
    }
    try:
        config = RunConfig.from_sources(args.config, overrides)
    except FileNotFoundError as exc:
        raise CliError(f"config file not found: {exc.filename}", EX_NOINPUT)
    except (ConfigError, ValueError) as exc:
        raise CliError(str(exc), EX_DATA)
    missing = config.check_paths()
    if missing:
        raise CliError("missing configured paths: " + "; ".join(missing), EX_NOINPUT)
    return config


def _pipeline_config(config: RunConfig) -> PipelineConfig:
    return PipelineConfig(
        lexicon_dir=config.lexicon_dir,
        cue_file=config.cue_file,
        context_procedural=config.context_procedural,
        context_non_procedural=config.context_nonprocedural,
        role_weights=config.role_weight_map(),
    )


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text("utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EX_NOINPUT)


def _load_document(path: str, fmt: str | None):
    if not Path(path).exists():
        raise CliError(f"cannot read {path}: no such file", EX_NOINPUT)
    try:
        return pipeline.load_document(path, fmt)
    except (SchemaError, HierarchyError) as exc:
        raise CliError(f"{path}: {exc}", EX_DOCUMENT)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EX_NOINPUT)


def _write_or_print(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, "utf-8")
    else:
        sys.stdout.write(text)


def _train_params(args, require_seed: bool = True) -> TrainParams:
    seed = args.seed
    if seed is None and args.config:
        seed = RunConfig.from_sources(args.config, {}).seed
    if seed is None:
        if require_seed:
            raise CliError("--seed is required for training commands", EX_USAGE)
        seed = 0
    return TrainParams(epochs=args.epochs, learning_rate=args.learning_rate,
                       l2=args.l2, seed=seed)


# ---------------------------------------------------------------------------
# Commands

def _cmd_ingest(args) -> int:
    _run_config(args)
    tree = _load_document(args.input, args.format)
    _write_or_print(tree_to_json(tree), args.output)
    return EX_OK


def _parse_ablate_ids(raw: str | None) -> tuple[int, ...]:
    if not raw:
        return ()
    try:
        ids = tuple(int(part) for part in raw.replace(",", " ").split())
    except ValueError:
        raise CliError(f"--ablate expects integer ids, got {raw!r}", EX_USAGE)
    bad = [i for i in ids if not 1 <= i <= len(FEATURE_NAMES)]
    if bad:
        raise CliError(f"--ablate ids out of range: {bad}", EX_USAGE)
    return ids


def _load_models(config: RunConfig) -> tuple[ActionableModel | None,
                                             ProcedureClassifierModel]:
    if config.procedure_model is None:
        raise CliError("a procedure model is required (--model or config)",
                       EX_USAGE)
    try:
        procedure_model = ProcedureClassifierModel.load(config.procedure_model)
        actionable_model = (ActionableModel.load(config.actionable_model)
                            if config.actionable_model else None)
    except VersionMismatch as exc:
        raise CliError(str(exc), EX_DATA)
    except (OSError, ValueError, KeyError) as exc:
        raise CliError(f"cannot load model: {exc}", EX_DATA)
    return actionable_model, procedure_model


def _prediction_log(run: pipeline.DocumentRun) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["chunk_id", "depth", "label", "margin"])
    for p in run.predictions:
        writer.writerow([p.chunk_id, p.depth, int(p.label), repr(p.margin)])
    return out.getvalue()


def _cmd_extract(args) -> int:
    config = _run_config(args)
    pconfig = _pipeline_config(config)
    actionable_model, procedure_model = _load_models(config)
    ablate_ids = _parse_ablate_ids(args.ablate)
    inputs = args.inputs
    multi = len(inputs) > 1
    if multi and args.output and Path(args.output).suffix:
        raise CliError("-o must be a directory when extracting multiple inputs",
                       EX_USAGE)

    trees = [(path, _load_document(path, args.format)) for path in inputs]

    for path, tree in trees:
        run = pipeline.run_document(
            tree, actionable_model, procedure_model, pconfig,
            propagate=not args.no_propagation, ablate_ids=ablate_ids)
        if args.dump_graphs:
            for chunk in run.chunks:
                tagged = [s.tagged for item in run.annotations[chunk.id].items
                          for s in item.sentences]
                sys.stderr.write(f"# chunk {chunk.id}\n")
                sys.stderr.write(describe_graph(tagged, pconfig.role_weights) + "\n")
        payload = extractor.serialize(run.procedures)
        if multi:
            out_dir = Path(args.output) if args.output else Path(".")
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / (Path(path).stem + ".procedures.json")).write_bytes(payload)
        elif args.output:
            Path(args.output).write_bytes(payload)
        else:
            sys.stdout.buffer.write(payload)
        if args.pred_log:
            if multi:
                log_dir = Path(args.pred_log)
                log_dir.mkdir(parents=True, exist_ok=True)
                target = log_dir / (Path(path).stem + ".predictions.csv")
            else:
                target = Path(args.pred_log)
            target.write_text(_prediction_log(run), "utf-8")
    return EX_OK


def read_labels_csv(path: str | Path) -> dict[int, bool]:
    labels: dict[int, bool] = {}
    with Path(path).open(newline="") as handle:
        for row in csv.DictReader(handle):
            labels[int(row["chunk_id"])] = row["label"].strip() in ("1", "true", "True")
    return labels


def feature_csv_rows(vectors: dict[int, FeatureVector],
                     labels: dict[int, bool] | None) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = ["chunk_id"] + [f"f{i}" for i in range(1, len(FEATURE_NAMES) + 1)]
    if labels is not None:
        header.append("label")
    writer.writerow(header)
    for chunk_id, vector in vectors.items():
        row = [chunk_id] + [repr(v) for v in vector.to_array().tolist()]
        if labels is not None:
            row.append(int(labels.get(chunk_id, False)))
        writer.writerow(row)
    return out.getvalue()


def read_feature_csv(path: str | Path) -> list[tuple[FeatureVector, bool]]:
    rows: list[tuple[FeatureVector, bool]] = []
    with Path(path).open(newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or "label" not in reader.fieldnames:
            raise CliError(f"{path}: expected a labeled feature CSV", EX_DATA)
        for row in reader:
            values = [float(row[f"f{i}"]) for i in range(1, len(FEATURE_NAMES) + 1)]
            rows.append((FeatureVector.from_array(values),
                         row["label"].strip() in ("1", "true", "True")))
    return rows


def _cmd_features(args) -> int:
    config = _run_config(args)
    pconfig = _pipeline_config(config)
    actionable_model = None
    if config.actionable_model:
        try:
            actionable_model = ActionableModel.load(config.actionable_model)
        except VersionMismatch as exc:
            raise CliError(str(exc), EX_DATA)
    tree = _load_document(args.input, args.format)
    run = pipeline.analyze(tree, actionable_model, pconfig)

    labels = None
    vectors = run.static_features
    if args.labels:
        if not Path(args.labels).exists():
            raise CliError(f"cannot read {args.labels}: no such file", EX_NOINPUT)
        labels = read_labels_csv(args.labels)
        vectors = pipeline.teacher_forced_features(run, labels)
    _write_or_print(feature_csv_rows(vectors, labels), args.output)

    if args.chunk_dump:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["chunk_id", "kind", "depth", "parent_node",
                         "item_count", "context"])
        for chunk in run.chunks:
            writer.writerow([chunk.id, chunk.kind.value, chunk.depth,
                             chunk.parent_node_id, len(chunk.item_node_ids),
                             chunk.context_text])
        Path(args.chunk_dump).write_text(out.getvalue(), "utf-8")
    return EX_OK


def _cmd_train_actionable(args) -> int:
    _run_config(args)
    params = _train_params(args)
    if not Path(args.corpus).exists():
        raise CliError(f"cannot read {args.corpus}: no such file", EX_NOINPUT)
    labeled: list[tuple[str, bool]] = []
    with open(args.corpus, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or "text" not in reader.fieldnames:
            raise CliError(f"{args.corpus}: expected text,label columns", EX_DATA)
        for row in reader:
            labeled.append((row["text"], row["label"].strip() in ("1", "true", "True")))
    try:
        model = train_actionable_model(labeled, params)
    except (DegenerateLabels, EmptyCorpus, NonFinite) as exc:
        raise CliError(str(exc), EX_DATA)
    model.save(args.output)
    sys.stderr.write(f"trained actionable model on {len(labeled)} sentences\n")
    return EX_OK


def _cmd_train(args) -> int:
    _run_config(args)
    params = _train_params(args)
    rows: list[tuple[FeatureVector, bool]] = []
    for path in args.features:
        if not Path(path).exists():
            raise CliError(f"cannot read {path}: no such file", EX_NOINPUT)
        rows.extend(read_feature_csv(path))
    try:
        model = classifier_mod.train(rows, params)
    except (DegenerateLabels, NonFinite) as exc:
        raise CliError(str(exc), EX_DATA)
    model.save(args.output)
    sys.stderr.write(f"trained procedure classifier on {len(rows)} chunks\n")
    return EX_OK


def _metrics_line(metrics: Metrics) -> str:
    return (f"{metrics.accuracy:.4f},{metrics.precision:.4f},"
            f"{metrics.recall:.4f}")


def _cmd_eval(args) -> int:
    _run_config(args)
    for path in (args.predictions, args.gold):
        if not Path(path).exists():
            raise CliError(f"cannot read {path}: no such file", EX_NOINPUT)
    predicted: dict[int, bool] = {}
    with open(args.predictions, newline="") as handle:
        for row in csv.DictReader(handle):
            predicted[int(row["chunk_id"])] = row["label"].strip() in ("1", "true", "True")
    gold = read_labels_csv(args.gold)
    missing = [cid for cid in gold if cid not in predicted]
    if missing:
        raise CliError(f"no prediction for chunks {sorted(missing)}", EX_DATA)
    tp = sum(1 for c, t in gold.items() if t and predicted[c])
    fp = sum(1 for c, t in gold.items() if not t and predicted[c])
    fn = sum(1 for c, t in gold.items() if t and not predicted[c])
    tn = sum(1 for c, t in gold.items() if not t and not predicted[c])
    total = len(gold)
    metrics = Metrics(
        accuracy=(tp + tn) / total if total else 0.0,
        precision=tp / (tp + fp) if tp + fp else 0.0,
        recall=tp / (tp + fn) if tp + fn else 0.0,
        undefined_precision=(tp + fp) == 0,
        undefined_recall=(tp + fn) == 0,
    )
    if metrics.undefined_precision or metrics.undefined_recall:
        sys.stderr.write("warning: zero-denominator metric reported as 0\n")
    sys.stdout.write("accuracy,precision,recall\n")
    sys.stdout.write(_metrics_line(metrics) + "\n")
    return EX_OK


def _cmd_ablate(args) -> int:
    _run_config(args)
    params = _train_params(args)
    train_rows: list[tuple[FeatureVector, bool]] = []
    test_rows: list[tuple[FeatureVector, bool]] = []
    for path in args.train:
        train_rows.extend(read_feature_csv(path))
    for path in args.test:
        test_rows.extend(read_feature_csv(path))

    try:
        if args.ids:
            ids = _parse_ablate_ids(args.ids)
            report = [(f"ids:{args.ids}",
                       classifier_mod.ablate(ids, train_rows, test_rows, params))]
        elif args.category:
            ids = FEATURE_CATEGORIES[args.category]
            report = [(args.category,
                       classifier_mod.ablate(ids, train_rows, test_rows, params))]
        else:
            report = ablation_report(train_rows, test_rows, params)
    except (DegenerateLabels, NonFinite) as exc:
        raise CliError(str(exc), EX_DATA)

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["category", "accuracy", "precision", "recall"])
    for name, metrics in report:
        writer.writerow([name, f"{metrics.accuracy:.4f}",
                         f"{metrics.precision:.4f}", f"{metrics.recall:.4f}"])
    _write_or_print(out.getvalue(), args.output)
    return EX_OK


_COMMANDS = {
    "ingest": _cmd_ingest,
    "extract": _cmd_extract,
    "features": _cmd_features,
    "train-actionable": _cmd_train_actionable,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except CliError as exc:
        sys.stderr.write(str(exc) + "\n")
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
