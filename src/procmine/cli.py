"""Command-line interface.

Subcommands: ingest, extract, features, train-actionable, train, eval,
ablate. Each setting is one flag, on the commands that read it: the three
that tag text (extract, features, train-actionable) take --lexicon-dir and
read its lexicons before any work. Each kind of input has one loader:
documents, model files, and labeled CSVs. Machine-readable output goes to
stdout, written through `_print`, or to -o targets, written through
`_write`; diagnostics go to stderr. Exit codes: 0 ok, 2 malformed
document, 64 usage or unwritable output (stdout included), 65 bad data,
model or lexicon file, 66 unreadable input.

`extract` over several documents runs them on up to one process per
usable CPU: the parent parses every input and loads the models, then forks
workers that inherit all of it, and writes every diagnostic itself, so the
output and stderr bytes do not depend on the number of processes. The CLI
starts no threads, which is what makes forking it safe.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import sys
from pathlib import Path

from . import classifier as classifier_mod
from . import extractor, pipeline
from .actionable import ActionableModel, EmptyCorpus
from .actionable import train as train_actionable_model
from .classifier import Metrics, ProcedureClassifierModel, ablation_report
from .docmodel import SchemaError, tree_to_json
from .features import FEATURE_CATEGORIES, FEATURE_NAMES, FeatureVector
from .linear import DegenerateLabels, NonFinite, TrainParams, VersionMismatch
from .lingua import LexiconError, decode_utf8, read_input
from .pipeline import PipelineConfig
from .relatedness import describe_graph

EX_OK = 0
EX_DOCUMENT = 2
EX_USAGE = 64
EX_DATA = 65
EX_NOINPUT = 66
EX_FAULT = 1  # a fault in the program, the status of an uncaught exception


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 64, not argparse's 2
        raise CliError(f"{self.prog}: {message}", EX_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="procmine",
                     description="Extract procedures from technical documents.")
    sub = parser.add_subparsers(dest="command", required=True)

    def tagging(p):  # the commands that tag text
        p.add_argument("--lexicon-dir", dest="lexicon_dir",
                       help="directory overriding the bundled lexicons")

    def training(p):
        p.add_argument("--seed", type=int, required=True, help="random seed")
        p.add_argument("--epochs", type=int, default=200)
        p.add_argument("--learning-rate", dest="learning_rate", type=float,
                       default=0.01)
        p.add_argument("--l2", type=float, default=1e-4)

    p_ingest = sub.add_parser("ingest", help="parse a document to tree JSON")
    p_ingest.add_argument("input")
    p_ingest.add_argument("-f", "--format", choices=["md", "sdjson"])
    p_ingest.add_argument("-o", "--output", help="tree JSON path (default stdout)")

    p_extract = sub.add_parser("extract", help="run the full pipeline")
    p_extract.add_argument("inputs", nargs="+")
    p_extract.add_argument("-f", "--format", choices=["md", "sdjson"])
    p_extract.add_argument("--model", required=True,
                           help="procedure classifier model JSON")
    p_extract.add_argument("--actionable-model", dest="actionable_model")
    p_extract.add_argument("-o", "--output",
                           help="output file (single input) or directory")
    p_extract.add_argument("--pred-log", dest="pred_log",
                           help="prediction log CSV (directory for multiple inputs)")
    p_extract.add_argument("--no-propagation", action="store_true")
    p_extract.add_argument("--ablate", help="comma-separated feature ids to zero")
    p_extract.add_argument("--dump-graphs", action="store_true",
                           help="dump per-chunk entity graphs to stderr")
    tagging(p_extract)

    p_features = sub.add_parser("features", help="dump per-chunk feature vectors")
    p_features.add_argument("input")
    p_features.add_argument("-f", "--format", choices=["md", "sdjson"])
    p_features.add_argument("--actionable-model", dest="actionable_model")
    p_features.add_argument("--labels", help="gold chunk labels CSV for training dumps")
    p_features.add_argument("-o", "--output", help="feature CSV (default stdout)")
    p_features.add_argument("--chunk-dump", dest="chunk_dump",
                            help="also write a chunk summary CSV here")
    tagging(p_features)

    p_ta = sub.add_parser("train-actionable",
                          help="train the actionable-statement model")
    p_ta.add_argument("corpus", help="CSV with text,label rows")
    p_ta.add_argument("-o", "--output", required=True)
    training(p_ta)
    tagging(p_ta)

    p_train = sub.add_parser("train", help="train the procedure classifier")
    p_train.add_argument("features", nargs="+", help="labeled feature CSVs")
    p_train.add_argument("-o", "--output", required=True)
    training(p_train)

    p_eval = sub.add_parser("eval", help="score predictions against gold labels")
    p_eval.add_argument("predictions", help="prediction log CSV")
    p_eval.add_argument("gold", help="gold labels CSV")

    p_ablate = sub.add_parser("ablate", help="feature-elimination study")
    p_ablate.add_argument("--train", nargs="+", required=True,
                          help="labeled feature CSVs (training split)")
    p_ablate.add_argument("--test", nargs="+", required=True,
                          help="labeled feature CSVs (evaluation split)")
    group = p_ablate.add_mutually_exclusive_group()
    group.add_argument("--category", choices=sorted(FEATURE_CATEGORIES))
    group.add_argument("--ids", help="comma-separated feature ids to remove")
    p_ablate.add_argument("-o", "--output", help="report CSV (default stdout)")
    training(p_ablate)
    return parser


def _run_config(args) -> PipelineConfig:
    config = PipelineConfig(
        lexicon_dir=Path(args.lexicon_dir) if args.lexicon_dir else None)
    try:  # read every lexicon now, before any work and any fork
        pipeline._lexicons(config.lexicon_dir)
    except LexiconError as exc:
        raise CliError(str(exc), EX_DATA)
    except OSError as exc:
        raise CliError(f"cannot read lexicon: {exc}", EX_NOINPUT)
    return config


def _load_document(path: str, fmt: str | None):
    try:
        return pipeline.load_document(path, fmt)
    except SchemaError as exc:
        raise CliError(f"{path}: {exc}", EX_DOCUMENT)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EX_NOINPUT)


def _load_model(cls, path: Path):
    try:
        return cls.load(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EX_NOINPUT)
    except VersionMismatch as exc:
        raise CliError(f"cannot load model {path}: {exc}", EX_DATA)


def _actionable_model(args) -> ActionableModel | None:
    if not args.actionable_model:
        return None
    return _load_model(ActionableModel, Path(args.actionable_model))


_LABELS = {"1": True, "true": True, "True": True,
           "0": False, "false": False, "False": False}


def _read_labeled_csv(path: str | Path, columns: tuple[str, ...],
                      parse) -> list[tuple[object, bool]]:
    """(parse(values of `columns`), label) for each row of a CSV whose header
    names `columns` and `label`, its text read by `decode_utf8`. A label is
    1/true/True or 0/false/False. An unreadable file exits 66; bytes that
    are not UTF-8, a missing column, a row of more or fewer fields than the
    header or a bad value exit 65, naming the line (an empty file's is 1)."""
    try:
        text = decode_utf8(read_input(path),
                           lambda message: CliError(f"{path}, {message}", EX_DATA))
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EX_NOINPUT)
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, [])
        missing = [c for c in (*columns, "label") if c not in header]
        if missing:
            raise ValueError(f"missing column(s) {', '.join(missing)}")
        where = [header.index(c) for c in columns]
        label_at = header.index("label")
        rows = []
        for line in reader:
            if not line:
                continue
            if len(line) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(line)}")
            label = line[label_at].strip()
            if label not in _LABELS:
                raise ValueError(f"label must be 0/1 or true/false, got {label!r}")
            rows.append((parse([line[i] for i in where]), _LABELS[label]))
    except (ValueError, csv.Error) as exc:
        raise CliError(f"{path}, line {max(reader.line_num, 1)}: {exc}", EX_DATA)
    return rows


def read_labels_csv(path: str | Path) -> dict[int, bool]:
    """chunk_id -> label from a gold labels CSV or a prediction log; a
    chunk_id given twice exits 65."""
    seen: set[int] = set()

    def chunk_id(values: list[str]) -> int:
        value = int(values[0])
        if value in seen:
            raise ValueError(f"chunk_id {value} appears twice")
        seen.add(value)
        return value
    return dict(_read_labeled_csv(path, ("chunk_id",), chunk_id))


_FEATURE_COLUMNS = tuple(f"f{i}" for i in range(1, len(FEATURE_NAMES) + 1))


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"feature values must be finite, got {text!r}")
    return value


def _read_feature_csvs(paths: list[str]) -> list[tuple[FeatureVector, bool]]:
    rows: list[tuple[FeatureVector, bool]] = []
    for path in paths:
        rows.extend(_read_labeled_csv(
            path, _FEATURE_COLUMNS,
            lambda v: FeatureVector(*map(_finite, v))))
    return rows


def _write(path: str | Path, data: str | bytes, *, make_dir: bool = False) -> None:
    """Write one output file, first creating its directory when `make_dir`.
    An OSError (no such directory, a file in the way, no permission) exits
    64 with one line naming the path."""
    path = Path(path)
    try:
        if make_dir:
            path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(data, str):
            path.write_text(data, "utf-8")
        else:
            path.write_bytes(data)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}", EX_USAGE)


def _csv(header: list[str], rows) -> str:
    """CSV text of `header` and then `rows`, each line ended by LF."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _print(data: str | bytes) -> None:
    """Write to stdout and flush, so that no output waits in a buffer for
    interpreter exit. A failing write (a full device, a pipe whose reader
    has gone, a closed stdout) exits 64 with one line. A buffered stdout
    keeps what it could not write, so stdout is then pointed at the null
    device: the flush at exit would fail again, after the handler."""
    try:
        if sys.stdout is None:  # Python found file descriptor 1 closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        if isinstance(data, str):
            sys.stdout.write(data)
        else:
            sys.stdout.buffer.write(data)
        sys.stdout.flush()
    except OSError as exc:
        if sys.stdout is not None:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        raise CliError(f"cannot write stdout: {exc.strerror or exc}", EX_USAGE)


def _write_or_print(text: str, output: str | None) -> None:
    if output:
        _write(output, text)
    else:
        _print(text)


def _train_params(args) -> TrainParams:
    """The training settings; a negative seed, negative epochs, a learning
    rate not above 0 or an l2 below 0 (either one not finite) exits 64."""
    if args.seed < 0:
        raise CliError(f"--seed must be 0 or more, got {args.seed}", EX_USAGE)
    if args.epochs < 0:
        raise CliError(f"--epochs must be 0 or more, got {args.epochs}", EX_USAGE)
    if not (math.isfinite(args.learning_rate) and args.learning_rate > 0):
        raise CliError("--learning-rate must be a finite number above 0, "
                       f"got {args.learning_rate}", EX_USAGE)
    if not (math.isfinite(args.l2) and args.l2 >= 0):
        raise CliError(f"--l2 must be a finite number of 0 or more, got {args.l2}",
                       EX_USAGE)
    return TrainParams(epochs=args.epochs, learning_rate=args.learning_rate,
                       l2=args.l2, seed=args.seed)


# ---------------------------------------------------------------------------
# Commands

def _cmd_ingest(args) -> int:
    tree = _load_document(args.input, args.format)
    _write_or_print(tree_to_json(tree), args.output)
    return EX_OK


def _parse_ablate_ids(raw: str, flag: str) -> tuple[int, ...]:
    """The feature ids in the value of `flag`; no ids, an id that is not an
    integer or one out of range exits 64, naming `flag`."""
    try:
        ids = tuple(int(part) for part in raw.replace(",", " ").split())
    except ValueError:
        raise CliError(f"{flag} expects integer ids, got {raw!r}", EX_USAGE)
    if not ids:
        raise CliError(f"{flag} needs at least one feature id", EX_USAGE)
    bad = [i for i in ids if not 1 <= i <= len(FEATURE_NAMES)]
    if bad:
        raise CliError(f"{flag} ids out of range: {bad}", EX_USAGE)
    return ids


def _prediction_log(run: pipeline.DocumentRun) -> str:
    return _csv(["chunk_id", "depth", "label", "margin"],
                ([p.chunk_id, p.depth, int(p.label), repr(p.margin)]
                 for p in run.predictions))


def _check_distinct_stems(inputs: list[str]) -> None:
    """Each of several inputs writes `<stem>.procedures.json`, so two inputs
    with one stem (one file given twice included) exit 64."""
    first: dict[str, str] = {}
    for path in inputs:
        stem = Path(path).stem
        if stem in first:
            raise CliError(f"{first[stem]} and {path} would both write "
                           f"{stem}.procedures.json", EX_USAGE)
        first[stem] = path


def _check_distinct_outputs(output: str | None, flag: str,
                            other: str | None) -> None:
    """-o and the output flag `flag` (value `other`) naming one file exit
    64: the later write would replace the earlier."""
    if output and other and os.path.realpath(output) == os.path.realpath(other):
        raise CliError(f"-o {output} and {flag} {other} name one file",
                       EX_USAGE)


def _cmd_extract(args) -> int:
    config = _run_config(args)
    procedure_model = _load_model(ProcedureClassifierModel, Path(args.model))
    actionable_model = _actionable_model(args)
    ablate_ids = (_parse_ablate_ids(args.ablate, "--ablate")
                  if args.ablate is not None else ())
    inputs = args.inputs
    multi = len(inputs) > 1
    if multi:
        _check_distinct_stems(inputs)
    else:
        _check_distinct_outputs(args.output, "--pred-log", args.pred_log)

    trees = [_load_document(path, args.format) for path in inputs]

    def extract_one(index: int, diagnostics: list[tuple[int, str]]) -> None:
        """Run input `index` and write its outputs, after adding its
        --dump-graphs text to `diagnostics`."""
        path = inputs[index]
        run = pipeline.run_document(
            trees[index], actionable_model, procedure_model, config,
            propagate=not args.no_propagation, ablate_ids=ablate_ids)
        if args.dump_graphs:
            header = f"# document {path}\n" if multi else ""
            diagnostics.append((index, header + "".join(
                f"# chunk {chunk.id}\n"
                + describe_graph([s.tagged for item in run.annotations[chunk.id].items
                                  for s in item.sentences])
                + "\n" for chunk in run.chunks)))
        payload = extractor.serialize(run.procedures)
        stem = Path(path).stem
        if multi:
            _write(Path(args.output or ".") / (stem + ".procedures.json"),
                   payload, make_dir=True)
        elif args.output:
            _write(args.output, payload)
        else:
            _print(payload)
        if args.pred_log:
            target = (Path(args.pred_log) / (stem + ".predictions.csv")
                      if multi else args.pred_log)
            _write(target, _prediction_log(run), make_dir=multi)

    processes = min(_usable_cpus(), len(inputs)) if hasattr(os, "fork") else 1
    shares = _shares([len(tree.nodes) for tree in trees], processes)
    diagnostics, errors = _run_shares(shares, extract_one)
    # Every input before the earliest failing one has run, whatever the
    # split, so stderr is the same for any number of processes.
    error = min(errors, default=None)
    last = error[0] if error else len(inputs)
    sys.stderr.write("".join(text for index, text in sorted(diagnostics)
                             if index <= last))
    if error:
        raise CliError(error[2], error[1])
    return EX_OK


# ---------------------------------------------------------------------------
# Several documents on several processes

# What one share of the inputs leaves: (input index, stderr diagnostics) of
# each document run, and (input index, exit code, message) of the CliError
# that stopped the share, if one did.
ShareReport = tuple[list[tuple[int, str]], tuple[int, int, str] | None]


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, so that a
    `taskset` limit counts, or the machine's count where there is none."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _shares(sizes: list[int], count: int) -> list[list[int]]:
    """The indexes of `sizes` dealt into `count` shares, largest size first,
    each to the share with the smallest total so far; each share in index
    order."""
    shares: list[list[int]] = [[] for _ in range(count)]
    totals = [0] * count
    for index in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        least = totals.index(min(totals))
        shares[least].append(index)
        totals[least] += sizes[index]
    return [sorted(share) for share in shares]


def _run_share(share: list[int], extract_one) -> ShareReport:
    """`extract_one` on each input index of `share` in turn, up to the
    first CliError."""
    diagnostics: list[tuple[int, str]] = []
    for index in share:
        try:
            extract_one(index, diagnostics)
        except CliError as exc:
            return diagnostics, (index, exc.code, str(exc))
    return diagnostics, None


def _fork_worker(share: list[int], extract_one) -> tuple[int, int]:
    """Fork a worker that runs `share` and writes its ShareReport as JSON to
    a pipe in one piece at the end; return (pid, read end of the pipe). The
    worker inherits the parsed documents and the models, and always ends in
    os._exit: it never returns into its caller."""
    sys.stderr.flush()  # so that a worker writing a traceback repeats nothing
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1
    try:
        os.close(read_fd)
        report = json.dumps(_run_share(share, extract_one)).encode("utf-8")
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(report)
        status = 0
    except Exception:  # a fault: show it as an uncaught one would show
        import traceback
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)


def _collect(pid: int, read_fd: int) -> ShareReport | int:
    """A worker's report, read to the end of its pipe before the worker is
    reaped (it may be blocked writing); its exit status if it ended
    without one."""
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, wait_status = os.waitpid(pid, 0)
    status = os.waitstatus_to_exitcode(wait_status)
    if status:
        return status
    diagnostics, error = json.loads(data)
    return [tuple(pair) for pair in diagnostics], tuple(error) if error else None


def _run_shares(shares: list[list[int]],
                extract_one) -> tuple[list[tuple[int, str]], list[tuple[int, int, str]]]:
    """Run the last share in this process and each other one in a forked
    worker (here too, if no process can be forked); return every document's
    diagnostics and every share's error. All workers are reaped, also when
    this process's own share raises. A worker that ends without reporting
    exits 1, as an uncaught exception would."""
    workers: list[tuple[int, int]] = []
    reports: list[ShareReport] = []
    try:
        for share in shares[:-1]:
            try:
                workers.append(_fork_worker(share, extract_one))
            except OSError:
                reports.append(_run_share(share, extract_one))
        reports.append(_run_share(shares[-1], extract_one))
    finally:
        collected = [_collect(pid, read_fd) for pid, read_fd in workers]
    for report in collected:
        if isinstance(report, int):
            raise CliError(f"extract: a worker process ended with status {report} "
                           "before reporting", EX_FAULT)
        reports.append(report)
    return ([pair for diagnostics, _ in reports for pair in diagnostics],
            [error for _, error in reports if error])


def feature_csv_rows(vectors: dict[int, FeatureVector],
                     labels: dict[int, bool] | None) -> str:
    rows = ([chunk_id, *map(repr, vector)] for chunk_id, vector in vectors.items())
    if labels is None:
        return _csv(["chunk_id", *_FEATURE_COLUMNS], rows)
    return _csv(["chunk_id", *_FEATURE_COLUMNS, "label"],
                (row + [int(labels.get(row[0], False))] for row in rows))


def _cmd_features(args) -> int:
    _check_distinct_outputs(args.output, "--chunk-dump", args.chunk_dump)
    config = _run_config(args)
    actionable_model = _actionable_model(args)
    tree = _load_document(args.input, args.format)
    run = pipeline.analyze(tree, actionable_model, config)

    labels = None
    vectors = run.static_features
    if args.labels:
        labels = read_labels_csv(args.labels)
        try:
            vectors = pipeline.teacher_forced_features(run, labels)
        except pipeline.LabelMismatch as exc:
            raise CliError(f"{args.labels}: {exc}", EX_DATA)
    _write_or_print(feature_csv_rows(vectors, labels), args.output)

    if args.chunk_dump:
        _write(args.chunk_dump, _csv(
            ["chunk_id", "kind", "depth", "parent_node", "item_count", "context"],
            ([chunk.id, chunk.kind.value, chunk.depth, chunk.parent_node_id,
              len(chunk.item_node_ids), chunk.context_text]
             for chunk in run.chunks)))
    return EX_OK


def _cmd_train_actionable(args) -> int:
    config = _run_config(args)
    params = _train_params(args)
    labeled = _read_labeled_csv(args.corpus, ("text",), lambda v: v[0])
    model = train_actionable_model(labeled, params, config.tagger())
    _write(args.output, model.to_json())
    sys.stderr.write(f"trained actionable model on {len(labeled)} sentences\n")
    return EX_OK


def _cmd_train(args) -> int:
    params = _train_params(args)
    rows = _read_feature_csvs(args.features)
    model = classifier_mod.train(rows, params)
    _write(args.output, model.to_json())
    sys.stderr.write(f"trained procedure classifier on {len(rows)} chunks\n")
    return EX_OK


_METRICS_HEADER = ["accuracy", "precision", "recall"]


def _metrics_fields(metrics: Metrics) -> list[str]:
    return [f"{metrics.accuracy:.4f}", f"{metrics.precision:.4f}",
            f"{metrics.recall:.4f}"]


def _cmd_eval(args) -> int:
    predicted = read_labels_csv(args.predictions)
    gold = read_labels_csv(args.gold)
    try:
        metrics = classifier_mod.evaluate_labels(predicted, gold)
    except classifier_mod.MissingPrediction as exc:
        raise CliError(f"{args.predictions}: {exc.args[0]}", EX_DATA)
    except classifier_mod.UnlabeledPrediction as exc:
        raise CliError(f"{args.gold}: {exc}", EX_DATA)
    if metrics.undefined_precision or metrics.undefined_recall:
        sys.stderr.write("warning: zero-denominator metric reported as 0\n")
    _print(_csv(_METRICS_HEADER, [_metrics_fields(metrics)]))
    return EX_OK


def _cmd_ablate(args) -> int:
    params = _train_params(args)
    ids = _parse_ablate_ids(args.ids, "--ids") if args.ids is not None else None
    train_rows = _read_feature_csvs(args.train)
    test_rows = _read_feature_csvs(args.test)

    if ids is not None:
        report = [(f"ids:{args.ids}",
                   classifier_mod.ablate(ids, train_rows, test_rows, params))]
    elif args.category:
        ids = FEATURE_CATEGORIES[args.category]
        report = [(args.category,
                   classifier_mod.ablate(ids, train_rows, test_rows, params))]
    else:
        report = ablation_report(train_rows, test_rows, params)
    _write_or_print(_csv(["category", *_METRICS_HEADER],
                         ([name, *_metrics_fields(metrics)]
                          for name, metrics in report)), args.output)
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
    except (DegenerateLabels, EmptyCorpus, NonFinite) as exc:
        sys.stderr.write(exc.args[0] + "\n")
        return EX_DATA


if __name__ == "__main__":
    sys.exit(main())
