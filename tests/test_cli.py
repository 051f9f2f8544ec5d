import csv
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from procmine import cli, pipeline
from procmine.cli import main

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
DOC = CORPUS / "docs" / "appliance-quickstart.md"
MODELS = ["--model", str(CORPUS / "models" / "procedure.json"),
          "--actionable-model", str(CORPUS / "models" / "actionable.json")]

SDJSON_DOC = json.dumps({
    "version": "sdjson/1",
    "title": "Quick doc",
    "elements": [
        {"type": "heading", "level": 1, "text": "Steps"},
        {"type": "list", "ordered": True,
         "items": [{"text": "Open the panel."}, {"text": "Press the button."}]},
    ],
})


def write(path, text):
    path.write_text(text)
    return str(path)


def truncated_model(path, name, key):
    """A copy of a bundled model with the last entry of `key` dropped."""
    doc = json.loads((CORPUS / "models" / f"{name}.json").read_text())
    doc[key] = doc[key][:-1]
    return write(path, json.dumps(doc))


def edited_model(path, name, **changes):
    """A copy of a bundled model with top-level keys replaced."""
    doc = json.loads((CORPUS / "models" / f"{name}.json").read_text())
    doc.update(changes)
    return write(path, json.dumps(doc))


def hand_model(path, imperative_weight):
    """A procedure model whose margin is imperative_weight * f1 - 1 on
    unscaled features: with weight 2 a chunk of all-imperative items is a
    procedure, with weight 0 nothing is."""
    weights = [imperative_weight] + [0.0] * 14
    return write(path, json.dumps({
        "version": "procedure/1 features=15", "weights": weights, "bias": -1.0,
        "scaler": [{"min": 0.0, "max": 1.0}] * 15}))


def deep_markdown(path, top_items):
    """`top_items`, then a Markdown list nested 1,100 deep below the last."""
    lines = ["# Deep", *top_items]
    lines += ["  " * (d + 1) + f"- option {d}" for d in range(1100)]
    return write(path, "\n".join(lines) + "\n")


def deep_sublists(path, depth):
    """sdjson whose list items chain `depth` sublists (built as text:
    json.dumps itself recurses)."""
    item = '{"text": "leaf"}'
    for _ in range(depth):
        item = '{"text": "level", "sublist": {"ordered": true, "items": [%s]}}' % item
    return write(path, '{"version": "sdjson/1", "title": "Deep", "elements": '
                       '[{"type": "list", "ordered": true, "items": [%s]}]}' % item)


def sdjson_element(path, element):
    return write(path, json.dumps({"version": "sdjson/1", "title": "T",
                                   "elements": [element]}))


LONE_SURROGATE = ('{"version": "sdjson/1", "title": "T", "elements": '
                  '[{"type": "paragraph", "text": "Open the \\ud800 panel."}]}')
PROCEDURE = str(CORPUS / "models" / "procedure.json")
FEATURE_HEADER = ",".join(["chunk_id", *(f"f{i}" for i in range(1, 16)), "label"])
# One row of each class: enough for every training command to succeed.
TWO_CLASS_FEATURES = "\n".join([FEATURE_HEADER, "1," + "1," * 15 + "1",
                                "2," + "0," * 15 + "0"]) + "\n"
ACTIONABLE_CSV = str(CORPUS / "actionable_sentences.csv")

# command -> (expected exit code, argv built in a scratch directory)
BAD_INPUTS = {
    "features-malformed-actionable-model": (65, lambda d: [
        "features", str(DOC), "--actionable-model", write(d / "m.json", "{no")]),
    "ablate-missing-csv": (66, lambda d: [
        "ablate", "--train", str(d / "none.csv"), "--test", str(d / "none.csv"),
        "--seed", "1"]),
    "config-is-directory": (66, lambda d: [
        "ingest", str(DOC), "--config", str(d)]),
    "eval-non-integer-chunk-id": (65, lambda d: [
        "eval", write(d / "p.csv", "chunk_id,depth,label,margin\none,0,1,1.0\n"),
        write(d / "g.csv", "chunk_id,label\n1,1\n")]),
    "eval-gold-without-label": (65, lambda d: [
        "eval", write(d / "p.csv", "chunk_id,depth,label,margin\n1,0,1,1.0\n"),
        write(d / "g.csv", "chunk_id\n1\n")]),
    "train-missing-feature-column": (65, lambda d: [
        "train", write(d / "f.csv", "chunk_id,f1,label\n1,0.9,1\n2,0.1,0\n"),
        "--seed", "1", "-o", str(d / "m.json")]),
    "train-actionable-without-label": (65, lambda d: [
        "train-actionable", write(d / "c.csv", "text\nOpen the panel.\n"),
        "--seed", "1", "-o", str(d / "m.json")]),
    "procedure-model-short-scaler": (65, lambda d: [
        "extract", str(DOC),
        "--model", truncated_model(d / "p.json", "procedure", "scaler")]),
    "actionable-model-short-weights": (65, lambda d: [
        "extract", str(DOC), "--model", str(CORPUS / "models" / "procedure.json"),
        "--actionable-model", truncated_model(d / "a.json", "actionable", "weights")]),
    "ingest-lone-surrogate": (2, lambda d: [
        "ingest", write(d / "s.json", LONE_SURROGATE), "-o", str(d / "t.json")]),
    "extract-lone-surrogate": (2, lambda d: [
        "extract", write(d / "s.json", LONE_SURROGATE), "--model", PROCEDURE,
        "-o", str(d / "out.json")]),
    "extract-sublists-450-deep": (2, lambda d: [
        "extract", deep_sublists(d / "deep.json", 450), "--model", PROCEDURE,
        "-o", str(d / "out.json")]),
    "extract-image-flag-not-boolean": (2, lambda d: [
        "extract", sdjson_element(d / "i.json", {
            "type": "list", "ordered": True,
            "items": [{"text": "Open the panel.", "image": "false"}]}),
        "--model", PROCEDURE, "-o", str(d / "out.json")]),
    "ingest-heading-level-0": (2, lambda d: [
        "ingest", sdjson_element(d / "h.json", {
            "type": "heading", "level": 0, "text": "Setup"}),
        "-o", str(d / "t.json")]),
    "ingest-heading-level-minus-3": (2, lambda d: [
        "ingest", sdjson_element(d / "h.json", {
            "type": "heading", "level": -3, "text": "Setup"}),
        "-o", str(d / "t.json")]),
    "extract-heading-level-0": (2, lambda d: [
        "extract", sdjson_element(d / "h.json", {
            "type": "heading", "level": 0, "text": "Setup"}),
        "--model", PROCEDURE, "-o", str(d / "out.json")]),
    "extract-heading-level-minus-3": (2, lambda d: [
        "extract", sdjson_element(d / "h.json", {
            "type": "heading", "level": -3, "text": "Setup"}),
        "--model", PROCEDURE, "-o", str(d / "out.json")]),
    "procedure-model-not-an-object": (65, lambda d: [
        "extract", str(DOC), "--model", write(d / "p.json", "[]")]),
    "procedure-model-scaler-not-objects": (65, lambda d: [
        "extract", str(DOC), "--model",
        edited_model(d / "p.json", "procedure", scaler=[1] * 15)]),
    "procedure-model-null-weight": (65, lambda d: [
        "extract", str(DOC), "--model",
        edited_model(d / "p.json", "procedure", weights=[None] * 15)]),
    "procedure-model-infinite-bias": (65, lambda d: [
        "extract", str(DOC), "--model",
        edited_model(d / "p.json", "procedure", bias=float("inf"))]),
    "actionable-model-nan-scaler-value": (65, lambda d: [
        "extract", str(DOC), "--model", PROCEDURE, "--actionable-model",
        edited_model(d / "a.json", "actionable",
                     scaler=[{"min": 0.0, "max": float("nan")}] * 110)]),
    "actionable-model-negative-tf-idf-min": (65, lambda d: [
        "extract", str(DOC), "--model", PROCEDURE, "--actionable-model",
        edited_model(d / "a.json", "actionable",
                     scaler=[{"min": -0.5, "max": 1.0}] * 110)]),
    "actionable-model-vocabulary-not-objects": (65, lambda d: [
        "extract", str(DOC), "--model", PROCEDURE, "--actionable-model",
        edited_model(d / "a.json", "actionable", vocabulary=[1] * 107)]),
    "config-unknown-key": (65, lambda d: [
        "ingest", str(DOC), "--config", write(d / "run.cfg", "role_weight=1,2,3\n")]),
    "ingest-output-in-missing-directory": (64, lambda d: [
        "ingest", str(DOC), "-o", str(d / "missing" / "t.json")]),
    "extract-output-in-missing-directory": (64, lambda d: [
        "extract", str(DOC), "--model", PROCEDURE,
        "-o", str(d / "missing" / "out.json")]),
    "extract-many-output-is-a-file": (64, lambda d: [
        "extract", str(DOC), str(CORPUS / "nested-fixture.md"), "--model",
        PROCEDURE, "-o", write(d / "out", "")]),
    "extract-pred-log-in-missing-directory": (64, lambda d: [
        "extract", str(DOC), "--model", PROCEDURE, "-o", str(d / "out.json"),
        "--pred-log", str(d / "missing" / "p.csv")]),
    "features-chunk-dump-in-missing-directory": (64, lambda d: [
        "features", str(DOC), "-o", str(d / "f.csv"),
        "--chunk-dump", str(d / "missing" / "c.csv")]),
    "train-actionable-output-in-missing-directory": (64, lambda d: [
        "train-actionable", str(CORPUS / "actionable_sentences.csv"),
        "--seed", "1", "-o", str(d / "missing" / "m.json")]),
    "train-header-only-csv": (65, lambda d: [
        "train", write(d / "f.csv", FEATURE_HEADER + "\n"),
        "--seed", "1", "-o", str(d / "m.json")]),
    "ablate-header-only-csv": (65, lambda d: [
        "ablate", "--train", write(d / "f.csv", FEATURE_HEADER + "\n"),
        "--test", str(d / "f.csv"), "--seed", "1"]),
    "train-negative-seed": (64, lambda d: [
        "train", write(d / "f.csv", FEATURE_HEADER + "\n"),
        "--seed", "-1", "-o", str(d / "m.json")]),
    "train-actionable-negative-seed": (64, lambda d: [
        "train-actionable", ACTIONABLE_CSV, "--seed", "-1", "-o", str(d / "m.json")]),
    "ablate-negative-seed": (64, lambda d: [
        "ablate", "--train", write(d / "f.csv", FEATURE_HEADER + "\n"),
        "--test", str(d / "f.csv"), "--seed", "-1"]),
    "train-actionable-negative-seed-in-config": (64, lambda d: [
        "train-actionable", ACTIONABLE_CSV, "--config", write(d / "run.cfg", "seed=-2\n"),
        "-o", str(d / "m.json")]),
    "train-negative-l2": (64, lambda d: [
        "train", write(d / "f.csv", FEATURE_HEADER + "\n"), "--seed", "1",
        "--learning-rate", "1", "--l2", "-1", "-o", str(d / "m.json")]),
    "train-actionable-infinite-l2": (64, lambda d: [
        "train-actionable", ACTIONABLE_CSV, "--seed", "1", "--l2", "inf",
        "-o", str(d / "m.json")]),
    "train-actionable-nan-learning-rate": (64, lambda d: [
        "train-actionable", ACTIONABLE_CSV, "--seed", "1", "--learning-rate", "nan",
        "-o", str(d / "m.json")]),
    "ablate-zero-learning-rate": (64, lambda d: [
        "ablate", "--train", write(d / "f.csv", FEATURE_HEADER + "\n"),
        "--test", str(d / "f.csv"), "--seed", "1", "--learning-rate", "0"]),
    "train-negative-epochs": (64, lambda d: [
        "train", write(d / "f.csv", TWO_CLASS_FEATURES), "--seed", "1",
        "--epochs", "-5", "-o", str(d / "m.json")]),
    "train-actionable-negative-epochs": (64, lambda d: [
        "train-actionable", ACTIONABLE_CSV, "--seed", "1", "--epochs", "-5",
        "-o", str(d / "m.json")]),
    "ablate-negative-epochs": (64, lambda d: [
        "ablate", "--train", write(d / "f.csv", TWO_CLASS_FEATURES),
        "--test", str(d / "f.csv"), "--seed", "1", "--epochs", "-1"]),
    "extract-two-inputs-one-output-name": (64, lambda d: [
        "extract", str(DOC), write(d / "appliance-quickstart.json", SDJSON_DOC),
        "--model", PROCEDURE, "-o", str(d / "out")]),
    "extract-one-input-twice": (64, lambda d: [
        "extract", str(DOC), str(CORPUS / "nested-fixture.md"), str(DOC),
        "--model", PROCEDURE, "-o", str(d / "out")]),
    "extract-non-finite-role-weights": (65, lambda d: [
        "extract", str(DOC), "--model", PROCEDURE,
        "--config", write(d / "run.cfg", "role_weights=nan inf -1\n"),
        "-o", str(d / "out.json")]),
    "extract-markdown-1100-deep-no-procedure": (0, lambda d: [
        "extract", deep_markdown(d / "deep.md", ["- option top"]),
        "--model", hand_model(d / "p.json", 0.0), "-o", str(d / "out.json")]),
    "extract-markdown-1100-deep-folded": (0, lambda d: [
        "extract", deep_markdown(d / "deep.md", ["1. Click the icon.",
                                                 "2. Type the value."]),
        "--model", hand_model(d / "p.json", 2.0), "-o", str(d / "out.json")]),
}


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_bad_input_exits_with_code_without_traceback(tmp_path, name):
    code, argv = BAD_INPUTS[name]
    result = subprocess.run([sys.executable, "-m", "procmine.cli", *argv(tmp_path)],
                            capture_output=True, text=True)
    assert "Traceback" not in result.stderr
    assert result.returncode == code
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == (1 if code else 0)


def run_main(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIngest:
    def test_markdown_to_tree_json(self, capsys, tmp_path):
        out = tmp_path / "tree.json"
        code, _, _ = run_main(["ingest", str(DOC), "-f", "md",
                               "-o", str(out)], capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["format"] == "doctree/1"
        assert doc["nodes"][0]["kind"] == "title"

    def test_sdjson_to_stdout(self, capsys, tmp_path):
        src = tmp_path / "doc.json"
        src.write_text(SDJSON_DOC)
        code, out, _ = run_main(["ingest", str(src), "-f", "sdjson"], capsys)
        assert code == 0
        assert json.loads(out)["format"] == "doctree/1"

    def test_schema_error_exits_2(self, capsys, tmp_path):
        src = tmp_path / "bad.json"
        src.write_text('{"version": "sdjson/1", "elements": []}')
        code, _, err = run_main(["ingest", str(src), "-f", "sdjson"], capsys)
        assert code == 2
        assert "no root title" in err

    def test_unknown_format_is_usage_error(self, capsys):
        code, _, _ = run_main(["ingest", str(DOC), "-f", "pdf"], capsys)
        assert code == 64

    @pytest.mark.parametrize("name, data", [
        ("bad.md", b"# T\n\n\xff bad\n"),
        ("bad.json", b'{"version": "sdjson/1", "title": "T\xff", "elements": []}'),
    ], ids=["md", "sdjson"])
    def test_invalid_utf8_exits_2_without_traceback(self, tmp_path, name, data):
        src = tmp_path / name
        src.write_bytes(data)
        result = subprocess.run(
            [sys.executable, "-m", "procmine.cli", "extract", str(src),
             "--model", str(CORPUS / "models" / "procedure.json")],
            capture_output=True, text=True)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "not valid UTF-8" in result.stderr
        assert result.stderr.count("\n") == 1
        assert result.stdout == ""

    def test_unreadable_file_exits_66(self, capsys):
        code, _, _ = run_main(["ingest", "missing.md"], capsys)
        assert code == 66


class TestExtract:
    def test_single_document(self, capsys, tmp_path):
        out = tmp_path / "procedures.json"
        log = tmp_path / "predictions.csv"
        code, _, _ = run_main(["extract", str(DOC), *MODELS, "-o", str(out),
                               "--pred-log", str(log)], capsys)
        assert code == 0
        procedures = json.loads(out.read_text())
        assert len(procedures) == 4
        rows = list(csv.DictReader(log.open()))
        assert [r["chunk_id"] for r in rows]
        depths = [int(r["depth"]) for r in rows]
        assert depths == sorted(depths, reverse=True)

    def test_stdout_output(self, capsys):
        code, out, _ = run_main(["extract", str(DOC), *MODELS], capsys)
        assert code == 0
        assert json.loads(out)

    def test_no_propagation_drops_parent(self, capsys, tmp_path):
        fixture = CORPUS / "nested-fixture.md"
        full = tmp_path / "full.json"
        frozen = tmp_path / "frozen.json"
        assert run_main(["extract", str(fixture), *MODELS, "-o", str(full)],
                        capsys)[0] == 0
        assert run_main(["extract", str(fixture), *MODELS, "-o", str(frozen),
                         "--no-propagation"], capsys)[0] == 0
        assert len(json.loads(full.read_text())) == 3
        assert len(json.loads(frozen.read_text())) == 2

    def test_multiple_inputs_write_one_file_each(self, capsys, tmp_path):
        docs = [str(CORPUS / "docs" / name) for name in
                ("appliance-quickstart.md", "release-notes.md")]
        out_dir = tmp_path / "out"
        code, _, _ = run_main(["extract", *docs, *MODELS, "-o", str(out_dir)],
                              capsys)
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["appliance-quickstart.procedures.json",
                         "release-notes.procedures.json"]

    def test_model_version_mismatch_exits_65(self, capsys, tmp_path):
        bad = tmp_path / "bad-model.json"
        data = json.loads((CORPUS / "models" / "procedure.json").read_text())
        data["version"] = "procedure/9"
        bad.write_text(json.dumps(data))
        code, _, err = run_main(
            ["extract", str(DOC), "--model", str(bad),
             "--actionable-model", str(CORPUS / "models" / "actionable.json")],
            capsys)
        assert code == 65
        assert "version" in err

    def test_dump_graphs_writes_stderr(self, capsys):
        code, out, err = run_main(["extract", str(DOC), *MODELS,
                                   "--dump-graphs"], capsys)
        assert code == 0
        assert "score" in err
        json.loads(out)  # stdout stays machine-readable

    def test_ablate_flag_zeroes_features(self, capsys, tmp_path):
        out = tmp_path / "ablate.json"
        code, _, _ = run_main(["extract", str(CORPUS / "nested-fixture.md"),
                               *MODELS, "-o", str(out),
                               "--ablate", "1,6"], capsys)
        assert code == 0
        # imperative + propagated goal evidence removed: nothing survives
        assert json.loads(out.read_text()) == []

    def test_duplicate_output_names_exit_64_before_any_work(self, capsys, tmp_path):
        other = tmp_path / "b" / "appliance-quickstart.md"
        other.parent.mkdir()
        other.write_text("# T\n\n1. Open the panel.\n")
        out = tmp_path / "out"
        code, _, err = run_main(["extract", str(DOC), str(other), *MODELS,
                                 "-o", str(out)], capsys)
        assert code == 64
        assert err.splitlines() == [f"{DOC} and {other} would both write "
                                    "appliance-quickstart.procedures.json"]
        assert not out.exists()


CORPUS_DOCS = [*sorted((CORPUS / "docs").glob("*.md")), CORPUS / "nested-fixture.md"]


def big_dump_list(path, items=80):
    """One list whose items all name the same entities: its --dump-graphs
    text holds every pair of items as an edge, over 64 KiB for 80 items."""
    lines = ["# Panel", *(f"- Restart the server on the console {i}." for i in range(items))]
    return write(path, "\n".join(lines) + "\n")


def force_processes(monkeypatch, count):
    """Make `extract` see `count` usable CPUs; return the list that records
    each fork."""
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(cli, "_usable_cpus", lambda: count)
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def extract_with_processes(count, argv, timeout=120):
    """`procmine extract` in a fresh interpreter that sees `count` usable
    CPUs, ended after `timeout` seconds."""
    code = ("import sys; from procmine import cli; "
            "cli._usable_cpus = lambda: int(sys.argv[1]); "
            "sys.exit(cli.main(sys.argv[2:]))")
    return subprocess.run([sys.executable, "-c", code, str(count), "extract", *argv],
                          capture_output=True, timeout=timeout)


class TestWorkers:
    """Several inputs run on up to one process per usable CPU, with the same
    bytes out as one process."""

    @pytest.fixture(scope="class")
    def alone(self, tmp_path_factory):
        """(procedures, prediction log) bytes of each corpus document run by
        itself, by stem."""
        d = tmp_path_factory.mktemp("alone")
        results = {}
        for path in CORPUS_DOCS:
            out, log = d / (path.stem + ".json"), d / (path.stem + ".csv")
            assert main(["extract", str(path), *MODELS, "-o", str(out),
                         "--pred-log", str(log)]) == 0
            results[path.stem] = out.read_bytes(), log.read_bytes()
        return results

    @pytest.mark.parametrize("processes", [1, 2, 3])
    def test_outputs_equal_single_runs_and_golden(self, monkeypatch, tmp_path,
                                                  alone, processes):
        forks = force_processes(monkeypatch, processes)
        out, logs = tmp_path / "out", tmp_path / "logs"
        assert main(["extract", *map(str, CORPUS_DOCS), *MODELS, "-o", str(out),
                     "--pred-log", str(logs)]) == 0
        assert len(forks) == processes - 1
        assert_no_child_left()
        assert sorted(p.name for p in out.iterdir()) == sorted(
            stem + ".procedures.json" for stem in alone)
        assert sorted(p.name for p in logs.iterdir()) == sorted(
            stem + ".predictions.csv" for stem in alone)
        for stem, (procedures, log) in alone.items():
            assert (out / (stem + ".procedures.json")).read_bytes() == procedures
            assert (logs / (stem + ".predictions.csv")).read_bytes() == log
            golden = CORPUS / "golden" / (stem + ".procedures.json")
            assert procedures == golden.read_bytes()

    def test_share_that_cannot_fork_runs_here(self, monkeypatch, tmp_path, alone):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)

        def no_process():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_process)
        out = tmp_path / "out"
        assert main(["extract", *map(str, CORPUS_DOCS), *MODELS,
                     "-o", str(out)]) == 0
        for stem, (procedures, _) in alone.items():
            assert (out / (stem + ".procedures.json")).read_bytes() == procedures

    def test_dump_graphs_stderr_same_for_any_count(self, tmp_path):
        big = big_dump_list(tmp_path / "big.md")
        alone = extract_with_processes(1, [big, *MODELS, "-o", str(tmp_path / "big.json"),
                                           "--dump-graphs"])
        assert alone.returncode == 0
        assert len(alone.stderr) > 65536  # more than a pipe holds unread
        # The largest input goes to the first share, which a worker runs.
        argv = [*map(str, CORPUS_DOCS), big, *MODELS, "--dump-graphs"]
        results = [extract_with_processes(n, [*argv, "-o", str(tmp_path / f"out{n}")])
                   for n in (1, 2, 3)]
        assert [r.returncode for r in results] == [0, 0, 0]
        assert results[0].stderr.endswith(alone.stderr)
        assert results[1].stderr == results[0].stderr
        assert results[2].stderr == results[0].stderr
        assert results[0].stdout == results[1].stdout == results[2].stdout == b""

    def test_error_of_earliest_failing_input_and_stderr_same_for_any_count(
            self, monkeypatch, capsys, tmp_path):
        # Inputs 2 and 4 cannot be written: a directory is in the way.
        errors = []
        for processes in (1, 2, 3):
            force_processes(monkeypatch, processes)
            out = tmp_path / f"out{processes}"
            for stem in ("db-troubleshooting", "release-notes"):
                (out / (stem + ".procedures.json")).mkdir(parents=True)
            code, _, err = run_main(["extract", *map(str, CORPUS_DOCS), *MODELS,
                                     "-o", str(out), "--dump-graphs"], capsys)
            assert code == 64
            assert_no_child_left()
            lines = err.splitlines()
            assert lines[-1].startswith(
                f"cannot write {out / 'db-troubleshooting.procedures.json'}: ")
            assert not any(line.startswith("cannot") for line in lines[:-1])
            errors.append(err.replace(str(out), "OUT"))
        assert errors[1] == errors[0] and errors[2] == errors[0]

    @pytest.mark.parametrize("processes", [2, 3])
    def test_output_is_a_file_prints_one_line(self, monkeypatch, capsys,
                                              tmp_path, processes):
        force_processes(monkeypatch, processes)
        code, out, err = run_main(["extract", *map(str, CORPUS_DOCS), *MODELS,
                                   "-o", write(tmp_path / "out", "")], capsys)
        assert code == 64
        assert out == ""
        assert len(err.splitlines()) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("fault", ["raise", "exit"])
    def test_worker_fault_exits_1(self, monkeypatch, capsys, tmp_path, fault):
        forks = force_processes(monkeypatch, 2)
        parent = os.getpid()
        run_document = pipeline.run_document

        def faulty(*args, **kwargs):
            if os.getpid() != parent:
                if fault == "raise":
                    raise RuntimeError("fault in a worker")
                os._exit(3)
            return run_document(*args, **kwargs)

        monkeypatch.setattr(pipeline, "run_document", faulty)
        code, _, err = run_main(["extract", *map(str, CORPUS_DOCS), *MODELS,
                                 "-o", str(tmp_path / "out")], capsys)
        assert len(forks) == 1
        assert code == 1
        status = 1 if fault == "raise" else 3
        assert err.splitlines() == [
            f"extract: a worker process ended with status {status} before reporting"]
        assert_no_child_left()

    def test_fault_in_this_process_reaps_workers_first(self, monkeypatch, tmp_path):
        forks = force_processes(monkeypatch, 3)
        parent = os.getpid()
        run_document = pipeline.run_document

        def faulty(*args, **kwargs):
            if os.getpid() == parent:
                raise RuntimeError("fault in the parent")
            return run_document(*args, **kwargs)

        monkeypatch.setattr(pipeline, "run_document", faulty)
        with pytest.raises(RuntimeError, match="fault in the parent"):
            main(["extract", *map(str, CORPUS_DOCS), *MODELS,
                  "-o", str(tmp_path / "out")])
        assert len(forks) == 2
        assert_no_child_left()

    def test_one_input_or_one_cpu_never_forks(self, monkeypatch, tmp_path):
        def no_fork():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main(["extract", *map(str, CORPUS_DOCS), *MODELS,
                     "-o", str(tmp_path / "out")]) == 0
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
        assert main(["extract", str(DOC), *MODELS,
                     "-o", str(tmp_path / "one.json")]) == 0

    def test_shares_deal_largest_first_and_keep_input_order(self):
        assert cli._shares([5, 1, 9, 4, 4, 2], 2) == [[2, 4], [0, 1, 3, 5]]
        assert cli._shares([3, 3, 3], 3) == [[0], [1], [2]]
        assert cli._shares([7], 1) == [[0]]


class TestFeaturesCommand:
    def test_feature_csv_shape(self, capsys, tmp_path):
        out = tmp_path / "features.csv"
        code, _, _ = run_main(
            ["features", str(DOC),
             "--actionable-model", str(CORPUS / "models" / "actionable.json"),
             "-o", str(out)], capsys)
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 4
        assert list(rows[0]) == ["chunk_id"] + [f"f{i}" for i in range(1, 16)]

    def test_labeled_dump_adds_label_column(self, capsys, tmp_path):
        out = tmp_path / "features.csv"
        labels = CORPUS / "labels" / "appliance-quickstart.labels.csv"
        code, _, _ = run_main(
            ["features", str(DOC),
             "--actionable-model", str(CORPUS / "models" / "actionable.json"),
             "--labels", str(labels), "-o", str(out)], capsys)
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert all(r["label"] == "1" for r in rows)
        # teacher forcing fills the propagated feature from gold children
        heading_row = rows[0]
        assert float(heading_row["f6"]) == 1.0

    def test_chunk_dump(self, capsys, tmp_path):
        dump = tmp_path / "chunks.csv"
        code, _, _ = run_main(
            ["features", str(DOC),
             "--actionable-model", str(CORPUS / "models" / "actionable.json"),
             "-o", str(tmp_path / "f.csv"), "--chunk-dump", str(dump)], capsys)
        assert code == 0
        rows = list(csv.DictReader(dump.open()))
        assert list(rows[0]) == ["chunk_id", "kind", "depth", "parent_node",
                                 "item_count", "context"]


class TestTraining:
    def test_train_actionable_deterministic(self, capsys, tmp_path):
        corpus_csv = CORPUS / "actionable_sentences.csv"
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            code, _, _ = run_main(["train-actionable", str(corpus_csv),
                                   "--seed", "7", "-o", str(out)], capsys)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_train_requires_seed(self, capsys, tmp_path):
        code, _, err = run_main(
            ["train-actionable", str(CORPUS / "actionable_sentences.csv"),
             "-o", str(tmp_path / "m.json")], capsys)
        assert code == 64
        assert "seed" in err

    def test_seed_from_config_file(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("seed=7\n")
        out = tmp_path / "m.json"
        code, _, _ = run_main(
            ["train-actionable", str(CORPUS / "actionable_sentences.csv"),
             "--config", str(config), "-o", str(out)], capsys)
        assert code == 0

    def test_train_procedure_from_features(self, capsys, tmp_path):
        features = tmp_path / "features.csv"
        labels = CORPUS / "labels" / "appliance-quickstart.labels.csv"
        run_main(["features", str(DOC),
                  "--actionable-model", str(CORPUS / "models" / "actionable.json"),
                  "--labels", str(labels), "-o", str(features)], capsys)
        # single-doc dump is single-class; build a second class by zeroing
        rows = list(csv.DictReader(features.open()))
        with features.open("a", newline="") as handle:
            writer = csv.writer(handle)
            for i in range(2):
                writer.writerow([99 + i] + ["0.0"] * 15 + ["0"])
        out = tmp_path / "model.json"
        code, _, _ = run_main(["train", str(features), "--seed", "7",
                               "-o", str(out)], capsys)
        assert code == 0
        assert json.loads(out.read_text())["version"].startswith("procedure/1")

    def test_degenerate_labels_exit_65(self, capsys, tmp_path):
        features = tmp_path / "features.csv"
        labels = CORPUS / "labels" / "appliance-quickstart.labels.csv"
        run_main(["features", str(DOC),
                  "--actionable-model", str(CORPUS / "models" / "actionable.json"),
                  "--labels", str(labels), "-o", str(features)], capsys)
        code, _, _ = run_main(["train", str(features), "--seed", "7",
                               "-o", str(tmp_path / "m.json")], capsys)
        assert code == 65


class TestEvalCommand:
    def test_metrics_line(self, capsys, tmp_path):
        pred = tmp_path / "pred.csv"
        gold = tmp_path / "gold.csv"
        pred.write_text("chunk_id,depth,label,margin\n"
                        "1,0,1,1.0\n2,0,1,0.5\n3,0,0,-0.1\n4,0,1,0.2\n"
                        "5,0,0,-1\n6,0,0,-1\n7,0,0,-1\n8,0,0,-1\n"
                        "9,0,0,-1\n10,0,0,-1\n")
        gold.write_text("chunk_id,label\n1,1\n2,1\n3,1\n4,0\n5,0\n6,0\n"
                        "7,0\n8,0\n9,0\n10,0\n")
        code, out, _ = run_main(["eval", str(pred), str(gold)], capsys)
        assert code == 0
        assert out.splitlines() == ["accuracy,precision,recall",
                                    "0.8000,0.6667,0.6667"]

    def test_missing_prediction_exit_65(self, capsys, tmp_path):
        pred = tmp_path / "pred.csv"
        gold = tmp_path / "gold.csv"
        pred.write_text("chunk_id,depth,label,margin\n1,0,1,1.0\n")
        gold.write_text("chunk_id,label\n1,1\n2,0\n")
        code, _, _ = run_main(["eval", str(pred), str(gold)], capsys)
        assert code == 65


class TestLexiconOverride:
    def test_lexicon_dir_changes_tagging(self, capsys, tmp_path):
        # a lexicon dir without "frobnicate" vs one with it as a verb
        import shutil
        from procmine.lingua import bundled_data_dir
        custom = tmp_path / "lexicons"
        shutil.copytree(bundled_data_dir(), custom)
        with (custom / "verbs.csv").open("a") as handle:
            handle.write("frobnicate,frobnicates,frobnicated,frobnicated,"
                         "frobnicating\n")
        doc = tmp_path / "doc.md"
        doc.write_text("# T\n1. Frobnicate the relay.\n2. Frobnicate the coil.\n")
        out_default = tmp_path / "default.csv"
        out_custom = tmp_path / "custom.csv"
        am = str(CORPUS / "models" / "actionable.json")
        run_main(["features", str(doc), "--actionable-model", am,
                  "-o", str(out_default)], capsys)
        run_main(["features", str(doc), "--actionable-model", am,
                  "--lexicon-dir", str(custom), "-o", str(out_custom)], capsys)
        default_f1 = [r["f1"] for r in csv.DictReader(out_default.open())]
        custom_f1 = [r["f1"] for r in csv.DictReader(out_custom.open())]
        assert default_f1 == ["0.0"]
        assert custom_f1 == ["1.0"]

    def test_missing_configured_path_exits_66(self, capsys):
        code, _, err = run_main(["features", str(DOC),
                                 "--lexicon-dir", "/does/not/exist",
                                 "-o", "/dev/null"], capsys)
        assert code == 66
        assert "lexicon_dir" in err


class TestConsoleScript:
    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "procmine.cli", "ingest", str(DOC)],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert json.loads(result.stdout)["format"] == "doctree/1"
