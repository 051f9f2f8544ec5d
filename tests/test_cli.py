import csv
import errno
import json
import os
import re
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


def model_without(path, name, key, index=None, field=None):
    """A copy of a bundled model without the top-level `key`, or without
    `field` of entry `index` of the list `key`."""
    doc = json.loads((CORPUS / "models" / f"{name}.json").read_text())
    if index is None:
        del doc[key]
    else:
        del doc[key][index][field]
    return write(path, json.dumps(doc))


def edited_vocabulary(path, index, **changes):
    """A copy of the bundled actionable model with keys of one vocabulary
    entry replaced."""
    doc = json.loads((CORPUS / "models" / "actionable.json").read_text())
    doc["vocabulary"][index].update(changes)
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


def csv_rows(path):
    """The rows of the CSV file `path` as dicts, the file closed."""
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def write_bytes(path, data):
    path.write_bytes(data)
    return str(path)


def sdjson_element(path, element):
    return write(path, json.dumps({"version": "sdjson/1", "title": "T",
                                   "elements": [element]}))


def lexicon_dir(path, name, data=None):
    """A lexicon directory whose only entry is the file `name` holding
    `data`, or a directory of that name when `data` is None."""
    path.mkdir()
    if data is None:
        (path / name).mkdir()
    else:
        (path / name).write_bytes(data)
    return str(path)


def dangling_link(path, name):
    """A lexicon directory whose only entry `name` links to nothing."""
    path.mkdir()
    (path / name).symlink_to(path / "missing")
    return str(path)


def named_pipe(path, name):
    """A lexicon directory whose only entry `name` is a named pipe with no
    writer: reading it would block for ever."""
    path.mkdir()
    os.mkfifo(path / name)
    return str(path)


def fifo(path):
    """A named pipe with no writer at `path`."""
    os.mkfifo(path)
    return str(path)


VERB_HEADER = b"base,third,past,participle,gerund\n"
LONE_SURROGATE = ('{"version": "sdjson/1", "title": "T", "elements": '
                  '[{"type": "paragraph", "text": "Open the \\ud800 panel."}]}')
PROCEDURE = str(CORPUS / "models" / "procedure.json")
FEATURE_HEADER = ",".join(["chunk_id", *(f"f{i}" for i in range(1, 16)), "label"])


def two_class_features(positive_f1="1", negative_f1="0"):
    """One row of each class, all ones and all zeros but for f1."""
    return "\n".join([FEATURE_HEADER, f"1,{positive_f1}," + "1," * 14 + "1",
                      f"2,{negative_f1}," + "0," * 14 + "0"]) + "\n"


# Enough for every training command to succeed.
TWO_CLASS_FEATURES = two_class_features()
# Four sentences of two classes in which no word occurs three times.
NO_VOCABULARY_CSV = ("text,label\nOpen the panel.,1\nPress start.,1\n"
                     "The server restarts.,0\nIt is done.,0\n")
ACTIONABLE_CSV = str(CORPUS / "actionable_sentences.csv")
BOM = b"\xef\xbb\xbf"
# An integer literal of 5,001 digits, more than `int` reads from a string.
LONG_INTEGER = "1" + "0" * 5000

# command -> (expected exit code, argv built in a scratch directory)
BAD_INPUTS = {
    "features-malformed-actionable-model": (65, lambda d: [
        "features", str(DOC), "--actionable-model", write(d / "m.json", "{no")]),
    "ablate-missing-csv": (66, lambda d: [
        "ablate", "--train", str(d / "none.csv"), "--test", str(d / "none.csv"),
        "--seed", "1"]),
    "eval-non-integer-chunk-id": (65, lambda d: [
        "eval", write(d / "p.csv", "chunk_id,depth,label,margin\none,0,1,1.0\n"),
        write(d / "g.csv", "chunk_id,label\n1,1\n")]),
    "eval-prediction-without-gold-label": (65, lambda d: [
        "eval", write(d / "p.csv", "chunk_id,depth,label,margin\n1,0,1,1.0\n"
                      "2,0,0,-1.0\n3,0,1,1.0\n"),
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
    "procedure-model-nested-too-deep": (65, lambda d: [
        "extract", str(DOC), "--model", write(d / "p.json", "[" * 200_000)]),
    "actionable-model-nested-too-deep": (65, lambda d: [
        "extract", str(DOC), "--model", PROCEDURE,
        "--actionable-model", write(d / "a.json", "[" * 200_000)]),
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
    # -o and a second output flag naming one file, the second through "..".
    "extract-pred-log-is-the-output": (64, lambda d: [
        "extract", str(DOC), "--model", PROCEDURE, "-o", str(d / "X"),
        "--pred-log", str(d / "X")]),
    "features-chunk-dump-is-the-output": (64, lambda d: [
        "features", str(DOC), "-o", str(d / "X"),
        "--chunk-dump", str(d / ".." / d.name / "X")]),
    "extract-lexicon-dir-is-a-file": (66, lambda d: [
        "extract", str(DOC), "--model", PROCEDURE, "--lexicon-dir", str(DOC),
        "-o", str(d / "out.json")]),
    "extract-seed": (64, lambda d: [
        "extract", str(DOC), "--model", PROCEDURE, "--seed", "1"]),
    "ingest-config-flag": (64, lambda d: [
        "ingest", str(DOC), "--config", write(d / "run.cfg", "\n")]),
    "ingest-lexicon-dir": (64, lambda d: [
        "ingest", str(DOC), "-o", str(d / "t.json"), "--lexicon-dir", str(d)]),
    "train-lexicon-dir": (64, lambda d: [
        "train", write(d / "f.csv", TWO_CLASS_FEATURES), "--seed", "1",
        "-o", str(d / "m.json"), "--lexicon-dir", str(d)]),
    "eval-lexicon-dir": (64, lambda d: [
        "eval", write(d / "p.csv", "chunk_id,depth,label,margin\n1,0,1,1.0\n"),
        write(d / "g.csv", "chunk_id,label\n1,1\n"), "--lexicon-dir", str(d)]),
    "ablate-lexicon-dir": (64, lambda d: [
        "ablate", "--train", write(d / "f.csv", TWO_CLASS_FEATURES),
        "--test", str(d / "f.csv"), "--seed", "1", "-o", str(d / "r.csv"),
        "--lexicon-dir", str(d)]),
    "train-diverges": (65, lambda d: [
        "train", write(d / "f.csv", TWO_CLASS_FEATURES), "--seed", "1",
        "--learning-rate", "1e308", "--l2", "0", "-o", str(d / "m.json")]),
    "train-actionable-diverges": (65, lambda d: [
        "train-actionable", ACTIONABLE_CSV, "--seed", "1", "--learning-rate",
        "1e308", "--l2", "0", "-o", str(d / "m.json")]),
    "train-feature-inf": (65, lambda d: [
        "train", write(d / "f.csv", two_class_features(positive_f1="inf")),
        "--seed", "1", "-o", str(d / "m.json")]),
    "ablate-feature-nan": (65, lambda d: [
        "ablate", "--train",
        write(d / "f.csv", two_class_features(negative_f1="nan")),
        "--test", str(d / "f.csv"), "--seed", "1", "-o", str(d / "r.csv")]),
    "train-feature-range-overflows": (65, lambda d: [
        "train", write(d / "f.csv", two_class_features("1e308", "-1e308")),
        "--seed", "1", "-o", str(d / "m.json")]),
    "train-actionable-empty-vocabulary": (65, lambda d: [
        "train-actionable", write(d / "c.csv", NO_VOCABULARY_CSV), "--seed", "1",
        "-o", str(d / "m.json")]),
    "eval-missing-prediction": (65, lambda d: [
        "eval", write(d / "p.csv", "chunk_id,depth,label,margin\n1,0,1,1.0\n"),
        write(d / "g.csv", "chunk_id,label\n1,1\n2,0\n")]),
    "extract-without-model": (64, lambda d: [
        "extract", str(DOC), "-o", str(d / "out.json")]),
    "extract-actionable-model-repeated-term": (65, lambda d: [
        "extract", str(DOC), "--model", PROCEDURE, "-o", str(d / "out.json"),
        "--actionable-model", edited_vocabulary(d / "a.json", 1, term="account")]),
    "extract-actionable-model-df-not-integer": (65, lambda d: [
        "extract", str(DOC), "--model", PROCEDURE, "-o", str(d / "out.json"),
        "--actionable-model", edited_vocabulary(d / "a.json", 0, df={"n": 17})]),
    "eval-duplicate-gold-row": (65, lambda d: [
        "eval", write(d / "p.csv", "chunk_id,depth,label,margin\n1,0,1,1.0\n"),
        write(d / "g.csv", "chunk_id,label\n1,1\n1,0\n")]),
    "eval-duplicate-prediction-row": (65, lambda d: [
        "eval", write(d / "p.csv", "chunk_id,depth,label,margin\n"
                                   "1,0,1,1.0\n1,0,0,-1.0\n"),
        write(d / "g.csv", "chunk_id,label\n1,1\n")]),
    "features-duplicate-label-row": (65, lambda d: [
        "features", str(DOC), "--labels",
        write(d / "l.csv", "chunk_id,label\n1,1\n1,0\n"), "-o", str(d / "f.csv")]),
    "features-labels-missing-chunks": (65, lambda d: [
        "features", str(DOC), "--labels",
        write(d / "l.csv", "chunk_id,label\n1,1\n"), "-o", str(d / "f.csv")]),
    "features-labels-foreign-chunks": (65, lambda d: [
        "features", str(DOC), "--labels",
        str(CORPUS / "labels" / "release-notes.labels.csv"), "-o", str(d / "f.csv")]),
    "features-labels-missing-and-foreign-chunks": (65, lambda d: [
        "features", str(DOC), "--labels",
        write(d / "l.csv", "chunk_id,label\n1,1\n7,0\n"), "-o", str(d / "f.csv")]),
    "ablate-ids-not-integer": (64, lambda d: [
        "ablate", "--train", write(d / "f.csv", TWO_CLASS_FEATURES),
        "--test", str(d / "f.csv"), "--seed", "1", "--ids", "x"]),
    "ablate-empty-ids": (64, lambda d: [
        "ablate", "--train", write(d / "f.csv", TWO_CLASS_FEATURES),
        "--test", str(d / "f.csv"), "--seed", "1", "--ids", ""]),
    "extract-empty-ablate": (64, lambda d: [
        "extract", str(DOC), "--model", PROCEDURE, "--ablate", "",
        "-o", str(d / "out.json")]),
    "extract-lexicon-negators-not-utf8": (65, lambda d: [
        "extract", str(DOC), "--model", PROCEDURE, "-o", str(d / "out.json"),
        "--lexicon-dir", lexicon_dir(d / "lex", "negators.txt", b"not\n\xff\n")]),
    "extract-lexicon-context-not-utf8": (65, lambda d: [
        "extract", str(DOC), "--model", PROCEDURE, "-o", str(d / "out.json"),
        "--lexicon-dir", lexicon_dir(d / "lex", "context_procedural.txt",
                                     b"steps\n\xff\n")]),
    "extract-lexicon-verbs-is-a-directory": (66, lambda d: [
        "extract", str(DOC), "--model", PROCEDURE, "-o", str(d / "out.json"),
        "--lexicon-dir", lexicon_dir(d / "lex", "verbs.csv")]),
    "extract-lexicon-verbs-dangling-link": (66, lambda d: [
        "extract", str(DOC), "--model", PROCEDURE, "-o", str(d / "out.json"),
        "--lexicon-dir", dangling_link(d / "lex", "verbs.csv")]),
    "extract-lexicon-verbs-named-pipe": (66, lambda d: [
        "extract", str(DOC), "--model", PROCEDURE, "-o", str(d / "out.json"),
        "--lexicon-dir", named_pipe(d / "lex", "verbs.csv")]),
    # Any other input file that is a named pipe exits 66 too, not blocking.
    "extract-document-named-pipe": (66, lambda d: [
        "extract", fifo(d / "doc.md"), "--model", PROCEDURE,
        "-o", str(d / "out.json")]),
    "eval-labels-named-pipe": (66, lambda d: [
        "eval", write(d / "p.csv", "chunk_id,depth,label,margin\n1,0,1,1.0\n"),
        fifo(d / "g.csv")]),
    "train-features-named-pipe": (66, lambda d: [
        "train", fifo(d / "f.csv"), "--seed", "1", "-o", str(d / "m.json")]),
    "extract-model-named-pipe": (66, lambda d: [
        "extract", str(DOC), "--model", fifo(d / "p.json"),
        "-o", str(d / "out.json")]),
    "extract-actionable-model-named-pipe": (66, lambda d: [
        "extract", str(DOC), "--model", PROCEDURE,
        "--actionable-model", fifo(d / "a.json"), "-o", str(d / "out.json")]),
    "extract-lexicon-verbs-other-header": (65, lambda d: [
        "extract", str(DOC), "--model", PROCEDURE, "-o", str(d / "out.json"),
        "--lexicon-dir", lexicon_dir(d / "lex", "verbs.csv", b"a,b\n")]),
    "extract-lexicon-verbs-four-fields": (65, lambda d: [
        "extract", str(DOC), "--model", PROCEDURE, "-o", str(d / "out.json"),
        "--lexicon-dir", lexicon_dir(d / "lex", "verbs.csv",
                                     VERB_HEADER + b"open,opens,opened,opened\n")]),
    "extract-lexicon-goal-cue-bogus-line": (65, lambda d: [
        "extract", str(DOC), "--model", PROCEDURE, "-o", str(d / "out.json"),
        "--lexicon-dir", lexicon_dir(d / "lex", "goal_cues.txt", b"bogus:line\n")]),
    "extract-lexicon-goal-cue-prefix-without-word": (65, lambda d: [
        "extract", str(DOC), "--model", PROCEDURE, "-o", str(d / "out.json"),
        "--lexicon-dir", lexicon_dir(d / "lex", "goal_cues.txt", b"prefix\n")]),
    "extract-lexicon-goal-cue-gerund-maybe": (65, lambda d: [
        "extract", str(DOC), "--model", PROCEDURE, "-o", str(d / "out.json"),
        "--lexicon-dir", lexicon_dir(d / "lex", "goal_cues.txt",
                                     b"gerund_opening:maybe\n")]),
    "features-lexicon-not-utf8": (65, lambda d: [
        "features", str(DOC), "-o", str(d / "f.csv"),
        "--lexicon-dir", lexicon_dir(d / "lex", "negators.txt", b"\xff")]),
    "train-actionable-lexicon-verbs-other-header": (65, lambda d: [
        "train-actionable", ACTIONABLE_CSV, "--seed", "1", "-o", str(d / "m.json"),
        "--lexicon-dir", lexicon_dir(d / "lex", "verbs.csv", b"a,b\n")]),
    "ingest-integer-too-long": (2, lambda d: [
        "ingest", write(d / "h.json", SDJSON_DOC.replace('"level": 1', '"level": '
                                                         + LONG_INTEGER)),
        "-o", str(d / "t.json")]),
    "procedure-model-integer-too-long": (65, lambda d: [
        "extract", str(DOC), "-o", str(d / "out.json"), "--model",
        write(d / "p.json", re.sub(r'"bias": [^,]+', '"bias": ' + LONG_INTEGER,
                                   (CORPUS / "models" / "procedure.json").read_text()))]),
    "procedure-model-without-scaler": (65, lambda d: [
        "extract", str(DOC), "-o", str(d / "out.json"), "--model",
        model_without(d / "p.json", "procedure", "scaler")]),
    "procedure-model-scaler-entry-without-max": (65, lambda d: [
        "extract", str(DOC), "-o", str(d / "out.json"), "--model",
        model_without(d / "p.json", "procedure", "scaler", 0, "max")]),
    "actionable-model-vocabulary-entry-without-df": (65, lambda d: [
        "extract", str(DOC), "--model", PROCEDURE, "-o", str(d / "out.json"),
        "--actionable-model",
        model_without(d / "a.json", "actionable", "vocabulary", 2, "df")]),
    "actionable-model-without-total-sentences": (65, lambda d: [
        "extract", str(DOC), "--model", PROCEDURE, "-o", str(d / "out.json"),
        "--actionable-model",
        model_without(d / "a.json", "actionable", "total_sentences")]),
    "eval-labels-not-utf8": (65, lambda d: [
        "eval", write(d / "p.csv", "chunk_id,depth,label,margin\n1,0,1,1.0\n"),
        write_bytes(d / "g.csv", b"chunk_id,label\n1,1\n2,\xff\n")]),
    # A form feed ends no line for `csv.reader`, so neither for the decoder.
    "eval-labels-form-feed-not-utf8": (65, lambda d: [
        "eval", write(d / "p.csv", "chunk_id,depth,label,margin\n1,0,1,1.0\n"),
        write_bytes(d / "g.csv", b"chunk_id,label\n1,1\x0c\n2,\xff\n")]),
    "eval-labels-form-feed-bad-label": (65, lambda d: [
        "eval", write(d / "p.csv", "chunk_id,depth,label,margin\n1,0,1,1.0\n"),
        write_bytes(d / "g.csv", b"chunk_id,label\n1,1\x0c\n2,x\n")]),
    # A row of fewer or more fields than its header, and an empty file.
    "eval-labels-short-row": (65, lambda d: [
        "eval", write(d / "p.csv", "chunk_id,depth,label,margin\n1,0,1,1.0\n"),
        write(d / "g.csv", "chunk_id,label\n1,1\n2\n")]),
    "eval-labels-long-row": (65, lambda d: [
        "eval", write(d / "p.csv", "chunk_id,depth,label,margin\n1,0,1,1.0\n"),
        write(d / "g.csv", "chunk_id,label\n1,1,9\n")]),
    "eval-labels-empty-file": (65, lambda d: [
        "eval", write(d / "p.csv", "chunk_id,depth,label,margin\n1,0,1,1.0\n"),
        write(d / "g.csv", "")]),
    "train-features-not-utf8": (65, lambda d: [
        "train", write_bytes(d / "f.csv", TWO_CLASS_FEATURES.encode()
                             .replace(b"\n2,", b"\n2,\xe9")),
        "--seed", "1", "-o", str(d / "m.json")]),
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
                            capture_output=True, text=True, timeout=120)
    assert "Traceback" not in result.stderr
    assert result.returncode == code
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == (1 if code else 0)


def run_main(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# BAD_INPUTS row -> its one line of stderr, built from the scratch directory.
# A model file's message names the JSON path of the bad field; a bad byte's,
# its line.
BAD_INPUT_MESSAGES = {
    "ingest-integer-too-long":
        lambda d: f"{d / 'h.json'}: holds an integer too long to read",
    "procedure-model-integer-too-long":
        lambda d: f"cannot load model {d / 'p.json'}: holds an integer too long to read",
    "procedure-model-without-scaler":
        lambda d: f"cannot load model {d / 'p.json'}: $: missing field 'scaler'",
    "procedure-model-scaler-entry-without-max":
        lambda d: f"cannot load model {d / 'p.json'}: $.scaler[0]: missing field 'max'",
    "actionable-model-vocabulary-entry-without-df":
        lambda d: (f"cannot load model {d / 'a.json'}: "
                   "$.vocabulary[2]: missing field 'df'"),
    "actionable-model-without-total-sentences":
        lambda d: (f"cannot load model {d / 'a.json'}: "
                   "$: missing field 'total_sentences'"),
    "eval-prediction-without-gold-label":
        lambda d: f"{d / 'g.csv'}: no label for predicted chunks [2, 3]",
    "eval-labels-not-utf8": lambda d: f"{d / 'g.csv'}, line 3: not UTF-8",
    "eval-labels-form-feed-not-utf8": lambda d: f"{d / 'g.csv'}, line 3: not UTF-8",
    "eval-labels-form-feed-bad-label": lambda d: (
        f"{d / 'g.csv'}, line 3: label must be 0/1 or true/false, got 'x'"),
    "eval-labels-short-row":
        lambda d: f"{d / 'g.csv'}, line 3: expected 2 fields, got 1",
    "eval-labels-long-row":
        lambda d: f"{d / 'g.csv'}, line 2: expected 2 fields, got 3",
    "eval-labels-empty-file":
        lambda d: f"{d / 'g.csv'}, line 1: missing column(s) chunk_id, label",
    "train-features-not-utf8": lambda d: f"{d / 'f.csv'}, line 3: not UTF-8",
    "extract-pred-log-is-the-output":
        lambda d: f"-o {d / 'X'} and --pred-log {d / 'X'} name one file",
    "features-chunk-dump-is-the-output": lambda d: (
        f"-o {d / 'X'} and --chunk-dump {d / '..' / d.name / 'X'} name one file"),
    "features-labels-missing-chunks":
        lambda d: f"{d / 'l.csv'}: no label for chunks [2, 3, 4]",
    "features-labels-foreign-chunks": lambda d: (
        f"{CORPUS / 'labels' / 'release-notes.labels.csv'}: "
        "labels chunks [5, 6, 7, 8, 9] that the document lacks"),
    "features-labels-missing-and-foreign-chunks": lambda d: (
        f"{d / 'l.csv'}: no label for chunks [2, 3, 4]; "
        "labels chunks [7] that the document lacks"),
}


@pytest.mark.parametrize("name", BAD_INPUT_MESSAGES)
def test_bad_input_message(capsys, tmp_path, name):
    code, out, err = run_main(BAD_INPUTS[name][1](tmp_path), capsys)
    assert (code, out) == (BAD_INPUTS[name][0], "")
    assert err == BAD_INPUT_MESSAGES[name](tmp_path) + "\n"


@pytest.mark.parametrize("name", ["MinMaxScaler", "load_json"])
@pytest.mark.parametrize("error", ["KeyError", "ValueError"])
def test_fault_while_loading_a_model_exits_1_with_traceback(name, error):
    """A KeyError or ValueError raised by a fault in procmine while it loads
    a model is no bad model file: it escapes as a traceback and exits 1."""
    code = ("import sys\n"
            "from procmine import cli, linear\n"
            "def fault(*args, **kwargs):\n"
            f"    raise {error}('fault')\n"
            f"linear.{name} = fault\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    result = subprocess.run([sys.executable, "-c", code, "extract", str(DOC),
                             *MODELS], capture_output=True, text=True, timeout=120)
    assert result.returncode == 1
    assert "Traceback" in result.stderr
    assert result.stderr.splitlines()[-1].startswith(f"{error}: ")
    assert result.stdout == ""


# command -> argv built in a scratch directory, for each command that writes
# its output to stdout when given no -o.
STDOUT_COMMANDS = {
    "ingest": lambda d: ["ingest", str(DOC)],
    "extract": lambda d: ["extract", str(DOC), *MODELS],
    "features": lambda d: ["features", str(DOC)],
    "eval": lambda d: [
        "eval", write(d / "p.csv", "chunk_id,depth,label,margin\n1,0,1,1.0\n2,0,0,-1\n"),
        write(d / "g.csv", "chunk_id,label\n1,1\n2,0\n")],
    "ablate": lambda d: [
        "ablate", "--train", write(d / "f.csv", TWO_CLASS_FEATURES),
        "--test", str(d / "f.csv"), "--seed", "1", "--epochs", "5"],
}


def run_with_broken_stdout(argv: list[str], how: str) -> subprocess.CompletedProcess:
    """The CLI run with stdout on /dev/full, on a pipe whose reader has
    gone, or closed. Stdout is buffered, as it is by default, so output
    the failed write leaves in the buffer meets the flush at exit."""
    command = [sys.executable, "-m", "procmine.cli", *argv]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    stdout = None
    if how == "full":
        stdout = os.open("/dev/full", os.O_WRONLY)
    elif how == "reader-gone":
        read_fd, stdout = os.pipe()
        os.close(read_fd)
    else:
        command = ["sh", "-c", 'exec "$@" >&-', "sh", *command]
    try:
        return subprocess.run(command, stdout=stdout, stderr=subprocess.PIPE,
                              env=env, text=True, timeout=120)
    finally:
        if stdout is not None:
            os.close(stdout)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("how, reason", [
    ("full", "No space left on device"), ("reader-gone", "Broken pipe"),
    ("closed", "Bad file descriptor")])
@pytest.mark.parametrize("name", STDOUT_COMMANDS)
def test_failing_stdout_exits_64_with_one_line(tmp_path, name, how, reason):
    result = run_with_broken_stdout(STDOUT_COMMANDS[name](tmp_path), how)
    assert "Traceback" not in result.stderr
    assert (result.returncode, result.stderr) == (
        64, f"cannot write stdout: {reason}\n")


class TestIngest:
    def test_markdown_to_tree_json(self, capsys, tmp_path):
        out = tmp_path / "tree.json"
        code, _, _ = run_main(["ingest", str(DOC), "-f", "md",
                               "-o", str(out)], capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["format"] == "doctree/1"
        assert doc["nodes"][0]["kind"] == "title"

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_markdown_lines_end_at_every_line_end(self, capsys, tmp_path, end):
        src = tmp_path / "cr.md"
        src.write_bytes(end.join([b"# Title", b"", b"## Setup", b"",
                                  b"1. Open the panel.", b"2. Close the lid.", b""]))
        code, out, _ = run_main(["ingest", str(src)], capsys)
        assert code == 0
        assert [(n["kind"], n["text"]) for n in json.loads(out)["nodes"]] == [
            ("title", "Title"), ("heading", "Setup"), ("list_block", ""),
            ("list_item", "Open the panel."), ("list_item", "Close the lid.")]

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

    @pytest.mark.parametrize("name, data, line", [
        ("bad.md", b"# T\n\n\xff bad\n", 3),
        ("bad.json", b'{"version": "sdjson/1", "title": "T\xff", "elements": []}', 1),
    ], ids=["md", "sdjson"])
    def test_invalid_utf8_exits_2_without_traceback(self, tmp_path, name, data,
                                                    line):
        src = tmp_path / name
        src.write_bytes(data)
        result = subprocess.run(
            [sys.executable, "-m", "procmine.cli", "extract", str(src),
             "--model", str(CORPUS / "models" / "procedure.json")],
            capture_output=True, text=True)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr == f"{src}: line {line}: not UTF-8\n"
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
        rows = csv_rows(log)
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

    def test_multiple_inputs_fill_directories_named_with_a_suffix(
            self, capsys, tmp_path):
        """With several inputs `-o` and `--pred-log` are directories, whatever
        their names look like: an existing one is filled, a missing one made."""
        stems = ["appliance-quickstart", "release-notes"]
        out_dir, log_dir = tmp_path / "out.v2", tmp_path / "preds.csv"
        out_dir.mkdir()
        code, _, _ = run_main(["extract", *(str(CORPUS / "docs" / f"{stem}.md")
                                            for stem in stems),
                               *MODELS, "-o", str(out_dir),
                               "--pred-log", str(log_dir)], capsys)
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            f"{stem}.procedures.json" for stem in stems]
        assert sorted(p.name for p in log_dir.iterdir()) == [
            f"{stem}.predictions.csv" for stem in stems]

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
        # Each document's dump opens with its path, in input order; one
        # input alone has no such header.
        assert b"# document " not in alone.stderr
        headers = [line for line in results[0].stderr.decode().splitlines()
                   if line.startswith("# document ")]
        assert headers == [f"# document {path}" for path in argv[:len(CORPUS_DOCS) + 1]]
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
        rows = csv_rows(out)
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
        rows = csv_rows(out)
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
        rows = csv_rows(dump)
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

    def train_actionable(self, capsys, out, *flags):
        code, _, _ = run_main(["train-actionable", ACTIONABLE_CSV, "--seed", "7",
                               "--epochs", "20", "-o", str(out), *flags], capsys)
        assert code == 0
        return out.read_bytes()

    def test_train_actionable_with_the_bundled_lexicons_copied(self, capsys,
                                                               tmp_path):
        import shutil
        from procmine.lingua import bundled_data_dir
        shutil.copytree(bundled_data_dir(), tmp_path / "lexicons")
        assert self.train_actionable(
            capsys, tmp_path / "copy.json", "--lexicon-dir",
            str(tmp_path / "lexicons")) == \
            self.train_actionable(capsys, tmp_path / "bundled.json")

    def test_train_actionable_tags_with_the_lexicon_dir(self, capsys, tmp_path):
        lexicons = lexicon_dir(tmp_path / "lexicons", "verbs.csv", VERB_HEADER)
        assert self.train_actionable(
            capsys, tmp_path / "no-verbs.json", "--lexicon-dir", lexicons) != \
            self.train_actionable(capsys, tmp_path / "bundled.json")

    @pytest.mark.parametrize("ids,message", [
        ("x", "--ids expects integer ids, got 'x'"),
        ("", "--ids needs at least one feature id"),
        ("0,16", "--ids ids out of range: [0, 16]")])
    def test_ablate_ids_errors_name_the_flag(self, capsys, tmp_path, ids, message):
        features = write(tmp_path / "f.csv", TWO_CLASS_FEATURES)
        code, out, err = run_main(["ablate", "--train", features, "--test",
                                   features, "--seed", "1", "--ids", ids], capsys)
        assert (code, out) == (64, "")
        assert err == message + "\n"

    def test_train_requires_seed(self, capsys, tmp_path):
        code, _, err = run_main(
            ["train-actionable", str(CORPUS / "actionable_sentences.csv"),
             "-o", str(tmp_path / "m.json")], capsys)
        assert code == 64
        assert "seed" in err

    def test_train_procedure_from_features(self, capsys, tmp_path):
        features = tmp_path / "features.csv"
        labels = CORPUS / "labels" / "appliance-quickstart.labels.csv"
        run_main(["features", str(DOC),
                  "--actionable-model", str(CORPUS / "models" / "actionable.json"),
                  "--labels", str(labels), "-o", str(features)], capsys)
        # single-doc dump is single-class; build a second class by zeroing
        rows = csv_rows(features)
        with features.open("a", newline="") as handle:
            writer = csv.writer(handle)
            for i in range(2):
                writer.writerow([99 + i] + ["0.0"] * 15 + ["0"])
        out = tmp_path / "model.json"
        code, _, _ = run_main(["train", str(features), "--seed", "7",
                               "-o", str(out)], capsys)
        assert code == 0
        assert json.loads(out.read_text())["version"].startswith("procedure/1")

    def test_non_finite_feature_value_names_file_and_line(self, capsys, tmp_path):
        code, out, err = run_main(BAD_INPUTS["ablate-feature-nan"][1](tmp_path),
                                  capsys)
        assert (code, out) == (65, "")
        assert err == (f"{tmp_path / 'f.csv'}, line 3: "
                       "feature values must be finite, got 'nan'\n")

    @pytest.mark.parametrize("row, message", [
        ("train-actionable-empty-vocabulary",
         "no term appears in at least 3 sentences"),
        ("eval-missing-prediction", "{dir}/p.csv: no prediction for chunks [2]")])
    def test_library_data_error_exits_65_with_its_message(self, capsys, tmp_path,
                                                          row, message):
        code, out, err = run_main(BAD_INPUTS[row][1](tmp_path), capsys)
        assert (code, out, err) == (65, "", message.format(dir=tmp_path) + "\n")

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

    @pytest.mark.parametrize("which,duplicate", [("pred", "1,0,0,-1.0"),
                                                 ("gold", "1,0")])
    def test_duplicate_chunk_id_exits_65_naming_file_and_line(
            self, capsys, tmp_path, which, duplicate):
        files = {"pred": "chunk_id,depth,label,margin\n1,0,1,1.0\n2,0,0,-1.0\n",
                 "gold": "chunk_id,label\n1,1\n2,0\n"}
        files[which] += duplicate + "\n"
        paths = [write(tmp_path / f"{name}.csv", text) for name, text in files.items()]
        code, out, err = run_main(["eval", *paths], capsys)
        assert (code, out) == (65, "")
        assert err == f"{tmp_path / which}.csv, line 4: chunk_id 1 appears twice\n"

    def test_missing_prediction_exit_65(self, capsys, tmp_path):
        pred = tmp_path / "pred.csv"
        gold = tmp_path / "gold.csv"
        pred.write_text("chunk_id,depth,label,margin\n1,0,1,1.0\n")
        gold.write_text("chunk_id,label\n1,1\n2,0\n")
        code, _, _ = run_main(["eval", str(pred), str(gold)], capsys)
        assert code == 65


class TestByteOrderMark:
    """Inputs that start with a UTF-8 byte-order mark, as some editors and
    spreadsheets write them, read as their copies without one."""

    @pytest.mark.parametrize("path", CORPUS_DOCS, ids=lambda path: path.name)
    def test_markdown_document_gives_its_golden_bytes(self, capsys, tmp_path, path):
        doc = tmp_path / path.name
        doc.write_bytes(BOM + path.read_bytes())
        out = tmp_path / "out.json"
        code, _, _ = run_main(["extract", str(doc), *MODELS, "-o", str(out)], capsys)
        assert code == 0
        golden = CORPUS / "golden" / (path.stem + ".procedures.json")
        assert out.read_bytes() == golden.read_bytes()

    def test_markdown_title_is_kept(self, capsys, tmp_path):
        doc = tmp_path / "bom.md"
        doc.write_bytes(BOM + b"# Reset Guide\n\n1. Hold the button.\n")
        code, out, _ = run_main(["ingest", str(doc)], capsys)
        assert code == 0
        assert [n["text"] for n in json.loads(out)["nodes"]] == \
            ["Reset Guide", "", "Hold the button."]

    @pytest.mark.parametrize("name", ["procedure", "actionable"])
    def test_model_file_gives_the_golden_bytes(self, capsys, tmp_path, name):
        model = tmp_path / f"{name}.json"
        model.write_bytes(BOM + (CORPUS / "models" / f"{name}.json").read_bytes())
        models = {"procedure": str(CORPUS / "models" / "procedure.json"),
                  "actionable": str(CORPUS / "models" / "actionable.json"),
                  name: str(model)}
        out = tmp_path / "out.json"
        code, _, err = run_main(["extract", str(DOC), "--model", models["procedure"],
                                 "--actionable-model", models["actionable"],
                                 "-o", str(out)], capsys)
        assert (code, err) == (0, "")
        golden = CORPUS / "golden" / (DOC.stem + ".procedures.json")
        assert out.read_bytes() == golden.read_bytes()

    def test_labels_csv(self, capsys, tmp_path):
        plain = CORPUS / "labels" / "appliance-quickstart.labels.csv"
        marked = tmp_path / plain.name
        marked.write_bytes(BOM + plain.read_bytes())
        assert cli.read_labels_csv(marked) == cli.read_labels_csv(plain)
        assert run_main(["eval", str(marked), str(marked)], capsys) == \
            run_main(["eval", str(plain), str(plain)], capsys)


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
        default_f1 = [r["f1"] for r in csv_rows(out_default)]
        custom_f1 = [r["f1"] for r in csv_rows(out_custom)]
        assert default_f1 == ["0.0"]
        assert custom_f1 == ["1.0"]

    def test_missing_configured_path_exits_66(self, capsys):
        code, out, err = run_main(["features", str(DOC),
                                 "--lexicon-dir", "/does/not/exist",
                                 "-o", "/dev/null"], capsys)
        assert (code, out) == (66, "")
        assert err == ("cannot read lexicon: /does/not/exist is missing or "
                       "is not a directory\n")

    def test_lexicon_dir_that_is_a_file_exits_66(self, capsys, tmp_path):
        code, out, err = run_main(["extract", str(DOC), *MODELS,
                                   "--lexicon-dir", str(DOC),
                                   "-o", str(tmp_path / "out.json")], capsys)
        assert (code, out) == (66, "")
        assert err == f"cannot read lexicon: {DOC} is missing or is not a directory\n"
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command", [["extract", str(DOC), *MODELS],
                                         ["features", str(DOC)]])
    def test_bad_lexicon_file_names_the_file_and_line(self, capsys, tmp_path,
                                                      command):
        lexicons = lexicon_dir(tmp_path / "lexicons", "goal_cues.txt",
                               b"# cues\nprefix:method\nprefix:\xe9\n")
        code, out, err = run_main([*command, "--lexicon-dir", lexicons,
                                   "-o", str(tmp_path / "out")], capsys)
        assert (code, out) == (65, "")
        assert err == f"{lexicons}/goal_cues.txt, line 3: not UTF-8\n"

    def test_unreadable_lexicon_file_exits_66_naming_it(self, capsys, tmp_path):
        lexicons = lexicon_dir(tmp_path / "lexicons", "verbs.csv")
        code, out, err = run_main(["extract", str(DOC), *MODELS, "--lexicon-dir",
                                   lexicons, "-o", str(tmp_path / "out.json")],
                                  capsys)
        assert (code, out) == (66, "")
        assert err.startswith("cannot read lexicon: ")
        assert err.endswith(f"'{lexicons}/verbs.csv'\n")
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("name", ["goal_cues.txt", "verbs.csv"])
    def test_a_file_the_directory_lacks_comes_from_the_bundled_set(
            self, capsys, tmp_path, name):
        from procmine.lingua import bundled_data_dir
        lexicons = tmp_path / "lexicons"
        lexicons.mkdir()
        (lexicons / name).write_bytes((bundled_data_dir() / name).read_bytes())
        for doc in CORPUS_DOCS:
            out = tmp_path / (doc.stem + ".json")
            code, _, _ = run_main(["extract", str(doc), *MODELS,
                                   "--lexicon-dir", str(lexicons),
                                   "-o", str(out)], capsys)
            assert code == 0
            golden = CORPUS / "golden" / (doc.stem + ".procedures.json")
            assert out.read_bytes() == golden.read_bytes(), doc.name


class TestConsoleScript:
    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "procmine.cli", "ingest", str(DOC)],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert json.loads(result.stdout)["format"] == "doctree/1"
