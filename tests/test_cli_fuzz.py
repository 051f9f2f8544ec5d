"""Fuzz the CLI in process: whatever the document bytes, sdjson tree or
model file, `main` returns a documented exit code and raises nothing, and
every document that parses gives a tree the `validate_tree` oracle accepts.

Examples are drawn deterministically and their number is bounded, so the
tests take a few seconds and fail the same way on every run."""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from procmine import pipeline
from procmine.cli import main

from conftest import assert_well_formed

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
PROCEDURE = CORPUS / "models" / "procedure.json"
ACTIONABLE = CORPUS / "models" / "actionable.json"
MODELS = {path.stem: path.read_text("utf-8") for path in (PROCEDURE, ACTIONABLE)}
EXIT_CODES = {0, 2, 64, 65, 66}
FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                database=None)

SMALL_DOC = json.dumps({
    "version": "sdjson/1", "title": "Setting up the panel",
    "elements": [
        {"type": "heading", "level": 1, "text": "Installing the agent"},
        {"type": "paragraph", "text": "The agent reports to the console."},
        {"type": "list", "ordered": True, "items": [
            {"text": "Open the panel.",
             "sublist": {"ordered": False, "items": [{"text": "Click Start."}]}},
            {"text": "The administrator restarts the service."}]},
    ],
})


def checked(parse):
    """`parse`, asserting the builder's guarantees on every tree it returns."""
    def parse_and_check(*args, **kwargs):
        tree = parse(*args, **kwargs)
        assert_well_formed(tree)
        return tree
    return parse_and_check


def run_cli(files: dict[str, bytes], argv) -> int:
    """Write `files` into a fresh directory and run `main(argv(directory))`
    with stdout and stderr captured and both parsers checked. Any exception
    propagates."""
    with tempfile.TemporaryDirectory() as scratch, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()), \
            mock.patch.object(pipeline, "parse_sdjson", checked(pipeline.parse_sdjson)), \
            mock.patch.object(pipeline, "parse_markdown",
                              checked(pipeline.parse_markdown)):
        directory = Path(scratch)
        for name, data in files.items():
            (directory / name).write_bytes(data)
        return main(argv(directory))


def extract(document: str, model: str | Path = PROCEDURE,
            actionable_model: str | Path = ACTIONABLE):
    """argv for `procmine extract`; relative names are files in the run's
    directory (an absolute path stays as it is under `/`)."""
    def argv(d: Path) -> list[str]:
        return ["extract", str(d / document), "--model", str(d / model),
                "--actionable-model", str(d / actionable_model),
                "-o", str(d / "out.json")]
    return argv


MARKDOWN_PIECES = st.sampled_from([
    "# ", "## ", "###### ", "- ", "* ", "+ ", "1. ", "2) ", "  ", "    ", "\t",
    "\n", "\n\n", "![fig](a.png)", "Click the button.", "Installing the agent",
    "The server restarts.", "If the light is red, press reset.", "Method 2:",
    "é", " ", "\r\n", "`code`", "> ", "[", "]", "(", ")", "0", ".",
])


@FUZZ
@given(st.binary(max_size=300), st.sampled_from([".md", ".json"]))
def test_random_bytes_as_document(data, suffix):
    code = run_cli({"doc" + suffix: data}, extract("doc" + suffix))
    assert code in EXIT_CODES


@FUZZ
@given(st.lists(MARKDOWN_PIECES, max_size=40))
def test_random_markdown(pieces):
    code = run_cli({"doc.md": "".join(pieces).encode("utf-8")}, extract("doc.md"))
    assert code in EXIT_CODES


JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 8),
                 st.floats(allow_nan=True, allow_infinity=True),
                 st.text(max_size=12), st.lists(st.integers(), max_size=2),
                 st.dictionaries(st.text(max_size=4), st.integers(), max_size=2))
TEXT = st.one_of(st.sampled_from(["Open the panel.", "Installing the agent",
                                  "Method 1: reset", "The server restarts.",
                                  "", "  ", "\ud800", "Click Start. Type y."]),
                 st.text(max_size=30))


def maybe(value):
    """`value` 9 times in 10, junk otherwise."""
    return st.one_of(*[value] * 9, JUNK)


def sd_list():
    item = st.fixed_dictionaries(
        {"text": maybe(TEXT)},
        optional={"sublist": maybe(st.deferred(sd_list)),
                  "image": maybe(st.booleans())})
    return st.fixed_dictionaries(
        {"ordered": maybe(st.booleans()),
         "items": maybe(st.lists(maybe(item), max_size=3))},
        optional={"type": maybe(st.just("list"))})


SD_ELEMENT = st.one_of(
    st.fixed_dictionaries({"type": st.just("heading"),
                           "level": maybe(st.integers(0, 7)), "text": maybe(TEXT)},
                          optional={"image": JUNK}),
    st.fixed_dictionaries({"type": st.just("paragraph"), "text": maybe(TEXT)},
                          optional={"image": JUNK}),
    sd_list().map(lambda block: {"type": "list", **block}),
    JUNK,
)
SD_DOC = st.fixed_dictionaries({
    "version": maybe(st.just("sdjson/1")),
    "title": maybe(TEXT),
    "elements": maybe(st.lists(SD_ELEMENT, max_size=6)),
})


@FUZZ
@given(SD_DOC)
def test_random_sdjson_tree(doc):
    data = json.dumps(doc, ensure_ascii=True).encode("utf-8")
    code = run_cli({"doc.json": data}, extract("doc.json"))
    assert code in EXIT_CODES


def mutate(data, doc):
    """One random edit of a model document: replace the whole document,
    drop or replace a top-level key, cut a list short, or replace one entry
    of a list or one field of an entry."""
    kind = data.draw(st.sampled_from(["document", "drop", "replace",
                                      "truncate", "entry", "field"]))
    if kind == "document":
        return data.draw(JUNK)
    key = data.draw(st.sampled_from(sorted(doc)))
    value = doc[key]
    if kind == "drop":
        del doc[key]
    elif kind == "replace" or not isinstance(value, list) or not value:
        doc[key] = data.draw(JUNK)
    elif kind == "truncate":
        doc[key] = value[:data.draw(st.integers(0, len(value) - 1))]
    else:
        at = data.draw(st.integers(0, len(value) - 1))
        if kind == "field" and isinstance(value[at], dict):
            value[at][data.draw(st.sampled_from(sorted(value[at])))] = data.draw(JUNK)
        else:
            value[at] = data.draw(JUNK)
    return doc


@FUZZ
@given(st.sampled_from(sorted(MODELS)), st.data())
def test_mutated_model_file(name, data):
    model = mutate(data, json.loads(MODELS[name]))
    files = {"doc.json": SMALL_DOC.encode("utf-8"),
             "model.json": json.dumps(model).encode("utf-8")}
    if name == "procedure":
        argv = extract("doc.json", model="model.json")
    else:
        argv = extract("doc.json", actionable_model="model.json")
    assert run_cli(files, argv) in EXIT_CODES
