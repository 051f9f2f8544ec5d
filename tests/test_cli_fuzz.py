"""Fuzz the CLI in process: whatever the document bytes, sdjson tree,
model file, lexicon directory or training input and flags, `main` returns
a documented exit code, raises nothing and issues no warning, which a user
would see on stderr. Every document that parses gives a tree the
`validate_tree` oracle accepts, and every extraction gives procedures whose
links the `check_links` oracle accepts. Documents of imperative lists,
several to one `extract` on 1 to 3 processes, reach the extractor's
linking and folding, also in forked workers.

Examples are drawn deterministically and their number is bounded, so the
tests take a few seconds and fail the same way on every run."""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from procmine import cli, extractor, pipeline
from procmine.cli import main
from procmine.lingua import bundled_data_dir

from conftest import assert_well_formed, check_links
from test_cli import FEATURE_HEADER

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
PROCEDURE = CORPUS / "models" / "procedure.json"
ACTIONABLE = CORPUS / "models" / "actionable.json"
MODELS = {path.stem: path.read_text("utf-8") for path in (PROCEDURE, ACTIONABLE)}
EXIT_CODES = {0, 2, 64, 65, 66}
FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                database=None)

# The bundled models make a procedure of the outer list that links to the
# first sublist and folds in the second, so mutated models that still load
# give the link check both kinds of link to look at.
SMALL_DOC = json.dumps({
    "version": "sdjson/1", "title": "Setting up the panel",
    "elements": [
        {"type": "heading", "level": 1, "text": "Installing the agent"},
        {"type": "paragraph", "text": "Complete the following steps:"},
        {"type": "list", "ordered": True, "items": [
            {"text": "Open the panel.",
             "sublist": {"ordered": True, "items": [{"text": "Click Start."},
                                                    {"text": "Type the name."}]}},
            {"text": "Select the mode.",
             "sublist": {"ordered": False, "items": [{"text": "The fast mode."},
                                                     {"text": "The safe mode."}]}},
            {"text": "Restart the service."}]},
    ],
})


def checked(parse):
    """`parse`, asserting the builder's guarantees on every tree it returns."""
    def parse_and_check(*args, **kwargs):
        tree = parse(*args, **kwargs)
        assert_well_formed(tree)
        return tree
    return parse_and_check


def linked(extract):
    """`extract`, asserting that every link in the procedures it returns
    resolves."""
    def extract_and_check(*args, **kwargs):
        procedures = extract(*args, **kwargs)
        check_links(procedures)
        return procedures
    return extract_and_check


def run_cli(files: dict[str, bytes | None], argv, outputs=None) -> int:
    """Write `files` into a fresh directory (a name may hold a `/`; None
    makes a directory) and run `main(argv(directory))` with stdout and
    stderr captured, both parsers and the extractor checked and warnings
    raised as errors, then `outputs(directory)` if given. Any exception
    propagates. The checks hold in forked workers too, where a failed one
    makes `main` return 1."""
    with tempfile.TemporaryDirectory() as scratch, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()), \
            mock.patch.object(pipeline, "parse_sdjson", checked(pipeline.parse_sdjson)), \
            mock.patch.object(pipeline, "parse_markdown",
                              checked(pipeline.parse_markdown)), \
            mock.patch.object(extractor, "extract", linked(extractor.extract)), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        directory = Path(scratch)
        for name, data in files.items():
            path = directory / name
            path.parent.mkdir(parents=True, exist_ok=True)
            if data is None:
                path.mkdir()
            else:
                path.write_bytes(data)
        code = main(argv(directory))
        if outputs is not None:
            outputs(directory)
        return code


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


# Documents of imperative lists that the bundled models turn into
# procedures: every list has 4 to 6 items, and a sublist is either
# imperative too (a child procedure the parent step links to) or
# descriptive (folded into the steps of the list above it).
IMPERATIVES = st.sampled_from(["Open the panel.", "Click Start.", "Type the name.",
                               "Select the mode.", "Restart the service.",
                               "Check the cable.", "Verify the address."])
STATEMENTS = st.sampled_from(["The fast mode.", "The safe mode.",
                              "The light turns green."])
GOALS = st.sampled_from(["Installing the agent", "Configuring the network",
                         "Replacing a disk", "Method 2: reset the unit"])


@st.composite
def procedure_list(draw, depth=0):
    """The lines of one Markdown list, with sublists down to `depth` 2."""
    marker = draw(st.sampled_from(["1. ", "- "]))
    texts = IMPERATIVES if depth == 0 or draw(st.booleans()) else STATEMENTS
    lines = []
    for _ in range(draw(st.integers(4, 6))):
        lines.append("  " * depth + marker + draw(texts))
        if depth < 2 and draw(st.integers(0, 2)) == 0:
            lines += draw(procedure_list(depth + 1))
    return lines


@st.composite
def procedure_document(draw):
    lines = ["# Appliance manual"]
    for _ in range(draw(st.integers(1, 3))):
        lines += ["", "## " + draw(GOALS), ""]
        if draw(st.booleans()):
            lines += ["Complete the following steps:", ""]
        lines += draw(procedure_list())
    return "\n".join(lines) + "\n"


@FUZZ
@given(st.lists(procedure_document(), min_size=2, max_size=4), st.integers(1, 3))
def test_procedure_documents_on_several_processes(documents, processes):
    files = {f"doc{i}.md": text.encode("utf-8") for i, text in enumerate(documents)}
    found = []

    def argv(d: Path) -> list[str]:
        return ["extract", *(str(d / name) for name in files), "--model", str(PROCEDURE),
                "--actionable-model", str(ACTIONABLE), "-o", str(d / "out")]

    def outputs(d: Path) -> None:
        found.extend(json.loads((d / "out" / (Path(name).stem + ".procedures.json"))
                                .read_text("utf-8")) for name in files)

    with mock.patch.object(cli, "_usable_cpus", lambda: processes):
        assert run_cli(files, argv, outputs) == 0
    assert all(found)  # every document gave at least one procedure


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
    of a list or drop or replace one field of an entry."""
    kind = data.draw(st.sampled_from(["document", "drop", "replace", "truncate",
                                      "entry", "field", "drop-field"]))
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
        entry = value[at]
        if kind in ("field", "drop-field") and isinstance(entry, dict) and entry:
            field = data.draw(st.sampled_from(sorted(entry)))
            if kind == "field":
                entry[field] = data.draw(JUNK)
            else:
                del entry[field]
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


BUNDLED_LEXICONS = {path.name: path.read_bytes()
                    for path in bundled_data_dir().iterdir()}
LEXICON_LINES = st.one_of(
    st.sampled_from(["prefix:how to", "gerund_opening:off", "bogus:line", "prefix",
                     "gerund_opening:maybe", "a,b", "open,opens,opened,opened,opening",
                     "open,opens", "# note", "  Steps  ", "base,third,past"]),
    st.text(max_size=20))


def mutate_lexicon(data, name) -> bytes | None:
    """A replacement for the bundled lexicon file `name`: random bytes, the
    bundled bytes cut short, spliced with random bytes or given one more
    line, or None for a directory in its place."""
    kind = data.draw(st.sampled_from(["directory", "bytes", "truncate", "splice",
                                      "line"]))
    if kind == "directory":
        return None
    if kind == "bytes":
        return data.draw(st.binary(max_size=80))
    bundled = BUNDLED_LEXICONS[name]
    at = data.draw(st.integers(0, len(bundled)))
    if kind == "truncate":
        return bundled[:at]
    if kind == "splice":
        return bundled[:at] + data.draw(st.binary(min_size=1, max_size=4)) + bundled[at:]
    lines = bundled.splitlines(keepends=True)
    at = data.draw(st.integers(0, len(lines)))
    line = data.draw(LEXICON_LINES).encode("utf-8") + b"\n"
    return b"".join([*lines[:at], line, *lines[at:]])


# Each example writes its lexicons to a fresh directory: `pipeline._lexicons`
# caches what it read by directory path.
@FUZZ
@given(st.sampled_from(["extract", "features"]),
       st.lists(st.sampled_from(sorted(BUNDLED_LEXICONS)), min_size=1, max_size=3,
                unique=True), st.data())
def test_mutated_lexicon_dir(command, names, data):
    files = {"doc.json": SMALL_DOC.encode("utf-8")}
    files.update((f"lexicons/{name}", mutate_lexicon(data, name)) for name in names)

    def argv(d: Path) -> list[str]:
        if command == "extract":
            args = extract("doc.json")(d)
        else:
            args = ["features", str(d / "doc.json"), "-o", str(d / "f.csv")]
        return [*args, "--lexicon-dir", str(d / "lexicons")]

    assert run_cli(files, argv) in {0, 65, 66}


FEATURE_ROWS = st.lists(st.tuples(
    st.lists(st.sampled_from(["0", "0.25", "1", "3"]), min_size=15, max_size=15),
    st.booleans()), max_size=4)
CORPUS_ROWS = st.lists(st.tuples(
    st.sampled_from(["Open the panel.", "Click Start.", "The server restarts.",
                     "If the light is red, press reset."]),
    st.booleans()), max_size=4)
RATE = st.sampled_from(["1e-3", "1", "1e308", "0", "-1", "inf", "nan"])


# About 9 draws in 10 hold a flag that exits 64, so this test takes more
# examples for enough of them to reach training.
@settings(FUZZ, max_examples=200)
@given(st.sampled_from(["train", "train-actionable", "ablate"]), FEATURE_ROWS,
       CORPUS_ROWS, st.integers(-3, 3), RATE, RATE, st.integers(-3, 3))
def test_training_commands(command, feature_rows, corpus_rows, seed,
                           learning_rate, l2, epochs):
    features = [FEATURE_HEADER] + [",".join([str(i), *values, str(int(label))])
                                   for i, (values, label) in enumerate(feature_rows)]
    corpus = ["text,label"] + [f'"{text}",{int(label)}' for text, label in corpus_rows]
    files = {"f.csv": "\n".join(features).encode("utf-8"),
             "c.csv": "\n".join(corpus).encode("utf-8")}

    def argv(d: Path) -> list[str]:
        flags = ["--seed", str(seed), "--learning-rate", learning_rate,
                 "--l2", l2, "--epochs", str(epochs)]
        if command == "ablate":
            return ["ablate", "--train", str(d / "f.csv"),
                    "--test", str(d / "f.csv"), *flags]
        data = d / ("f.csv" if command == "train" else "c.csv")
        return [command, str(data), "-o", str(d / "m.json"), *flags]

    assert run_cli(files, argv) in EXIT_CODES
