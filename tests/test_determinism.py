"""Process-level determinism of the extract path, each check in a fresh
interpreter.

Scoring is plain Python float64 summed in a fixed order, so `procmine
extract` needs no numpy and its margins do not depend on the BLAS kernel
numpy would pick for this CPU (`OPENBLAS_CORETYPE` forces one). Training
still uses numpy; the bundled models and the ablation report must come
out byte for byte under a forced kernel too.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"
DOCS = sorted((CORPUS / "docs").glob("*.md")) + [CORPUS / "nested-fixture.md"]
MODELS = ["--model", str(CORPUS / "models" / "procedure.json"),
          "--actionable-model", str(CORPUS / "models" / "actionable.json")]
# Code for `python -c` that runs `procmine` on the arguments after it.
CLI = "import sys\nfrom procmine import cli\nsys.exit(cli.main(sys.argv[1:]))\n"


def python(code: str, *args: str, coretype: str | None = None,
           hash_seed: str | None = None) -> str:
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    result = subprocess.run([sys.executable, "-c", code, *args], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_extract_never_imports_numpy(tmp_path):
    out = python(
        "import sys\n"
        "from procmine import cli\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "print('numpy' in sys.modules)\n",
        "extract", str(DOCS[0]), *MODELS, "-o", str(tmp_path / "out.json"))
    assert out == "False\n"
    assert (tmp_path / "out.json").read_bytes() == (
        CORPUS / "golden" / (DOCS[0].stem + ".procedures.json")).read_bytes()


# Modules whose import costs start-up milliseconds: `dataclasses` pulls in
# `inspect`, `ast`, `dis` and `tokenize`, and so does `importlib.resources`
# on Python 3.12 and later.
SLOW_IMPORTS = ("dataclasses", "importlib.resources", "inspect")


def test_extract_adds_no_slow_imports(tmp_path):
    """Against the modules a bare interpreter holds before procmine is
    imported (site may import some), `extract` adds none of SLOW_IMPORTS."""
    out = python(
        "import sys\n"
        "bare = set(sys.modules)\n"
        "from procmine import cli\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        f"print(sorted(set({SLOW_IMPORTS!r}) & (sys.modules.keys() - bare)))\n",
        "extract", str(DOCS[0]), *MODELS, "-o", str(tmp_path / "out.json"))
    assert out == "[]\n"
    assert (tmp_path / "out.json").read_bytes() == (
        CORPUS / "golden" / (DOCS[0].stem + ".procedures.json")).read_bytes()


# One section of 23 paragraphs whose 46 sentences all name "the device":
# one chunk of 1,035 mention pairs, above the vector projection's minimum
# and far below what importing numpy costs.
WIDE_CHUNK = "# Device setup\n\n" + \
    "Check the device. The device restarts.\n\n" * 23


def test_extract_on_a_wide_chunk_does_not_import_numpy(tmp_path):
    doc = tmp_path / "device.md"
    doc.write_text(WIDE_CHUNK, encoding="utf-8")
    out = python(
        "import sys\n"
        "from collections import Counter\n"
        "from procmine import annotate, cli, relatedness\n"
        "pairs = []\n"
        "def spy(sentences, score=annotate.chunk_relatedness):\n"
        "    graph = relatedness.build_bipartite(sentences)\n"
        "    counts = Counter(entity for _, entity, _ in graph.edges)\n"
        "    pairs.append(sum(c * (c - 1) // 2 for c in counts.values()))\n"
        "    return score(sentences)\n"
        "annotate.chunk_relatedness = spy\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "print(max(pairs), 'numpy' in sys.modules)\n",
        "extract", str(doc), *MODELS, "-o", str(tmp_path / "fresh.json"),
        "--pred-log", str(tmp_path / "fresh.csv"))
    assert out == "1035 False\n"
    # Here numpy is imported, so the chunk takes the vector path: the
    # margins and the procedures must not change.
    import numpy  # noqa: F401
    from procmine import cli
    assert cli.main(["extract", str(doc), *MODELS, "-o", str(tmp_path / "here.json"),
                     "--pred-log", str(tmp_path / "here.csv")]) == 0
    assert (tmp_path / "here.json").read_bytes() == \
        (tmp_path / "fresh.json").read_bytes()
    assert (tmp_path / "here.csv").read_bytes() == \
        (tmp_path / "fresh.csv").read_bytes()


def test_extract_on_a_wide_chunk_where_numpy_cannot_be_imported(tmp_path):
    """`None` in `sys.modules` makes `import numpy` fail while "numpy" is in
    `sys.modules`, so the chunk's 1,035 pairs choose the vector path; it
    scores them on the dict path instead, to the same bytes."""
    doc = tmp_path / "device.md"
    doc.write_text(WIDE_CHUNK, encoding="utf-8")
    python("import sys\nsys.modules['numpy'] = None\n" + CLI,
           "extract", str(doc), *MODELS, "-o", str(tmp_path / "bare.json"),
           "--pred-log", str(tmp_path / "bare.csv"))
    import numpy  # noqa: F401
    from procmine import cli
    assert cli.main(["extract", str(doc), *MODELS, "-o", str(tmp_path / "here.json"),
                     "--pred-log", str(tmp_path / "here.csv")]) == 0
    assert (tmp_path / "here.json").read_bytes() == \
        (tmp_path / "bare.json").read_bytes()
    assert (tmp_path / "here.csv").read_bytes() == \
        (tmp_path / "bare.csv").read_bytes()


def test_prediction_logs_do_not_depend_on_blas_kernel(tmp_path):
    logs = {}
    for coretype in (None, "Nehalem", "Prescott"):
        log_dir = tmp_path / str(coretype)
        python(CLI, "extract", *map(str, DOCS), *MODELS,
               "-o", str(log_dir / "out"), "--pred-log", str(log_dir),
               coretype=coretype)
        logs[coretype] = {path.name: path.read_bytes()
                          for path in sorted(log_dir.glob("*.predictions.csv"))}
    assert len(logs[None]) == len(DOCS)
    assert logs["Nehalem"] == logs[None]
    assert logs["Prescott"] == logs[None]


def test_outputs_do_not_depend_on_hash_seed(tmp_path):
    """String hashes, and so the iteration order of sets and dicts keyed
    by strings, change with PYTHONHASHSEED; no output byte may."""
    outputs = {}
    for seed in ("0", "1"):
        out = tmp_path / seed
        python(CLI, "extract", *map(str, DOCS), *MODELS,
               "-o", str(out / "procedures"), "--pred-log", str(out / "logs"),
               hash_seed=seed)
        python(CLI, "train-actionable", str(CORPUS / "actionable_sentences.csv"),
               "--seed", "101", "-o", str(out / "actionable.json"),
               hash_seed=seed)
        outputs[seed] = {path.relative_to(out).as_posix(): path.read_bytes()
                         for path in sorted(out.rglob("*")) if path.is_file()}
    assert len(outputs["0"]) == 2 * len(DOCS) + 1
    assert outputs["1"] == outputs["0"]
    for path in DOCS:
        name = path.stem + ".procedures.json"
        assert outputs["0"]["procedures/" + name] == \
            (CORPUS / "golden" / name).read_bytes()


# The training recipe of scripts/build_models.py, writing nothing: both
# models' JSON, then the ablation study over its train/test split as CSV.
RECIPE = (
    "import csv, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import build_models as b\n"
    "from procmine import actionable, classifier\n"
    "from procmine.linear import TrainParams\n"
    "with (b.CORPUS / 'actionable_sentences.csv').open(newline='') as f:\n"
    "    rows = [(r['text'], r['label'] == '1') for r in csv.DictReader(f)]\n"
    "am = actionable.train(rows[:b.TRAIN_SPLIT],\n"
    "                      TrainParams(seed=b.ACTIONABLE_SEED, **b.PARAMS))\n"
    "split = {True: [], False: []}\n"
    "for doc in b.DOCS:\n"
    "    split[doc.name in b.TRAIN_DOCS] += b.labeled_rows(doc, am)\n"
    "params = TrainParams(seed=b.PROCEDURE_SEED, **b.PARAMS)\n"
    "pm = classifier.train(split[True], params)\n"
    "sys.stdout.write(am.to_json() + pm.to_json())\n"
    "for name, m in classifier.ablation_report(split[True], split[False], params):\n"
    "    sys.stdout.write(f'{name},{m.accuracy!r},{m.precision!r},{m.recall!r}\\n')\n")


@functools.cache
def default_kernel_recipe() -> str:
    return python(RECIPE, str(ROOT / "scripts"))


def cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.split(":", 1)[1].split()}


@pytest.mark.parametrize("coretype", [
    "Nehalem",
    pytest.param("Haswell", marks=pytest.mark.skipif(
        "avx2" not in cpu_flags(), reason="the CPU lacks AVX2")),
])
def test_models_rebuild_byte_for_byte_under_forced_kernel(coretype):
    """Both models come out byte for byte under a forced kernel, and the
    ablation study, whose models train in lockstep, reports what it reports
    under the default kernel and what the benchmark's frozen digest holds.
    The fits skip the steps a rounding-error bound certifies as update-free;
    the probe's matrix product sums in a different order under each kernel,
    and the decisions, so the bytes, must not depend on it."""
    models = ((CORPUS / "models" / "actionable.json").read_text("utf-8")
              + (CORPUS / "models" / "procedure.json").read_text("utf-8"))
    forced = python(RECIPE, str(ROOT / "scripts"), coretype=coretype)
    assert forced.startswith(models)
    assert forced == default_kernel_recipe()
    report = forced[len(models):].encode()
    digests = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    assert hashlib.sha256(report).hexdigest() == \
        digests["train"]["ablation_report"]
