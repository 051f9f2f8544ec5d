"""The benchmark's span tracer (`perfbench/tracer.py`) wraps procmine
functions and methods by name: every entry of its TARGETS must resolve, and
a traced document run must record the spans the benchmark reads."""

import importlib.util
from pathlib import Path

from procmine import pipeline
from procmine.actionable import ActionableModel
from procmine.classifier import ProcedureClassifierModel
from procmine.lingua import bundled_data_dir

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_wraps_a_traced_document_run(tmp_path):
    tracer_mod = load_tracer()
    (tmp_path / "goal_cues.txt").write_bytes(
        (bundled_data_dir() / "goal_cues.txt").read_bytes())
    config = pipeline.PipelineConfig(lexicon_dir=tmp_path)
    models = (ActionableModel.load(CORPUS / "models" / "actionable.json"),
              ProcedureClassifierModel.load(CORPUS / "models" / "procedure.json"))
    tree = pipeline.load_document(CORPUS / "docs" / "appliance-quickstart.md")
    originals = {name: getattr(pipeline, name)
                 for name in ("run_document", "analyze")}
    tagger = pipeline.PipelineConfig.tagger

    tracer = tracer_mod.Tracer()
    with tracer.installed():  # a target that no longer resolves raises here
        run = pipeline.run_document(tree, *models, config)
    assert run.procedures
    names = {span.name for span in tracer.spans}
    assert {"pipeline.run", "pipeline.config_load", "lingua.tag",
            "actionable.predict", "classifier.classify", "features.propagate",
            "annotate.sentence"} <= names
    assert all(getattr(pipeline, name) is fn for name, fn in originals.items())
    assert pipeline.PipelineConfig.tagger is tagger
