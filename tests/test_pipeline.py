import json
import random
from pathlib import Path

import pytest

from procmine import (actionable, chunker, classifier, extractor, features,
                      lingua, pipeline)
from procmine.cli import main
from procmine.docmodel import DocTree, Kind, parse_markdown, parse_sdjson
from procmine.pipeline import ConfigError, PipelineConfig
from procmine.relatedness import DEFAULT_ROLE_WEIGHTS, Role

from conftest import (check_links, procedure_fields, procedures_json_fields,
                      random_sdjson, random_tree)

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


@pytest.fixture(scope="module")
def models():
    return (actionable.ActionableModel.load(CORPUS / "models" / "actionable.json"),
            classifier.ProcedureClassifierModel.load(
                CORPUS / "models" / "procedure.json"))


def run_random_doc(rng, models):
    tree = parse_sdjson(json.dumps(random_sdjson(rng)))
    return pipeline.run_document(tree, models[0], models[1])


class TestPipelineProperties:
    def test_random_documents_uphold_output_invariants(self, models):
        rng = random.Random(2718)
        parents = children = 0
        for _ in range(40):
            run = run_random_doc(rng, models)
            # every chunk predicted exactly once, deepest level first
            assert {p.chunk_id for p in run.predictions} == \
                set(run.chunks.chunks)
            depths = [p.depth for p in run.predictions]
            assert depths == sorted(depths, reverse=True)
            # one procedure per positive prediction
            positives = sum(p.label for p in run.predictions)
            assert len(run.procedures) == positives
            # snapshot audit holds under the bundled model
            for p in run.predictions:
                assert models[1].score(p.feature_snapshot) == p.margin
            # links resolve, sequence ids unique, the JSON carries every field
            check_links(run.procedures)
            steps = [s for p in run.procedures for s in p.step_list]
            parents += sum(s.parent_step_id is not None for s in steps)
            children += sum(s.child_procedure_id is not None for s in steps)
            ids = [p.sequence_id for p in run.procedures]
            assert len(ids) == len(set(ids))
            payload = extractor.serialize(run.procedures)
            assert procedures_json_fields(payload) == \
                procedure_fields(run.procedures)
        assert parents > 10 and children > 40  # both kinds of link were checked

    def test_same_document_twice_is_byte_identical(self, models):
        rng = random.Random(99)
        doc = json.dumps(random_sdjson(rng))
        first = pipeline.run_document(parse_sdjson(doc), *models)
        second = pipeline.run_document(parse_sdjson(doc), *models)
        assert extractor.serialize(first.procedures) == \
            extractor.serialize(second.procedures)
        assert [(p.chunk_id, p.label, p.margin) for p in first.predictions] == \
            [(p.chunk_id, p.label, p.margin) for p in second.predictions]

    def test_pipeline_without_actionable_model(self, models):
        # the actionable model is optional; detectors still drive f1/f2
        tree = pipeline.load_document(CORPUS / "nested-fixture.md")
        run = pipeline.run_document(tree, None, models[1])
        labels = {p.chunk_id: p.label for p in run.predictions}
        assert labels == {1: True, 2: True, 3: True}


class TestOnePropagationRule:
    """Inference and teacher forcing share `features.child_flags`: given the
    classifier's own labels as gold, teacher forcing rebuilds every vector
    the classifier scored."""

    @staticmethod
    def assert_reproduces_snapshots(run):
        labels = {p.chunk_id: p.label for p in run.predictions}
        forced = pipeline.teacher_forced_features(run, labels)
        assert {p.chunk_id: p.feature_snapshot for p in run.predictions} == forced

    @pytest.mark.parametrize("path", sorted(CORPUS.glob("docs/*.md"))
                             + [CORPUS / "nested-fixture.md"],
                             ids=lambda p: p.stem)
    def test_corpus_documents(self, models, path):
        run = pipeline.run_document(pipeline.load_document(path), *models)
        assert any(p.feature_snapshot.n_inferred_goal for p in run.predictions)
        self.assert_reproduces_snapshots(run)

    def test_random_documents(self, models):
        rng = random.Random(404)
        for _ in range(60):
            self.assert_reproduces_snapshots(run_random_doc(rng, models))


class TestLinearWork:
    """Counts, not timings: per-document work that must not grow with the
    number of chunks."""

    def test_one_split_per_node_one_preorder_per_document(self, models,
                                                          monkeypatch):
        tree = random_tree(random.Random(5), max_elements=400)
        nodes = len(tree.nodes)
        assert nodes > 500
        calls = {"split": 0, "preorder": 0, "tag": 0}
        split, preorder, tag = (lingua.split_sentences, DocTree.preorder,
                                lingua.Tagger.tag)

        def counting_split(text):
            calls["split"] += 1
            return split(text)

        def counting_preorder(self, start=None):
            calls["preorder"] += 1
            return preorder(self, start)

        def counting_tag(self, text):
            calls["tag"] += 1
            return tag(self, text)

        for module in (lingua, chunker, features):  # every importing module
            monkeypatch.setattr(module, "split_sentences", counting_split)
        monkeypatch.setattr(DocTree, "preorder", counting_preorder)
        monkeypatch.setattr(lingua.Tagger, "tag", counting_tag)
        run = pipeline.run_document(tree, None, models[1])

        assert len(run.chunks) > 100
        assert calls["split"] <= nodes
        assert calls["preorder"] <= 2
        # every item sentence once, plus each heading at most once as the
        # parent of the chunks below it
        sentences = sum(len(item.sentences) for a in run.annotations.values()
                        for item in a.items)
        headings = sum(n.kind in (Kind.HEADING, Kind.TITLE)
                       for n in tree.nodes.values())
        assert calls["tag"] <= sentences + headings


class TestPipelineConfig:
    def test_defaults_without_sources(self):
        config = PipelineConfig.from_sources(None, {})
        assert config == PipelineConfig()
        assert config.role_weights == DEFAULT_ROLE_WEIGHTS

    def test_flag_wins_over_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed=7\nlexicon_dir=from-file\n")
        config = PipelineConfig.from_sources(
            path, {"seed": 3, "lexicon_dir": "from-flag", "procedure_model": None})
        assert config.seed == 3
        assert config.lexicon_dir == Path("from-flag")
        assert config.procedure_model is None

    def test_role_weights_reach_role_dict(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("role_weights=4,2,1\n")
        config = PipelineConfig.from_sources(path, {})
        assert config.role_weights == {Role.SUBJECT: 4.0, Role.OBJECT: 2.0,
                                       Role.OTHER: 1.0}

    def test_two_role_weights_raise(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("role_weights=4 2\n")
        with pytest.raises(ConfigError):
            PipelineConfig.from_sources(path, {})

    @pytest.mark.parametrize("value", ["nan inf -1", "1 2 nan", "1,-inf,1"])
    def test_non_finite_role_weights_raise(self, tmp_path, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"role_weights={value}\n")
        with pytest.raises(ConfigError, match="finite"):
            PipelineConfig.from_sources(path, {})

    @pytest.mark.parametrize("line", ["role_weight=1,2,3",
                                      "procedure_modle=m.json"])
    def test_unknown_key_raises_naming_it(self, tmp_path, line):
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match=line.partition("=")[0]):
            PipelineConfig.from_sources(path, {})

    def test_context_lexicons_from_lexicon_dir_unless_explicit(self, tmp_path):
        (tmp_path / "context_procedural.txt").write_text("frobnicate\n")
        (tmp_path / "context_nonprocedural.txt").write_text("overview\n")
        explicit = tmp_path / "explicit.txt"
        explicit.write_text("glossary\n")
        config = PipelineConfig(lexicon_dir=tmp_path)
        lexicons = config.context_lexicons()
        assert lexicons.procedural == {"frobnicate"}
        assert lexicons.non_procedural == {"overview"}
        config.context_nonprocedural = explicit
        assert config.context_lexicons().non_procedural == {"glossary"}
        assert PipelineConfig().context_lexicons() == \
            features.ContextLexicons.bundled()

    def test_lexicons_read_once_per_config(self, tmp_path, monkeypatch):
        for name in ("context_procedural.txt", "context_nonprocedural.txt",
                     "goal_cues.txt"):
            (tmp_path / name).write_text("x\n")
        reads = []
        read_text = Path.read_text
        monkeypatch.setattr(Path, "read_text", lambda self, *a, **k: (
            reads.append(self.name), read_text(self, *a, **k))[1])
        loads = []
        monkeypatch.setattr(pipeline, "load_lexicon",
                            lambda d: loads.append(d) or lingua.load_lexicon(d))
        config = PipelineConfig(lexicon_dir=tmp_path)
        for _ in range(3):
            assert config.tagger() is config.tagger()
            assert config.goal_config() is config.goal_config()
            assert config.context_lexicons() is config.context_lexicons()
        assert loads == [tmp_path]
        assert sorted(reads) == ["context_nonprocedural.txt",
                                 "context_procedural.txt", "goal_cues.txt"]
        other = PipelineConfig(lexicon_dir=tmp_path)
        other.tagger()
        assert loads == [tmp_path, tmp_path]
        explicit = tmp_path / "explicit.txt"
        explicit.write_text("glossary\n")
        config.context_nonprocedural = explicit
        assert config.context_lexicons().non_procedural == {"glossary"}

    def test_config_less_analyze_reads_each_lexicon_once(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_DEFAULT_CONFIG", PipelineConfig())
        reads = []
        read_text = Path.read_text
        monkeypatch.setattr(Path, "read_text", lambda self, *a, **k: (
            reads.append(self.name), read_text(self, *a, **k))[1])
        tree = parse_markdown("# T\n\n1. Open the panel.\n2. Press start.\n",
                              source_name="t")
        for _ in range(5):
            pipeline.analyze(tree, None)
        lexicons = ["context_nonprocedural.txt", "context_procedural.txt",
                    "goal_cues.txt"]
        assert sorted(r for r in reads if r in lexicons) == lexicons

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# run settings\n\n   \n  # seed=1\nseed = 9\n")
        assert PipelineConfig.from_sources(path, {}).seed == 9

    def test_line_without_equals_exits_65(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("seed 9\n")
        code = main(["ingest", str(CORPUS / "nested-fixture.md"),
                     "--config", str(path), "-o", str(tmp_path / "tree.json")])
        assert code == 65
        assert "expected key=value" in capsys.readouterr().err
