import gc
import importlib.util
import json
import random
import string
import time
import tomllib
import tracemalloc
from fnmatch import fnmatch
from pathlib import Path

import pytest

from procmine import (actionable, chunker, classifier, extractor, features,
                      lingua, pipeline, relatedness)
from procmine.annotate import annotate_chunks
from procmine.goals import GoalCueConfig
from procmine.lingua import LexiconError
from procmine.docmodel import parse_markdown, parse_sdjson
from procmine.pipeline import PipelineConfig

from conftest import (check_links, child_flags, oracle_extract, oracle_score,
                      oracle_update_propagated_features, procedure_fields,
                      procedures_json_fields, random_sdjson, random_tree)

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"
CORPUS_DOCS = sorted(CORPUS.glob("docs/*.md")) + [CORPUS / "nested-fixture.md"]
LEXICON_NAMES = sorted(path.name for path in lingua.bundled_data_dir().iterdir())


def count_lexicon_reads(monkeypatch) -> list[str]:
    """The name of each lexicon file read from here on, one entry per call
    of `lingua.lexicon_lines`."""
    reads = []
    read = lingua.lexicon_lines

    def counted(path):
        reads.append(path.name)
        return read(path)
    for module in (lingua, pipeline):
        monkeypatch.setattr(module, "lexicon_lines", counted)
    return reads


@pytest.fixture(scope="module")
def models():
    return (actionable.ActionableModel.load(CORPUS / "models" / "actionable.json"),
            classifier.ProcedureClassifierModel.load(
                CORPUS / "models" / "procedure.json"))


def perfbench_gen():
    """The benchmark's document generator, loaded read-only."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def paragraph_doc(sentences: int) -> bytes:
    """One paragraph of `sentences` imperatives, each with one entity of its
    own ("the azq panel", "the bzq panel", ...): the `zq` ending keeps the
    tagger from reading a suffix into the made-up word."""
    def word(i):
        letters = ""
        while True:
            i, r = divmod(i, 26)
            letters = string.ascii_lowercase[r] + letters
            if not i:
                return letters + "zq"
    text = " ".join(f"Open the {word(i)} panel." for i in range(sentences))
    return json.dumps({"version": "sdjson/1", "title": "Panels", "elements": [
        {"type": "paragraph", "text": text}]}).encode("utf-8")


def lists_doc(lists: int) -> bytes:
    """`lists` one-item lists side by side under the title, so that a scan
    of a node's siblings walks a share of the whole document."""
    return json.dumps({"version": "sdjson/1", "title": "Lists", "elements": [
        {"type": "list", "ordered": True, "items": [{"text": "Do it."}]}
    ] * lists}).encode("utf-8")


def stage_seconds(doc: bytes, models) -> dict[str, float]:
    """Each stage's wall time on one document, through its public call."""
    tagger, goal_config, lexicons = pipeline._lexicons(None)
    times = {}

    def timed(stage, call):
        started = time.perf_counter()
        result = call()
        times[stage] = time.perf_counter() - started
        return result

    tree = timed("parse", lambda: parse_sdjson(doc))
    timed("split", lambda: tree.sentences)
    chunks = timed("chunk", lambda: chunker.build_chunks(tree))
    annotations = timed("annotate", lambda: annotate_chunks(
        tree, chunks, tagger=tagger, goal_config=goal_config, model=models[0]))
    static = timed("features", lambda: {
        chunk.id: features.compute_static_features(
            chunk, tree, annotations[chunk.id], lexicons) for chunk in chunks})
    predictions = timed("classify", lambda: classifier.classify_tree(
        chunks, static, annotations, models[1]))
    timed("extract", lambda: extractor.serialize(
        extractor.extract(predictions, chunks, tree, annotations)))
    return times


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


def test_prose_wide_relatedness_equals_the_graph_path():
    """Every chunk of the benchmark's prose-wide document, its wide chunk
    of about 270,000 mention pairs included, scores what
    `oracle_score(build_bipartite(...))` gives, to the bit."""
    gen = perfbench_gen()
    tree = parse_sdjson(gen.prose_doc(gen.corpus_sentences(ROOT), 0, 0))
    run = pipeline.analyze(tree, None)
    widest = 0
    for annotation in run.annotations.values():
        sentences = [s.tagged for item in annotation.items for s in item.sentences]
        expected = oracle_score(relatedness.build_bipartite(sentences))
        assert annotation.relatedness.hex() == expected.hex()
        widest = max(widest, len(sentences))
    assert widest > 1000


class TestTeacherForcingLabels:
    def test_labels_must_cover_exactly_the_chunks(self, models):
        run = pipeline.analyze(
            pipeline.load_document(CORPUS / "docs" / "appliance-quickstart.md"),
            models[0])
        with pytest.raises(pipeline.LabelMismatch) as caught:
            pipeline.teacher_forced_features(run, {1: True, 42: False})
        assert isinstance(caught.value, ValueError)
        assert str(caught.value) == ("no label for chunks [2, 3, 4]; "
                                     "labels chunks [42] that the document lacks")


class TestOnePropagationRule:
    """Inference and teacher forcing share
    `features.update_propagated_features`: given the classifier's own
    labels as gold, teacher forcing rebuilds every vector the classifier
    scored."""

    @staticmethod
    def assert_reproduces_snapshots(run):
        labels = {p.chunk_id: p.label for p in run.predictions}
        forced = pipeline.teacher_forced_features(run, labels)
        assert {p.chunk_id: p.feature_snapshot for p in run.predictions} == forced

    @pytest.mark.parametrize("path", CORPUS_DOCS, ids=lambda p: p.stem)
    def test_corpus_documents(self, models, path):
        run = pipeline.run_document(pipeline.load_document(path), *models)
        assert any(p.feature_snapshot.n_inferred_goal for p in run.predictions)
        self.assert_reproduces_snapshots(run)

    def test_random_documents(self, models):
        rng = random.Random(404)
        for _ in range(60):
            self.assert_reproduces_snapshots(run_random_doc(rng, models))


def oracle_runs(models):
    """The corpus documents' runs, then 60 random documents' runs."""
    for path in CORPUS_DOCS:
        yield pipeline.run_document(pipeline.load_document(path), *models)
    rng = random.Random(606)
    for _ in range(60):
        yield run_random_doc(rng, models)


def bits(vector) -> list[str]:
    return [value.hex() for value in vector]


class TestPropagationEqualsOracle:
    """The one-loop propagation against `conftest.child_flags` and the
    two-list update it replaced, bit for bit, under the classifier's own
    labels, all-True, all-False and partial labels."""

    def test_corpus_and_random_documents(self, models):
        propagated = 0
        for run in oracle_runs(models):
            predicted = {p.chunk_id: p.label for p in run.predictions}
            ids = sorted(predicted)
            for labels in (predicted,
                           dict.fromkeys(ids, True), dict.fromkeys(ids, False),
                           {cid: True for cid in ids[::2]},  # the rest omitted
                           {cid: predicted[cid] for cid in ids[1::3]}):
                for chunk in run.chunks:
                    annotation = run.annotations[chunk.id]
                    static = run.static_features[chunk.id]
                    vector = features.update_propagated_features(
                        annotation, run.chunks.child_chunks, labels, static)
                    oracle = oracle_update_propagated_features(
                        annotation, child_flags(chunk, run.chunks, labels),
                        static)
                    assert type(vector) is features.FeatureVector
                    assert bits(vector) == bits(oracle)
                    propagated += vector.n_non_actionable_goals > 0.0
        assert propagated > 100  # the non-actionable fraction was reached


class TestExtractEqualsOracle:
    """`extractor.extract` against the walk it replaced, under the
    classifier's labels and under all-True, all-False and alternating
    labels, so that steps link, fold and stay flat."""

    def test_corpus_and_random_documents(self, models):
        linked = folded = 0
        for run in oracle_runs(models):
            predictions = run.predictions
            for relabel in (None, lambda i: True, lambda i: False,
                            lambda i: i % 2 == 0):
                if relabel is not None:
                    predictions = [p._replace(label=relabel(i))
                                   for i, p in enumerate(run.predictions)]
                args = (predictions, run.chunks, run.tree, run.annotations)
                procedures = extractor.extract(*args)
                assert procedures == oracle_extract(*args)
                steps = [s for p in procedures for s in p.step_list]
                linked += sum(s.child_procedure_id is not None for s in steps)
                folded += sum(s.parent_step_id is not None for s in steps)
        assert linked > 100 and folded > 100  # both kinds of step were built


class TestLinearWork:
    """Per-document work, memory and time that grow no faster than the
    document."""

    def test_one_split_per_node_one_tag_per_sentence(self, models, monkeypatch):
        tree = random_tree(random.Random(5), max_elements=400)
        nodes = len(tree.nodes)
        assert nodes > 500
        calls = {"split": 0, "tag": 0}
        split, tag = lingua.split_sentences, lingua.Tagger.tag

        def counting_split(text):
            calls["split"] += 1
            return split(text)

        def counting_tag(self, text):
            calls["tag"] += 1
            return tag(self, text)

        for module in (lingua, chunker, features):  # every importing module
            monkeypatch.setattr(module, "split_sentences", counting_split)
        monkeypatch.setattr(lingua.Tagger, "tag", counting_tag)
        run = pipeline.run_document(tree, None, models[1])

        assert len(run.chunks) > 100
        assert calls["split"] <= nodes
        # every item sentence once, plus the title once as the introducing
        # node of the chunks below it; a heading's reading comes from its item
        sentences = sum(len(item.sentences) for a in run.annotations.values()
                        for item in a.items)
        assert calls["tag"] == sentences + 1

    def test_memory_peak_grows_linearly_with_node_count(self, models):
        """The `tracemalloc` peak of one run on an 8k-node synth document
        stays below 16 times the peak on a 1k-node one: about 10 when
        memory grows linearly with the nodes, 58 when `annotate_chunks`
        keeps a copy of the tree's nodes per chunk. The peak is deterministic, so one run of
        each size suffices, after a warm-up run that loads the lexicons
        and fills the tagger's table."""
        gen = perfbench_gen()
        peaks = {}
        for size in ("1k", "8k"):
            doc = gen.synth_doc(3, 0, size)
            pipeline.run_document(parse_sdjson(doc), *models)
            tree = parse_sdjson(doc)
            tracemalloc.start()
            try:
                pipeline.run_document(tree, *models)
                peaks[size] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["8k"] < 16 * peaks["1k"], peaks

    def test_no_stage_is_quadratic(self, models):
        """Each stage's time on an input 8 times larger stays below 24 times
        its time on the smaller one: about 8 when the stage grows linearly,
        about 64 when it is quadratic. Putting back the features' whole-tree
        scan per chunk, the chunker's `siblings.index` scan or the split's
        search of each sentence's prefix gave 62-71.

        The inputs are synth documents of 1k and 8k nodes, one paragraph of
        1k and of 8k sentences, and 500 and 4,000 one-item lists under the
        title. The paragraph's entities never repeat, because the relatedness
        projection is quadratic by definition in one entity's mentions
        within a chunk. Each time is the least of 3 runs interleaved over
        the inputs, after a warm-up run, with the cyclic garbage collector
        paused so that no collection lands in a stage's time."""
        gen = perfbench_gen()
        inputs = {("synth", "1k"): gen.synth_doc(3, 0, "1k"),
                  ("synth", "8k"): gen.synth_doc(3, 0, "8k"),
                  ("paragraph", "1k"): paragraph_doc(1000),
                  ("paragraph", "8k"): paragraph_doc(8000),
                  ("lists", "1k"): lists_doc(500),
                  ("lists", "8k"): lists_doc(4000)}
        tree = parse_sdjson(inputs["paragraph", "8k"])
        tagger = pipeline._lexicons(None)[0]
        surfaces = [surface for text in tree.sentences[1]
                    for surface, _ in relatedness.extract_entities(tagger.tag(text))]
        assert len(surfaces) == len(set(surfaces)) == 8000
        best: dict[tuple[str, str, str], float] = {}
        gc.disable()
        try:
            for run in range(4):
                for (name, size), doc in inputs.items():
                    gc.collect()
                    for stage, seconds in stage_seconds(doc, models).items():
                        key = (name, size, stage)
                        if run:  # run 0 warms up
                            best[key] = min(best.get(key, seconds), seconds)
        finally:
            gc.enable()
        ratios = {(name, stage): round(best[name, "8k", stage]
                                       / best[name, "1k", stage], 1)
                  for name, size, stage in best if size == "1k"}
        assert max(ratios.values()) < 24, ratios


class TestPipelineConfig:
    def test_each_lexicon_file_from_lexicon_dir_else_bundled(self, tmp_path):
        (tmp_path / "context_procedural.txt").write_text("frobnicate\n")
        (tmp_path / "goal_cues.txt").write_text("prefix:how to\n")
        (tmp_path / "modals.txt").write_text("frobnicate\n")
        config = PipelineConfig(lexicon_dir=tmp_path)
        lexicons, bundled = config.context_lexicons(), PipelineConfig().context_lexicons()
        assert lexicons.procedural == {"frobnicate"}
        assert lexicons.non_procedural == bundled.non_procedural
        assert "steps" in bundled.procedural
        assert config.goal_config().prefixes == ("how to",)
        lexicon, bundled = config.tagger().lexicon, lingua.default_lexicon()
        assert lexicon.closed["frobnicate"] == lingua.MD
        assert lexicon.closed["the"] == bundled.closed["the"] == lingua.DET
        assert lexicon.verb_forms == bundled.verb_forms

    def test_lexicons_read_once_per_process_per_directory(self, tmp_path,
                                                          monkeypatch):
        for name in ("context_nonprocedural.txt", "context_procedural.txt",
                     "goal_cues.txt"):
            (tmp_path / name).write_text("prefix:x\n")
        reads = count_lexicon_reads(monkeypatch)
        config = PipelineConfig(lexicon_dir=tmp_path)
        for _ in range(3):
            assert config.tagger() is config.tagger()
            assert config.goal_config() is config.goal_config()
            assert config.context_lexicons() is config.context_lexicons()
        other = PipelineConfig(lexicon_dir=tmp_path)
        assert other.tagger() is config.tagger()
        assert other.goal_config() is config.goal_config()
        assert other.context_lexicons() is config.context_lexicons()
        assert sorted(reads) == LEXICON_NAMES
        (tmp_path / "second").mkdir()
        PipelineConfig(lexicon_dir=tmp_path / "second").tagger()
        assert sorted(reads) == sorted(LEXICON_NAMES * 2)

    def test_each_lexicon_file_opened_once_over_analyze_calls(self, tmp_path,
                                                              monkeypatch):
        bundled = lingua.bundled_data_dir()
        for name in ("verbs.csv", "goal_cues.txt", "context_procedural.txt"):
            (tmp_path / name).write_bytes((bundled / name).read_bytes())
        reads = count_lexicon_reads(monkeypatch)
        tree = parse_markdown("# T\n\n1. Open the panel.\n2. Press start.\n",
                              source_name="t")
        for _ in range(5):
            pipeline.analyze(tree, None, PipelineConfig(lexicon_dir=tmp_path))
        assert sorted(reads) == LEXICON_NAMES

    def test_config_less_analyze_reads_each_lexicon_once(self, monkeypatch):
        pipeline._lexicons.cache_clear()
        reads = count_lexicon_reads(monkeypatch)
        tree = parse_markdown("# T\n\n1. Open the panel.\n2. Press start.\n",
                              source_name="t")
        for _ in range(5):
            pipeline.analyze(tree, None)
        lexicons = ["context_nonprocedural.txt", "context_procedural.txt",
                    "goal_cues.txt"]
        assert sorted(r for r in reads if r in lexicons) == lexicons

    @pytest.mark.parametrize("name", ["missing", "a-file"])
    def test_lexicon_dir_that_is_not_a_directory_raises(self, tmp_path, name):
        (tmp_path / "a-file").write_text("not a directory\n")
        tree = parse_markdown("# T\n\n1. Open the panel.\n", source_name="t")
        with pytest.raises(OSError):
            pipeline.analyze(tree, None, PipelineConfig(lexicon_dir=tmp_path / name))


class TestLexiconFiles:
    def test_reader_strips_lowercases_and_skips_blanks_and_comments(self, tmp_path):
        path = tmp_path / "adverbs.txt"
        path.write_bytes(b"# adverbs\n  Quickly \n\n  # indented\r\nNEXT\r\n")
        assert lingua.lexicon_lines(path) == [(2, "quickly"), (5, "next")]

    def test_lines_end_where_csv_reader_ends_them(self, tmp_path):
        """Only \\n, \\r\\n and a lone \\r end a line: a form feed, U+0085
        and U+2028 do not, as in `csv.reader` (`str.splitlines` breaks at
        all three)."""
        path = tmp_path / "adverbs.txt"
        path.write_bytes("first\x0cstep\r\nnext\u2028up\rlast\x85\n".encode())
        assert lingua.lexicon_lines(path) == [
            (1, "first\x0cstep"), (2, "next\u2028up"), (3, "last")]

    @pytest.mark.parametrize("name,data,message", [
        ("negators.txt", b"not\n\xff\n", "line 2: not UTF-8"),
        ("adverbs.txt", b"first\rnext\r\nfas\xfft\n", "line 3: not UTF-8"),
        ("adverbs.txt", "first\x0c\u2028\nnext\x85\n".encode() + b"\xff\n",
         "line 3: not UTF-8"),
        ("context_procedural.txt", b"\xfe", "line 1: not UTF-8"),
        ("goal_cues.txt", b"# cues\n\nprefix:how to\nprefix\n",
         "line 4: expected prefix:<word> or gerund_opening:on|off, got 'prefix'"),
        ("goal_cues.txt", b"prefix:\n", "line 1: expected prefix:<word>"),
        ("goal_cues.txt", b"bogus:line\n", "line 1: expected prefix:<word>"),
        ("goal_cues.txt", b"gerund_opening:maybe\n", "line 1: expected prefix:<word>"),
        ("verbs.csv", b"", "line 1: expected the header "
                           "base,third,past,participle,gerund"),
        ("verbs.csv", b"# verbs\na,b\n", "line 2: expected the header"),
        ("verbs.csv", b"base,third,past,participle,gerund\nopen,opens\n",
         "line 2: expected 5 fields, got 2"),
        ("verbs.csv", b"base,third,past,participle,gerund\n"
                      b"open,opens,opened,opened,opening,x\n",
         "line 2: expected 5 fields, got 6"),
    ])
    def test_bad_file_raises_naming_file_and_line(self, tmp_path, name, data,
                                                  message):
        (tmp_path / name).write_bytes(data)
        with pytest.raises(LexiconError) as raised:
            pipeline._lexicons(tmp_path)
        assert str(raised.value).startswith(f"{tmp_path / name}, {message}")

    def test_byte_order_mark_is_dropped(self, tmp_path):
        """Every file, copied with a leading byte-order mark, reads as the
        bundled one: the same lines, line numbers, tagger lexicon, goal cues
        and context lists."""
        bundled = lingua.bundled_data_dir()
        for name in LEXICON_NAMES:
            (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + (bundled / name).read_bytes())
            assert lingua.lexicon_lines(tmp_path / name) == \
                lingua.lexicon_lines(bundled / name), name
        tagger, cues, context = pipeline._lexicons(tmp_path)
        assert tagger.lexicon == lingua.default_lexicon()
        assert (cues, context) == pipeline._lexicons(None)[1:]

    def test_goal_cues_without_a_prefix_keep_the_default_prefixes(self, tmp_path):
        (tmp_path / "goal_cues.txt").write_text("# no prefixes\ngerund_opening:off\n")
        cues = PipelineConfig(lexicon_dir=tmp_path).goal_config()
        assert cues == GoalCueConfig(gerund_opening=False)
        assert cues.prefixes == GoalCueConfig().prefixes

    def test_verb_rows_may_leave_forms_empty(self, tmp_path):
        (tmp_path / "verbs.csv").write_text("Base, Third,past,participle,gerund\n"
                                            "Frob, ,frobbed,,\n")
        lexicon = PipelineConfig(lexicon_dir=tmp_path).tagger().lexicon
        assert lexicon.verb_forms == {"frob": {"base"}, "frobbed": {"past"}}

    def test_bundled_set_passes_the_strict_reader(self):
        pipeline._lexicons.cache_clear()
        tagger, cues, context = pipeline._lexicons(None)
        assert cues == GoalCueConfig()
        assert context.procedural and context.non_procedural
        lexicon = lingua.load_lexicon(None)  # a fresh read, not the cached one
        assert lexicon == tagger.lexicon
        assert len(lexicon.verb_forms) > 500 and len(lexicon.closed) > 100

    def test_the_files_read_are_the_bundled_and_packaged_files(self, tmp_path,
                                                               monkeypatch):
        reads = count_lexicon_reads(monkeypatch)
        pipeline._lexicons(tmp_path)  # empty: each file from the bundled set
        assert len(LEXICON_NAMES) == 12
        assert sorted(reads) == LEXICON_NAMES
        pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text("utf-8"))
        globs = pyproject["tool"]["setuptools"]["package-data"]["procmine"]
        for name in LEXICON_NAMES:
            assert any(fnmatch(f"data/{name}", glob) for glob in globs), name
