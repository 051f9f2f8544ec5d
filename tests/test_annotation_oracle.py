"""Annotation in one token pass against the oracles in conftest: the path
before it, where each token was a (surface, tag) pair that every detector
lower-cased again and entity extraction ran the imperative detector a
second time. Tags, imperative flags, conditional splits, profiles, goal
readings, entities, bipartite edges, chunk relatedness and actionable
margins must all agree, the margins and relatedness bit for bit.

The random sentences are read by three taggers: the module's, whose table
of surfaces is warm from every earlier example, a fresh one
per example, and a `--lexicon-dir` one whose verb forms include words that
the bundled lexicon tags NOUN. A table shared across lexicons, or one that
keeps a verb form's tag, reads those words wrong."""

import csv
import json
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from procmine import annotate, lingua, pipeline
from procmine.actionable import ActionableModel, predict
from procmine.chunker import ChunkKind
from procmine.docmodel import parse_sdjson
from procmine.goals import GoalCueConfig, annotate_goal
from procmine.lingua import (TAG_TABLE_CAP, TaggedSentence, Tagger,
                             bundled_data_dir, detect_conditional, profile,
                             split_sentences)
from procmine.relatedness import (VECTOR_MIN_MENTION_PAIRS, BipartiteGraph,
                                  _graph_mentions, build_bipartite,
                                  chunk_relatedness, extract_entities,
                                  mention_pairs, project, relatedness_score,
                                  streamed_score)

from conftest import (CORPUS_DIR, OracleSentence, OracleTagger, OracleToken,
                      oracle_annotate_goal, oracle_bipartite_edges,
                      oracle_detect_conditional, oracle_detect_imperative,
                      oracle_extract_entities, oracle_margin, oracle_profile,
                      random_tree)

TAGGER = Tagger()
ORACLE = OracleTagger()
MODEL = ActionableModel.load(CORPUS_DIR / "models" / "actionable.json")
CUE_CONFIGS = (pipeline.PipelineConfig().goal_config(),
               GoalCueConfig(gerund_opening=False, prefixes=("step", "how to")))
CORPUS_DOCS = sorted((CORPUS_DIR / "docs").glob("*.md")) + [
    CORPUS_DIR / "nested-fixture.md"]


# Rows that make "server" and "console", which the bundled lexicon tags
# NOUN by default, verb forms.
EXTRA_VERBS = ("server,servers,servered,servered,servering\n"
               "console,consoles,consoled,consoled,consoling\n")


@pytest.fixture(scope="module")
def readers(tmp_path_factory):
    """A function giving the (tagger, oracle) pairs that read each example:
    the warm module tagger, a fresh one and the `--lexicon-dir` one, which
    stays warm too."""
    directory = tmp_path_factory.mktemp("lexicon")
    verbs = (bundled_data_dir() / "verbs.csv").read_text("utf-8")
    (directory / "verbs.csv").write_text(verbs.rstrip("\n") + "\n" + EXTRA_VERBS,
                                         "utf-8")
    tagger = pipeline.PipelineConfig(lexicon_dir=directory).tagger()
    assert {"server", "console"} <= tagger.lexicon.verb_forms.keys()
    oracle = OracleTagger(tagger.lexicon)
    return lambda: ((TAGGER, ORACLE), (Tagger(), ORACLE), (tagger, oracle))


def assert_same_reading(text: str, tagger: Tagger = TAGGER,
                        oracle: OracleTagger = ORACLE) -> None:
    new, old = tagger.tag(text), oracle.tag(text)
    assert new.surfaces == tuple(t.surface for t in old.tokens)
    assert new.tags == tuple(t.tag for t in old.tokens)
    assert new.lowers == tuple(surface.lower() for surface in new.surfaces)
    # A form that lower-casing leaves alone is no new string: the surface
    # object itself, or the one the tagger's table stored on first sight.
    assert all(lower is surface or lower is tagger.table[surface][0]
               for surface, lower in zip(new.surfaces, new.lowers)
               if lower == surface)
    assert new.imperative is oracle_detect_imperative(old)
    assert detect_conditional(new) == oracle_detect_conditional(old)
    assert profile(new) == oracle_profile(old)
    for config in CUE_CONFIGS:
        for is_heading in (True, False):
            assert annotate_goal(new, is_heading=is_heading, config=config) == \
                oracle_annotate_goal(old, is_heading=is_heading, config=config)
    assert extract_entities(new) == oracle_extract_entities(old)
    assert predict(MODEL, new)[1].hex() == oracle_margin(MODEL, old).hex()


def assert_same_graph(texts: list[str], tagger: Tagger = TAGGER,
                      oracle: OracleTagger = ORACLE) -> None:
    assert build_bipartite([tagger.tag(t) for t in texts]).edges == \
        oracle_bipartite_edges([oracle.tag(t) for t in texts])


def assert_same_relatedness(texts: list[str], tagger: Tagger = TAGGER,
                            oracle: OracleTagger = ORACLE) -> None:
    graph = BipartiteGraph(sentence_count=len(texts), edges=oracle_bipartite_edges(
        [oracle.tag(t) for t in texts]))
    assert chunk_relatedness([tagger.tag(t) for t in texts]).hex() == \
        relatedness_score(project(graph)).hex()


# Words the detectors react to, in mixed case: contractions, "please",
# be-forms and auxiliaries, condition openers, "in case", commas, numbers,
# and characters whose lower-case form differs in length or script.
PIECES = st.sampled_from([
    "Click", "click", "CLICK", "Restart", "restart", "the", "The", "server",
    "Server", "console", "Don't", "DON'T", "isn't", "can't", "doN'T", "n't",
    "please", "Please", "PLEASE", "is", "Is", "was", "WERE", "been", "being",
    "are", "am", "be", "has", "had", "got", "in", "In", "IN", "case", "Case",
    "if", "If", "When", "unless", "Whenever", "to", "To", "on", "not",
    "saved", "restarted", "running", "Creating", "Method", "method", "Step",
    "1", "2.1", "3.", "v2.0", "1st", ",", ".", ";", ":", "(", ")", "!", "?",
    "e.g.", "it", "automatically", "and", "or", "user", "network-tab",
    "config.yaml", "İ", "K", "é", "ß", "Ǆ"])
SEPARATORS = st.sampled_from([" ", " ", " ", "", ", ", "\n"])
SENTENCES = st.lists(st.tuples(PIECES, SEPARATORS), max_size=16).map(
    lambda pairs: "".join(piece + sep for piece, sep in pairs))


class TestRandomSentences:
    @settings(max_examples=500, deadline=None)
    @given(SENTENCES)
    @example("The service was restarted and is running")  # mixed tense
    def test_detector_pieces(self, readers, text):
        for tagger, oracle in readers():
            assert_same_reading(text, tagger, oracle)

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=80))
    def test_any_text(self, readers, text):
        for tagger, oracle in readers():
            assert_same_reading(text, tagger, oracle)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(SENTENCES, min_size=1, max_size=8))
    def test_bipartite_edges(self, readers, texts):
        for tagger, oracle in readers():
            assert_same_graph(texts, tagger, oracle)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(SENTENCES, min_size=2, max_size=8))
    # "server" is first other (after "on"), then the object: the edge
    # keeps the later, larger weight.
    @example(["Click on the server and open the server.", "Open the server."])
    def test_chunk_relatedness(self, readers, texts):
        for tagger, oracle in readers():
            assert_same_relatedness(texts, tagger, oracle)

    def test_chunk_relatedness_streamed(self):
        """A chunk with enough mention pairs for the numpy path, and the
        numpy path on the grouping of the oracle's graph."""
        texts = corpus_texts()[:300]
        assert "numpy" in sys.modules
        assert mention_pairs(build_bipartite(
            [TAGGER.tag(t) for t in texts])) >= VECTOR_MIN_MENTION_PAIRS
        assert_same_relatedness(texts)
        graph = BipartiteGraph(sentence_count=len(texts), edges=oracle_bipartite_edges(
            [ORACLE.tag(t) for t in texts]))
        assert streamed_score(_graph_mentions(graph), len(texts)).hex() == \
            relatedness_score(project(graph)).hex()

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["to", "To", "please", "in"]),
        st.sampled_from([lingua.VB, lingua.VBZ, lingua.NOUN, lingua.ADJ,
                         lingua.DET, lingua.PREP, lingua.PUNCT, lingua.PRON])),
        max_size=16))
    # A run's NOUN stops the look-back for a preposition; an adjective-only
    # stretch does not; "to" governs nothing; a "please" run can come
    # before the verb of an imperative; a run can end the sentence.
    @example([("x", "VB"), ("in", "PREP"), ("x", "NOUN"), ("x", "DET"),
              ("x", "NOUN")])
    @example([("x", "VB"), ("in", "PREP"), ("x", "ADJ"), ("x", "DET"),
              ("x", "NOUN")])
    @example([("x", "VBZ"), ("to", "PREP"), ("x", "NOUN"), ("x", "NOUN")])
    @example([("please", "NOUN"), ("x", "VB"), ("x", "ADJ"), ("x", "NOUN"),
              ("x", "ADJ")])
    def test_entities_of_any_tag_sequence(self, tokens):
        """The one-walk entity extraction against the oracle's runs, verb
        and look-back, on tag sequences that no sentence need produce. One
        tag stands for each way the walk or the imperative test reads a
        tag; "to" and "please" are the words they read."""
        surfaces = tuple(surface for surface, _ in tokens)
        lowers = tuple(surface.lower() for surface in surfaces)
        tags = tuple(tag for _, tag in tokens)
        text = " ".join(surfaces)
        new = TaggedSentence(text, surfaces, lowers, tags,
                             lingua._imperative(tags, lowers))
        old = OracleSentence(text, tuple(OracleToken(*token) for token in tokens))
        assert extract_entities(new) == oracle_extract_entities(old)


class TestTagTable:
    def test_table_stops_at_its_cap(self):
        """More distinct context-free surfaces than the cap, mixed with
        verb forms and `n't` splits: the table never grows past the cap,
        keeps no split token, holds a verb form whose tag depends on the
        tags before it as its kinds, never as a tag, and the tags past the
        cap still match the oracle's."""
        def word(n: int) -> str:
            letters = "".join(chr(ord("a") + int(d)) for d in str(n))
            return ("Qz", "qz")[n % 2] + letters + ("", "ing", "ed", "ly",
                                                    "tion", "able")[n % 6]

        tagger = Tagger()
        words = [word(n) for n in range(TAG_TABLE_CAP + 2000)]
        sentences = [" ".join(["Restart", *words[i:i + 20], "isn't", "is",
                               "saved", "."])
                     for i in range(0, len(words), 20)]
        for k, text in enumerate(sentences):
            sentence = tagger.tag(text)
            assert len(tagger.table) <= TAG_TABLE_CAP
            if k * 20 >= TAG_TABLE_CAP:
                assert sentence.tags == tuple(t.tag for t in ORACLE.tag(text).tokens)
        assert len(tagger.table) == TAG_TABLE_CAP
        assert "isn't" not in tagger.table
        verb_forms = tagger.lexicon.verb_forms
        assert tagger.table["Restart"] == ("restart", verb_forms["restart"])
        assert tagger.table["saved"] == ("saved", verb_forms["saved"])
        assert tagger.table["is"] == ("is", lingua.VBZ)
        assert words[-1] not in tagger.table
        # qzbing: a lower-cased form that is the surface is the key itself
        surface, (lower, tag) = next(entry for entry in tagger.table.items()
                                     if entry[0] == word(1))
        assert lower is surface and tag == lingua.VBG
        assert tagger.table[word(2)] == ("qzced", lingua.VBD)  # Qzced

    def test_warm_table_tags_a_verb_form_by_its_context(self):
        """One surface, three readings, the second round from the table:
        "saved" after a determiner and after a form of "be" is VBN, after
        a noun VBD."""
        tagger = Tagger()
        cases = (("Open the saved file.", lingua.VBN),
                 ("The files were saved.", lingua.VBN),
                 ("The user saved the file.", lingua.VBD))
        for _ in range(2):
            for text, expected in cases:
                new, old = tagger.tag(text), ORACLE.tag(text)
                k = new.surfaces.index("saved")
                assert new.tags[k] == old.tokens[k].tag == expected
        assert tagger.table["saved"] == (
            "saved", tagger.lexicon.verb_forms["saved"])


def corpus_texts() -> list[str]:
    with (CORPUS_DIR / "actionable_sentences.csv").open(newline="") as handle:
        texts = [row["text"] for row in csv.DictReader(handle)]
    for path in CORPUS_DOCS:
        for node in pipeline.load_document(path).nodes:
            texts.append(node.text)
            texts.extend(split_sentences(node.text))
    return texts


class TestCorpus:
    def test_every_sentence_and_node_text(self, readers):
        texts = corpus_texts()
        assert len(texts) > 600
        for tagger, oracle in readers():
            for text in texts:
                assert_same_reading(text, tagger, oracle)

    @pytest.mark.parametrize("path", CORPUS_DOCS, ids=lambda p: p.stem)
    def test_every_chunk_graph(self, path):
        run = pipeline.analyze(pipeline.load_document(path),
                               actionable_model=None)
        for annotation in run.annotations.values():
            assert_same_graph([s.tagged.text for item in annotation.items
                               for s in item.sentences])


# ---------------------------------------------------------------------------
# A heading introducing chunks is read from its heading-group item, not
# tagged again; `_heading_is_goal` tags it on its own and is the oracle.

def assert_intro_goals_match_oracle(tree) -> None:
    config = pipeline.PipelineConfig()
    run = pipeline.analyze(tree, actionable_model=None, config=config)
    for chunk in run.chunks:
        assert run.annotations[chunk.id].parent_is_goal == \
            annotate._heading_is_goal(tree.nodes[chunk.intro_node_id],
                                      tagger=config.tagger(),
                                      goal_config=config.goal_config()), chunk


HEADING_PIECES = st.sampled_from([
    "1.", "2", "3.1", "10.", "Creating", "creating", "Installing", "Method",
    "method", "Overview", "Notes.", "Reset", "the", "server", "(", ")", ":",
    ".", "!", "?", "e.g.", "How", "to", "Step", "Fig.", "v2.0"])
HEADINGS = st.lists(HEADING_PIECES, max_size=6).map(" ".join)


def heading_doc(title: str, headings: list[tuple[int, str]]) -> dict:
    elements = []
    for level, text in headings:
        elements.append({"type": "heading", "level": level, "text": text})
        elements.append({"type": "list", "ordered": True, "items": [
            {"text": "Open the panel."}, {"text": "Press Reset."}]})
    return {"version": "sdjson/1", "title": title or "T", "elements": elements}


class TestIntroGoals:
    @pytest.mark.parametrize("path", CORPUS_DOCS, ids=lambda p: p.stem)
    def test_corpus(self, path):
        assert_intro_goals_match_oracle(pipeline.load_document(path))

    def test_random_trees(self):
        rng = random.Random(13)
        for _ in range(100):
            assert_intro_goals_match_oracle(random_tree(rng))

    @settings(max_examples=200, deadline=None)
    @given(HEADINGS, st.lists(st.tuples(st.integers(1, 3), HEADINGS),
                              max_size=5))
    def test_random_headings(self, title, headings):
        assert_intro_goals_match_oracle(
            parse_sdjson(json.dumps(heading_doc(title, headings))))

    @pytest.mark.parametrize("heading", [
        "1. Creating a cluster",  # the first sentence, "1.", carries no cue
        "Overview. Creating a cluster",  # the second sentence alone does
        "Notes. Method 2: Reset"])
    def test_headings_of_several_sentences(self, heading):
        tree = parse_sdjson(json.dumps(heading_doc("T", [(1, heading)])))
        assert len(tree.sentences[1]) == 2
        assert_intro_goals_match_oracle(tree)


class TestTagCalls:
    """Each annotated sentence is tagged once, and the title once more."""

    @pytest.mark.parametrize("path", CORPUS_DOCS, ids=lambda p: p.stem)
    def test_corpus(self, path, monkeypatch):
        calls = []
        tag = Tagger.tag
        monkeypatch.setattr(Tagger, "tag",
                            lambda self, text: calls.append(text) or tag(self, text))
        tree = pipeline.load_document(path)
        run = pipeline.analyze(tree, actionable_model=None)
        sentences = [s.tagged.text for a in run.annotations.values()
                     for item in a.items for s in item.sentences]
        title = tree.nodes[0].text
        assert any(c.intro_node_id == 0 for c in run.chunks)
        assert sorted(calls) == sorted(sentences + [title])
        assert any(c.kind is ChunkKind.HEADING_GROUP for c in run.chunks)
