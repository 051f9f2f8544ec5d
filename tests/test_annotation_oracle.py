"""Annotation in one token pass against the oracles in conftest: the path
before it, where each token was a (surface, tag) pair that every detector
lower-cased again and entity extraction ran the imperative detector a
second time. Tags, imperative flags, conditional splits, profiles, goal
readings, entities, bipartite edges, chunk relatedness and actionable
margins must all agree, the margins and relatedness bit for bit.

The random sentences are read by three taggers: the module's, whose table
of words is warm from every earlier example, a fresh one
per example, and a `--lexicon-dir` one whose verb forms include words that
the bundled lexicon tags NOUN. A table shared across lexicons, or one that
keeps a verb form's tag, reads those words wrong.

The tagger reads one whitespace word at a time from its table of words;
`oracle_tag` is the one token pass it replaced, over the whole text, with
the terms from `sentence_terms`. Their texts mix in every kind of
whitespace, since the word table is exact only where `str.split` and
`re`'s `\\s` cut alike."""

import csv
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from procmine import annotate, lingua, pipeline
from procmine.actionable import ActionableModel, predict
from procmine.chunker import ChunkKind
from procmine.docmodel import parse_sdjson
from procmine.goals import GoalCueConfig, annotate_goal
from procmine.lingua import (TAG_TABLE_CAP, TAG_TABLE_TOKENS, TAG_WORD_MAX,
                             TaggedSentence, Tagger, bundled_data_dir,
                             detect_conditional, profile, split_sentences)
from procmine.relatedness import (VECTOR_MIN_MENTION_PAIRS, BipartiteGraph,
                                  build_bipartite, chunk_relatedness,
                                  extract_entities, streamed_score)

from conftest import (CORPUS_DIR, OracleSentence, OracleTagger, OracleToken,
                      mention_pairs, oracle_annotate_goal, oracle_bipartite_edges,
                      oracle_detect_conditional, oracle_detect_imperative,
                      oracle_extract_entities, oracle_margin, oracle_mentions,
                      oracle_profile, oracle_score, oracle_tag, random_tree,
                      sentence_terms)

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
    # A form that lower-casing leaves alone is no new string: it is the
    # surface object itself.
    assert all(lower is surface
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
        oracle_score(graph).hex()


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


# Every kind of whitespace that `str.split` cuts at and `re`'s `\s` matches
# (ASCII controls, the information separators, NEL, no-break, line and
# ideographic spaces), two characters that look like space but are
# neither (zero-width space, Mongolian vowel separator), and none.
SPACES = st.sampled_from(["\t", "\n", "\x0b", "\x0c", "\r", "\x1c", "\x1d",
                          "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000",
                          " ", "  ", "\u200b", "\u180e", ""])
# Words that split into several tokens or terms, or whose lower-cased form
# differs in length or script: KELVIN SIGN lowers to "k", U+0130 to "i"
# and a combining dot, and a capital sigma lowers by its context. The last
# two are the longest word the table keeps and one character more.
WORDS = st.one_of(PIECES, st.sampled_from([
    "don't", "Won't", "CAN'T", "K5", "\u212a5", "\u0130stanbul", "config.yaml",
    "a--b", "a-b_c'd", "...", "?!", "--", ",,", "(see", "it).", "\u03a3\u039f\u03a3",
    "x\u03a3", "o'clock", "__init__", "Saved-" * 5 + "It",
    "CONFIG_" * 4 + "Don't"]))
CORPUS_SENTENCES = st.deferred(lambda: st.sampled_from(corpus_texts()))
SPACED_TEXTS = st.lists(st.tuples(st.one_of(WORDS, CORPUS_SENTENCES), SPACES),
                        max_size=12).map(
    lambda pairs: "".join(piece + space for piece, space in pairs))


class TestRandomSentences:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(SPACED_TEXTS, st.text(max_size=40)))
    @example("Don't\x1cclick\u3000the\x85K\u212a5 config.yaml\u2028a--b...")
    def test_tag_by_words_matches_one_token_pass(self, readers, text):
        """Every field of `tag` equals `oracle_tag`'s, the terms are
        `sentence_terms` of the text, and a fresh tagger's table ends
        holding each of the text's words but those longer than
        `TAG_WORD_MAX`."""
        for tagger, _ in readers():
            fresh = not tagger.words
            new = tagger.tag(text)
            assert new == oracle_tag(tagger, text)
            assert new.terms == tuple(sentence_terms(text))
            if fresh:
                assert tagger.words.keys() == {
                    word for word in text.split() if len(word) <= TAG_WORD_MAX}

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
        assert streamed_score(oracle_mentions(graph), len(texts)).hex() == \
            oracle_score(graph).hex()

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
    # No NOUN: no run. A run before any verb that reaches the end; runs
    # on both sides of the verb, the last a second object that ends it.
    @example([("x", "ADJ"), ("x", "VB"), ("x", "ADJ"), ("x", "DET")])
    @example([("x", "DET"), ("x", "ADJ"), ("x", "NOUN")])
    @example([("x", "NOUN"), ("x", "VBZ"), ("x", "NOUN"), ("x", "DET"),
              ("x", "NOUN")])
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
                             lingua._imperative(tags, lowers),
                             tuple(sentence_terms(text)))
        old = OracleSentence(text, tuple(OracleToken(*token) for token in tokens))
        assert extract_entities(new) == oracle_extract_entities(old)


def distinct_word(n: int) -> str:
    """The n-th of as many distinct words as wanted, one token each, in
    mixed case and with the suffixes the tagger reads."""
    letters = "".join(chr(ord("a") + int(d)) for d in str(n))
    return ("Qz", "qz")[n % 2] + letters + ("", "ing", "ed", "ly",
                                            "tion", "able")[n % 6]


def cap_sentences(count: int) -> list[str]:
    """Sentences of `count` distinct words, 20 to a sentence, mixed with
    verb forms, an `n't` split and a word of two tokens."""
    words = [distinct_word(n) for n in range(count)]
    return [" ".join(["Restart", *words[i:i + 20], "isn't", "is", "saved."])
            for i in range(0, count, 20)]


def tagged_and_held(texts: list[str]) -> tuple[Tagger, int]:
    """A fresh tagger that has tagged `texts`, and the bytes it holds."""
    lingua.default_lexicon()
    tracemalloc.start()
    try:
        tagger = Tagger()
        for text in texts:
            tagger.tag(text)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return tagger, size


class TestTagTable:
    def test_word_table_stops_at_its_cap(self):
        """More distinct whitespace words than the cap: the word table
        never grows past it; an entry holds its word's surfaces, lower-cased
        forms, entries (a verb form's kinds, never its tag), whether every
        entry is a tag, and its terms; and the readings past the cap, where
        every word not yet seen is a miss, still match both oracles'."""
        tagger = Tagger()
        for k, text in enumerate(cap_sentences(TAG_TABLE_CAP + 2000)):
            sentence = tagger.tag(text)
            assert len(tagger.words) <= TAG_TABLE_CAP
            if k * 20 >= TAG_TABLE_CAP:
                assert sentence == oracle_tag(tagger, text)
                assert sentence.tags == tuple(
                    t.tag for t in ORACLE.tag(text).tokens)
        assert len(tagger.words) == TAG_TABLE_CAP
        assert distinct_word(TAG_TABLE_CAP + 1999) not in tagger.words
        verb_forms = tagger.lexicon.verb_forms
        assert tagger.words["Restart"] == (
            ("Restart",), ("restart",), (verb_forms["restart"],), False,
            ("restart",))
        assert tagger.words["isn't"] == (
            ("is", "n't"), ("is", "n't"), (lingua.VBZ, lingua.NEG), True,
            ("isn't",))
        assert tagger.words["saved."] == (
            ("saved", "."), ("saved", "."), (verb_forms["saved"], lingua.PUNCT),
            False, ("saved",))
        assert tagger.words[distinct_word(2)] == (  # Qzced
            (distinct_word(2),), ("qzced",), (lingua.VBD,), True, ("qzced",))
        assert tagger.words["is"] == (("is",), ("is",), (lingua.VBZ,), True,
                                      ("is",))
        # qzbing: the key is its one surface, and its lower-cased forms and
        # its terms are that same tuple
        word, (surfaces, lowers, _, _, terms) = next(
            entry for entry in tagger.words.items()
            if entry[0] == distinct_word(1))
        assert surfaces[0] is word and lowers is surfaces and terms is lowers

    def test_tables_hold_a_few_megabytes(self):
        """A tagger with its table full holds under 6 MB: 5.2 MB on
        CPython 3.11."""
        tagger, size = tagged_and_held(cap_sentences(TAG_TABLE_CAP + 2000))
        assert len(tagger.words) == TAG_TABLE_CAP
        assert size < 6_000_000

    def test_long_words_are_tagged_and_dropped(self):
        """2,000 distinct words of 5,000 characters and 909 to 2,000 tokens
        (10 MB of text) are tagged as the oracle tags them, and leave the
        tagger holding under 1 MB: none of them is kept."""
        texts = [f"Open {(distinct_word(n) + ',') * 1000}"[:5005] + " now."
                 for n in range(2000)]
        tagger, size = tagged_and_held(texts)
        assert tagger.words.keys() == {"Open", "now."}
        assert size < 1_000_000
        for text in texts[::250]:
            assert tagger.tag(text) == oracle_tag(tagger, text)

    def test_longest_kept_words_hold_a_few_kilobytes_each(self):
        """The costliest entry found: a word of `TAG_WORD_MAX` capitals
        outside Latin-1, each a token of its own whose lower-cased form is
        a new string. It holds under 7 KB (6.3 KB on CPython 3.11), so a
        table full of them holds under 115 MB; one character more and the
        word is not kept."""
        capitals = [chr(0x10400 + i) for i in range(40)]  # DESERET
        words = [capitals[n % 40] + capitals[n // 40 % 40] + capitals[n // 1600]
                 + capitals[0] * (TAG_WORD_MAX - 3) for n in range(2048)]
        tagger, size = tagged_and_held(
            [" ".join(words[i:i + 20]) for i in range(0, len(words), 20)])
        assert len(tagger.words) == len(words)
        assert size / len(words) < 7_000
        tagger.tag(words[0] + capitals[0])
        assert words[0] + capitals[0] not in tagger.words

    def test_table_of_the_costliest_words_stops_at_its_token_budget(self):
        """4,096 distinct words of `TAG_WORD_MAX` Deseret capitals, 32
        tokens each: the table keeps words until its entries hold
        `TAG_TABLE_TOKENS` tokens, the first 2,048, and then holds 12.9 MB
        (CPython 3.11), where the entry cap alone let 16,384 of them hold
        about 100 MB. A word past the budget, however short, is tagged as
        the oracle tags it and not kept."""
        capitals = [chr(0x10400 + i) for i in range(40)]  # DESERET
        words = [capitals[n % 40] + capitals[n // 40 % 40] + capitals[n // 1600]
                 + capitals[0] * (TAG_WORD_MAX - 3) for n in range(4096)]
        texts = [" ".join(words[i:i + 20]) for i in range(0, len(words), 20)]
        tagger, size = tagged_and_held(texts)
        assert list(tagger.words) == words[:TAG_TABLE_TOKENS // TAG_WORD_MAX]
        assert tagger.table_tokens == TAG_TABLE_TOKENS
        assert size < 16_000_000
        for text in (texts[-1], "Open the panel."):
            assert tagger.tag(text) == oracle_tag(tagger, text)
        assert len(tagger.words) == TAG_TABLE_TOKENS // TAG_WORD_MAX

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
        assert tagger.words["saved"] == (
            ("saved",), ("saved",), (tagger.lexicon.verb_forms["saved"],),
            False, ("saved",))


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
