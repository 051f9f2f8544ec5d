import time

import pytest
from hypothesis import given, settings, strategies as st

from procmine import lingua
from procmine.annotate import annotate_sentence_text
from procmine.goals import GoalCueConfig
from procmine.lingua import (ADV, DET, NOUN, PUNCT, VB, VBD, VBG, VBN, VBZ,
                             Tagger, detect_conditional, profile,
                             split_sentences)
from procmine.pipeline import load_document

from conftest import (CORPUS_DIR, ORACLE_RUN_BOUNDARY_RE, oracle_paren_spans,
                      oracle_split_sentences)

CORPUS_DOCS = sorted((CORPUS_DIR / "docs").glob("*.md")) + [
    CORPUS_DIR / "nested-fixture.md"]


@pytest.fixture(scope="module")
def tagger():
    return Tagger()


class TestSplitSentences:
    def test_two_plain_sentences(self):
        assert split_sentences("Click Start. Type cmd.") == \
            ["Click Start.", "Type cmd."]

    def test_version_number_not_split(self):
        assert split_sentences("Install v2.1.3 on the host.") == \
            ["Install v2.1.3 on the host."]

    def test_empty_text(self):
        assert split_sentences("") == []
        assert split_sentences("   \n ") == []

    def test_abbreviation_guard(self):
        out = split_sentences("Use a tool, e.g. Telnet, to connect. Then log in.")
        assert out == ["Use a tool, e.g. Telnet, to connect.", "Then log in."]

    def test_short_paren_span_protected(self):
        text = "Run the check (see Fig. 2) before starting. Then stop."
        assert split_sentences(text) == \
            ["Run the check (see Fig. 2) before starting.", "Then stop."]

    def test_question_and_exclamation(self):
        assert split_sentences("Is it running? Restart it!") == \
            ["Is it running?", "Restart it!"]

    def test_lowercase_continuation_not_split(self):
        assert split_sentences("Open config.yaml and edit it.") == \
            ["Open config.yaml and edit it."]

    def test_abbreviation_before_final_newline_guards(self):
        # `[\w.]+$` in the oracle also matches before a final newline
        assert split_sentences("Fig.\n? I") == ["Fig.\n? I"]
        assert split_sentences("Fig.\n\n? I") == ["Fig.\n\n?", "I"]

    def test_20000_sentence_paragraph_is_linear(self):
        sentences = ["Open the panel (see Fig. 2) now.", "Press Start!",
                     "Use a key, e.g. F2, to enter the setup?"]
        text = " ".join(sentences[i % 3] for i in range(20_000))
        started = time.perf_counter()
        pieces = split_sentences(text)
        assert time.perf_counter() - started < 2.0
        assert len(pieces) == 20_000
        assert pieces[:3] == sentences


# Text drawn from the pieces the split reacts to: terminal marks, capitals
# and digits after whitespace, newlines, parentheses and abbreviations.
SPLIT_PIECES = st.sampled_from([
    "a", "Open", "1", "_", "é", ".", "..", "!", "?", "!?", " ", "  ", "\n",
    "\t", "(", ")", "e.g", "Fig", "etc", "i.e.", "No", "x" * 30])

# The same pieces without those that start with a capital or a digit,
# which alone can follow the whitespace after a boundary: text drawn from
# them holds no `_BOUNDARY_RE` match. Beside it, texts with no sentence.
NO_BOUNDARY_TEXT = (
    st.lists(st.sampled_from([
        "a", "_", "é", ".", "..", "!", "?", "!?", " ", "  ", "\n", "\t", "(",
        ")", "e.g", "etc", "i.e.", "x" * 30]), max_size=40).map("".join)
    | st.text(st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u2028"),
              max_size=8))


class TestSplitOracle:
    @settings(max_examples=1000, deadline=None)
    @given(st.lists(SPLIT_PIECES, max_size=40).map("".join))
    def test_random_text_matches_oracle(self, text):
        assert split_sentences(text) == oracle_split_sentences(text)

    @settings(max_examples=1000, deadline=None)
    @given(NO_BOUNDARY_TEXT | st.lists(SPLIT_PIECES, max_size=40).map("".join))
    def test_text_mostly_without_boundary_matches_oracle(self, text):
        assert split_sentences(text) == oracle_split_sentences(text)

    def test_corpus_node_texts_match_oracle(self):
        texts = [node.text for path in CORPUS_DOCS
                 for node in load_document(path).nodes]
        assert len(texts) > 200
        for text in texts:
            assert split_sentences(text) == oracle_split_sentences(text)

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(st.sampled_from(("(", ")", "((", "))", "x", " ", "é",
                                     "\n", "()")), max_size=30).map("".join)
           | st.text(max_size=60))
    def test_paren_spans_match_character_walk(self, text):
        assert lingua._paren_spans(text) == oracle_paren_spans(text)


# Text drawn from terminal marks, whitespace, newlines, capitals, digits,
# parentheses and the abbreviations the split guards.
BOUNDARY_PIECES = st.sampled_from([
    ".", "!", "?", " ", "\t", "\n", "A", "Z", "0", "7", "(", ")", "a",
    *sorted(lingua._ABBREVIATIONS)])


class TestBoundaryOracle:
    @settings(max_examples=2000, deadline=None)
    @given(st.lists(BOUNDARY_PIECES, max_size=40).map("".join))
    def test_spans_and_split_match_the_lookbehind_first_pattern(self, text):
        assert ([m.span() for m in lingua._BOUNDARY_RE.finditer(text)]
                == [m.span() for m in ORACLE_RUN_BOUNDARY_RE.finditer(text)])
        assert split_sentences(text) == oracle_split_sentences(text)


def best_split_seconds(small: str, large: str) -> tuple[float, float]:
    """The least of 3 runs of the split on each text, interleaved."""
    best = [float("inf"), float("inf")]
    for _ in range(3):
        for i, text in enumerate((small, large)):
            started = time.perf_counter()
            split_sentences(text)
            best[i] = min(best[i], time.perf_counter() - started)
    return best[0], best[1]


class TestSplitIsLinear:
    """Split time grows linearly with the text: 8 times the size takes
    about 8 times as long (a quadratic form, about 64 times), so a ratio
    below 24 leaves room for the machine's speed to swing."""

    @pytest.mark.parametrize("tail", [" A", " a"], ids=["boundary", "none"])
    def test_long_run_of_marks_is_linear(self, tail):
        """Only the run's first mark passes the boundary's lookbehind; a
        pattern that tried a match from every mark of the run, each reading
        the run to its end, would be quadratic."""
        small, large = best_split_seconds(
            *("." * n + tail for n in (2_500, 20_000)))
        assert large / small < 24

    def test_many_parentheses_around_one_boundary_are_linear(self):
        """Unclosed `(` before the boundary and closed pairs after it."""
        small, large = best_split_seconds(
            *("(" * n + "Run it. Then stop. " + "()" * n for n in (2_500, 20_000)))
        assert large / small < 24


class TestTagger:
    def test_sentence_initial_click_is_verb(self, tagger):
        assert tagger.tag("Click the icon.").tags[0] == VB

    def test_gerund_suffix(self, tagger):
        assert tagger.tag("running").tags[0] == VBG

    def test_determiner(self, tagger):
        assert tagger.tag("the").tags[0] == DET

    def test_nominal_context_blocks_verb_reading(self, tagger):
        sentence = tagger.tag("Schedule the restart for midnight.")
        surface_tags = dict(zip(sentence.surfaces, sentence.tags))
        assert surface_tags["restart"] == NOUN

    def test_capitalized_label_after_verb_is_noun(self, tagger):
        assert tagger.tag("Click Start now.").tags[1] == NOUN

    def test_passive_participle_after_be(self, tagger):
        sentence = tagger.tag("The service was restarted.")
        tags = dict(zip(sentence.surfaces, sentence.tags))
        assert tags["was"] == VBD
        assert tags["restarted"] == VBN

    def test_active_past(self, tagger):
        sentence = tagger.tag("The operator restarted the service.")
        tags = dict(zip(sentence.surfaces, sentence.tags))
        assert tags["restarted"] == VBD

    def test_numbers_and_punctuation(self, tagger):
        tags = tagger.tag("2.1.5 Large Pages.").tags
        assert tags[0] == "NUM"
        assert tags[-1] == PUNCT

    def test_suffix_fallbacks(self, tagger):
        sentence = tagger.tag("The configuration assessment happened gracefully.")
        tags = dict(zip(sentence.surfaces, sentence.tags))
        assert tags["configuration"] == NOUN
        assert tags["assessment"] == NOUN
        assert tags["gracefully"] == ADV

    def test_tags_a_plain_imperative(self, tagger):
        assert tagger.tag("Restart the server.").tags == (VB, DET, NOUN, PUNCT)

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=120))
    def test_totality_every_token_tagged(self, text):
        sentence = Tagger().tag(text)
        assert len(sentence.surfaces) == len(sentence.lowers) == len(sentence.tags)
        for tag in sentence.tags:
            assert tag in {VB, VBD, VBG, VBN, VBZ, "VBP", "MD", NOUN,
                           "PRON", DET, "ADJ", ADV, "PREP", "CONJ",
                           "NEG", "NUM", PUNCT, "OTHER"}
        if text.strip() and any(c.isalnum() for c in text):
            assert sentence.tags


class TestDetectImperative:
    @pytest.mark.parametrize("text,expected", [
        ("Click Start, select ALL Programs", True),
        ("The user enters the password", False),
        ("Carefully restart the server.", True),
        ("Please restart the server.", True),
        ("1. Type the command.", True),
        ("The server restarted.", False),
        ("Creating a Service Instance", False),
        ("", False),
    ])
    def test_cases(self, tagger, text, expected):
        assert tagger.tag(text).imperative is expected

    def test_purity(self, tagger):
        assert tagger.tag("Click Start.").imperative == \
            tagger.tag("Click Start.").imperative


class TestDetectConditional:
    def test_leading_if_with_comma(self, tagger):
        sentence = tagger.tag("If the problem persists, restart the server.")
        split = detect_conditional(sentence)
        assert split is not None
        cond = sentence.surfaces[slice(*split.condition_span)]
        effect = sentence.surfaces[slice(*split.effect_span)]
        assert cond == ("If", "the", "problem", "persists", ",")
        assert effect == ("restart", "the", "server", ".")
        assert split.effect_imperative is True

    def test_trailing_if_clause(self, tagger):
        sentence = tagger.tag("Restart the server if the problem persists.")
        split = detect_conditional(sentence)
        assert split is not None
        effect = sentence.surfaces[slice(*split.effect_span)]
        assert effect == ("Restart", "the", "server")
        assert split.effect_imperative is True

    def test_no_opener(self, tagger):
        assert detect_conditional(tagger.tag("Click OK.")) is None

    def test_in_case_bigram(self, tagger):
        split = detect_conditional(tagger.tag("In case of failure, call support."))
        assert split is not None
        assert split.effect_imperative is True

    def test_when_opener_non_imperative_effect(self, tagger):
        split = detect_conditional(
            tagger.tag("When the light turns green, the device is ready."))
        assert split is not None
        assert split.effect_imperative is False

    def test_spans_cover_and_disjoint(self, tagger):
        for text in ["If x fails, stop.", "Stop the job if x fails.",
                     "Unless told otherwise, continue.", "If it breaks"]:
            sentence = tagger.tag(text)
            split = detect_conditional(sentence)
            assert split is not None
            (a, b), (c, d) = sorted([split.condition_span, split.effect_span])
            assert a == 0 and b == c and d == len(sentence.tags)


class TestProfile:
    """`profile` is (present, active, positive)."""

    def test_past_passive_positive(self, tagger):
        prof = profile(tagger.tag("The service was restarted by the operator."))
        assert prof == (False, False, True)

    def test_negative_polarity(self, tagger):
        present, active, positive = profile(tagger.tag("Do not delete the file."))
        assert positive is False

    def test_present_active_positive(self, tagger):
        prof = profile(tagger.tag("Type the command."))
        assert prof == (True, True, True)

    def test_mixed_tense(self, tagger):
        """A past-tense verb beside a present one reads as not present,
        as the old MIXED tense did."""
        for text in ("The installer finished and the service runs now.",
                     "The service was restarted and is running"):
            present, _, _ = profile(tagger.tag(text))
            assert present is False
        assert profile(tagger.tag("The service was restarted and is running")) \
            == (False, False, True)

    def test_participle_alone_is_not_past(self, tagger):
        present, _, _ = profile(tagger.tag("The user enters the saved password."))
        assert present is True


WORDS = st.sampled_from(
    "if when unless restart the server click start type command problem "
    "persists user password and then check , .".split())


class TestConditionalFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(WORDS, min_size=1, max_size=12))
    def test_spans_partition_tokens(self, words):
        sentence = Tagger().tag(" ".join(words))
        split = detect_conditional(sentence)
        if split is None:
            return
        (a, b), (c, d) = sorted([split.condition_span, split.effect_span])
        assert a == 0
        assert b == c
        assert d == len(sentence.tags)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(WORDS, min_size=1, max_size=12))
    def test_non_conditional_has_no_effect_flag(self, words):
        """The effect flag lives on the conditional split, so a sentence
        without one carries none."""
        sentence = annotate_sentence_text(
            " ".join(words), is_heading=False, tagger=Tagger(),
            goal_config=GoalCueConfig(), model=None)
        assert sentence.split == detect_conditional(sentence.tagged)
        if sentence.split is not None:
            effect = slice(*sentence.split.effect_span)
            assert sentence.split.effect_imperative is lingua._imperative(
                sentence.tagged.tags[effect], sentence.tagged.lowers[effect])
