import pytest
from hypothesis import given, settings, strategies as st

from procmine import lingua
from procmine.lingua import (ADV, DET, NOUN, PUNCT, VB, VBD, VBG, VBN, VBZ,
                             Polarity, Tagger, Tense, Voice,
                             detect_conditional, detect_imperative, profile,
                             split_sentences)


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


class TestTagger:
    def test_sentence_initial_click_is_verb(self, tagger):
        tokens = tagger.tag("Click the icon.").tokens
        assert tokens[0].tag == VB

    def test_gerund_suffix(self, tagger):
        assert tagger.tag("running").tokens[0].tag == VBG

    def test_determiner(self, tagger):
        assert tagger.tag("the").tokens[0].tag == DET

    def test_nominal_context_blocks_verb_reading(self, tagger):
        tokens = tagger.tag("Schedule the restart for midnight.").tokens
        surface_tags = {t.surface: t.tag for t in tokens}
        assert surface_tags["restart"] == NOUN

    def test_capitalized_label_after_verb_is_noun(self, tagger):
        tokens = tagger.tag("Click Start now.").tokens
        assert tokens[1].tag == NOUN

    def test_passive_participle_after_be(self, tagger):
        tokens = tagger.tag("The service was restarted.").tokens
        tags = {t.surface: t.tag for t in tokens}
        assert tags["was"] == VBD
        assert tags["restarted"] == VBN

    def test_active_past(self, tagger):
        tokens = tagger.tag("The operator restarted the service.").tokens
        tags = {t.surface: t.tag for t in tokens}
        assert tags["restarted"] == VBD

    def test_numbers_and_punctuation(self, tagger):
        tokens = tagger.tag("2.1.5 Large Pages.").tokens
        assert tokens[0].tag == "NUM"
        assert tokens[-1].tag == PUNCT

    def test_suffix_fallbacks(self, tagger):
        tags = {t.surface: t.tag for t in
                tagger.tag("The configuration assessment happened gracefully.").tokens}
        assert tags["configuration"] == NOUN
        assert tags["assessment"] == NOUN
        assert tags["gracefully"] == ADV

    def test_tag_tokens_tags_pretokenized_input(self, tagger):
        tokens = ["Restart", "the", "server", "."]
        assert [t.tag for t in tagger.tag_tokens(tokens)] == [VB, DET, NOUN, PUNCT]
        assert tuple(tagger.tag_tokens(tokens)) == \
            tagger.tag("Restart the server.").tokens

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=120))
    def test_totality_every_token_tagged(self, text):
        sentence = Tagger().tag(text)
        for token in sentence.tokens:
            assert token.tag in {VB, VBD, VBG, VBN, VBZ, "VBP", "MD", NOUN,
                                 "PRON", DET, "ADJ", ADV, "PREP", "CONJ",
                                 "NEG", "NUM", PUNCT, "OTHER"}
        if text.strip() and any(c.isalnum() for c in text):
            assert sentence.tokens


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
        assert detect_imperative(tagger.tag(text)) is expected

    def test_purity(self, tagger):
        sentence = tagger.tag("Click Start.")
        assert detect_imperative(sentence) == detect_imperative(sentence)


class TestDetectConditional:
    def test_leading_if_with_comma(self, tagger):
        sentence = tagger.tag("If the problem persists, restart the server.")
        split = detect_conditional(sentence)
        assert split is not None
        cond = sentence.slice(*split.condition_span).surfaces()
        effect = sentence.slice(*split.effect_span).surfaces()
        assert cond == ["If", "the", "problem", "persists", ","]
        assert effect == ["restart", "the", "server", "."]
        assert split.effect_imperative is True

    def test_trailing_if_clause(self, tagger):
        sentence = tagger.tag("Restart the server if the problem persists.")
        split = detect_conditional(sentence)
        assert split is not None
        effect = sentence.slice(*split.effect_span).surfaces()
        assert effect == ["Restart", "the", "server"]
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
            assert a == 0 and b == c and d == len(sentence.tokens)


class TestProfile:
    def test_past_passive_positive(self, tagger):
        prof = profile(tagger.tag("The service was restarted by the operator."))
        assert prof == lingua.Profile(Tense.PAST, Voice.PASSIVE, Polarity.POSITIVE)

    def test_negative_polarity(self, tagger):
        prof = profile(tagger.tag("Do not delete the file."))
        assert prof.polarity is Polarity.NEGATIVE

    def test_present_active_positive(self, tagger):
        prof = profile(tagger.tag("Type the command."))
        assert prof == lingua.Profile(Tense.PRESENT, Voice.ACTIVE,
                                      Polarity.POSITIVE)

    def test_mixed_tense(self, tagger):
        prof = profile(tagger.tag(
            "The installer finished and the service runs now."))
        assert prof.tense is Tense.MIXED

    def test_participle_alone_is_not_past(self, tagger):
        prof = profile(tagger.tag("The user enters the saved password."))
        assert prof.tense is Tense.PRESENT


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
        assert d == len(sentence.tokens)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(WORDS, min_size=1, max_size=12))
    def test_non_conditional_has_no_effect_flag(self, words):
        sentence = Tagger().tag(" ".join(words))
        annotations = lingua.annotate_sentence(sentence)
        if not annotations.conditional:
            assert annotations.effect_imperative is False
