"""Sentence segmentation, tokenization, lexicon-driven POS tagging, and
rule-based detection of imperative/conditional sentences with tense, voice
and polarity profiling.

The tagger is intentionally lightweight: a closed-class lexicon, a verb
inflection table shipped as an editable data file, suffix fallbacks, and a
NOUN default. It is deterministic and total over arbitrary text. Callers
that need higher fidelity can pass their own tagger anywhere a
:class:`Tagger` is accepted.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import NamedTuple

# POS tags
VB, VBD, VBG, VBN, VBZ, VBP = "VB", "VBD", "VBG", "VBN", "VBZ", "VBP"
MD, NOUN, PRON, DET, ADJ, ADV = "MD", "NOUN", "PRON", "DET", "ADJ", "ADV"
PREP, CONJ, NEG, NUM, PUNCT, OTHER = "PREP", "CONJ", "NEG", "NUM", "PUNCT", "OTHER"

VERB_TAGS = frozenset({VB, VBD, VBG, VBN, VBZ, VBP})

_CLOSED_CLASS_FILES = [
    ("negators.txt", NEG),
    ("modals.txt", MD),
    ("determiners.txt", DET),
    ("pronouns.txt", PRON),
    ("prepositions.txt", PREP),
    ("conjunctions.txt", CONJ),
    ("adverbs.txt", ADV),
    ("adjectives.txt", ADJ),
]

_BE_FORMS = {"be": VB, "am": VBP, "are": VBP, "is": VBZ, "was": VBD,
             "were": VBD, "been": VBN, "being": VBG}
_AUX_SURFACES = frozenset(_BE_FORMS) | {"have", "has", "had", "having",
                                        "get", "gets", "got", "gotten"}

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+(?:[-_./':][A-Za-z0-9]+)*|[^\sA-Za-z0-9]")
_NUM_RE = re.compile(r"\d+(?:[.\-/:]\d+)*(?:st|nd|rd|th)?|v\d+(?:\.\d+)*")
_WORD_RE = re.compile(r"[A-Za-z0-9]")


class Tense(Enum):
    PRESENT = "present"
    PAST = "past"
    MIXED = "mixed"


class Voice(Enum):
    ACTIVE = "active"
    PASSIVE = "passive"


class Polarity(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


class Token(NamedTuple):
    surface: str
    tag: str


@dataclass(frozen=True)
class TaggedSentence:
    text: str
    tokens: tuple[Token, ...]

    def surfaces(self) -> list[str]:
        return [t.surface for t in self.tokens]

    def slice(self, start: int, end: int) -> "TaggedSentence":
        tokens = self.tokens[start:end]
        return TaggedSentence(text=" ".join(t.surface for t in tokens), tokens=tokens)


@dataclass(frozen=True)
class ConditionalSplit:
    condition_span: tuple[int, int]  # token range, end exclusive
    effect_span: tuple[int, int]
    effect_imperative: bool


@dataclass(frozen=True)
class Profile:
    tense: Tense
    voice: Voice
    polarity: Polarity


@dataclass(frozen=True)
class SentenceAnnotations:
    imperative: bool
    conditional: bool
    condition_span: tuple[int, int] | None
    effect_span: tuple[int, int] | None
    effect_imperative: bool
    tense: Tense
    voice: Voice
    polarity: Polarity


# ---------------------------------------------------------------------------
# Lexicon loading

@dataclass(frozen=True)
class Lexicon:
    verb_forms: dict  # surface -> frozenset of {"base","third","past","participle","gerund"}
    closed: dict  # surface -> tag


def _read_lines(path: Path) -> list[str]:
    return [line.strip().lower() for line in path.read_text("utf-8").splitlines()
            if line.strip() and not line.startswith("#")]


def load_lexicon(directory: str | Path) -> Lexicon:
    directory = Path(directory)
    closed: dict[str, str] = {}
    for filename, tag in _CLOSED_CLASS_FILES:
        path = directory / filename
        if not path.exists():
            continue
        for word in _read_lines(path):
            closed.setdefault(word, tag)  # earlier class wins on overlap
    verb_forms: dict[str, set[str]] = {}
    verbs_path = directory / "verbs.csv"
    if verbs_path.exists():
        with verbs_path.open(newline="") as handle:
            for row in csv.DictReader(handle):
                for kind in ("base", "third", "past", "participle", "gerund"):
                    surface = (row.get(kind) or "").strip().lower()
                    if surface:
                        verb_forms.setdefault(surface, set()).add(kind)
    return Lexicon(
        verb_forms={k: frozenset(v) for k, v in verb_forms.items()},
        closed=closed,
    )


def bundled_data_dir() -> Path:
    return Path(str(resources.files("procmine").joinpath("data")))


@lru_cache(maxsize=4)
def _cached_lexicon(directory: str) -> Lexicon:
    return load_lexicon(directory)


def default_lexicon() -> Lexicon:
    return _cached_lexicon(str(bundled_data_dir()))


# ---------------------------------------------------------------------------
# Sentence segmentation

_ABBREVIATIONS = frozenset({
    "e.g", "i.e", "etc", "cf", "vs", "no", "fig", "eq", "al", "approx",
    "dr", "mr", "mrs", "ms", "st", "ver", "rev", "sec", "min", "max",
})
_BOUNDARY_RE = re.compile(r"[.!?]+(?=\s+[A-Z0-9])")


def _paren_spans(text: str) -> list[tuple[int, int]]:
    spans: list[tuple[int, int]] = []
    stack: list[int] = []
    for i, ch in enumerate(text):
        if ch == "(":
            stack.append(i)
        elif ch == ")" and stack:
            spans.append((stack.pop(), i))
    return spans


def split_sentences(text: str) -> list[str]:
    """Split text into sentences on terminal punctuation followed by
    whitespace and a capital or digit, guarding abbreviations and short
    parenthesized spans."""
    if not text or not text.strip():
        return []
    short_parens = [(a, b) for a, b in _paren_spans(text) if b - a < 40]
    cuts: list[int] = []
    for match in _BOUNDARY_RE.finditer(text):
        end = match.end()
        if any(a < match.start() < b for a, b in short_parens):
            continue
        preceding = re.search(r"[\w.]+$", text[:match.start()])
        if preceding and preceding.group(0).rstrip(".").lower() in _ABBREVIATIONS:
            continue
        cuts.append(end)
    pieces = []
    last = 0
    for cut in cuts:
        pieces.append(text[last:cut].strip())
        last = cut
    pieces.append(text[last:].strip())
    return [p for p in pieces if p]


def tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    for raw in _TOKEN_RE.findall(text):
        if raw.lower().endswith("n't") and len(raw) > 3:
            tokens.append(raw[:-3])
            tokens.append("n't")
        else:
            tokens.append(raw)
    return tokens


# ---------------------------------------------------------------------------
# POS tagging

class Tagger:
    """Deterministic tagger: closed-class lexicon, verb inflection table,
    suffix fallbacks, NOUN default."""

    def __init__(self, lexicon: Lexicon | None = None):
        self.lexicon = lexicon or default_lexicon()

    def tag_tokens(self, tokens: list[str]) -> list[Token]:
        tags: list[str] = []
        for i, surface in enumerate(tokens):
            tags.append(self._tag_one(surface, i, tokens, tags))
        return [Token(s, t) for s, t in zip(tokens, tags)]

    def tag(self, text: str) -> TaggedSentence:
        return TaggedSentence(text=text, tokens=tuple(self.tag_tokens(tokenize(text))))

    def _tag_one(self, surface: str, i: int, tokens: list[str], tags: list[str]) -> str:
        if not _WORD_RE.search(surface):
            return PUNCT
        word = surface.lower()
        if _NUM_RE.fullmatch(word):
            return NUM
        if word in _BE_FORMS:
            return _BE_FORMS[word]
        closed = self.lexicon.closed.get(word)
        if closed is not None:
            return closed
        kinds = self.lexicon.verb_forms.get(word)
        if kinds:
            tag = self._verb_tag(surface, kinds, i, tokens, tags)
            if tag is not None:
                return tag
        return self._suffix_tag(word)

    def _verb_tag(self, surface: str, kinds: frozenset, i: int,
                  tokens: list[str], tags: list[str]) -> str | None:
        if "gerund" in kinds:
            return VBG
        if "third" in kinds and "base" not in kinds:
            return VBZ
        prev = self._prev_content_tag(tags, i)
        if "participle" in kinds and self._recent_aux(i, tokens, tags):
            return VBN
        if "participle" in kinds and prev in (DET, ADJ, PREP):
            return VBN  # attributive: "the saved password"
        if "past" in kinds:
            if "base" not in kinds:
                return VBD
            if prev in (NOUN, PRON):
                return VBD  # base/past homograph after a subject reads as past
        if "base" in kinds:
            if prev in (DET, ADJ):
                return NOUN  # nominal use: "the restart", "a quick reboot"
            if (i > 0 and surface[0].isupper()
                    and (tags[i - 1] in VERB_TAGS or tags[i - 1] == NOUN)):
                # capitalized UI label: "Click Start", "open Command Prompt"
                return NOUN
            return VB
        if "participle" in kinds:
            return VBN
        return None

    def _prev_content_tag(self, tags: list[str], i: int) -> str | None:
        for j in range(i - 1, -1, -1):
            if tags[j] not in (PUNCT, ADV, NEG, NUM):
                return tags[j]
        return None

    def _recent_aux(self, i: int, tokens: list[str], tags: list[str]) -> bool:
        steps = 0
        for j in range(i - 1, -1, -1):
            if tags[j] in (ADV, NEG):
                continue  # "was not restarted", "is automatically restarted"
            steps += 1
            if steps > 3:
                return False
            if tokens[j].lower() in _AUX_SURFACES:
                return True
            if tags[j] in (PUNCT, CONJ):
                return False
        return False

    def _suffix_tag(self, word: str) -> str:
        if len(word) > 4 and word.endswith("ing"):
            return VBG
        if len(word) > 3 and word.endswith("ed"):
            return VBD
        if word.endswith(("tion", "ment", "ness", "sion", "ity")):
            return NOUN
        if len(word) > 3 and word.endswith("ly"):
            return ADV
        if word.endswith(("able", "ible", "ful", "ous", "ive", "ical")):
            return ADJ
        return NOUN


# ---------------------------------------------------------------------------
# Detectors

_SKIP_TAGS = frozenset({PUNCT, ADV, NUM})
_CONDITION_OPENERS = frozenset({"if", "when", "unless", "whenever"})


def detect_imperative(sentence: TaggedSentence) -> bool:
    """A sentence is imperative when its first non-punctuation, non-adverb,
    non-numeric token is a base-form verb."""
    for token in sentence.tokens:
        if token.tag in _SKIP_TAGS:
            continue
        if token.surface.lower() == "please":
            continue
        return token.tag == VB
    return False


def _find_opener(sentence: TaggedSentence) -> int | None:
    surfaces = [t.surface.lower() for t in sentence.tokens]
    for i, word in enumerate(surfaces):
        if word in _CONDITION_OPENERS:
            return i
        if word == "in" and i + 1 < len(surfaces) and surfaces[i + 1] == "case":
            return i
    return None


def detect_conditional(sentence: TaggedSentence) -> ConditionalSplit | None:
    """Split a conditional sentence into condition and effect token spans.

    A leading condition runs to the first top-level comma; a trailing
    condition runs from the opener to the end of the sentence. The two spans
    partition the token sequence.
    """
    n = len(sentence.tokens)
    if n == 0:
        return None
    opener = _find_opener(sentence)
    if opener is None:
        return None
    first_content = next(
        (i for i, t in enumerate(sentence.tokens) if t.tag not in (PUNCT, NUM)), 0)
    if opener <= first_content:
        comma = next((i for i in range(opener + 1, n)
                      if sentence.tokens[i].surface == ","), None)
        if comma is None:
            condition = (0, n)
            effect = (n, n)
        else:
            condition = (0, comma + 1)
            effect = (comma + 1, n)
    else:
        condition = (opener, n)
        effect = (0, opener)
    effect_imperative = detect_imperative(sentence.slice(*effect))
    return ConditionalSplit(condition_span=condition, effect_span=effect,
                            effect_imperative=effect_imperative)


def profile(sentence: TaggedSentence) -> Profile:
    """Tense, voice, and polarity from surface tags."""
    tags = [t.tag for t in sentence.tokens]
    past = VBD in tags
    present = VBZ in tags or VBP in tags
    if past and present:
        tense = Tense.MIXED
    elif past:
        tense = Tense.PAST
    else:
        tense = Tense.PRESENT

    voice = Voice.ACTIVE
    for i, token in enumerate(sentence.tokens):
        if token.surface.lower() in _BE_FORMS:
            window = tags[i + 1:i + 4]
            if VBN in window:
                voice = Voice.PASSIVE
                break

    polarity = Polarity.NEGATIVE if NEG in tags else Polarity.POSITIVE
    return Profile(tense=tense, voice=voice, polarity=polarity)


def annotate_sentence(sentence: TaggedSentence) -> SentenceAnnotations:
    """Bundle the imperative/conditional/profile annotations for one sentence."""
    imperative = detect_imperative(sentence)
    split = detect_conditional(sentence)
    prof = profile(sentence)
    return SentenceAnnotations(
        imperative=imperative,
        conditional=split is not None,
        condition_span=split.condition_span if split else None,
        effect_span=split.effect_span if split else None,
        effect_imperative=split.effect_imperative if split else False,
        tense=prof.tense,
        voice=prof.voice,
        polarity=prof.polarity,
    )
