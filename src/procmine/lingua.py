"""Sentence segmentation, tokenization, lexicon-driven POS tagging, and
rule-based detection of imperative and conditional sentences. `profile`
reads three bits off a sentence's tags: present tense, active voice and
positive polarity, the indicators the actionable model scores.

`Tagger.tag` tokenizes and tags each sentence one whitespace word at a
time. The `TaggedSentence` it returns holds three parallel tuples: the
token surfaces, their lower-cased forms (each lower-cased once, and no new
string where nothing changes) and their tags; and the actionable model's
`terms` (`sentence_terms`). Every detector reads those tuples, and the
imperative flag is worked out once per sentence, when it is tagged.

Only a verb form's tag can depend on the tags before it. Every other word
is tagged from its surface alone (punctuation, number, a form of "be",
closed class or suffix), and so is a gerund (VBG) or a form that is a
third person but no base (VBZ). Each `Tagger` keeps one table, from each
whitespace word seen (`str.split`) to its tokens' surfaces, lower-cased
forms and entries, whether every entry is a tag, and its terms. An entry
is the tag where the surface alone decides it, and otherwise the verb
form's kinds from the lexicon, which `_verb_tag` reads against the tags
before the token on every sight. Neither the token pattern nor the term
pattern matches whitespace, and `str.split` cuts exactly where `re`'s
`\\s` matches, so a text's tokens and terms are its words' tokens and
terms in turn; lower-casing works one code point at a time but for the
Greek final sigma, which is in no term. The table lives as long as its
tagger, which `pipeline` keeps one of per lexicon directory, so it stays
warm across the documents of a process. It keeps no word longer than
`TAG_WORD_MAX` characters and stops growing at `TAG_TABLE_CAP` entries or
once they hold `TAG_TABLE_TOKENS` tokens.

The tagger is intentionally lightweight: a closed-class lexicon, a verb
inflection table shipped as an editable data file, suffix fallbacks, and a
NOUN default. It is deterministic and total over arbitrary text.
`lexicon_lines` is the one reader of every lexicon file: the tagger's here
and the lists that `pipeline` loads; `decode_utf8` is the one decoder of
every input file, lexicons or not.
"""

from __future__ import annotations

import errno
import os
import re
import stat
from functools import cache
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
_TERM_RE = re.compile(r"[a-z0-9]+(?:[-_'][a-z0-9]+)*")


class TaggedSentence(NamedTuple):
    text: str
    surfaces: tuple[str, ...]
    lowers: tuple[str, ...]  # lower-cased surfaces
    tags: tuple[str, ...]
    imperative: bool  # `_imperative` of the tags and lowers
    terms: tuple[str, ...]  # `sentence_terms(text)`


def sentence_terms(text: str) -> list[str]:
    """Lowercased word tokens with punctuation stripped: the actionable
    model's terms."""
    return _TERM_RE.findall(text.lower())


class ConditionalSplit(NamedTuple):
    condition_span: tuple[int, int]  # token range, end exclusive
    effect_span: tuple[int, int]
    effect_imperative: bool


# ---------------------------------------------------------------------------
# Lexicon loading

class Lexicon(NamedTuple):
    verb_forms: dict  # surface -> frozenset of {"base","third","past","participle","gerund"}
    closed: dict  # surface -> tag


class LexiconError(ValueError):
    """A lexicon file that is not UTF-8 or breaks its format."""


def read_input(path: str | Path) -> bytes:
    """The bytes of the input file `path`: OSError where it cannot be read
    or is not a regular file, through any link (reading a named pipe would
    block)."""
    path = Path(path)
    if not stat.S_ISREG(path.stat().st_mode):
        raise OSError(errno.EINVAL, "not a regular file", str(path))
    return path.read_bytes()


def input_lines(text: str) -> list[str]:
    """The lines of input text, each ended by \\n, \\r\\n or a lone \\r, as
    `csv.reader` counts them, so that every input file numbers its lines
    alike (`str.splitlines` also ends a line at \\x0c, U+0085, U+2028...)."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def decode_utf8(data: bytes, error) -> str:
    """The text of input file bytes, without one leading byte-order mark.
    Bytes that are not UTF-8 raise `error("line N: not UTF-8")`, N the
    `input_lines` line of the first bad byte."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        lineno = len(input_lines(data[:exc.start].decode("utf-8")))
        raise error(f"line {lineno}: not UTF-8") from None


def lexicon_lines(path: Path) -> list[tuple[int, str]]:
    """(line number, text) of each of the `input_lines` of the lexicon file
    `path`, stripped and lower-cased, skipping blank lines and `#` comments.
    Bytes that are not UTF-8 raise LexiconError; a file that `read_input`
    cannot read, OSError."""
    text = decode_utf8(read_input(path),
                       lambda message: LexiconError(f"{path}, {message}"))
    lines = enumerate((line.strip() for line in input_lines(text)), 1)
    return [(lineno, line.lower()) for lineno, line in lines
            if line and not line.startswith("#")]


def bundled_data_dir() -> Path:
    return Path(__file__).parent / "data"


def lexicon_file(directory: str | Path | None, name: str) -> Path:
    """The lexicon file `name`: from `directory` when it holds an entry of
    that name (a dangling link too, which then fails to read), else from the
    bundled set."""
    if directory is not None and os.path.lexists(Path(directory) / name):
        return Path(directory) / name
    return bundled_data_dir() / name


_VERB_KINDS = ["base", "third", "past", "participle", "gerund"]


def load_lexicon(directory: str | Path | None) -> Lexicon:
    """The tagger lexicon, each file by `lexicon_file`. `verbs.csv` must be
    the header `base,third,past,participle,gerund` and rows of five forms."""
    closed: dict[str, str] = {}
    for filename, tag in _CLOSED_CLASS_FILES:
        for _, word in lexicon_lines(lexicon_file(directory, filename)):
            closed.setdefault(word, tag)  # earlier class wins on overlap
    path = lexicon_file(directory, "verbs.csv")
    rows = [(lineno, [field.strip() for field in line.split(",")])
            for lineno, line in lexicon_lines(path)]
    if not rows or rows[0][1] != _VERB_KINDS:
        raise LexiconError(f"{path}, line {rows[0][0] if rows else 1}: expected "
                           f"the header {','.join(_VERB_KINDS)}")
    verb_forms: dict[str, set[str]] = {}
    for lineno, fields in rows[1:]:
        if len(fields) != len(_VERB_KINDS):
            raise LexiconError(f"{path}, line {lineno}: expected 5 fields, "
                               f"got {len(fields)}")
        for kind, surface in zip(_VERB_KINDS, fields):
            if surface:
                verb_forms.setdefault(surface, set()).add(kind)
    return Lexicon(
        verb_forms={k: frozenset(v) for k, v in verb_forms.items()},
        closed=closed,
    )


@cache  # read once per process; the lexicon is frozen
def default_lexicon() -> Lexicon:
    return load_lexicon(None)


# ---------------------------------------------------------------------------
# Sentence segmentation

_ABBREVIATIONS = frozenset({
    "e.g", "i.e", "etc", "cf", "vs", "no", "fig", "eq", "al", "approx",
    "dr", "mr", "mrs", "ms", "st", "ver", "rev", "sec", "min", "max",
})
# A boundary is a whole run of terminal marks: finditer never starts a match
# inside one. The class comes first so that `re` jumps from mark to mark; a
# leading lookbehind made it try the whole pattern at every position. The
# lookbehind then refuses a mark with a mark before it at once, so a long
# run of marks stays linear.
_BOUNDARY_RE = re.compile(r"[.!?](?<![.!?]{2})[.!?]*(?=\s+[A-Z0-9])")
_WORD_RUN_RE = re.compile(r"[\w.]+")  # matched on the reversed text
_PAREN_RE = re.compile(r"[()]")


def _paren_spans(text: str) -> list[tuple[int, int]]:
    """(open, close) offsets of each matched parenthesis pair, in the order
    the pairs close; a `)` with no open `(` is skipped."""
    spans: list[tuple[int, int]] = []
    stack: list[int] = []
    for match in _PAREN_RE.finditer(text):
        i = match.start()
        if text[i] == "(":
            stack.append(i)
        elif stack:
            spans.append((stack.pop(), i))
    return spans


def split_sentences(text: str) -> list[str]:
    """Split text into sentences on terminal punctuation followed by
    whitespace and a capital or digit, guarding abbreviations and short
    parenthesized spans. Linear in the text length. Most node texts hold
    no boundary at all (192 of the 204 in the bundled corpus): those skip
    the parenthesis scan and the reversed copy, and come back stripped.
    A text with no `(` has no parenthesized span, so it skips the scan."""
    if _BOUNDARY_RE.search(text) is None:
        text = text.strip()
        return [text] if text else []
    guarded = {i for a, b in _paren_spans(text) if b - a < 40  # short spans
               for i in range(a + 1, b)} if "(" in text else ()
    reverse = text[::-1]
    cuts: list[int] = []
    for match in _BOUNDARY_RE.finditer(text):
        start = match.start()
        if start in guarded:
            continue
        # The word run that ends at the boundary, or at one newline just
        # before it, so that "Fig.\n? I" stays whole.
        end = start - 1 if text[start - 1:start] == "\n" else start
        preceding = _WORD_RUN_RE.match(reverse, len(text) - end)
        if (preceding and preceding.group(0)[::-1].rstrip(".").lower()
                in _ABBREVIATIONS):
            continue
        cuts.append(match.end())
    pieces = (text[a:b].strip() for a, b in zip([0, *cuts], [*cuts, len(text)]))
    return [p for p in pieces if p]


# ---------------------------------------------------------------------------
# POS tagging

# Most entries of a Tagger's table, far more than the distinct words of a
# document; the longest word it keeps: a longer one is tagged and then
# dropped; and the tokens its entries may hold before it keeps no more
# words. Together they bound the table's memory: about 5 MB full of
# ordinary words (1.1 to 1.2 tokens each), about 13 MB full of the
# costliest words found, 32 tokens each, where the entry cap alone let
# them hold about 100 MB.
TAG_TABLE_CAP = 1 << 14
TAG_WORD_MAX = 32
TAG_TABLE_TOKENS = 1 << 16


class Tagger:
    """Deterministic tagger: closed-class lexicon, verb inflection table,
    suffix fallbacks, NOUN default. `words` maps each whitespace word seen
    (see the module docstring) to its tokens' surfaces, lower-cased forms
    and `_entry`s, whether every entry is a tag, and its terms, each a
    tuple but the flag. An entry is a token's tag, or the kinds of a verb
    form whose tag depends on the tags before it."""

    def __init__(self, lexicon: Lexicon | None = None):
        self.lexicon = lexicon or default_lexicon()
        self.words: dict[str, tuple] = {}
        self.table_tokens = 0  # the tokens of the entries of `words`

    def tag(self, text: str) -> TaggedSentence:
        """Tokenize and tag `text` one whitespace word at a time. Where
        lower-casing changes nothing, a token's lower-cased form is its
        surface object; a trailing `n't` is a token of its own."""
        words = self.words
        surfaces: list[str] = []
        lowers: list[str] = []
        tags: list[str] = []
        terms: list[str] = []
        for word in text.split():
            known = words.get(word)
            if known is None:
                known = self._word(word)
            word_surfaces, word_lowers, entries, all_tags, word_terms = known
            surfaces += word_surfaces
            lowers += word_lowers
            if all_tags:
                tags += entries
            else:
                for surface, lower, entry in zip(word_surfaces, word_lowers,
                                                 entries):
                    tags.append(entry if type(entry) is str else self._verb_tag(
                        surface, lower, entry, len(tags), lowers, tags))
            terms += word_terms
        tagged = tuple(tags)
        return TaggedSentence(text, tuple(surfaces), tuple(lowers), tagged,
                              _imperative(tagged, lowers), tuple(terms))

    def _word(self, word: str) -> tuple:
        """The `words` entry of the whitespace word `word`; kept unless the
        word is longer than `TAG_WORD_MAX` or `words` is full: it has
        `TAG_TABLE_CAP` entries, or they hold `TAG_TABLE_TOKENS` tokens."""
        surfaces: list[str] = []
        lowers: list[str] = []
        for raw in _TOKEN_RE.findall(word):
            lower = raw.lower()
            if lower == raw:
                lower = raw
            if len(raw) > 3 and lower.endswith("n't"):
                head, lower = raw[:-3], lower[:-3]
                surfaces += (head, "n't")
                lowers += (head if lower == head else lower, "n't")
            else:
                surfaces.append(raw)
                lowers.append(lower)
        entries = tuple(map(self._entry, surfaces, lowers))
        # Equal tuples and strings are kept once: most words are one token,
        # with a lower-cased form and a term that are that token again.
        surfaces = (word,) if surfaces == [word] else tuple(surfaces)
        lowers = tuple(lowers)
        if lowers == surfaces:
            lowers = surfaces
        terms = tuple(_TERM_RE.findall(word.lower()))
        known = (surfaces, lowers, entries,
                 frozenset not in map(type, entries),  # all tags
                 lowers if terms == lowers else terms)
        if (len(word) <= TAG_WORD_MAX and len(self.words) < TAG_TABLE_CAP
                and self.table_tokens < TAG_TABLE_TOKENS):
            self.words[word] = known
            self.table_tokens += len(surfaces)
        return known

    def _entry(self, surface: str, word: str) -> str | frozenset:
        """The tag that the surface alone decides, or the kinds of a verb
        form whose tag `_verb_tag` reads off the tags before it."""
        if not _WORD_RE.search(surface):
            return PUNCT
        if _NUM_RE.fullmatch(word):
            return NUM
        if word in _BE_FORMS:
            return _BE_FORMS[word]
        closed = self.lexicon.closed.get(word)
        if closed is not None:
            return closed
        kinds = self.lexicon.verb_forms.get(word)
        if kinds:
            if "gerund" in kinds:
                return VBG
            if "third" in kinds and "base" not in kinds:
                return VBZ
            return kinds
        return self._suffix_tag(word)

    def _verb_tag(self, surface: str, word: str, kinds: frozenset, i: int,
                  lowers: list[str], tags: list[str]) -> str:
        """The tag of the i-th token, a verb form whose `_entry` is its
        kinds `kinds`, from the tags and words before it."""
        prev = self._prev_content_tag(tags, i)
        if "participle" in kinds and self._recent_aux(i, lowers, tags):
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
        return self._suffix_tag(word)

    def _prev_content_tag(self, tags: list[str], i: int) -> str | None:
        for j in range(i - 1, -1, -1):
            if tags[j] not in (PUNCT, ADV, NEG, NUM):
                return tags[j]
        return None

    def _recent_aux(self, i: int, lowers: list[str], tags: list[str]) -> bool:
        steps = 0
        for j in range(i - 1, -1, -1):
            if tags[j] in (ADV, NEG):
                continue  # "was not restarted", "is automatically restarted"
            steps += 1
            if steps > 3:
                return False
            if lowers[j] in _AUX_SURFACES:
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


def _imperative(tags: tuple[str, ...], lowers) -> bool:
    """A sentence is imperative when its first non-punctuation, non-adverb,
    non-numeric token other than "please" is a base-form verb. Read it as
    `TaggedSentence.imperative`, set once when the sentence is tagged."""
    for tag, word in zip(tags, lowers):
        if tag in _SKIP_TAGS or word == "please":
            continue
        return tag == VB
    return False


def _find_opener(sentence: TaggedSentence) -> int | None:
    lowers = sentence.lowers
    for i, word in enumerate(lowers):
        if word in _CONDITION_OPENERS:
            return i
        if word == "in" and lowers[i + 1:i + 2] == ("case",):
            return i
    return None


def detect_conditional(sentence: TaggedSentence) -> ConditionalSplit | None:
    """Split a conditional sentence into condition and effect token spans.

    A leading condition runs to the first top-level comma; a trailing
    condition runs from the opener to the end of the sentence. The two spans
    partition the token sequence.
    """
    lowers = sentence.lowers
    if _CONDITION_OPENERS.isdisjoint(lowers) and "case" not in lowers:
        return None  # no opener to scan for
    opener = _find_opener(sentence)
    if opener is None:
        return None
    tags, n = sentence.tags, len(sentence.tags)
    first_content = next(
        (i for i, tag in enumerate(tags) if tag not in (PUNCT, NUM)), 0)
    if opener <= first_content:
        # Without a comma the condition is the whole sentence.
        comma = next((i for i in range(opener + 1, n)
                      if sentence.surfaces[i] == ","), n - 1)
        condition, effect = (0, comma + 1), (comma + 1, n)
    else:
        condition, effect = (opener, n), (0, opener)
    start, end = effect
    return ConditionalSplit(
        condition_span=condition, effect_span=effect,
        effect_imperative=_imperative(tags[start:end], sentence.lowers[start:end]))


def profile(sentence: TaggedSentence) -> tuple[bool, bool, bool]:
    """(present, active, positive): no past-tense verb, no form of "be"
    with a past participle in the three tokens after it, no negator."""
    tags = sentence.tags
    active = True
    if VBN in tags:  # else no form of "be" can have one after it
        for i, word in enumerate(sentence.lowers):
            if word in _BE_FORMS and VBN in tags[i + 1:i + 4]:
                active = False
                break
    return VBD not in tags, active, NEG not in tags
