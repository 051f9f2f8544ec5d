"""Classifier for non-imperative actionable statements.

A tagged sentence has one featurization, `_features`: bag-of-words tf-idf
over a frequency-filtered vocabulary, then the three indicator bits of
`lingua.profile` (present tense, active voice, positive polarity).
`predict` scores those sparse pairs and `train` fills its dense matrix
from them. The model is a `linear.LinearModel` that also holds the
vocabulary; its file, loader and training recipe are `linear`'s.
"""

from __future__ import annotations

import math
import re
from functools import cached_property
from typing import NamedTuple

from . import linear
from .docmodel import require
from .lingua import TaggedSentence, Tagger, profile
from .linear import DegenerateLabels, TrainParams, VersionMismatch

MIN_DOCUMENT_FREQUENCY = 3

_WORD_RE = re.compile(r"[a-z0-9]+(?:[-_'][a-z0-9]+)*")


class EmptyCorpus(ValueError):
    """No vocabulary term survived the document-frequency filter."""


def sentence_terms(text: str) -> list[str]:
    """Lowercased word tokens with punctuation stripped."""
    return _WORD_RE.findall(text.lower())


class _VocabularyFields(NamedTuple):
    terms: tuple[str, ...]  # sorted lexicographically
    document_frequency: tuple[int, ...]
    idf: tuple[float, ...]
    total_sentences: int


class Vocabulary(_VocabularyFields):
    """A NamedTuple of the fields above. Unlike a plain NamedTuple it has an
    instance dict, which caches `index`; `len` counts its four fields."""

    @cached_property
    def index(self) -> dict[str, int]:
        """Term -> position in `terms`, built on first use."""
        return {term: i for i, term in enumerate(self.terms)}


def build_vocabulary(corpus: list[str]) -> Vocabulary:
    """Terms appearing in at least `MIN_DOCUMENT_FREQUENCY` sentences,
    idf = ln(N / df)."""
    if not corpus:
        raise EmptyCorpus("empty corpus")
    df: dict[str, int] = {}
    for sentence in corpus:
        for term in set(sentence_terms(sentence)):
            df[term] = df.get(term, 0) + 1
    kept = sorted(term for term, count in df.items()
                  if count >= MIN_DOCUMENT_FREQUENCY)
    if not kept:
        raise EmptyCorpus(
            f"no term appears in at least {MIN_DOCUMENT_FREQUENCY} sentences")
    total = len(corpus)
    return Vocabulary(
        terms=tuple(kept),
        document_frequency=tuple(df[t] for t in kept),
        idf=tuple(math.log(total / df[t]) for t in kept),
        total_sentences=total,
    )


def _tf_idf(text: str, vocab: Vocabulary) -> dict[int, float]:
    """Term index -> tf-idf of the vocabulary terms in `text`: idf added
    once per occurrence, starting from 0.0."""
    index, idf = vocab.index, vocab.idf
    bag: dict[int, float] = {}
    for term in sentence_terms(text):
        i = index.get(term)
        if i is not None:
            bag[i] = bag.get(i, 0.0) + idf[i]
    return bag


def _features(sentence: TaggedSentence,
              vocab: Vocabulary) -> list[tuple[int, float]]:
    """(index, value) pairs: the tf-idf of the vocabulary terms present, in
    index order, then the present, active and positive bits as 1.0 or 0.0
    at indices len(vocab.terms) to len(vocab.terms) + 2."""
    size = len(vocab.terms)
    features = sorted(_tf_idf(sentence.text, vocab).items())
    features.extend(zip(range(size, size + 3), map(float, profile(sentence))))
    return features


class ActionableModel(linear.LinearModel):
    """Weights and scaler ranges for the vocabulary's tf-idf terms, in
    index order, then for the three indicators. `predict` leaves out absent
    terms, which is exact only when a tf-idf of 0 scales to 0, so building
    a model also checks that every tf-idf range has 0 <= min <= max, as
    training always gives, that every idf is finite, and that the terms
    strictly increase, each with one df and one idf, and each df is an
    integer from 1 to total_sentences, as `build_vocabulary` writes them."""

    MODEL_VERSION = "actionable/1 tf=raw idf=ln"
    _fields = (*linear.LinearModel._fields, "vocabulary")

    def __init__(self, weights, bias, scaler, vocabulary: Vocabulary):
        vars(self)["vocabulary"] = vocabulary
        super().__init__(weights, bias, scaler)

    @property
    def n_features(self) -> int:
        return len(self.vocabulary.terms) + 3

    def _check(self) -> None:
        super()._check()
        vocab = self.vocabulary
        size = len(vocab.terms)
        if not len(vocab.document_frequency) == len(vocab.idf) == size:
            raise VersionMismatch("vocabulary needs one df and one idf per term")
        if not all(map(math.isfinite, vocab.idf)):
            raise VersionMismatch("idf must be finite numbers")
        if not all(a < b for a, b in zip(vocab.terms, vocab.terms[1:])):
            raise VersionMismatch("vocabulary terms must strictly increase")
        total = vocab.total_sentences  # `type(...) is int` refuses a bool
        if not (type(total) is int and all(type(df) is int and 1 <= df <= total
                                           for df in vocab.document_frequency)):
            raise VersionMismatch("each df must be an integer from 1 to "
                                  "total_sentences")
        if not all(0.0 <= lo <= hi for lo, hi in
                   zip(self.scaler.mins[:size], self.scaler.maxs)):
            raise VersionMismatch(
                "tf-idf scaler ranges must have 0 <= min <= max")

    def _header(self) -> dict:
        vocab = self.vocabulary
        return {"vocabulary": [{"term": t, "df": d, "idf": i} for t, d, i in
                               zip(vocab.terms, vocab.document_frequency, vocab.idf)],
                "total_sentences": vocab.total_sentences}

    @classmethod
    def _read_header(cls, doc: dict) -> dict:
        entries = list(enumerate(require(doc, "vocabulary", list, "$", dict)))
        terms, dfs, idfs = (
            tuple(require(e, key, kind, ("$.vocabulary", i)) for i, e in entries)
            for key, kind in [("term", str), ("df", int), ("idf", float)])
        return {"vocabulary": Vocabulary(
            terms=terms, document_frequency=dfs, idf=idfs,
            total_sentences=require(doc, "total_sentences", int, "$"))}


def train(labeled: list[tuple[str, bool]], params: TrainParams,
          tagger: Tagger | None = None) -> ActionableModel:
    """Train from (sentence text, actionable) pairs. Deterministic per seed."""
    import numpy as np
    positives = sum(1 for _, label in labeled if label)
    if positives < 2 or len(labeled) - positives < 2:
        raise DegenerateLabels("need at least 2 examples of each class")
    tagger = tagger or Tagger()
    texts = [text for text, _ in labeled]
    vocab = build_vocabulary(texts)
    raw = np.zeros((len(texts), len(vocab.terms) + 3))
    for row, text in zip(raw, texts):
        for i, value in _features(tagger.tag(text), vocab):
            row[i] = value
    return linear.fit_models(ActionableModel, [raw],
                             [label for _, label in labeled], params,
                             vocabulary=vocab)[0]


def predict(model: ActionableModel,
            sentence: TaggedSentence) -> tuple[bool, float]:
    """(actionable, margin) over `_features`; margin-zero ties resolve to
    actionable. An absent term's tf-idf of 0 scales to 0 (see
    `ActionableModel`), so the margin has the same bits as the sum over
    every feature."""
    margin = model.scorer.margin(_features(sentence, model.vocabulary))
    return linear.decide(margin), margin
