"""Classifier for non-imperative actionable statements.

A tagged sentence has one featurization: `term_indices`, the sorted
vocabulary index of each of its terms (bag-of-words over a
frequency-filtered vocabulary), and the three indicator bits of
`lingua.profile` (present tense, active voice, positive polarity). The
terms are `lingua.sentence_terms` of its text, which the tagger gives as
`TaggedSentence.terms`, so no sentence is tokenized a second time; only
`build_vocabulary` reads raw texts. `train` fills its dense tf-idf matrix
from them, idf added once per occurrence from 0.0. The model is a
`linear.LinearModel` that also holds the vocabulary; its file, loader and
training recipe are `linear`'s.

`predict` adds one precomputed score per term. `Scorer.margin` over the
sparse features adds, from 0.0 and in index order, each present term's
scaled tf-idf times its weight, then each indicator's, then the bias. A
term seen once has the tf-idf 0.0 + idf, a constant of the model, and an
indicator has two values, 0.0 and 1.0; so the model works out each of
those terms once, by `Scorer.contribution`, which `margin` itself calls
for each feature. A term seen k times has the tf-idf of idf added k times
to 0.0; the model works those terms out too for k up to `TABLED_COUNTS`,
from the running sum, and `predict` works out a larger k when it is seen.
`predict` then adds the same floats in the same order as the sparse sum,
so the margin has the same bits.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

from . import linear
from .docmodel import require
from .lingua import TaggedSentence, Tagger, profile, sentence_terms
from .linear import DegenerateLabels, TrainParams, VersionMismatch

MIN_DOCUMENT_FREQUENCY = 3

# The largest occurrence count of a term whose margin term the score table
# holds. No sentence of the bundled actionable corpus repeats a vocabulary
# term more than 3 times, nor one of the benchmark's prose documents (seed 0)
# more than 4; a longer run is worked out when it is seen.
TABLED_COUNTS = 4

class EmptyCorpus(ValueError):
    """No vocabulary term survived the document-frequency filter."""


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


def term_indices(terms: tuple[str, ...], vocab: Vocabulary) -> list[int]:
    """The vocabulary index of each of `terms`, in increasing order; a
    term seen k times is there k times. Terms outside the vocabulary are
    left out: their tf-idf is 0."""
    get = vocab.index.get
    indices = [i for i in map(get, terms) if i is not None]
    indices.sort()
    return indices


class ActionableModel(linear.LinearModel):
    """Weights and scaler ranges for the vocabulary's tf-idf terms, in
    index order, then for the three indicators. `predict` leaves out absent
    terms, which is exact only when a tf-idf of 0 scales to 0, so building
    a model also checks that every tf-idf range has 0 <= min <= max, as
    training always gives, that every idf is finite, and that the terms
    strictly increase, each with one df and one idf, and each df is an
    integer from 1 to total_sentences, as `build_vocabulary` writes them.

    A model also holds `predict`'s score table, built with it: in
    `term_scores` the margin term of each vocabulary term seen once, in
    `repeat_scores[k - 2]` that of each term seen k times for k from 2 to
    `TABLED_COUNTS`, and in `indicator_scores` the terms of each indicator
    at 0.0 and at 1.0."""

    MODEL_VERSION = "actionable/1 tf=raw idf=ln"
    _fields = (*linear.LinearModel._fields, "vocabulary")

    def __init__(self, weights, bias, scaler, vocabulary: Vocabulary):
        vars(self)["vocabulary"] = vocabulary
        super().__init__(weights, bias, scaler)
        contribution = self.scorer.contribution
        size = len(vocabulary.terms)
        by_count, xs = [], [0.0] * size
        for _ in range(TABLED_COUNTS):  # xs: idf added k times to 0.0
            xs = [x + idf for x, idf in zip(xs, vocabulary.idf)]
            by_count.append(tuple(map(contribution, range(size), xs)))
        vars(self).update(
            term_scores=by_count[0], repeat_scores=tuple(by_count[1:]),
            indicator_scores=tuple((contribution(i, 0.0), contribution(i, 1.0))
                                   for i in range(size, size + 3)))

    def repeated_score(self, index: int, count: int) -> float:
        """The margin term of vocabulary term `index` seen `count` times."""
        idf, x = self.vocabulary.idf[index], 0.0
        for _ in range(count):
            x += idf
        return self.scorer.contribution(index, x)

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
    size, idf = len(vocab.terms), vocab.idf
    raw = np.zeros((len(texts), size + 3))
    for row, text in zip(raw, texts):
        tagged = tagger.tag(text)
        for i in term_indices(tagged.terms, vocab):
            row[i] += idf[i]
        row[size:] = profile(tagged)
    return linear.fit_models(ActionableModel, [raw],
                             [label for _, label in labeled], params,
                             vocabulary=vocab)[0]


def predict(model: ActionableModel,
            sentence: TaggedSentence) -> tuple[bool, float]:
    """(actionable, margin) over `term_indices` and `profile`; margin-zero
    ties resolve to actionable. The margin has the bits of `Scorer.margin`
    over the sparse tf-idf and indicator features (see the module
    docstring)."""
    indices = term_indices(sentence.terms, model.vocabulary)
    indices.append(-1)  # ends the last run of equal indices
    scores, repeats = model.term_scores, model.repeat_scores
    total = 0.0
    term, count = None, 0
    for i in indices:
        if i == term:
            count += 1
            continue
        if count == 1:
            total += scores[term]
        elif count:
            total += (repeats[count - 2][term] if count <= TABLED_COUNTS
                      else model.repeated_score(term, count))
        term, count = i, 1
    present, active, positive = model.indicator_scores
    bits = profile(sentence)
    total += present[bits[0]]
    total += active[bits[1]]
    total += positive[bits[2]]
    margin = total + model.scorer.bias
    return linear.decide(margin), margin
