"""Classifier for non-imperative actionable statements.

Features are bag-of-words tf-idf over a frequency-filtered vocabulary plus
three linguistic bits (present tense, active voice, positive polarity).
The model is a linear max-margin classifier trained with seeded SGD; the
serialized form is a versioned JSON document.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from . import linear
from .lingua import (Polarity, Profile, TaggedSentence, Tagger, Tense, Voice,
                     profile as profile_sentence)
from .linear import (DegenerateLabels, MinMaxScaler, Scorer, TrainParams,
                     VersionMismatch, check_shape, finite, finite_array,
                     objects, read_model)

if TYPE_CHECKING:
    import numpy as np

MODEL_VERSION = "actionable/1 tf=raw idf=ln"

MIN_DOCUMENT_FREQUENCY = 3

_WORD_RE = re.compile(r"[a-z0-9]+(?:[-_'][a-z0-9]+)*")


class EmptyCorpus(ValueError):
    """No vocabulary term survived the document-frequency filter."""


def sentence_terms(text: str) -> list[str]:
    """Lowercased word tokens with punctuation stripped."""
    return _WORD_RE.findall(text.lower())


@dataclass(frozen=True)
class Vocabulary:
    terms: tuple[str, ...]  # sorted lexicographically
    document_frequency: tuple[int, ...]
    idf: tuple[float, ...]
    total_sentences: int

    @cached_property
    def index(self) -> dict[str, int]:
        """Term -> position in `terms`, built on first use."""
        return {term: i for i, term in enumerate(self.terms)}

    def __len__(self) -> int:
        return len(self.terms)


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


def _indicators(prof: Profile) -> tuple[float, float, float]:
    return (1.0 if prof.tense is Tense.PRESENT else 0.0,
            1.0 if prof.voice is Voice.ACTIVE else 0.0,
            1.0 if prof.polarity is Polarity.POSITIVE else 0.0)


def featurize(text: str, prof: Profile, vocab: Vocabulary) -> np.ndarray:
    """tf-idf bag plus [present, active, positive] indicator tail."""
    import numpy as np
    vector = np.zeros(len(vocab) + 3, dtype=float)
    for i, value in _tf_idf(text, vocab).items():
        vector[i] = value
    vector[len(vocab):] = _indicators(prof)
    return vector


@dataclass(frozen=True)
class ActionableModel:
    vocabulary: Vocabulary
    weights: Sequence[float]
    bias: float
    scaler: MinMaxScaler

    @cached_property
    def scorer(self) -> Scorer:
        return Scorer(self.weights, self.bias, self.scaler)

    def to_json(self) -> str:
        doc = {
            "version": MODEL_VERSION,
            "vocabulary": [
                {"term": t, "df": d, "idf": i}
                for t, d, i in zip(self.vocabulary.terms,
                                   self.vocabulary.document_frequency,
                                   self.vocabulary.idf)
            ],
            "total_sentences": self.vocabulary.total_sentences,
            "weights": [float(w) for w in self.weights],
            "bias": float(self.bias),
            "scaler": self.scaler.pairs(),
        }
        return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"

    @classmethod
    def from_json(cls, data: str | bytes) -> "ActionableModel":
        doc = read_model(data, MODEL_VERSION)
        entries = objects(doc["vocabulary"], "vocabulary")
        terms = tuple(e["term"] for e in entries)
        if not all(isinstance(term, str) for term in terms):
            raise VersionMismatch("vocabulary terms must be strings")
        vocab = Vocabulary(
            terms=terms,
            document_frequency=tuple(e["df"] for e in entries),
            idf=finite_array([e["idf"] for e in entries], "idf"),
            total_sentences=doc["total_sentences"],
        )
        weights = finite_array(doc["weights"], "weights")
        scaler = MinMaxScaler.from_pairs(doc["scaler"])
        check_shape(weights, scaler, len(vocab) + 3)
        # `predict` leaves out absent terms, which is exact only when a
        # tf-idf of 0 scales to 0. Training always gives 0 <= min <= max.
        if not all(0.0 <= lo <= hi for lo, hi in
                   zip(scaler.mins[:len(vocab)], scaler.maxs)):
            raise VersionMismatch(
                "tf-idf scaler ranges must have 0 <= min <= max")
        return cls(vocabulary=vocab, weights=weights,
                   bias=finite(doc["bias"], "bias"), scaler=scaler)

    @classmethod
    def load(cls, path: str | Path) -> "ActionableModel":
        return cls.from_json(Path(path).read_text("utf-8"))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), "utf-8")


def _feature_matrix(sentences: list[str], profiles: list[Profile],
                    vocab: Vocabulary) -> np.ndarray:
    import numpy as np
    return np.stack([featurize(s, p, vocab)
                     for s, p in zip(sentences, profiles)])


def train(labeled: list[tuple[str, bool]], params: TrainParams,
          tagger: Tagger | None = None) -> ActionableModel:
    """Train from (sentence text, actionable) pairs. Deterministic per seed."""
    import numpy as np
    positives = sum(1 for _, label in labeled if label)
    if positives < 2 or len(labeled) - positives < 2:
        raise DegenerateLabels("need at least 2 examples of each class")
    tagger = tagger or Tagger()
    texts = [text for text, _ in labeled]
    profiles = [profile_sentence(tagger.tag(text)) for text in texts]
    vocab = build_vocabulary(texts)
    raw = _feature_matrix(texts, profiles, vocab)
    scaler = MinMaxScaler.fit(raw)
    x = scaler.transform(raw)
    y = np.array([1.0 if label else -1.0 for _, label in labeled])
    fit, = linear.fit_hinge([x], y, params)
    return ActionableModel(vocabulary=vocab, weights=fit.weights,
                           bias=fit.bias, scaler=scaler)


def predict(model: ActionableModel, sentence: TaggedSentence,
            prof: Profile | None = None) -> tuple[bool, float]:
    """(actionable, margin); margin-zero ties resolve to actionable.

    Scores only the vocabulary terms present, in index order, then the
    three indicators. An absent term's tf-idf of 0 scales to 0 (see
    `ActionableModel.from_json`), so the margin has the same bits as the
    sum over every feature."""
    prof = prof or profile_sentence(sentence)
    size = len(model.vocabulary)
    features = sorted(_tf_idf(sentence.text, model.vocabulary).items())
    features.extend(zip(range(size, size + 3), _indicators(prof)))
    margin = model.scorer.margin(features)
    return linear.decide(margin), margin
