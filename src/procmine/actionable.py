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
from pathlib import Path

import numpy as np

from . import linear
from .lingua import (Polarity, Profile, TaggedSentence, Tagger, Tense, Voice,
                     profile as profile_sentence)
from .linear import (DegenerateLabels, MinMaxScaler, TrainParams,
                     VersionMismatch, check_shape)

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

    def index(self) -> dict[str, int]:
        return {term: i for i, term in enumerate(self.terms)}

    def __len__(self) -> int:
        return len(self.terms)


def build_vocabulary(corpus: list[str],
                     min_df: int = MIN_DOCUMENT_FREQUENCY) -> Vocabulary:
    """Terms appearing in at least `min_df` sentences, idf = ln(N / df)."""
    if not corpus:
        raise EmptyCorpus("empty corpus")
    df: dict[str, int] = {}
    for sentence in corpus:
        for term in set(sentence_terms(sentence)):
            df[term] = df.get(term, 0) + 1
    kept = sorted(term for term, count in df.items() if count >= min_df)
    if not kept:
        raise EmptyCorpus(
            f"no term appears in at least {min_df} sentences")
    total = len(corpus)
    return Vocabulary(
        terms=tuple(kept),
        document_frequency=tuple(df[t] for t in kept),
        idf=tuple(math.log(total / df[t]) for t in kept),
        total_sentences=total,
    )


def featurize(text: str, prof: Profile, vocab: Vocabulary) -> np.ndarray:
    """tf-idf bag plus [present, active, positive] indicator tail."""
    vector = np.zeros(len(vocab) + 3, dtype=float)
    index = vocab.index()
    for term in sentence_terms(text):
        i = index.get(term)
        if i is not None:
            vector[i] += vocab.idf[i]
    vector[len(vocab)] = 1.0 if prof.tense is Tense.PRESENT else 0.0
    vector[len(vocab) + 1] = 1.0 if prof.voice is Voice.ACTIVE else 0.0
    vector[len(vocab) + 2] = 1.0 if prof.polarity is Polarity.POSITIVE else 0.0
    return vector


@dataclass
class ActionableModel:
    vocabulary: Vocabulary
    weights: np.ndarray
    bias: float
    scaler: MinMaxScaler
    version: str = MODEL_VERSION

    def to_json(self) -> str:
        doc = {
            "version": self.version,
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
        doc = json.loads(data)
        version = doc.get("version", "")
        if version != MODEL_VERSION:
            raise VersionMismatch(
                f"model version {version!r}, expected {MODEL_VERSION!r}")
        vocab = Vocabulary(
            terms=tuple(e["term"] for e in doc["vocabulary"]),
            document_frequency=tuple(e["df"] for e in doc["vocabulary"]),
            idf=tuple(e["idf"] for e in doc["vocabulary"]),
            total_sentences=doc["total_sentences"],
        )
        weights = np.array(doc["weights"], dtype=float)
        scaler = MinMaxScaler.from_pairs(doc["scaler"])
        check_shape(weights, scaler, len(vocab) + 3)
        return cls(vocabulary=vocab, weights=weights, bias=doc["bias"],
                   scaler=scaler, version=version)

    @classmethod
    def load(cls, path: str | Path) -> "ActionableModel":
        return cls.from_json(Path(path).read_text("utf-8"))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), "utf-8")


def _feature_matrix(sentences: list[str], profiles: list[Profile],
                    vocab: Vocabulary) -> np.ndarray:
    return np.stack([featurize(s, p, vocab)
                     for s, p in zip(sentences, profiles)])


def train(labeled: list[tuple[str, bool]], params: TrainParams,
          tagger: Tagger | None = None,
          min_df: int = MIN_DOCUMENT_FREQUENCY) -> ActionableModel:
    """Train from (sentence text, actionable) pairs. Deterministic per seed."""
    positives = sum(1 for _, label in labeled if label)
    if positives < 2 or len(labeled) - positives < 2:
        raise DegenerateLabels("need at least 2 examples of each class")
    tagger = tagger or Tagger()
    texts = [text for text, _ in labeled]
    profiles = [profile_sentence(tagger.tag(text)) for text in texts]
    vocab = build_vocabulary(texts, min_df=min_df)
    raw = _feature_matrix(texts, profiles, vocab)
    scaler = MinMaxScaler.fit(raw)
    x = scaler.transform(raw)
    y = np.array([1.0 if label else -1.0 for _, label in labeled])
    fit = linear.fit_hinge(x, y, params)
    model = ActionableModel(vocabulary=vocab, weights=fit.weights,
                            bias=fit.bias, scaler=scaler)
    model.epoch_losses = fit.epoch_losses  # training diagnostic, not serialized
    return model


def predict(model: ActionableModel, sentence: TaggedSentence,
            prof: Profile | None = None) -> tuple[bool, float]:
    """(actionable, margin); margin-zero ties resolve to actionable."""
    prof = prof or profile_sentence(sentence)
    raw = featurize(sentence.text, prof, model.vocabulary)
    scaled = model.scaler.transform(raw[np.newaxis, :])[0]
    margin = float(scaled @ model.weights + model.bias)
    return linear.decide(margin), margin
