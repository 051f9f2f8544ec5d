import csv
import json
import math
from collections import Counter

import numpy as np
import pytest

from procmine import actionable
from procmine.actionable import (ActionableModel, EmptyCorpus, Vocabulary,
                                 build_vocabulary, predict, term_indices, train)
from procmine.linear import (DegenerateLabels, MinMaxScaler, TrainParams,
                             VersionMismatch)
from procmine.lingua import Tagger, profile

from conftest import CORPUS_DIR, dense_features, sentence_terms

POSITIVE = [
    "The user installs the package on the server.",
    "The administrator restarts the service now.",
    "The operator installs the update on the node.",
    "The user enters the password at the prompt.",
    "The administrator configures the adapter settings.",
    "The user restarts the daemon after the change.",
    "The operator enters the command in the console.",
    "The administrator installs the certificate on the host.",
    "The user configures the network interface.",
    "The operator restarts the cluster manager.",
]
NEGATIVE = [
    "The system was unavailable during the outage yesterday.",
    "The report was generated by the scheduler overnight.",
    "No changes were made to the configuration baseline.",
    "The incident was closed by the support team.",
    "The release was delayed because of the defect backlog.",
    "The metrics were collected by the monitoring agent.",
    "The outage was caused by the faulty switch.",
    "The ticket was assigned to the wrong group queue.",
    "The document was archived after the review cycle.",
    "The backup was completed before the maintenance window.",
]
TOY = [(t, True) for t in POSITIVE] + [(t, False) for t in NEGATIVE]
PARAMS = TrainParams(epochs=200, learning_rate=0.01, l2=1e-4, seed=3)


@pytest.fixture(scope="module")
def tagger():
    return Tagger()


@pytest.fixture(scope="module")
def toy_model():
    return train(TOY, PARAMS)


def separable_by_single_feature(matrix: np.ndarray, labels: list[bool]) -> bool:
    """Brute-force oracle: search every axis-aligned threshold separator."""
    pos = matrix[[i for i, l in enumerate(labels) if l]]
    neg = matrix[[i for i, l in enumerate(labels) if not l]]
    for f in range(matrix.shape[1]):
        if pos[:, f].min() > neg[:, f].max() or pos[:, f].max() < neg[:, f].min():
            return True
    return False


def vocabulary_of(texts: list[str]) -> Vocabulary:
    """`build_vocabulary` of the texts, each tagged once."""
    tagger = Tagger()
    return build_vocabulary([tagger.tag(text) for text in texts])


class TestVocabulary:
    def test_term_in_every_sentence_has_zero_idf(self):
        corpus = [f"alpha word{i}" for i in range(5)]
        vocab = vocabulary_of(corpus)
        assert vocab.terms == ("alpha",)
        assert vocab.idf[0] == 0.0

    def test_rare_term_excluded(self):
        corpus = ["common rare"] * 2 + ["common"] * 98
        vocab = vocabulary_of(corpus)
        assert "rare" not in vocab.terms
        assert "common" in vocab.terms

    def test_idf_value_ln_25(self):
        corpus = ["target filler"] * 4 + ["filler"] * 96
        vocab = vocabulary_of(corpus)
        idx = vocab.terms.index("target")
        assert vocab.idf[idx] == pytest.approx(math.log(25.0), abs=1e-12)
        assert vocab.document_frequency[idx] == 4

    def test_df_counts_sentences_not_occurrences(self):
        corpus = ["echo echo echo", "other", "other", "other"]
        vocab = vocabulary_of(corpus)
        assert "echo" not in vocab.terms  # 1 sentence only, despite 3 tokens

    def test_terms_sorted_lexicographically(self):
        corpus = ["zeta alpha mid"] * 3
        vocab = vocabulary_of(corpus)
        assert list(vocab.terms) == sorted(vocab.terms)

    def test_empty_after_filter_raises(self):
        with pytest.raises(EmptyCorpus):
            vocabulary_of(["a b", "c d"])

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpus):
            build_vocabulary([])

    def test_counts_the_terms_of_each_text(self, tagger):
        """Over the actionable corpus, the document frequencies of the
        tagged sentences' terms are those of `sentence_terms` of the
        texts."""
        with (CORPUS_DIR / "actionable_sentences.csv").open(newline="") as handle:
            texts = [row["text"] for row in csv.DictReader(handle)]
        df = Counter(term for text in texts for term in set(sentence_terms(text)))
        kept = sorted(term for term, count in df.items() if count >= 3)
        vocab = build_vocabulary([tagger.tag(text) for text in texts])
        assert vocab.terms == tuple(kept)
        assert vocab.document_frequency == tuple(df[term] for term in kept)

    def test_term_index_built_once(self):
        vocab = vocabulary_of(["zeta alpha mid"] * 3)
        assert vocab.index == {"alpha": 0, "mid": 1, "zeta": 2}
        assert vocab.index is vocab.index


class TestFeaturize:
    VOCAB = Vocabulary(terms=("install", "server"),
                       document_frequency=(4, 5),
                       idf=(2.0, 1.0), total_sentences=20)

    def test_oov_sentence_gets_zero_bag_and_profile_tail(self, tagger):
        tagged = tagger.tag("Reboot the gateway.")
        assert term_indices(tagged.terms, self.VOCAB) == []
        assert profile(tagged) == (True, True, True)

    def test_tf_times_idf(self, tagger):
        tagged = tagger.tag("install twice install")
        assert term_indices(tagged.terms, self.VOCAB) == [0, 0]
        # Only the first feature is weighted, its range [0, 8]: the margin
        # is its scaled tf-idf, tf 2 x idf 2.0 over 8.
        model = ActionableModel(
            vocabulary=self.VOCAB, weights=(1.0, 0.0, 0.0, 0.0, 0.0), bias=0.0,
            scaler=MinMaxScaler(mins=(0.0,) * 5, maxs=(8.0, 1.0, 1.0, 1.0, 1.0)))
        assert predict(model, tagged) == (True, 0.5)

    def test_negative_profile_tail(self, tagger):
        """Past tense, passive voice and a negator: all three bits False."""
        tagged = tagger.tag("The install was not restarted.")
        assert term_indices(tagged.terms, self.VOCAB) == [0]
        assert profile(tagged) == (False, False, False)

    def test_punctuation_stripped_and_lowercased(self, tagger):
        assert tagger.tag("Install, the SERVER!").terms == ("install", "the",
                                                           "server")


class TestTrain:
    def test_toy_set_is_separable_by_oracle(self, toy_model, tagger):
        matrix = np.stack([dense_features(tagger.tag(text), toy_model.vocabulary)
                           for text, _ in TOY])
        assert separable_by_single_feature(matrix, [l for _, l in TOY])

    def test_training_accuracy_is_one_on_separable_toy(self, toy_model, tagger):
        correct = sum(
            predict(toy_model, tagger.tag(text))[0] == label
            for text, label in TOY)
        assert correct == len(TOY)

    def test_identical_features_bounded_by_class_prior(self, tagger):
        # same sentence with conflicting labels: accuracy <= majority prior
        labeled = [("install the node now", True)] * 6 + \
                  [("install the node now", False)] * 4
        model = train(labeled, PARAMS)
        correct = sum(predict(model, tagger.tag(t))[0] == l for t, l in labeled)
        assert correct / len(labeled) <= 0.6 + 1e-9

    def test_single_class_raises(self):
        with pytest.raises(DegenerateLabels):
            train([(t, True) for t in POSITIVE], PARAMS)

    def test_determinism_bit_identical_json(self):
        first = train(TOY, PARAMS).to_json()
        second = train(TOY, PARAMS).to_json()
        assert first == second

    def test_different_seed_changes_bytes(self):
        first = train(TOY, PARAMS).to_json()
        second = train(TOY, TrainParams(epochs=200, learning_rate=0.01,
                                        l2=1e-4, seed=99)).to_json()
        assert first != second

    def test_scaled_training_features_in_unit_interval(self, toy_model, tagger):
        for text, _ in TOY:
            raw = dense_features(tagger.tag(text), toy_model.vocabulary)
            scaled = toy_model.scaler.transform(raw[np.newaxis, :])[0]
            assert scaled.min() >= 0.0 and scaled.max() <= 1.0


class TestPredict:
    def _constant_model(self, bias: float) -> ActionableModel:
        vocab = Vocabulary(terms=("install",), document_frequency=(3,),
                           idf=(1.0,), total_sentences=10)
        return ActionableModel(
            vocabulary=vocab, weights=np.zeros(4), bias=bias,
            scaler=MinMaxScaler(mins=np.zeros(4), maxs=np.ones(4)))

    def test_zero_weights_negative_bias(self, tagger):
        label, margin = predict(self._constant_model(-1.0),
                                tagger.tag("Install it."))
        assert (label, margin) == (False, -1.0)

    def test_zero_bias_tie_resolves_actionable(self, tagger):
        label, margin = predict(self._constant_model(0.0),
                                tagger.tag("Install it."))
        assert (label, margin) == (True, 0.0)

    def test_held_in_positive_has_positive_margin(self, toy_model, tagger):
        label, margin = predict(toy_model,
                                tagger.tag(POSITIVE[0]))
        assert label is True and margin > 0

    def test_weight_increase_raises_margin(self, toy_model, tagger):
        sentence = tagger.tag("The user installs the package on the server.")
        _, base = predict(toy_model, sentence)
        weights = list(toy_model.weights)
        weights[toy_model.vocabulary.terms.index("installs")] += 1.0
        boosted = ActionableModel(
            vocabulary=toy_model.vocabulary, weights=tuple(weights),
            bias=toy_model.bias, scaler=toy_model.scaler)
        _, raised = predict(boosted, sentence)
        assert raised > base


class TestModelIO:
    def test_round_trip(self, toy_model, tmp_path):
        path = tmp_path / "model.json"
        toy_model.save(path)
        loaded = ActionableModel.load(path)
        assert loaded.to_json() == toy_model.to_json()

    @pytest.mark.parametrize("field, value", [
        ("vocabulary", None), ("term", 7), ("idf", None), ("idf", float("nan")),
        ("bias", None), ("weights", None)])
    def test_malformed_values_are_rejected(self, toy_model, field, value):
        doc = json.loads(toy_model.to_json())
        if field in ("term", "idf"):
            doc["vocabulary"][0][field] = value
        elif field in ("vocabulary", "weights"):
            doc[field][0] = value
        else:
            doc[field] = value
        with pytest.raises(VersionMismatch):
            ActionableModel.from_json(json.dumps(doc))

    def test_predictions_survive_round_trip(self, toy_model, tagger, tmp_path):
        path = tmp_path / "model.json"
        toy_model.save(path)
        loaded = ActionableModel.load(path)
        for text, _ in TOY:
            sentence = tagger.tag(text)
            assert predict(loaded, sentence) == predict(toy_model, sentence)
