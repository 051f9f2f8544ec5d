import json
import math

import numpy as np
import pytest

from procmine import actionable
from procmine.actionable import (ActionableModel, EmptyCorpus, Vocabulary,
                                 build_vocabulary, featurize, predict,
                                 sentence_terms, train)
from procmine.linear import (DegenerateLabels, MinMaxScaler, TrainParams,
                             VersionMismatch)
from procmine.lingua import Polarity, Profile, Tagger, Tense, Voice

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

PRESENT_ACTIVE_POSITIVE = Profile(Tense.PRESENT, Voice.ACTIVE, Polarity.POSITIVE)


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


class TestVocabulary:
    def test_term_in_every_sentence_has_zero_idf(self):
        corpus = [f"alpha word{i}" for i in range(5)]
        vocab = build_vocabulary(corpus)
        assert vocab.terms == ("alpha",)
        assert vocab.idf[0] == 0.0

    def test_rare_term_excluded(self):
        corpus = ["common rare"] * 2 + ["common"] * 98
        vocab = build_vocabulary(corpus)
        assert "rare" not in vocab.terms
        assert "common" in vocab.terms

    def test_idf_value_ln_25(self):
        corpus = ["target filler"] * 4 + ["filler"] * 96
        vocab = build_vocabulary(corpus)
        idx = vocab.terms.index("target")
        assert vocab.idf[idx] == pytest.approx(math.log(25.0), abs=1e-12)
        assert vocab.document_frequency[idx] == 4

    def test_df_counts_sentences_not_occurrences(self):
        corpus = ["echo echo echo", "other", "other", "other"]
        vocab = build_vocabulary(corpus)
        assert "echo" not in vocab.terms  # 1 sentence only, despite 3 tokens

    def test_terms_sorted_lexicographically(self):
        corpus = ["zeta alpha mid"] * 3
        vocab = build_vocabulary(corpus)
        assert list(vocab.terms) == sorted(vocab.terms)

    def test_empty_after_filter_raises(self):
        with pytest.raises(EmptyCorpus):
            build_vocabulary(["a b", "c d"])

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpus):
            build_vocabulary([])


class TestFeaturize:
    VOCAB = Vocabulary(terms=("install", "server"),
                       document_frequency=(4, 5),
                       idf=(2.0, 1.0), total_sentences=20)

    def test_oov_sentence_gets_zero_bag_and_profile_tail(self):
        vector = featurize("Reboot the gateway.", PRESENT_ACTIVE_POSITIVE,
                           self.VOCAB)
        assert vector.tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]

    def test_tf_times_idf(self):
        vector = featurize("install twice install", PRESENT_ACTIVE_POSITIVE,
                           self.VOCAB)
        assert vector[0] == 4.0  # tf 2 x idf 2.0

    def test_negative_profile_tail(self):
        profile = Profile(Tense.PAST, Voice.PASSIVE, Polarity.NEGATIVE)
        vector = featurize("install", profile, self.VOCAB)
        assert vector[-3:].tolist() == [0.0, 0.0, 0.0]

    def test_punctuation_stripped_and_lowercased(self):
        assert sentence_terms("Install, the SERVER!") == ["install", "the",
                                                          "server"]


class TestTrain:
    def test_toy_set_is_separable_by_oracle(self, toy_model, tagger):
        from procmine.lingua import profile as profile_sentence
        matrix = np.stack([
            featurize(text, profile_sentence(tagger.tag(text)),
                      toy_model.vocabulary)
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

    def test_loss_decreases_over_training(self, toy_model):
        losses = toy_model.epoch_losses
        assert losses[-1] <= losses[0]

    def test_scaled_training_features_in_unit_interval(self, toy_model, tagger):
        for text, _ in TOY:
            prof = Profile(Tense.PRESENT, Voice.ACTIVE, Polarity.POSITIVE)
            raw = featurize(text, prof, toy_model.vocabulary)
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
        boosted = ActionableModel(
            vocabulary=toy_model.vocabulary,
            weights=toy_model.weights.copy(), bias=toy_model.bias,
            scaler=toy_model.scaler)
        idx = boosted.vocabulary.terms.index("installs")
        boosted.weights[idx] += 1.0
        _, raised = predict(boosted, sentence)
        assert raised > base


class TestModelIO:
    def test_round_trip(self, toy_model, tmp_path):
        path = tmp_path / "model.json"
        toy_model.save(path)
        loaded = ActionableModel.load(path)
        assert loaded.to_json() == toy_model.to_json()

    def test_version_mismatch(self, toy_model, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(toy_model.to_json().replace("actionable/1", "actionable/9"))
        with pytest.raises(VersionMismatch):
            ActionableModel.load(path)

    @pytest.mark.parametrize("key", ["weights", "scaler"])
    def test_entries_must_number_vocabulary_plus_three(self, toy_model, key):
        doc = json.loads(toy_model.to_json())
        assert len(doc[key]) == len(toy_model.vocabulary) + 3
        doc[key] = doc[key][:-1]
        with pytest.raises(VersionMismatch):
            ActionableModel.from_json(json.dumps(doc))

    def test_predictions_survive_round_trip(self, toy_model, tagger, tmp_path):
        path = tmp_path / "model.json"
        toy_model.save(path)
        loaded = ActionableModel.load(path)
        for text, _ in TOY:
            sentence = tagger.tag(text)
            assert predict(loaded, sentence) == predict(toy_model, sentence)
