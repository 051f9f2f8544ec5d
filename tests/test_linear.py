"""`linear.Scorer` against the numpy scorer it replaced, and the model file
`linear.LinearModel` reads and writes for both classifiers.

The oracle is the old scoring path: `MinMaxScaler.transform` on a one-row
matrix, then a BLAS dot product with the weights plus the bias. It sums in
another order, so margins agree within 1e-12 rather than to the bit, and
labels must agree exactly. The sparse actionable sum must equal the dense
sequential sum to the bit.
"""

import csv
import importlib.util
import json
import math
import random
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from procmine import actionable, classifier, linear, pipeline
from procmine.actionable import ActionableModel, predict
from procmine.classifier import ProcedureClassifierModel
from procmine.features import FEATURE_NAMES, FeatureVector
from procmine.linear import MinMaxScaler, TrainParams, VersionMismatch
from procmine.lingua import Tagger, profile

from conftest import OracleTagger, dense_features, oracle_margin

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"
DOCS = sorted((CORPUS / "docs").glob("*.md")) + [CORPUS / "nested-fixture.md"]
TOLERANCE = 1e-12


@pytest.fixture(scope="module")
def models():
    return (ActionableModel.load(CORPUS / "models" / "actionable.json"),
            ProcedureClassifierModel.load(CORPUS / "models" / "procedure.json"))


@pytest.fixture(scope="module")
def tagger():
    return Tagger()


def numpy_margin(model, raw) -> float:
    scaled = model.scaler.transform(np.asarray(raw, dtype=float)[np.newaxis, :])[0]
    return float(scaled @ np.asarray(model.weights, dtype=float) + model.bias)


def assert_matches_oracle(margin, oracle):
    assert type(margin) is float
    assert linear.decide(margin) is linear.decide(oracle)
    assert abs(margin - oracle) <= TOLERANCE


def corpus_sentences() -> list[str]:
    with (CORPUS / "actionable_sentences.csv").open(newline="") as handle:
        return [row["text"] for row in csv.DictReader(handle)]


def random_sentence(rng: random.Random, terms: tuple[str, ...]) -> str:
    """Vocabulary terms, some repeated, mixed with words outside it."""
    words = [rng.choice(terms) if rng.random() < 0.7 else rng.choice(
        ("zyzzyva", "quux", "the", "Panel", "42")) for _ in range(rng.randint(0, 14))]
    return " ".join(words) + "."


# One sentence for each of the 8 (present, active, positive) indicator
# combinations: past tense, passive voice and negation, each or not.
PROFILE_SENTENCES = [f"The service {be}{negator} {word}."
                     for be in ("is", "was") for negator in ("", " not")
                     for word in ("ready", "restarted")]


ORACLE = OracleTagger()


def test_profile_sentences_carry_every_indicator_combination():
    tagger = Tagger()
    assert {profile(tagger.tag(text)) for text in PROFILE_SENTENCES} == {
        (present, active, positive) for present in (True, False)
        for active in (True, False) for positive in (True, False)}


class TestProcedureScorer:
    def test_corpus_margins_match_numpy(self, models):
        actionable_model, procedure_model = models
        scored = 0
        for path in DOCS:
            run = pipeline.run_document(pipeline.load_document(path),
                                        actionable_model, procedure_model)
            for p in run.predictions:
                oracle = numpy_margin(procedure_model, p.feature_snapshot)
                assert_matches_oracle(p.margin, oracle)
                assert p.label is linear.decide(oracle)
                scored += 1
        assert scored == 70  # every chunk of the corpus

    def test_random_vectors_match_numpy(self, models):
        model = models[1]
        rng = random.Random(6)
        for _ in range(3000):
            # beyond both ends of each range, so clipping is exercised
            values = [rng.uniform(lo - (hi - lo), hi + (hi - lo)) if rng.random() < 0.8
                      else rng.choice((lo, hi))
                      for lo, hi in zip(model.scaler.mins, model.scaler.maxs)]
            vector = FeatureVector(*map(float, values))
            assert_matches_oracle(model.score(vector), numpy_margin(model, values))

    def test_random_models_match_numpy(self):
        rng = random.Random(7)
        size = len(FEATURE_NAMES)
        for _ in range(500):
            mins = [rng.uniform(-2, 2) for _ in range(size)]
            maxs = [lo if rng.random() < 0.2 else lo + rng.uniform(0, 3) for lo in mins]
            model = ProcedureClassifierModel(
                weights=tuple(rng.uniform(-5, 5) for _ in range(size)),
                bias=rng.uniform(-1, 1), scaler=MinMaxScaler(mins=mins, maxs=maxs))
            values = [rng.uniform(-4, 6) for _ in range(size)]
            assert_matches_oracle(model.score(FeatureVector(*map(float, values))),
                                  numpy_margin(model, values))


def edited_actionable_model(edit) -> ActionableModel:
    """The bundled actionable model with `edit(term index, vocabulary entry,
    tf-idf scaler range)` applied to each term, read back by the loader."""
    doc = json.loads((CORPUS / "models" / "actionable.json").read_text("utf-8"))
    for i, (entry, bounds) in enumerate(zip(doc["vocabulary"], doc["scaler"])):
        edit(i, entry, bounds)
    return ActionableModel.from_json(json.dumps(doc))


def repeat_clips_to_one(i, entry, bounds):
    """A tf-idf max below 2 * idf: a term seen twice scales past 1."""
    bounds.update(min=0.0, max=1.5 * entry["idf"])


def single_clips_to_zero(i, entry, bounds):
    """Every other term's min above its idf: seen once it scales below 0."""
    if i % 2:
        bounds.update(min=1.5 * entry["idf"], max=4.5 * entry["idf"])


def wide_ranges(i, entry, bounds):
    """A tf-idf max of 10 * idf: a term seen up to 9 times does not clip,
    so the bits of idf added k times show."""
    bounds.update(min=0.0, max=10.0 * entry["idf"])


def negative_and_zero_idf(i, entry, bounds):
    """Idfs of -0.0, 0.0 and below 0, which only a hand-made file has."""
    entry["idf"] = (-0.0, 0.0, -entry["idf"], entry["idf"])[i % 4]


TABLE_MODELS = {
    "bundled": edited_actionable_model(lambda *_: None),
    **{edit.__name__.replace("_", "-"): edited_actionable_model(edit)
       for edit in (repeat_clips_to_one, single_clips_to_zero,
                    wide_ranges, negative_and_zero_idf)}}
TERMS = st.sampled_from(TABLE_MODELS["bundled"].vocabulary.terms)


@st.composite
def table_texts(draw) -> str:
    """Vocabulary terms in any order, some seen 2-4 times, some in mixed
    case and some joined by "-", "_" or "'" into one term outside the
    vocabulary, then one of `PROFILE_SENTENCES`."""
    words: list[str] = []
    for _ in range(draw(st.integers(0, 12))):
        term, form = draw(TERMS), draw(st.sampled_from(
            ("once", "repeated", "mixed case", "joined")))
        if form == "repeated":
            words += [term] * draw(st.integers(2, 4))
        elif form == "mixed case":
            flips = draw(st.lists(st.booleans(), min_size=len(term),
                                  max_size=len(term)))
            words.append("".join(c.upper() if flip else c
                                 for c, flip in zip(term, flips)))
        elif form == "joined":
            words.append(term + draw(st.sampled_from("-_'")) + draw(TERMS))
        else:
            words.append(term)
    return (" ".join(draw(st.permutations(words))) + " "
            + draw(st.sampled_from(PROFILE_SENTENCES)))


class TestActionableScorer:
    @pytest.mark.parametrize("name", TABLE_MODELS)
    @settings(max_examples=200, deadline=None)
    @given(text=table_texts())
    def test_score_table_margin_equals_oracle_bits(self, tagger, name, text):
        """`predict`'s sum of table scores has the bits of `Scorer.margin`
        over the old sparse features, where a repeat or a single occurrence
        clips and where an idf is -0.0 or negative."""
        model = TABLE_MODELS[name]
        label, margin = predict(model, tagger.tag(text))
        assert margin.hex() == oracle_margin(model, ORACLE.tag(text)).hex()
        assert label is linear.decide(margin)

    @pytest.mark.parametrize("name", TABLE_MODELS)
    def test_each_term_seen_1_to_9_times_equals_oracle_bits(self, tagger, name):
        """Up to 5 times, idf added k times from 0.0 gives the bits of
        k * idf for every bundled idf; from 6 times on it often does not,
        and under `wide_ranges` the difference reaches the margin."""
        model = TABLE_MODELS[name]
        for term in model.vocabulary.terms:
            for count in range(1, 10):
                text = " ".join([term] * count) + "."
                margin = predict(model, tagger.tag(text))[1]
                assert margin.hex() == oracle_margin(model, ORACLE.tag(text)).hex()

    @pytest.mark.parametrize("name", TABLE_MODELS)
    def test_terms_seen_4_and_5_times_equal_oracle_bits(self, tagger, name):
        """The repeat table's edge: a term seen `TABLED_COUNTS` (4) times
        reads the table, and one seen 5 times in the same sentence is worked
        out when it is seen. Each table entry has the bits of idf added k
        times from 0.0."""
        model = TABLE_MODELS[name]
        assert actionable.TABLED_COUNTS == 4
        terms = model.vocabulary.terms
        for first, second in zip(terms, terms[1:]):
            for text in (" ".join([first] * 4 + [second] * 5) + ".",
                         " ".join([second] * 4 + [first] * 5) + "."):
                margin = predict(model, tagger.tag(text))[1]
                assert margin.hex() == oracle_margin(model, ORACLE.tag(text)).hex()
        for count in range(2, actionable.TABLED_COUNTS + 1):
            assert [score.hex() for score in model.repeat_scores[count - 2]] == [
                model.repeated_score(i, count).hex() for i in range(len(terms))]

    def test_edited_models_clip_where_they_are_meant_to(self):
        """Each hand-edited model reaches the case it is there for."""
        repeat = TABLE_MODELS["repeat-clips-to-one"]
        assert all(repeat.repeated_score(i, 2) == repeat.scorer.rows[i][2]
                   for i in range(len(repeat.vocabulary.terms)))
        single = TABLE_MODELS["single-clips-to-zero"]
        assert all(single.term_scores[i] == 0.0
                   for i in range(1, len(single.vocabulary.terms), 2))
        idf = TABLE_MODELS["negative-and-zero-idf"].vocabulary.idf
        assert math.copysign(1.0, idf[0]) == -1.0 and idf[0] == 0.0
        assert idf[2] < 0.0

    def test_corpus_sentences_match_numpy(self, models, tagger):
        model = models[0]
        for text in corpus_sentences():
            tagged = tagger.tag(text)
            label, margin = predict(model, tagged)
            raw = dense_features(tagged, model.vocabulary)
            assert_matches_oracle(margin, numpy_margin(model, raw))
            assert label is linear.decide(margin)

    def test_sparse_sum_equals_dense_sum(self, models, tagger):
        """Leaving out absent terms gives the same bits as scoring all
        vocabulary + 3 features in index order, in plain Python. Each
        random sentence ends in one of `PROFILE_SENTENCES`, so every
        indicator combination is scored."""
        model = models[0]
        rng = random.Random(8)
        sentences = corpus_sentences() + PROFILE_SENTENCES + [
            random_sentence(rng, model.vocabulary.terms) + " "
            + rng.choice(PROFILE_SENTENCES) for _ in range(1500)]
        for text in sentences:
            tagged = tagger.tag(text)
            _, margin = predict(model, tagged)
            dense = dense_features(tagged, model.vocabulary).tolist()
            assert margin == model.scorer.margin(enumerate(dense))
            assert_matches_oracle(margin, numpy_margin(model, dense))

    def test_negative_indicator_min_still_scores_exactly(self, models, tagger):
        """Only tf-idf columns are left out when absent; the three indicators
        are always scored, whatever their range."""
        model = models[0]
        doc = json.loads(model.to_json())
        for entry in doc["scaler"][-3:]:
            entry["min"] = -1.0
        edited = ActionableModel.from_json(json.dumps(doc))
        for text in corpus_sentences()[:100] + PROFILE_SENTENCES:
            tagged = tagger.tag(text)
            _, margin = predict(edited, tagged)
            dense = dense_features(tagged, edited.vocabulary).tolist()
            assert margin == edited.scorer.margin(enumerate(dense))

    @pytest.mark.parametrize("entry", [{"min": -0.5, "max": 1.0},
                                       {"min": 2.0, "max": 1.0}],
                             ids=["negative-min", "min-above-max"])
    def test_tf_idf_range_that_scores_absent_terms_is_rejected(self, models, entry):
        doc = json.loads(models[0].to_json())
        doc["scaler"][5] = entry
        with pytest.raises(VersionMismatch, match="tf-idf"):
            ActionableModel.from_json(json.dumps(doc))

    def test_weights_are_fixed_at_construction(self, models):
        model = models[0]
        assert isinstance(model.weights, tuple)
        with pytest.raises(AttributeError):
            model.weights = ()
        assert model._replace(bias=model.bias + 1.0).scorer.bias == model.bias + 1.0


# Both model classes; `of_class` picks one's model from an (actionable,
# procedure) pair.
MODEL_CLASSES = pytest.mark.parametrize(
    "cls", [ActionableModel, ProcedureClassifierModel],
    ids=["actionable", "procedure"])


def of_class(pair, cls):
    return pair[0] if cls is ActionableModel else pair[1]


def refused(cls, doc) -> None:
    with pytest.raises(VersionMismatch):
        cls.from_json(json.dumps(doc))


class TestModelFile:
    """The load-time rules of `linear.LinearModel.from_json`, the one loader
    of both classifiers."""

    @pytest.mark.parametrize("text", ["[]", "1", '"model"', "null"],
                             ids=["list", "number", "string", "null"])
    @MODEL_CLASSES
    def test_non_object_document_is_rejected(self, cls, text):
        with pytest.raises(VersionMismatch, match="JSON object"):
            cls.from_json(text)

    @MODEL_CLASSES
    def test_other_version_is_rejected(self, models, cls, tmp_path):
        doc = json.loads(of_class(models, cls).to_json())
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**doc, "version": doc["version"] + "9"}))
        with pytest.raises(VersionMismatch, match="version"):
            cls.load(path)
        del doc["version"]
        refused(cls, doc)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("key", ["bias", "weights"])
    @MODEL_CLASSES
    def test_non_finite_values_are_rejected(self, models, cls, key, value):
        doc = json.loads(of_class(models, cls).to_json())
        if key == "bias":
            doc["bias"] = value
        else:
            doc["weights"][0] = value
        refused(cls, doc)

    @pytest.mark.parametrize("key", ["weights", "scaler"])
    @MODEL_CLASSES
    def test_wrong_count_is_rejected(self, models, cls, key):
        doc = json.loads(of_class(models, cls).to_json())
        refused(cls, {**doc, key: doc[key][:-1]})
        refused(cls, {**doc, key: doc[key] + doc[key][-1:]})

    @pytest.mark.parametrize("key", ["scaler", "weights", "bias", "version"])
    @MODEL_CLASSES
    def test_missing_field_is_named_by_its_path(self, models, cls, key):
        doc = json.loads(of_class(models, cls).to_json())
        del doc[key]
        with pytest.raises(VersionMismatch, match=rf"^\$: missing field '{key}'$"):
            cls.from_json(json.dumps(doc))

    @MODEL_CLASSES
    def test_nesting_too_deep_is_rejected(self, cls):
        with pytest.raises(VersionMismatch, match="too deep"):
            cls.from_json("[" * 200_000)


def short_weights(model):
    return {"weights": tuple(model.weights[:-1])}


def short_scaler(model):
    return {"scaler": MinMaxScaler(mins=model.scaler.mins[:-1],
                                   maxs=model.scaler.maxs[:-1])}


def negative_tf_idf_min(model):
    mins = list(model.scaler.mins)
    mins[5] = -0.5
    return {"scaler": MinMaxScaler(mins=tuple(mins), maxs=model.scaler.maxs)}


def vocabulary_edit(**fields):
    """An edit of the actionable vocabulary: each field a function of the
    bundled vocabulary's value, with `terms`, `document_frequency` and `idf`
    lists."""
    def edit(model):
        vocab = model.vocabulary
        values = {"terms": list(vocab.terms),
                  "document_frequency": list(vocab.document_frequency),
                  "idf": list(vocab.idf), "total_sentences": vocab.total_sentences}
        values.update((name, change(values[name])) for name, change in fields.items())
        return {"vocabulary": vocab._replace(
            terms=tuple(values["terms"]),
            document_frequency=tuple(values["document_frequency"]),
            idf=tuple(values["idf"]), total_sentences=values["total_sentences"])}
    return edit


VOCABULARY_EDITS = {
    "repeated-term": vocabulary_edit(terms=lambda t: [t[0], t[0], *t[2:]]),
    "terms-out-of-order": vocabulary_edit(terms=lambda t: [t[1], t[0], *t[2:]]),
    "df-object": vocabulary_edit(document_frequency=lambda d: [{"n": 3}, *d[1:]]),
    "df-bool": vocabulary_edit(document_frequency=lambda d: [True, *d[1:]]),
    "df-float": vocabulary_edit(document_frequency=lambda d: [3.0, *d[1:]]),
    "df-zero": vocabulary_edit(document_frequency=lambda d: [0, *d[1:]]),
    "df-above-total": vocabulary_edit(total_sentences=lambda _: 3),
    "total-sentences-list": vocabulary_edit(total_sentences=lambda n: [n]),
    "df-one-short": vocabulary_edit(document_frequency=lambda d: d[:-1]),
    "df-one-over": vocabulary_edit(document_frequency=lambda d: [*d, d[-1]]),
    "idf-one-short": vocabulary_edit(idf=lambda i: i[:-1]),
    "idf-one-over": vocabulary_edit(idf=lambda i: [*i, i[-1]]),
}


@pytest.mark.parametrize("cls, edit", [
    (ActionableModel, short_weights), (ActionableModel, short_scaler),
    (ActionableModel, negative_tf_idf_min),
    *((ActionableModel, edit) for edit in VOCABULARY_EDITS.values()),
    (ProcedureClassifierModel, short_weights),
    (ProcedureClassifierModel, short_scaler),
], ids=["actionable-weights", "actionable-scaler", "actionable-tf-idf-range",
        *(f"actionable-{name}" for name in VOCABULARY_EDITS),
        "procedure-weights", "procedure-scaler"])
def test_construction_refuses_what_the_loader_refuses(models, cls, edit):
    """A model is checked when it is built, not only when it is read: the
    same values fail both ways."""
    model = of_class(models, cls)
    changes = edit(model)
    doc = json.loads(model.to_json())
    if "weights" in changes:
        doc["weights"] = list(changes["weights"])
    elif "vocabulary" in changes:
        vocab = changes["vocabulary"]
        # one entry per place in the longest list, null where a list ends
        doc["vocabulary"] = [
            {"term": t, "df": d, "idf": i} for t, d, i in
            zip_longest(vocab.terms, vocab.document_frequency, vocab.idf)]
        doc["total_sentences"] = vocab.total_sentences
    else:
        doc["scaler"] = [{"min": lo, "max": hi} for lo, hi in
                         zip(changes["scaler"].mins, changes["scaler"].maxs)]
    refused(cls, doc)
    with pytest.raises(VersionMismatch):
        model._replace(**changes)


@pytest.fixture(scope="module")
def trained():
    """Both models trained from the corpus as scripts/build_models.py does."""
    spec = importlib.util.spec_from_file_location(
        "build_models", ROOT / "scripts" / "build_models.py")
    recipe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recipe)
    with (CORPUS / "actionable_sentences.csv").open(newline="") as handle:
        rows = [(r["text"], r["label"] == "1") for r in csv.DictReader(handle)]
    actionable_model = actionable.train(
        rows[:recipe.TRAIN_SPLIT],
        TrainParams(seed=recipe.ACTIONABLE_SEED, **recipe.PARAMS))
    train_rows = [row for doc in recipe.DOCS if doc.name in recipe.TRAIN_DOCS
                  for row in recipe.labeled_rows(doc, actionable_model)]
    procedure_model = classifier.train(
        train_rows, TrainParams(seed=recipe.PROCEDURE_SEED, **recipe.PARAMS))
    return actionable_model, procedure_model


@MODEL_CLASSES
def test_trained_model_survives_its_file(trained, cls):
    model = of_class(trained, cls)
    assert cls.from_json(model.to_json()) == model
