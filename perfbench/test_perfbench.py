"""Self-tests of the benchmark:

    python3 -m pytest perfbench/test_perfbench.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

import calib  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from tracer import Span, Tracer, self_times, size_exponents, totals_by_name  # noqa: E402

ROOT = HERE.parent


@pytest.mark.parametrize("size", sorted(gen.SYNTH_NODES))
def test_synth_generator_repeats_per_seed(size):
    from procmine.docmodel import parse_sdjson
    data = gen.synth_doc(7, 2, size)
    assert data == gen.synth_doc(7, 2, size)
    assert data != gen.synth_doc(8, 2, size)
    assert len(parse_sdjson(data).nodes) == gen.SYNTH_NODES[size]


def test_prose_and_batch_generators_repeat_per_seed():
    sentences = gen.corpus_sentences(ROOT)
    assert gen.prose_doc(sentences, 7, 0, 50) == gen.prose_doc(sentences, 7, 0, 50)
    assert gen.prose_doc(sentences, 7, 0, 50) != gen.prose_doc(sentences, 8, 0, 50)
    assert gen.cli_batch_docs(7) == gen.cli_batch_docs(7)


def test_flipped_golden_byte_is_a_failure():
    golden = (ROOT / "corpus" / "golden" / "appliance-quickstart.procedures.json").read_bytes()
    ledger = checks.Ledger()
    assert ledger.expect_bytes("golden", golden, golden)
    for position in (0, len(golden) // 2, len(golden) - 1):
        flipped = bytearray(golden)
        flipped[position] ^= 0x01
        assert not ledger.expect_bytes("flipped", bytes(flipped), golden)
    assert (ledger.attempted, ledger.failed) == (4, 3)


def test_flipped_synthetic_byte_is_a_failure(tmp_path):
    data = gen.synth_doc(0, 0, "300")
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    payload, _ = run.process_document(path, *run.load_models())
    texts = checks.input_texts(data)
    digest = checks.sha256(payload)
    ledger = checks.Ledger()
    assert ledger.expect_procedures("intact", payload, texts, digest)
    for position in range(0, len(payload), max(1, len(payload) // 50)):
        flipped = bytearray(payload)
        flipped[position] ^= 0x01
        assert not ledger.expect_procedures("flipped", bytes(flipped), texts, digest)
    assert ledger.failed == ledger.attempted - 1


def test_structural_checks_catch_dangling_links_and_foreign_text():
    payload = (b'[{"sequenceId": "seq-1", "goal": "g", "stepList": ['
               b'{"stepId": "s1", "text": "a", "actionable": true, "conditional": false,'
               b' "parentStepId": "s9", "childProcedureId": "seq-7"},'
               b'{"stepId": "s2", "text": "zzz", "actionable": true, "conditional": false}]}]')
    problems = checks.procedure_problems(payload, {"a"})
    assert len(problems) == 3
    assert checks.procedure_problems(b"[{", {"a"})


def test_self_time_on_hand_built_span_tree():
    spans = [
        Span(4, 3, "lingua.split", 6.0, 7.0, 1.0, None),
        Span(2, 1, "features.compute", 1.0, 4.0, 3.0, None),
        Span(3, 1, "features.sibling_distance", 5.0, 9.0, 4.0, None),
        Span(1, 0, "doc", 0.0, 10.0, 10.0, 100),
    ]
    assert self_times(spans) == {1: 3.0, 2: 3.0, 3: 3.0, 4: 1.0}
    totals = totals_by_name(spans)
    assert totals["features.sibling_distance"].self_s == 3.0
    assert totals["doc"].size == 100


def test_size_exponent_of_quadratic_stage():
    spans = [
        Span(1, 0, "doc", 0.0, 10.0, 10.0, 100),
        Span(2, 1, "features.compute", 0.0, 1.0, 1.0, None),
        Span(3, 0, "doc", 10.0, 30.0, 20.0, 400),
        Span(4, 3, "features.compute", 10.0, 26.0, 16.0, None),
    ]
    assert size_exponents(spans)["features"] == pytest.approx(2.0)


def test_tracer_nests_spans_and_restores_functions():
    from procmine import annotate, lingua
    from procmine.goals import GoalCueConfig
    original = lingua.split_sentences
    tracer = Tracer()
    with tracer.installed():
        assert lingua.split_sentences is not original
        annotate.annotate_sentence_text("Open the console.", is_heading=False,
                                        tagger=lingua.Tagger(),
                                        goal_config=GoalCueConfig(), model=None)
    assert lingua.split_sentences is original
    by_name = {span.name: span for span in tracer.spans}
    assert sorted(by_name) == ["annotate.sentence", "goals.annotate", "lingua.tag"]
    root = by_name["annotate.sentence"]
    assert root.parent == 0
    assert by_name["lingua.tag"].parent == by_name["goals.annotate"].parent == root.id


def test_tail_has_ten_samples_beyond_and_never_undercuts_the_median():
    samples = [float(i) for i in range(100)]
    value, percentile, beyond = run.tail(samples)
    assert (value, beyond) == (89.0, 10)
    assert percentile == pytest.approx(89.9, abs=0.1)
    assert run.tail([1.0, 2.0, 3.0]) == (2.0, 50.0, 1)


def test_calibration_rescales_to_reference_speed(tmp_path):
    ref = calib.KERNEL.reference_s
    assert calib.KERNEL.scale(ref, ref) == 1.0
    # Twice as slow as reference: halve the wall time.
    assert calib.KERNEL.scale(2 * ref, 2 * ref) == pytest.approx(0.5)
    env = run.Bench("cli-batch", 0, 1.0, tmp_path).env
    for reference in (calib.KERNEL, calib.threaded_process(env), calib.interpreter(env)):
        assert reference.time() > 0


def test_gated_latency_is_the_median_scaled_repetition(tmp_path):
    bench = run.Bench("synth-large", 0, 1.0, tmp_path)
    # Input 0 ran at half reference speed once; input 1 at reference speed.
    samples = [[(0.2, 0.5), (0.1, 1.0), (0.1, 1.0)], [(0.3, 1.0)]]
    metrics = run.end_to_end(bench, samples, [100, 200], 40.0, "one document")
    assert metrics["latency_p50_ms"] == pytest.approx(200.0)
    assert metrics["nodes_per_s"] == pytest.approx(300 / 0.4)
    assert metrics["peak_rss_mb"] == 40.0
