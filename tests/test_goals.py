import json

import pytest

from procmine import pipeline
from procmine.chunker import ChunkKind
from procmine.docmodel import parse_sdjson
from procmine.goals import GoalCue, annotate_goal, strip_section_numbering
from procmine.lingua import Tagger
from procmine.pipeline import PipelineConfig

# The bundled goal cues, as a run without a lexicon directory has them.
CUES = PipelineConfig().goal_config()


@pytest.fixture(scope="module")
def tagger():
    return Tagger()


class TestAnnotateGoal:
    def test_gerund_opening_heading(self, tagger):
        cue = annotate_goal(tagger.tag("Creating a Service Instance"),
                            is_heading=True, config=CUES)
        assert cue is GoalCue.GERUND_OPENING

    def test_method_prefix_heading(self, tagger):
        cue = annotate_goal(tagger.tag("Method 1: Restart the service"),
                            is_heading=True, config=CUES)
        assert cue is GoalCue.METHOD_PREFIX

    def test_numbered_noun_heading_is_not_goal(self, tagger):
        cue = annotate_goal(
            tagger.tag("2.1.5 Linux Large Pages and Oracle Databases"),
            is_heading=True, config=CUES)
        assert cue is None

    def test_numbered_gerund_heading_is_goal(self, tagger):
        cue = annotate_goal(tagger.tag("3.2 Configuring the adapter"),
                            is_heading=True, config=CUES)
        assert cue is GoalCue.GERUND_OPENING

    def test_non_heading_never_goal(self, tagger):
        for text in ["Creating a Service Instance", "Method 1: Restart"]:
            cue = annotate_goal(tagger.tag(text), is_heading=False,
                                config=CUES)
            assert cue is None

    def test_method_without_number(self, tagger):
        cue = annotate_goal(tagger.tag("Method of recovery"),
                            is_heading=True, config=CUES)
        assert cue is GoalCue.METHOD_PREFIX

    def test_methodical_does_not_match_prefix(self, tagger):
        cue = annotate_goal(tagger.tag("Methodical review notes"),
                            is_heading=True, config=CUES)
        assert cue is not GoalCue.METHOD_PREFIX

    def test_plain_heading_not_goal(self, tagger):
        cue = annotate_goal(tagger.tag("Step 4"), is_heading=True,
                            config=CUES)
        assert cue is None

    def test_determinism(self, tagger):
        sentence = tagger.tag("Creating a cluster")
        assert annotate_goal(sentence, is_heading=True, config=CUES) == \
            annotate_goal(sentence, is_heading=True, config=CUES)


class TestGoalCueConfig:
    def test_custom_prefix_file(self, tagger, tmp_path):
        (tmp_path / "goal_cues.txt").write_text(
            "gerund_opening:off\nprefix:method\nprefix:how to\n")
        config = PipelineConfig(lexicon_dir=tmp_path).goal_config()
        assert config.gerund_opening is False
        assert "how to" in config.prefixes
        cue = annotate_goal(tagger.tag("How to restart the node"),
                            is_heading=True, config=config)
        assert cue is GoalCue.METHOD_PREFIX
        gerund = annotate_goal(tagger.tag("Creating a cluster"),
                               is_heading=True, config=config)
        assert gerund is None

    def test_bundled_defaults(self):
        assert CUES.gerund_opening is True
        assert CUES.prefixes == ("method",)


class TestSectionNumbering:
    @pytest.mark.parametrize("raw,stripped", [
        ("3.2 Configuring X", "Configuring X"),
        ("2.1.5 Linux Pages", "Linux Pages"),
        ("10. Overview", "Overview"),
        ("No numbering", "No numbering"),
    ])
    def test_strip(self, raw, stripped):
        assert strip_section_numbering(raw) == stripped


class TestLeadingWhitespace:
    """A heading's text reaches `annotate_goal` untrimmed as the intro of
    the chunks below it and trimmed by the sentence split as a chunk item:
    both readings must agree."""

    @pytest.mark.parametrize("heading", ["Method 1: Reset", "  Method 1: Reset",
                                         "\t2.1 Method 2: Reset "])
    def test_item_and_intro_readings_agree(self, heading):
        doc = {"version": "sdjson/1", "title": "T", "elements": [
            {"type": "heading", "level": 2, "text": heading},
            {"type": "list", "ordered": True,
             "items": [{"text": "Open the panel."}, {"text": "Press Reset."}]}]}
        run = pipeline.analyze(parse_sdjson(json.dumps(doc)),
                               actionable_model=None)
        group = next(c for c in run.chunks if c.kind is ChunkKind.HEADING_GROUP)
        listed = next(c for c in run.chunks if c.kind is ChunkKind.LIST)
        assert run.annotations[group.id].items[0].is_goal is True
        assert run.static_features[listed.id].if_parent_is_goal == 1.0

    def test_untrimmed_heading_text(self, tagger):
        cue = annotate_goal(tagger.tag("  Method 1: Reset"),
                            is_heading=True, config=CUES)
        assert cue is GoalCue.METHOD_PREFIX
