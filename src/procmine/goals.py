"""Discourse-cue goal annotation for headings.

Two cues: a heading opening with a gerund ("Creating a Service Instance")
and a heading carrying a configured prefix such as "Method". Cues are
configurable through a small line-oriented file so new prefixes can be
added without code changes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cache
from pathlib import Path

from .lingua import NUM, PUNCT, VBG, TaggedSentence, bundled_data_dir


class GoalCue(str, Enum):
    GERUND_OPENING = "gerund_opening"
    METHOD_PREFIX = "method_prefix"
    NONE = "none"


@dataclass(frozen=True)
class GoalAnnotation:
    is_goal: bool
    cue: GoalCue


@dataclass(frozen=True)
class GoalCueConfig:
    gerund_opening: bool = True
    prefixes: tuple[str, ...] = ("method",)

    @classmethod
    def load(cls, path: str | Path) -> "GoalCueConfig":
        gerund = True
        prefixes: list[str] = []
        for line in Path(path).read_text("utf-8").splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition(":")
            key = key.strip().lower()
            value = value.strip().lower()
            if key == "gerund_opening":
                gerund = value != "off"
            elif key == "prefix" and value:
                prefixes.append(value)
        return cls(gerund_opening=gerund, prefixes=tuple(prefixes) or ("method",))

    @classmethod
    @cache  # read once per process; the config is frozen
    def bundled(cls) -> "GoalCueConfig":
        return cls.load(bundled_data_dir() / "goal_cues.txt")


_LEADING_NUMBERING_RE = re.compile(r"^\s*\d+(?:\.\d+)*\.?\s*")

NOT_GOAL = GoalAnnotation(is_goal=False, cue=GoalCue.NONE)


def strip_section_numbering(text: str) -> str:
    return _LEADING_NUMBERING_RE.sub("", text)


def annotate_goal(sentence: TaggedSentence, *, is_heading: bool,
                  config: GoalCueConfig | None = None) -> GoalAnnotation:
    """Annotate a sentence as a goal. Only headings can carry goal cues."""
    if not is_heading:
        return NOT_GOAL
    config = config or GoalCueConfig.bundled()

    stripped = strip_section_numbering(sentence.text).lower()
    for prefix in config.prefixes:
        if re.match(rf"{re.escape(prefix)}(\s*\d+)?\s*(:|\b)", stripped):
            return GoalAnnotation(is_goal=True, cue=GoalCue.METHOD_PREFIX)

    if config.gerund_opening:
        for token in sentence.tokens:
            if token.tag in (NUM, PUNCT):
                continue
            if token.tag == VBG:
                return GoalAnnotation(is_goal=True, cue=GoalCue.GERUND_OPENING)
            break
    return NOT_GOAL
