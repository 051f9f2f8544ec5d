"""Discourse-cue goal annotation for headings.

Two cues: a heading opening with a gerund ("Creating a Service Instance")
and a heading carrying a configured prefix such as "Method". A run's cues
come from the lexicon file `goal_cues.txt`, which `pipeline` loads, so new
prefixes can be added without code changes.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from enum import Enum
from functools import cache
from typing import NamedTuple

from .lingua import NUM, PUNCT, VBG, TaggedSentence


class GoalCue(str, Enum):
    GERUND_OPENING = "gerund_opening"
    METHOD_PREFIX = "method_prefix"


class GoalCueConfig(NamedTuple):
    gerund_opening: bool = True
    prefixes: tuple[str, ...] = ("method",)


@cache
def prefix_patterns(prefixes: tuple[str, ...]) -> tuple[re.Pattern, ...]:
    """Per prefix: the prefix, an optional number, then a colon or a word
    boundary. Compiled once per prefixes tuple, on first use."""
    return tuple(re.compile(rf"{re.escape(prefix)}(\s*\d+)?\s*(:|\b)")
                 for prefix in prefixes)


_LEADING_NUMBERING_RE = re.compile(r"^\s*\d+(?:\.\d+)*\.?\s*")


def strip_section_numbering(text: str) -> str:
    return _LEADING_NUMBERING_RE.sub("", text)


def annotate_goal(sentence: TaggedSentence, *, is_heading: bool,
                  config: GoalCueConfig) -> GoalCue | None:
    """The goal cue a sentence carries, None where it carries none. Only
    headings can carry goal cues."""
    if not is_heading:
        return None
    return heading_goal(sentence.text, sentence.tags, config)


def heading_goal(text: str, tags: Iterable[str],
                 config: GoalCueConfig) -> GoalCue | None:
    """The goal cue of the heading `text` whose tokens have the tags
    `tags`, None where it carries none. Only the tags up to the first that
    is not NUM or PUNCT are read."""
    stripped = strip_section_numbering(text.strip()).lower()
    for pattern in prefix_patterns(config.prefixes):
        if pattern.match(stripped):
            return GoalCue.METHOD_PREFIX

    if config.gerund_opening:
        for tag in tags:
            if tag in (NUM, PUNCT):
                continue
            if tag == VBG:
                return GoalCue.GERUND_OPENING
            break
    return None
