"""Seeded input generators owned by the benchmark.

Every generator is a pure function of (seed, index, size): the same
arguments give the same bytes. Documents are sdjson (the structured JSON
input format), serialized with `json.dumps` defaults.
"""

from __future__ import annotations

import csv
import json
import random
from pathlib import Path

# Same shape as the repository's random test documents: nested headings,
# paragraphs and lists up to 3 levels deep over a 12-noun vocabulary, with
# imperative sentences only. The tree's node count is fixed instead of the
# element count being random: the features stage costs about nodes², so
# documents of one node count cost nearly the same.
WORDS = ("server", "network", "adapter", "console", "service", "instance",
         "cluster", "backup", "storage", "user", "password", "address")
VERBS = ("Click", "Type", "Select", "Open", "Restart", "Verify", "Check")

# Tree nodes per synthetic size, the title included.
SYNTH_NODES = {"300": 300, "1k": 1000, "2k": 2000, "8k": 8000}

# Documents per timed run; each is processed again and again in turn.
SYNTH_DOCS = 4
PROSE_DOCS = 2

# prose-wide: one section per document; the section holds one paragraph
# group of PROSE_PARAGRAPHS paragraphs, then an ordered list with one item
# per corpus sentence. The paragraphs hold 2 sentences on average, drawn
# from shuffled copies of the corpus sentences, so every document of one
# paragraph count holds the same sentences, in another order: the
# relatedness projection, quadratic in the mentions that sentences of a
# chunk share, then costs the same whatever the seed.
PROSE_PARAGRAPHS = 1000
_PROSE_HEADINGS = ("Configuring the {}", "About the {}", "{} overview",
                   "Managing the {}")


def _rng(kind: str, seed: int, index: int) -> random.Random:
    # String seeds hash through SHA-512, so streams do not depend on
    # PYTHONHASHSEED and do not overlap between kinds.
    return random.Random(f"{kind}:{seed}:{index}")


def _sentence(rng: random.Random) -> str:
    return f"{rng.choice(VERBS)} the {rng.choice(WORDS)} on the {rng.choice(WORDS)}."


def _list_items(rng: random.Random, depth: int) -> list[dict]:
    items = []
    for _ in range(rng.randint(1, 4)):
        item = {"text": _sentence(rng)}
        if rng.random() < 0.2:
            item["image"] = True
        if depth < 2 and rng.random() < 0.3:
            item["sublist"] = {"ordered": rng.random() < 0.5,
                               "items": _list_items(rng, depth + 1)}
        items.append(item)
    return items


def _item_nodes(items: list[dict]) -> int:
    return sum(1 + (1 + _item_nodes(item["sublist"]["items"])
                    if "sublist" in item else 0) for item in items)


def _paragraph(rng: random.Random) -> dict:
    text = " ".join(_sentence(rng) for _ in range(rng.randint(1, 3)))
    return {"type": "paragraph", "text": text}


def synth_sdjson(rng: random.Random, nodes: int) -> dict:
    """A document whose tree has exactly `nodes` nodes. A list that would
    overshoot is replaced by a paragraph."""
    out = []
    level = 0
    remaining = nodes - 1  # the title
    while remaining > 0:
        roll = rng.random()
        if roll < 0.35:
            level = max(1, min(4, level + rng.choice((-1, 0, 1, 1))))
            out.append({"type": "heading", "level": level,
                        "text": f"{rng.choice(WORDS).title()} section"})
            remaining -= 1
        elif roll < 0.7:
            out.append(_paragraph(rng))
            remaining -= 1
        else:
            items = _list_items(rng, 0)
            cost = 1 + _item_nodes(items)
            if cost <= remaining:
                out.append({"type": "list", "ordered": rng.random() < 0.5,
                            "items": items})
                remaining -= cost
            else:
                out.append(_paragraph(rng))
                remaining -= 1
    return {"version": "sdjson/1", "title": "Generated document",
            "elements": out}


def synth_doc(seed: int, index: int, size: str) -> bytes:
    doc = synth_sdjson(_rng(f"synth-{size}", seed, index), SYNTH_NODES[size])
    return json.dumps(doc).encode("utf-8")


def corpus_sentences(root: Path) -> list[str]:
    with (root / "corpus" / "actionable_sentences.csv").open(newline="") as handle:
        return [row["text"] for row in csv.DictReader(handle)]


def _shuffled(rng: random.Random, sentences: list[str]) -> list[str]:
    copy = list(sentences)
    rng.shuffle(copy)
    return copy


def prose_doc(sentences: list[str], seed: int, index: int,
              paragraphs: int = PROSE_PARAGRAPHS) -> bytes:
    rng = _rng(f"prose-{paragraphs}", seed, index)
    heading = rng.choice(_PROSE_HEADINGS).format(rng.choice(WORDS))
    elements: list[dict] = [{"type": "heading", "level": 1, "text": heading}]
    pool: list[str] = []
    while len(pool) < 2 * paragraphs:
        pool += _shuffled(rng, sentences)
    # Paragraph sizes go in pairs of (2, 2), (1, 3) or (3, 1) sentences.
    sizes: list[int] = []
    while len(sizes) < paragraphs:
        sizes += rng.choice(((2, 2), (1, 3), (3, 1)))
    sizes = sizes[:paragraphs]
    start = 0
    for size in sizes:
        elements.append({"type": "paragraph",
                         "text": " ".join(pool[start:start + size])})
        start += size
    elements.append({"type": "list", "ordered": True,
                     "items": [{"text": text} for text in _shuffled(rng, sentences)]})
    doc = {"version": "sdjson/1", "title": "Generated prose", "elements": elements}
    return json.dumps(doc).encode("utf-8")


# cli-batch: the bundled corpus plus CLI_SYNTH_DOCS synthetic documents of
# about 300 nodes.
CLI_SYNTH_DOCS = 16


def cli_batch_docs(seed: int) -> list[tuple[str, bytes]]:
    return [(f"batch-{i:02d}.json", synth_doc(seed, i, "300"))
            for i in range(CLI_SYNTH_DOCS)]
