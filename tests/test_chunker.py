import json
import random
from pathlib import Path

import pytest

from procmine import pipeline
from procmine.chunker import Chunk, ChunkKind, build_chunks, chunk_size
from procmine.docmodel import DocTree, Kind, parse_markdown, parse_sdjson

from conftest import (assert_children_deeper, deep_list_markdown, make_tree,
                      parents, random_tree)

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def md_tree(text):
    return parse_markdown(text, source_name="doc")


class TestBuildChunks:
    def test_eight_step_headings_form_one_chunk(self):
        lines = ["# Configure the system"]
        for i in range(1, 9):
            lines += [f"## Step {i}", f"Text for part {i}."]
        tree = md_tree("\n".join(lines))
        chunks = build_chunks(tree)
        heading_groups = [c for c in chunks if c.kind is ChunkKind.HEADING_GROUP]
        assert len(heading_groups) == 1
        assert len(heading_groups[0].item_node_ids) == 8

    def test_nested_list_forms_second_chunk(self):
        tree = md_tree("# T\n1. one\n2. two\n  1. sub a\n  2. sub b\n3. three\n4. four")
        chunks = build_chunks(tree)
        lists = [c for c in chunks if c.kind is ChunkKind.LIST]
        assert sorted(len(c.item_node_ids) for c in lists) == [2, 4]
        depths = sorted(c.depth for c in lists)
        assert depths[0] < depths[1]

    def test_title_only_tree_has_no_chunks(self):
        tree = parse_sdjson(json.dumps(
            {"version": "sdjson/1", "title": "Bare", "elements": []}))
        assert len(build_chunks(tree)) == 0

    def test_heading_groups_split_by_level(self):
        tree = parse_sdjson(json.dumps({
            "version": "sdjson/1", "title": "T", "elements": [
                {"type": "heading", "level": 1, "text": "H1"},
                {"type": "heading", "level": 3, "text": "H3 under H1"},
                {"type": "heading", "level": 2, "text": "H2 under H1"},
            ]}))
        chunks = build_chunks(tree)
        groups = [c for c in chunks if c.kind is ChunkKind.HEADING_GROUP]
        # H3 and H2 share the parent H1 but differ in level: separate chunks
        sizes = sorted(len(c.item_node_ids) for c in groups)
        assert sizes == [1, 1, 1]

    def test_paragraphs_group_across_interleaved_lists(self):
        tree = md_tree("# T\npara one.\n\n1. item\n\npara two.")
        chunks = build_chunks(tree)
        para_groups = [c for c in chunks if c.kind is ChunkKind.PARAGRAPH_GROUP]
        assert len(para_groups) == 1
        assert len(para_groups[0].item_node_ids) == 2

    def test_child_chunks_skip_intermediate_items(self):
        tree = md_tree("\n".join([
            "# T",
            "## Section",
            "Lead-in paragraph.",
            "1. do a",
            "2. do b",
        ]))
        chunks = build_chunks(tree)
        section = next(n for n in tree.nodes if n.kind is Kind.HEADING)
        owned = chunks.child_chunks[section.id]
        kinds = {chunks.chunks[cid].kind for cid in owned}
        assert kinds == {ChunkKind.PARAGRAPH_GROUP, ChunkKind.LIST}
        # the list items' own sub-chunks would not be attributed to the section
        subtree = [section.id]
        for node_id in subtree:
            subtree.extend(tree.nodes[node_id].children)
        for cid in owned:
            assert chunks.chunks[cid].parent_node_id in subtree

    def test_determinism(self):
        text = "# T\n## A\np1.\n1. x\n2. y\n## B\np2."
        first = build_chunks(md_tree(text))
        second = build_chunks(md_tree(text))
        assert [(c.id, c.kind, c.item_node_ids, c.depth, c.context_text)
                for c in first] == \
               [(c.id, c.kind, c.item_node_ids, c.depth, c.context_text)
                for c in second]


class TestChunkContext:
    def test_list_preceded_by_lead_in_paragraph(self):
        tree = md_tree("# T\nFirst check the cables. Complete the following steps:\n\n"
                       "1. do a\n2. do b")
        chunks = build_chunks(tree)
        list_chunk = next(c for c in chunks if c.kind is ChunkKind.LIST)
        assert list_chunk.context_text == "Complete the following steps:"

    def test_heading_group_under_title_uses_title(self):
        tree = md_tree("# Install the product\n## Step 1\n## Step 2")
        chunks = build_chunks(tree)
        group = next(c for c in chunks if c.kind is ChunkKind.HEADING_GROUP)
        assert group.context_text == "Install the product"

    def test_empty_parent_no_siblings_gives_empty(self):
        tree = parse_sdjson(json.dumps({
            "version": "sdjson/1", "title": "T", "elements": [
                {"type": "list", "ordered": True, "items": [
                    {"text": "", "sublist": {"ordered": True,
                                             "items": [{"text": "x"}]}},
                ]},
            ]}))
        chunks = build_chunks(tree)
        nested = max((c for c in chunks if c.kind is ChunkKind.LIST),
                     key=lambda c: c.depth)
        assert nested.context_text == ""

    def test_nested_list_context_is_enclosing_item_text(self):
        tree = md_tree("# T\n1. Configure the adapter as follows\n  - set speed\n  - set duplex")
        chunks = build_chunks(tree)
        nested = max((c for c in chunks if c.kind is ChunkKind.LIST),
                     key=lambda c: c.depth)
        assert nested.context_text == "Configure the adapter as follows"

    def test_non_donor_sibling_is_skipped(self):
        # a list cannot donate context; scan continues to the paragraph
        tree = md_tree("# T\nIntro sentence.\n\n- noise a\n- noise b\n\n1. real one\n2. real two")
        chunks = build_chunks(tree)
        ordered = next(c for c in chunks if c.kind is ChunkKind.LIST
                       and tree.nodes[c.parent_node_id].ordered)
        assert ordered.context_text == "Intro sentence."


class TestChunkSize:
    def test_list_counts_items_not_sentences(self):
        tree = md_tree("# T\n1. First step. It has two sentences.\n2. Second.\n3. Third.")
        chunks = build_chunks(tree)
        list_chunk = next(c for c in chunks if c.kind is ChunkKind.LIST)
        assert chunk_size(list_chunk, tree) == 3

    def test_paragraph_group_counts_sentences(self):
        tree = md_tree("# T\nOne. Two.\n\nThree. Four.")
        chunks = build_chunks(tree)
        group = next(c for c in chunks if c.kind is ChunkKind.PARAGRAPH_GROUP)
        assert chunk_size(group, tree) == 4

    def test_heading_group_counts_headings(self):
        lines = ["# T"] + [f"## Step {i}" for i in range(1, 9)]
        tree = md_tree("\n".join(lines))
        chunks = build_chunks(tree)
        group = next(c for c in chunks if c.kind is ChunkKind.HEADING_GROUP)
        assert chunk_size(group, tree) == 8


class TestPartitionProperty:
    CHUNKABLE = {Kind.LIST_ITEM, Kind.HEADING, Kind.PARAGRAPH}

    def assert_partition(self, tree):
        chunks = build_chunks(tree)
        seen: dict[int, int] = {}
        parent_of = parents(tree)
        for chunk in chunks:
            assert chunk.item_node_ids, "empty chunk"
            item_parents = {parent_of.get(nid) for nid in chunk.item_node_ids}
            assert item_parents == {chunk.parent_node_id}
            depths = {tree.nodes[nid].depth for nid in chunk.item_node_ids}
            assert depths == {chunk.depth}
            for nid in chunk.item_node_ids:
                assert nid not in seen, "node in two chunks"
                seen[nid] = chunk.id
        expected = {n.id for n in tree.nodes if n.kind in self.CHUNKABLE}
        assert set(seen) == expected

    def test_fuzz_500_random_trees(self):
        rng = random.Random(1234)
        for _ in range(500):
            self.assert_partition(random_tree(rng))


# ---------------------------------------------------------------------------
# Oracle: the chunker before its one-pass walk. It groups in preorder, then
# rebuilds every chunk with a backwards scan of its anchor's siblings for
# the context and a walk up from its first item for the goal (the walk the
# extractor made), then walks up from each chunk to the chunk item
# dominating it.

_DONORS = (Kind.PARAGRAPH, Kind.HEADING, Kind.TITLE)


def _oracle_context(tree, parent_of, kind, items, parent):
    anchor = parent if kind is ChunkKind.LIST else items[0]
    parent_id = parent_of.get(anchor)
    if parent_id is None:
        return ""
    siblings = tree.nodes[parent_id].children
    for sib_id in reversed(siblings[:siblings.index(anchor)]):
        sibling = tree.nodes[sib_id]
        if sibling.kind in _DONORS and sibling.text.strip():
            sentences = tree.sentences[sib_id]
            return sentences[-1] if sentences else sibling.text.strip()
    return tree.nodes[parent_id].text.strip()


def _oracle_goal(tree, parent_of, context, first_item):
    """The context, else the nearest heading with text above the first
    item, else the title."""
    if context.strip():
        return context.strip()
    current = parent_of.get(first_item)
    while current is not None:
        node = tree.nodes[current]
        if node.kind is Kind.HEADING and node.text.strip():
            return node.text.strip()
        current = parent_of.get(current)
    return tree.nodes[0].text.strip()


def oracle_chunks(tree):
    parent_of = parents(tree)
    groups = []  # (kind, items, parent)
    for node in tree.nodes:
        if node.kind is Kind.LIST_BLOCK:
            if node.children:
                groups.append((ChunkKind.LIST, list(node.children), node.id))
            continue
        headings, paragraphs, emitted = {}, [], set()
        for child_id in node.children:
            child = tree.nodes[child_id]
            if child.kind is Kind.HEADING:
                headings.setdefault(child.level, []).append(child_id)
            elif child.kind is Kind.PARAGRAPH:
                paragraphs.append(child_id)
        for child_id in node.children:
            child = tree.nodes[child_id]
            if child.kind is Kind.HEADING and child.level not in emitted:
                groups.append((ChunkKind.HEADING_GROUP, headings[child.level],
                               node.id))
                emitted.add(child.level)
            elif child.kind is Kind.PARAGRAPH and "para" not in emitted:
                groups.append((ChunkKind.PARAGRAPH_GROUP, paragraphs, node.id))
                emitted.add("para")

    chunks, is_item = {}, set()
    for chunk_id, (kind, items, parent) in enumerate(groups, start=1):
        depth = tree.nodes[items[0]].depth
        intro = parent_of.get(parent) if kind is ChunkKind.LIST else parent
        context = _oracle_context(tree, parent_of, kind, items, parent)
        chunks[chunk_id] = Chunk(
            id=chunk_id, kind=kind, item_node_ids=tuple(items), depth=depth,
            context_text=context, parent_node_id=parent, intro_node_id=intro,
            goal=_oracle_goal(tree, parent_of, context, items[0]))
        is_item.update(items)

    child_chunks = {}
    for chunk in chunks.values():
        current = chunk.parent_node_id
        while current is not None and current not in is_item:
            current = parent_of.get(current)
        if current is not None:
            child_chunks.setdefault(current, []).append(chunk.id)
    return chunks, child_chunks


def assert_matches_oracle(tree):
    chunks = build_chunks(tree)
    want_chunks, want_children = oracle_chunks(tree)
    assert list(chunks.chunks.items()) == list(want_chunks.items())
    assert list(chunks.child_chunks.items()) == list(want_children.items())


class TestOnePassOracle:
    def test_500_random_trees(self):
        rng = random.Random(4242)
        for _ in range(500):
            assert_matches_oracle(random_tree(rng, max_elements=20))

    @pytest.mark.parametrize("path", sorted((CORPUS / "docs").glob("*.md"))
                             + [CORPUS / "nested-fixture.md"],
                             ids=lambda p: p.stem)
    def test_corpus_documents(self, path):
        assert_matches_oracle(pipeline.load_document(path))

    def test_paragraph_lead_ins_between_lists(self):
        tree = md_tree("# T\nIntro. Then this.\n\n- a\n- b\n\n## H\nOne.\n\n"
                       "1. x\n  - y\n    1. z\n2. w\n\nLast words.\n\n- q")
        assert_matches_oracle(tree)

    BLANKABLE = (Kind.HEADING, Kind.LIST_ITEM, Kind.PARAGRAPH)

    def test_500_random_trees_with_blank_texts(self):
        """About 40% of the heading, item and paragraph texts blank, so
        chunks lose their context and the goal falls back to a heading with
        text, or past every heading to the title."""
        rng = random.Random(7)
        empty_contexts = heading_goals = title_goals = 0
        for _ in range(500):
            tree = random_tree(rng, max_elements=20)
            tree = make_tree([
                node._replace(text=rng.choice(("", "  ")))
                if node.kind in self.BLANKABLE and rng.random() < 0.4 else node
                for node in tree.nodes])
            assert_matches_oracle(tree)
            for chunk in build_chunks(tree):
                if not chunk.context_text:
                    empty_contexts += 1
                    if chunk.goal == tree.nodes[0].text:
                        title_goals += 1
                    else:
                        heading_goals += 1
        assert empty_contexts > 1000
        assert heading_goals > 300 and title_goals > 300


class TestChildrenDeeperOracle:
    """`classifier.classify_tree` scores deepest first and reads the labels
    of the chunks below each item without checking they exist: this is the
    chunker guarantee that makes them exist."""

    def test_300_random_trees(self):
        rng = random.Random(808)
        pairs = 0
        for _ in range(300):
            chunks = build_chunks(random_tree(rng, max_elements=20))
            assert_children_deeper(chunks)
            pairs += sum(map(len, chunks.child_chunks.values()))
        assert pairs > 1000

    @pytest.mark.parametrize("path", sorted((CORPUS / "docs").glob("*.md"))
                             + [CORPUS / "nested-fixture.md"],
                             ids=lambda p: p.stem)
    def test_corpus_documents(self, path):
        assert_children_deeper(build_chunks(pipeline.load_document(path)))

    def test_1100_deep_markdown_list(self):
        chunks = build_chunks(md_tree(deep_list_markdown(1100)))
        assert len(chunks) == 1101
        assert_children_deeper(chunks)


class TestLinearWork:
    def test_node_lookups_linear_in_nodes(self):
        doc = {"version": "sdjson/1", "title": "Many lists", "elements": [
            {"type": "list", "ordered": True, "items": [{"text": "Do it."}]}
            for _ in range(2000)]}
        parsed = parse_sdjson(json.dumps(doc))
        assert len(parsed.nodes) == 4001
        calls = [0]

        class CountingNodes(tuple):
            def __getitem__(self, node_id):
                calls[0] += 1
                return tuple.__getitem__(self, node_id)

        tree = DocTree(nodes=CountingNodes(parsed.nodes))
        tree.sentences  # split up front; only the chunker's lookups count
        calls[0] = 0
        chunks = build_chunks(tree)
        assert len(chunks) == 2000
        assert calls[0] <= 4 * len(tree.nodes)
