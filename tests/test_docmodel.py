import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from procmine.docmodel import (DocNode, Kind, SchemaError, _strip_images,
                               load_json, parse_markdown, parse_sdjson,
                               require, tree_to_json)

from procmine import extractor, pipeline
from procmine.actionable import ActionableModel
from procmine.classifier import ProcedureClassifierModel

from conftest import (CORPUS_DIR, assert_well_formed, make_tree, node_fields,
                      oracle_parse_markdown, oracle_strip_images, parents,
                      random_sdjson, sdjson_to_markdown, tree_json_node_fields,
                      tree_to_sdjson, validate_tree)

CORPUS_DOCS = [*sorted((CORPUS_DIR / "docs").glob("*.md")),
               CORPUS_DIR / "nested-fixture.md"]
BOM = b"\xef\xbb\xbf"


def sdjson(elements, title="Doc"):
    return json.dumps({"version": "sdjson/1", "title": title,
                       "elements": elements})


@pytest.fixture(scope="module")
def models():
    return (ActionableModel.load(CORPUS_DIR / "models" / "actionable.json"),
            ProcedureClassifierModel.load(CORPUS_DIR / "models" / "procedure.json"))


def output(tree, models) -> bytes:
    return extractor.serialize(pipeline.run_document(tree, *models).procedures)


class TestParseSdjson:
    def test_title_heading_ordered_list(self):
        tree = parse_sdjson(sdjson([
            {"type": "heading", "level": 1, "text": "Setup"},
            {"type": "list", "ordered": True,
             "items": [{"text": "a"}, {"text": "b"}, {"text": "c"}]},
        ]))
        kinds = [n.kind for n in tree.nodes]
        assert kinds == [Kind.TITLE, Kind.HEADING, Kind.LIST_BLOCK,
                         Kind.LIST_ITEM, Kind.LIST_ITEM, Kind.LIST_ITEM]
        depths = [n.depth for n in tree.nodes]
        assert depths == [0, 1, 2, 3, 3, 3]
        assert validate_tree(tree) == []

    def test_missing_title_is_schema_error(self):
        with pytest.raises(SchemaError, match="no root title"):
            parse_sdjson(json.dumps({"version": "sdjson/1", "elements": []}))

    def test_empty_elements_with_title_gives_bare_tree(self):
        tree = parse_sdjson(sdjson([]))
        assert [n.kind for n in tree.nodes] == [Kind.TITLE]

    def test_nested_sublist_depths(self):
        tree = parse_sdjson(sdjson([
            {"type": "list", "ordered": True, "items": [
                {"text": "outer",
                 "sublist": {"ordered": False,
                             "items": [{"text": "x"}, {"text": "y"}]}},
            ]},
        ]))
        assert validate_tree(tree) == []
        blocks = [n for n in tree.nodes if n.kind is Kind.LIST_BLOCK]
        assert len(blocks) == 2
        outer_item = next(n for n in tree.nodes
                          if n.kind is Kind.LIST_ITEM and n.text == "outer")
        nested = tree.nodes[outer_item.children[0]]
        assert nested.kind is Kind.LIST_BLOCK
        assert nested.depth == outer_item.depth + 1
        for item_id in nested.children:
            assert tree.nodes[item_id].depth == nested.depth + 1

    def test_outline_nesting_under_most_recent_lower_heading(self):
        tree = parse_sdjson(sdjson([
            {"type": "heading", "level": 1, "text": "H1"},
            {"type": "heading", "level": 2, "text": "H2"},
            {"type": "paragraph", "text": "under h2"},
            {"type": "heading", "level": 1, "text": "H1b"},
        ]))
        h1, h2, para, h1b = tree.nodes[1:]
        parent_of = parents(tree)
        assert parent_of.get(h2.id) == h1.id
        assert parent_of.get(para.id) == h2.id
        assert parent_of.get(h1b.id) == 0

    def test_schema_error_carries_path(self):
        with pytest.raises(SchemaError, match=r"\$\.elements\[0\]"):
            parse_sdjson(sdjson([{"type": "heading", "text": "no level"}]))

    def test_unknown_version_rejected(self):
        with pytest.raises(SchemaError, match="version"):
            parse_sdjson(json.dumps({"version": "sdjson/2", "title": "t",
                                     "elements": []}))

    def test_nonpositive_heading_level_is_schema_error(self):
        with pytest.raises(SchemaError):
            parse_sdjson(sdjson([{"type": "heading", "level": 0, "text": "x"}]))

    @pytest.mark.parametrize("level", [0, -3])
    def test_heading_level_error_carries_path(self, level):
        with pytest.raises(SchemaError, match=r"^\$\.elements\[1\]: heading level"):
            parse_sdjson(sdjson([{"type": "paragraph", "text": "p"},
                                 {"type": "heading", "level": level, "text": "x"}]))

    def test_bad_item_reports_nested_path(self):
        with pytest.raises(SchemaError, match=r"items\[1\]"):
            parse_sdjson(sdjson([
                {"type": "list", "ordered": True,
                 "items": [{"text": "ok"}, {"image": True}]},
            ]))

    @pytest.mark.parametrize("raw", [
        '{"version": "sdjson/1", "title": "\\ud800", "elements": []}',
        '{"version": "sdjson/1", "title": "T", "elements": '
        '[{"type": "paragraph", "text": "Open the \\udc00 panel."}]}',
    ], ids=["title", "text"])
    def test_lone_surrogate_is_schema_error(self, raw):
        with pytest.raises(SchemaError, match="lone surrogate"):
            parse_sdjson(raw)

    @staticmethod
    def sublist_chain(depth):
        item = '{"text": "leaf"}'
        for _ in range(depth):
            item = '{"text": "x", "sublist": {"ordered": true, "items": [%s]}}' % item
        return sdjson([]).replace('"elements": []', '"elements": [{"type": "list", '
                                  '"ordered": true, "items": [%s]}]' % item)

    def test_sublist_chain_150_deep_parses(self):
        tree = parse_sdjson(self.sublist_chain(150))
        assert max(n.depth for n in tree.nodes) == 302
        assert_well_formed(tree)

    @pytest.mark.parametrize("depth", [340, 450])
    def test_too_deep_sublist_chain_is_schema_error(self, depth):
        with pytest.raises(SchemaError, match="nested too deep"):
            parse_sdjson(self.sublist_chain(depth))

    def test_element_image_flag(self):
        tree = parse_sdjson(sdjson([
            {"type": "paragraph", "text": "figure below", "image": True},
        ]))
        para = tree.nodes[1]
        assert para.associated_image

    @pytest.mark.parametrize("value", ["false", "no", 0, 1, None])
    @pytest.mark.parametrize("element, path", [
        ({"type": "heading", "level": 1, "text": "h"}, r"\$\.elements\[0\]:"),
        ({"type": "paragraph", "text": "p"}, r"\$\.elements\[0\]:"),
        ({"type": "list", "ordered": True, "items": [{"text": "i"}]},
         r"\$\.elements\[0\]\.items\[0\]:"),
    ], ids=["heading", "paragraph", "item"])
    def test_image_must_be_boolean(self, element, path, value):
        target = element["items"][0] if "items" in element else element
        target["image"] = value
        with pytest.raises(SchemaError, match=path + " field 'image' must be bool"):
            parse_sdjson(sdjson([element]))


    def test_byte_order_mark_is_dropped(self):
        data = sdjson([{"type": "paragraph", "text": "Open the panel."}]).encode()
        assert node_fields(parse_sdjson(BOM + data)) == node_fields(parse_sdjson(data))

    def test_only_one_byte_order_mark_is_dropped(self):
        with pytest.raises(SchemaError, match="BOM"):
            parse_sdjson(BOM * 2 + sdjson([]).encode())

class TestReaders:
    """`load_json` and `require`, the one JSON decoder and the one checked
    field reader of sdjson documents and model files."""

    @pytest.mark.parametrize("data, message", [
        (b"{}\n\n\xff", "^line 3: not UTF-8$"),
        ('{"a": 1' + "0" * 5000 + "}", "^holds an integer too long to read$"),
        ("[" * 200_000, "^nested too deep$"),
        ("[]", "^top-level value must be a JSON object$"),
        ("{", "^not valid JSON: "),
    ], ids=["not-utf8", "long-integer", "too-deep", "list", "not-json"])
    def test_refusal_is_one_schema_error(self, data, message):
        with pytest.raises(SchemaError, match=message):
            load_json(data)

    def test_number_kind_takes_ints_and_floats_as_floats(self):
        doc = {"a": 2, "b": -0.5, "w": [1, 2.5]}
        assert [type(require(doc, key, float, "$")) for key in "ab"] == [float, float]
        assert require(doc, "w", list, "$", float) == [1.0, 2.5]

    @pytest.mark.parametrize("doc, kind, message", [
        ({"x": True}, float, r"^\$: field 'x' must be float$"),
        ({"x": True}, int, r"^\$: field 'x' must be int$"),
        ({"x": 10 ** 400}, float, r"^\$: field 'x' must be float$"),
        ({"x": "1.0"}, float, r"^\$: field 'x' must be float$"),
        ({"y": 1.0}, float, r"^\$: missing field 'x'$"),
        ({"x": "\ud800"}, str, r"^\$: field 'x' holds a lone surrogate$"),
    ], ids=["bool-number", "bool-int", "huge-int", "string", "missing", "surrogate"])
    def test_field_of_another_kind_is_refused(self, doc, kind, message):
        with pytest.raises(SchemaError, match=message):
            require(doc, "x", kind, "$")

    def test_bad_entry_is_named_by_its_path(self):
        with pytest.raises(SchemaError, match=r"^\$\.a\.w\[2\]: entry must be float$"):
            require({"w": [1.0, 2, False]}, "w", list, "$.a", float)


class TestParseMarkdown:
    def test_title_and_two_step_headings(self):
        tree = parse_markdown("# T\n## Step 1\ntext\n## Step 2\ntext")
        root = tree.nodes[0]
        assert root.kind is Kind.TITLE and root.text == "T"
        headings = [tree.nodes[c] for c in root.children]
        assert [h.kind for h in headings] == [Kind.HEADING, Kind.HEADING]
        assert [h.level for h in headings] == [2, 2]
        for heading in headings:
            children = [tree.nodes[c] for c in heading.children]
            assert [c.kind for c in children] == [Kind.PARAGRAPH]

    def test_ordered_list(self):
        tree = parse_markdown("# T\n1. a\n2. b")
        block = next(n for n in tree.nodes if n.kind is Kind.LIST_BLOCK)
        assert block.ordered is True
        assert [tree.nodes[c].text for c in block.children] == ["a", "b"]

    def test_image_inside_list_item_sets_flag(self):
        tree = parse_markdown("# T\n- item one ![img](x.png)\n- item two")
        items = [n for n in tree.nodes if n.kind is Kind.LIST_ITEM]
        assert items[0].associated_image is True
        assert items[0].text == "item one"
        assert items[1].associated_image is False

    def test_standalone_image_marks_previous_sibling(self):
        tree = parse_markdown("# T\nSome paragraph.\n\n![fig](a.png)\n")
        para = next(n for n in tree.nodes if n.kind is Kind.PARAGRAPH)
        assert para.associated_image is True

    def test_nested_list_two_space_indent(self):
        tree = parse_markdown("# T\n1. outer\n  - inner a\n  - inner b\n2. second")
        outer_block = tree.nodes[tree.nodes[0].children[0]]
        assert len(outer_block.children) == 2
        outer_item = tree.nodes[outer_block.children[0]]
        nested = tree.nodes[outer_item.children[0]]
        assert nested.kind is Kind.LIST_BLOCK and nested.ordered is False
        assert len(nested.children) == 2

    @pytest.mark.parametrize("line, text", [
        ("## Method 1: Reset ##", "Method 1: Reset"),
        ("## Reset #####   ", "Reset"),
        ("## Reset\t#", "Reset"),
        ("## C#", "C#"),  # no space before the run: part of the text
        ("## Reset # now", "Reset # now"),  # the run does not end the line
        ("## ##", ""),
    ])
    def test_atx_closing_sequence_is_stripped(self, line, text):
        tree = parse_markdown(f"# Title #\n{line}\ntext")
        root = tree.nodes[0]
        assert root.text == "Title"
        assert tree.nodes[root.children[0]].text == text

    def test_title_from_source_name_when_no_h1(self):
        tree = parse_markdown("## Only level two\ntext", source_name="fallback")
        assert tree.nodes[0].text == "fallback"

    def test_tabs_normalize_to_two_spaces(self):
        tree = parse_markdown("# T\n1. outer\n\t- inner")
        outer_item = next(n for n in tree.nodes if n.text == "outer")
        assert len(outer_item.children) == 1

    def test_node_count_elements_plus_list_blocks(self):
        # title + 2 headings + 2 paragraphs + 3 items + 1 synthesized block
        text = "# T\n## A\npara one.\n1. i1\n2. i2\n3. i3\n## B\npara two."
        tree = parse_markdown(text)
        assert len(tree.nodes) == 1 + 2 + 2 + 3 + 1

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=400))
    def test_fuzzed_markdown_always_validates(self, text):
        assert_well_formed(parse_markdown(text))

    def test_continuation_lines_extend_the_item(self):
        tree = parse_markdown("# T\n- first\n  more text\n  ![f](x.png)\n- second")
        items = [n for n in tree.nodes if n.kind is Kind.LIST_ITEM]
        assert [(n.text, n.associated_image) for n in items] == \
            [("first more text", True), ("second", False)]

    def test_nested_list_hangs_under_the_last_item_of_the_open_list(self):
        # "c" closes the list of "a2" and opens a list under "a1"
        tree = parse_markdown("# T\n- a1\n    - a2\n  - c\n")
        a1 = next(n for n in tree.nodes if n.text == "a1")
        assert [[tree.nodes[i].text for i in tree.nodes[block].children]
                for block in a1.children] == [["a2"], ["c"]]

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"],
                             ids=["lf", "crlf", "cr"])
    def test_every_line_end_gives_one_tree(self, end):
        text = end.join(["# Title", "", "## Setup", "", "1. Open the panel.",
                         "  Then wait.", "2. Close the lid.", ""])
        tree = parse_markdown(text)
        assert [(n.kind, n.text) for n in tree.nodes] == [
            (Kind.TITLE, "Title"), (Kind.HEADING, "Setup"),
            (Kind.LIST_BLOCK, ""), (Kind.LIST_ITEM, "Open the panel. Then wait."),
            (Kind.LIST_ITEM, "Close the lid.")]

    def test_a_later_level_one_heading_is_a_heading(self):
        tree = parse_markdown("text\n# Title\nmore\n# Again\n")
        assert [(n.kind, n.text) for n in tree.nodes] == [
            (Kind.TITLE, "Title"), (Kind.PARAGRAPH, "text more"),
            (Kind.HEADING, "Again")]


# Markdown drawn from the pieces the parser reacts to: headings of every
# level, both ordered and all three unordered markers, indents of 0-6
# spaces or a tab, images, blank lines and all three line ends.
MARKDOWN_PIECES = st.sampled_from([
    "# ", "## ", "### ", "#### ", "##### ", "###### ", "#", "1. ", "1) ",
    "- ", "* ", "+ ", " ", "  ", "   ", "    ", "      ", "\t", "![](x)",
    "\n", "\r\n", "\r", "\n\n", "\r\n\r\n", "\r\r", "Open", "the panel.",
    "x"])

IMAGE_PIECES = st.sampled_from(["!", "[", "]", "(", ")", "a", "b", " "])


class TestMarkdownOracle:
    """The one-pass parser against the parser before it (`conftest`), which
    ended a line only at \n."""

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(MARKDOWN_PIECES, max_size=50).map("".join))
    def test_random_markdown_matches_oracle(self, text):
        lf = text.replace("\r\n", "\n").replace("\r", "\n")
        assert tree_to_json(parse_markdown(text)) == \
            tree_to_json(oracle_parse_markdown(lf))

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(IMAGE_PIECES, max_size=40).map("".join))
    def test_image_strip_matches_oracle(self, text):
        assert _strip_images(text) == oracle_strip_images(text)

    def test_corpus_documents_match_oracle(self):
        for path in CORPUS_DOCS:
            text = path.read_text(encoding="utf-8")
            assert tree_to_json(parse_markdown(text, path.stem)) == \
                tree_to_json(oracle_parse_markdown(text, path.stem))


def best_parse_seconds(text: str) -> float:
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        parse_markdown(text)
        best = min(best, time.perf_counter() - started)
    return best


class TestMarkdownIsLinear:
    """Parse time grows linearly with the input: 8 times the size takes
    about 8 times as long (a quadratic form, about 64 times), so a ratio
    below 24 leaves room for the machine's speed to swing."""

    def test_long_item_continuation_is_linear(self):
        def item(lines):
            return ("# T\n\n- Open the panel.\n"
                    + "  then press the green start button twice.\n" * lines)
        small, large = (best_parse_seconds(item(n)) for n in (5_000, 40_000))
        assert large / small < 24

    def test_long_line_of_unclosed_images_is_linear(self):
        small, large = (best_parse_seconds("![a](" * n) for n in (5_000, 40_000))
        assert large / small < 24


class TestValidateTree:
    def test_valid_tree_no_violations(self):
        tree = parse_markdown("# T\n## A\ntext")
        assert validate_tree(tree) == []

    def test_multiple_parents_reported(self):
        nodes = [
            DocNode(id=0, kind=Kind.TITLE, text="t", depth=0, children=(1, 2)),
            DocNode(id=1, kind=Kind.HEADING, text="h", depth=1, children=(2,),
                    level=1),
            DocNode(id=2, kind=Kind.PARAGRAPH, text="p", depth=1),
        ]
        violations = validate_tree(make_tree(nodes))
        assert "node 2: multiple parents" in violations

    def test_heading_level_inversion_reported(self):
        nodes = [
            DocNode(id=0, kind=Kind.TITLE, text="t", depth=0, children=(1,)),
            DocNode(id=1, kind=Kind.HEADING, text="h1", depth=1, children=(2,),
                    level=1),
            DocNode(id=2, kind=Kind.HEADING, text="h3", depth=2, children=(3,),
                    level=3),
            DocNode(id=3, kind=Kind.HEADING, text="h2", depth=3, children=(),
                    level=2),
        ]
        violations = validate_tree(make_tree(nodes))
        assert any("heading level inversion" in v for v in violations)

    def test_depth_mismatch_reported(self):
        nodes = [
            DocNode(id=0, kind=Kind.TITLE, text="t", depth=0, children=(1,)),
            DocNode(id=1, kind=Kind.PARAGRAPH, text="p", depth=2),
        ]
        violations = validate_tree(make_tree(nodes))
        assert any("depth" in v for v in violations)

    def test_list_item_outside_block_reported(self):
        nodes = [
            DocNode(id=0, kind=Kind.TITLE, text="t", depth=0, children=(1,)),
            DocNode(id=1, kind=Kind.LIST_ITEM, text="i", depth=1),
        ]
        violations = validate_tree(make_tree(nodes))
        assert any("list item outside" in v for v in violations)


class TestBuilderGuarantees:
    def test_tree_json_carries_every_node_field(self):
        rng = random.Random(7)
        for _ in range(20):
            tree = parse_sdjson(json.dumps(random_sdjson(rng)))
            text = tree_to_json(tree)
            assert tree_json_node_fields(text) == node_fields(tree)
            doc = json.loads(text)
            assert (doc["format"], doc["root"], doc["source"]) == \
                ("doctree/1", 0, tree.source_name)

    def test_random_documents_are_well_formed(self):
        rng = random.Random(99)
        for _ in range(200):
            assert_well_formed(parse_sdjson(json.dumps(random_sdjson(rng))))

    @pytest.mark.parametrize("path", sorted((CORPUS_DIR / "docs").glob("*.md"))
                             + [CORPUS_DIR / "nested-fixture.md"],
                             ids=lambda path: path.name)
    def test_corpus_documents_are_well_formed(self, path):
        assert_well_formed(parse_markdown(path.read_text("utf-8"), path.stem))


class TestCorpusThroughSdjson:
    """Each corpus document spelled in sdjson parses to the tree its
    Markdown gives and extracts to its golden bytes."""

    def test_renderer_round_trips_random_trees(self):
        """The renderer's sublists and image flags, which no corpus
        document has."""
        rng = random.Random(19)
        for _ in range(100):
            tree = parse_sdjson(json.dumps(random_sdjson(rng)))
            reparsed = parse_sdjson(json.dumps(tree_to_sdjson(tree)))
            assert node_fields(reparsed) == node_fields(tree)

    @pytest.mark.parametrize("path", CORPUS_DOCS, ids=lambda path: path.name)
    def test_same_tree_and_golden_output(self, models, path):
        tree = pipeline.load_document(path)
        reparsed = parse_sdjson(json.dumps(tree_to_sdjson(tree)).encode("utf-8"))
        assert node_fields(reparsed) == node_fields(tree)
        golden = CORPUS_DIR / "golden" / (path.stem + ".procedures.json")
        assert output(reparsed, models) == golden.read_bytes()


@pytest.mark.parametrize("path", CORPUS_DOCS, ids=lambda path: path.name)
def test_tree_json_equals_its_golden_file(path):
    """The `ingest` bytes of each corpus document, as the builder kept
    one dict per node: the Markdown oracle and the sdjson round trip both
    build through `_Builder`, so only these check it from outside."""
    golden = CORPUS_DIR / "golden" / (path.stem + ".tree.json")
    assert tree_to_json(pipeline.load_document(path)).encode("utf-8") == \
        golden.read_bytes()


def list_blocks(tree) -> int:
    return sum(node.kind is Kind.LIST_BLOCK for node in tree.nodes)


def adjacent_lists_of_one_style(doc: dict) -> bool:
    elements = doc["elements"]
    return any(a["type"] == b["type"] == "list" and a["ordered"] == b["ordered"]
               for a, b in zip(elements, elements[1:]))


class TestOneDocumentInBothSyntaxes:
    """A document written in sdjson and in Markdown parses to one tree and
    extracts to one output, apart from the two differences of the formats
    that the README lists, each pinned here."""

    def test_random_documents_give_one_tree_and_one_output(self, models):
        rng = random.Random(5)
        for _ in range(400):
            doc = random_sdjson(rng)
            from_sdjson = parse_sdjson(json.dumps(doc))
            markdown = sdjson_to_markdown(doc)
            from_markdown = parse_markdown(markdown)
            for end in ("\r\n", "\r"):
                assert node_fields(parse_markdown(markdown.replace("\n", end))) \
                    == node_fields(from_markdown)
            if adjacent_lists_of_one_style(doc):
                assert list_blocks(from_markdown) < list_blocks(from_sdjson)
                continue
            assert node_fields(from_markdown) == node_fields(from_sdjson)
            assert output(from_markdown, models) == output(from_sdjson, models)

    @pytest.mark.parametrize("ordered", [True, False])
    def test_markdown_cannot_write_two_adjacent_lists_of_one_style(self, ordered):
        doc = json.loads(sdjson([
            {"type": "list", "ordered": ordered, "items": [{"text": text}]}
            for text in ("Open the panel.", "Press start.")]))
        assert list_blocks(parse_sdjson(json.dumps(doc))) == 2
        assert list_blocks(parse_markdown(sdjson_to_markdown(doc))) == 1

    @pytest.mark.parametrize("template, flagged", [
        ("# T\n\n1. Open the panel.\n2. Press start.\n\n{figure}\n", 1),
        ("# T\n\n{figure}\n\n1. Open the panel.\n2. Press start.\n", 0),
    ], ids=["after-a-list", "after-the-title"])
    def test_bare_figure_flags_what_sdjson_cannot_and_no_feature_reads(
            self, models, template, flagged):
        """The figure flags the list block or the title, and nothing else
        changes: the tree, the features and the output are those of the
        document without it."""
        tree = parse_markdown(template.format(figure="![](fig.png)"))
        plain = parse_markdown(template.format(figure=""))
        assert [n.id for n in tree.nodes if n.associated_image] == [flagged]
        assert tree.nodes[flagged].kind in (Kind.LIST_BLOCK, Kind.TITLE)
        assert [n._replace(associated_image=False) for n in tree.nodes] == \
            list(plain.nodes)
        with pytest.raises(AssertionError, match="has an image"):
            tree_to_sdjson(tree)
        assert pipeline.analyze(tree, models[0]).static_features == \
            pipeline.analyze(plain, models[0]).static_features
        assert output(tree, models) == output(plain, models)
