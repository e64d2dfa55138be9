from unittest import mock

import pytest

from tokenslide import Graph, ParseError, RootedTree, TokenMultiset, graphs
from tokenslide.generators import gen_instance
from tokenslide.graphs import distances_from
from tokenslide.instances import (
    MAX_GRAPH_VERTICES,
    emit_instance,
    emit_moves,
    parse_instance,
    parse_moves,
)

P4_TREE = """tree 4
0 1
1 2
2 3
tokens 2: 0 2
tokens 2: 1 3
"""

TWO_INTERVALS = """intervals 2
0 1 4
1 3 6
tokens 1: 0
tokens 1: 1
"""


class TestParse:
    def test_tree_instance(self):
        inst = parse_instance(P4_TREE)
        assert inst.kind == "tree"
        assert inst.graph == Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert inst.d_s == TokenMultiset([0, 2])
        assert inst.d_t == TokenMultiset([1, 3])

    def test_interval_instance(self):
        inst = parse_instance(TWO_INTERVALS)
        assert inst.kind == "intervals"
        assert inst.rep.intervals == ((1, 4), (3, 6))
        assert inst.graph.has_edge(0, 1)

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\ntree 2\n0 1  # inline\n\ntokens 1: 0\ntokens 1: 1\n"
        inst = parse_instance(text)
        assert inst.n == 2

    def test_graph_kind_allows_cycles(self):
        text = "graph 4\n0 1\n1 2\n2 3\n3 0\ntokens 2: 0 2\ntokens 2: 1 3\n"
        inst = parse_instance(text)
        assert inst.kind == "graph" and inst.graph.edge_count == 4

    def test_token_count_mismatch_reports_line(self):
        text = "tree 2\n0 1\ntokens 2: 0\ntokens 2: 0 1\n"
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line == 3

    def test_uneven_token_blocks_rejected(self):
        text = "tree 2\n0 1\ntokens 1: 0\ntokens 2: 0 1\n"
        with pytest.raises(ParseError):
            parse_instance(text)

    def test_tree_with_wrong_edge_count_rejected(self):
        text = "tree 3\n0 1\ntokens 1: 0\ntokens 1: 1\n"
        with pytest.raises(ParseError):
            parse_instance(text)

    def test_cyclic_tree_rejected(self):
        text = "tree 3\n0 1\n1 2\n2 0\ntokens 1: 0\ntokens 1: 1\n"
        with pytest.raises(ParseError):
            parse_instance(text)

    def test_tree_with_an_unreachable_vertex_rejected(self):
        # n - 1 edges, but a triangle leaves vertex 3 unreachable
        text = "tree 4\n0 1\n1 2\n2 0\ntokens 1: 0\ntokens 1: 1\n"
        with pytest.raises(ParseError, match="not connected"):
            parse_instance(text)

    def test_tree_with_a_duplicate_edge_rejected(self):
        # two edge lines, but they collapse into one edge
        text = "tree 3\n0 1\n1 0\ntokens 1: 0\ntokens 1: 1\n"
        with pytest.raises(ParseError, match="must have 2 edges, got 1"):
            parse_instance(text)

    def test_graph_header_is_capped_before_any_allocation(self):
        inst = parse_instance(f"graph {MAX_GRAPH_VERTICES}\ntokens 1: 0\ntokens 1: 0\n")
        assert inst.n == MAX_GRAPH_VERTICES and inst.graph.edge_count == 0
        for n in (MAX_GRAPH_VERTICES + 1, 10**9):
            with mock.patch.object(Graph, "__init__", side_effect=AssertionError("built a graph")):
                with pytest.raises(ParseError, match=f"at most {MAX_GRAPH_VERTICES} vertices") as err:
                    parse_instance(f"graph {n}\ntokens 1: 0\ntokens 1: 0\n")
            assert err.value.line == 1

    @pytest.mark.parametrize(
        "text,line,message",
        [
            ("tree 1000000000\n0 1\ntokens 1: 0\ntokens 1: 1\n", 1, "needs 999999999 edges, got 1"),
            ("intervals 1000000000\n0 1 4\n", 2, "expected 1000000000 interval lines"),
        ],
    )
    def test_huge_tree_and_interval_headers_fail_on_missing_lines(self, text, line, message):
        # their files must list every edge or interval, so parsing stops at
        # the first missing line, before anything is allocated per vertex
        with mock.patch.object(Graph, "__init__", side_effect=AssertionError("built a graph")):
            with pytest.raises(ParseError, match=message) as err:
                parse_instance(text)
        assert err.value.line == line

    def test_duplicate_interval_id_rejected(self):
        text = "intervals 2\n0 1 4\n0 3 6\ntokens 1: 0\ntokens 1: 1\n"
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line == 3

    def test_trailing_content_rejected(self):
        with pytest.raises(ParseError):
            parse_instance(P4_TREE + "0 1\n")

    def test_token_vertex_out_of_range(self):
        text = "tree 2\n0 1\ntokens 1: 5\ntokens 1: 0\n"
        with pytest.raises(ParseError):
            parse_instance(text)

    @pytest.mark.parametrize("count", ["²", "-1", "x"], ids=["superscript", "negative", "letter"])
    def test_token_count_must_be_a_decimal_number(self, count):
        # "²".isdigit() holds but int("²") raises
        text = f"tree 2\n0 1\ntokens {count}: 0\ntokens 1: 1\n"
        with pytest.raises(ParseError, match="expected 'tokens k: v1 ... vk'") as err:
            parse_instance(text)
        assert err.value.line == 3

    def test_multiplicities_via_repeats(self):
        text = "tree 2\n0 1\ntokens 3: 0 0 1\ntokens 3: 1 1 1\n"
        inst = parse_instance(text)
        assert inst.d_s == TokenMultiset({0: 2, 1: 1})
        assert inst.d_t == TokenMultiset({1: 3})


@pytest.mark.parametrize("text", [P4_TREE, emit_instance(gen_instance("tree", 60, 20, 3))])
def test_parse_and_root_run_one_bfs_per_tree_file(text):
    sources = []

    def counting(graph, s):
        sources.append(s)
        return distances_from(graph, s)

    with mock.patch.object(graphs, "distances_from", counting):
        inst = parse_instance(text)
        tree = RootedTree(inst.graph, 0)
    assert sources == [0]
    assert tree.depth is graphs.Distances(inst.graph)[0]  # the row the parser checked


class TestRoundTrip:
    def test_emit_parse_emit_is_identity_on_fixtures(self):
        for text in (P4_TREE, TWO_INTERVALS):
            emitted = emit_instance(parse_instance(text))
            assert emit_instance(parse_instance(emitted)) == emitted

    def test_round_trip_on_generated_instances(self):
        for kind in ("tree", "interval"):
            for seed in range(12):
                inst = gen_instance(kind, 9, 3, seed)
                text = emit_instance(inst)
                again = parse_instance(text)
                assert again == inst
                assert emit_instance(again) == text


class TestGen:
    def test_deterministic_under_seed(self):
        a = emit_instance(gen_instance("tree", 8, 3, 1))
        b = emit_instance(gen_instance("tree", 8, 3, 1))
        assert a == b

    def test_interval_instances_are_dominating(self):
        from tokenslide import is_dominating

        inst = gen_instance("interval", 6, 2, 7)
        assert is_dominating(inst.graph, inst.d_s)
        assert is_dominating(inst.graph, inst.d_t)

    def test_full_budget_uses_every_vertex(self):
        inst = gen_instance("tree", 5, 5, 3)
        assert inst.d_s == inst.d_t == TokenMultiset(range(5))


class TestMoveFiles:
    def test_round_trip(self):
        text = emit_moves([(0, 1, 2), (2, 3, 1)], 3)
        total, triples = parse_moves(text)
        assert total == 3 and triples == [(0, 1, 2), (2, 3, 1)]

    def test_header_total_must_match(self):
        with pytest.raises(ParseError):
            parse_moves("moves 5\n0 1 1\n")

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_moves("m 1\n0 1 1\n")
