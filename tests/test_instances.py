import contextlib
import functools
import random
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ReferenceGraph, bfs_sources, reference_parse_instance, reference_parse_moves
from tokenslide import Graph, InputError, ParseError, RootedTree, TokenMultiset, instances
from tokenslide.generators import gen_instance, heavy_path_instance
from tokenslide.graphs import distances_from
from tokenslide.instances import (
    MAX_GRAPH_VERTICES,
    Instance,
    emit_instance,
    emit_moves,
    parse_instance,
    parse_moves,
)
from tokenslide.interval_reconfig import reconf_interval
from tokenslide.tree_reconfig import reconf_tree_dominating

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

    @pytest.mark.parametrize(
        "body,line",
        [
            ("0 1 2\n1 1 4\n", 3),  # a right end repeated as a left end
            ("1 3 4\n0 1 3\n", 3),  # file order, not id order, decides
            ("2 5 8\n0 1 3\n1 3 5\n", 4),  # one line, two repeated ends
        ],
    )
    def test_repeated_endpoint_names_the_first_line_that_repeats_one(self, body, line):
        n = body.count("\n")
        text = f"intervals {n}\n{body}tokens 1: 0\ntokens 1: 1\n"
        with pytest.raises(ParseError, match=f"^line {line}: interval endpoints must be pairwise distinct$"):
            parse_instance(text)
        assert _outcome(reference_parse_instance, text) == _outcome(parse_instance, text)

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

    def test_huge_declared_token_count_allocates_nothing_per_token(self):
        text = f"tree 2\n0 1\ntokens {10**15}: 0 1\ntokens 1: 1\n"
        with pytest.raises(ParseError, match=f"^line 3: token line declares {10**15} tokens but lists 2$"):
            parse_instance(text)

    def test_multiplicities_via_repeats(self):
        text = "tree 2\n0 1\ntokens 3: 0 0 1\ntokens 3: 1 1 1\n"
        inst = parse_instance(text)
        assert inst.d_s == TokenMultiset({0: 2, 1: 1})
        assert inst.d_t == TokenMultiset({1: 3})


@pytest.mark.parametrize("text", [P4_TREE, emit_instance(gen_instance("tree", 60, 20, 3))])
def test_parse_and_root_run_no_bfs_on_a_tree_file(text):
    with bfs_sources() as sources:
        inst = parse_instance(text)
        tree = RootedTree(inst.graph, 0)
        assert tree._depth is None
        depth = tree.depth
    # the parser roots the tree from its edge lines, and depth climbs the parent array
    assert sources == []
    assert inst.graph._adj is None
    assert depth == distances_from(inst.graph, 0)


@pytest.mark.parametrize("text", [P4_TREE, emit_instance(gen_instance("tree", 60, 20, 3))])
def test_tree_solve_path_never_builds_the_adjacency(text):
    inst = parse_instance(text)
    seq = reconf_tree_dominating(RootedTree(inst.graph, 0), inst.d_s, inst.d_t)
    emit_moves(list(seq.moves), seq.total_length)
    assert inst.graph._adj is None
    assert inst.graph == reference_parse_instance(text).graph  # built on this first read
    assert inst.graph._adj is not None


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

    @pytest.mark.parametrize("case", ["none", "one", "huge", "heavy_path"])
    def test_emit_matches_one_line_per_triple(self, case):
        if case == "heavy_path":
            graph, d_s, d_t = heavy_path_instance(100_001, 3)
            seq = reconf_tree_dominating(RootedTree(graph, 0), d_s, d_t)
            moves, total = list(seq.moves), seq.total_length
            assert len(moves) == 100_000
        else:
            moves = {"none": [], "one": [(4, 7, 1)], "huge": [(0, 1, 2**64 + 1), (1, 2, 3**50)]}[case]
            total = sum(c for _, _, c in moves)
        text = emit_moves(moves, total)
        assert text == "\n".join([f"moves {total}", *(f"{u} {v} {c}" for u, v, c in moves)]) + "\n"
        assert parse_moves(text) == (total, moves)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_self_move_names_its_line(self, newline):
        text = newline.join(["moves 4", "0 1 2", "2 2 1", "1 1 1", ""])
        with pytest.raises(ParseError, match=r"^line 3: move \(2, 2\) does not change anything$"):
            parse_moves(text)

    def test_parse_peak_stays_near_what_the_triples_hold(self):
        """The 10^5-triple heavy-path move file: the traced peak is at most
        twice what the returned list holds, with no list of lines and no
        string per integer on the way."""
        graph, d_s, d_t = heavy_path_instance(100_001, 3)
        seq = reconf_tree_dominating(RootedTree(graph, 0), d_s, d_t)
        text = emit_moves(list(seq.moves), seq.total_length)
        tracemalloc.start()
        try:
            total, triples = parse_moves(text)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (total, triples) == (seq.total_length, list(seq.moves))
        assert len(triples) == 100_000
        assert peak <= 2 * held

    def test_header_total_must_match(self):
        with pytest.raises(ParseError):
            parse_moves("moves 5\n0 1 1\n")

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_moves("m 1\n0 1 1\n")


def _outcome(parse, text):
    """What a reader makes of text: the canonical emitted form (or the move
    list), or the error type and its message."""
    try:
        result = parse(text)
    except ValueError as exc:  # ParseError and InputError among them
        return type(exc).__name__, str(exc)
    return "ok", emit_instance(result) if isinstance(result, Instance) else result


@functools.cache
def _reader_fixtures():
    """(kind of file, lines) pairs: tree, graph and interval instances, one
    interval file with its lines shuffled, and the move files their solvers emit."""
    rng = random.Random(5)
    out = []
    for seed in range(3):
        for inst in (gen_instance("tree", 7 + seed, 3, seed), gen_instance("interval", 6 + seed, 2, seed)):
            out.append(("instance", emit_instance(inst).splitlines()))
            if inst.kind == "tree":
                seq = reconf_tree_dominating(RootedTree(inst.graph, 0), inst.d_s, inst.d_t)
            else:
                seq = reconf_interval(inst.rep, inst.d_s, inst.d_t)
            out.append(("moves", emit_moves(list(seq.moves), seq.total_length).splitlines()))
        n = 6 + seed
        edges = sorted({tuple(sorted(rng.sample(range(n), 2))) for _ in range(2 * n)})
        body = [f"{u} {v}" for u, v in edges]
        out.append(("instance", [f"graph {n}", *body, "tokens 2: 0 1", "tokens 2: 2 2"]))
    lines = emit_instance(gen_instance("interval", 8, 3, 9)).splitlines()
    body = lines[1:9]
    rng.shuffle(body)
    out.append(("instance", [lines[0], *body, *lines[9:]]))
    return out


# Tokens a mutation may put in place of another: signs, underscores and
# non-ASCII digits that int() accepts, ids at and beyond the ends of the
# range, text that is no integer, and what json reads differently from
# int() or only json accepts.
READER_TOKENS = (
    "+3", "1_0", "\u0663", "\uff13", "-1", "0", "1", "2", "5", "8", "9", "12", "00",
    "x", "tokens", "|", "1|2", "\u00b2", "1e3", "tokens 1:",
    "1" * 4301, "1,2", "[1]", "1.5", "true", "-0",
)
LINE_BREAKS = ("\x0b", "\x0c", "\x1c", "\x85", "\u2028")
READER_OPS = (
    "comment", "comment_break", "blank", "break", "extra", "drop", "shift", "replace", "loop", "repeat",
    "delete", "trail", "double_space", "tab", "trailing_space", "self_move",
)


def test_bulk_reader_agrees_with_the_line_by_line_reader():
    """Comments, blank lines, other line breaks, extra or missing fields,
    odd spacing, odd integer spellings, out-of-range ids, self-loops,
    self-moves, repeated lines and missing or trailing lines: the reader
    of each file kind gives the same instance, or the same error text, as
    the line-by-line reference in ``helpers``.  Most texts end their lines
    in \\n, and several hundred of them are read in normal form, without
    ``_content_lines``."""
    normal = 0

    @settings(max_examples=1500, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def agree(data):
        nonlocal normal
        kind, lines = data.draw(st.sampled_from(_reader_fixtures()))
        lines = list(lines)
        for _ in range(data.draw(st.integers(1, 3))):
            op = data.draw(st.sampled_from(READER_OPS))
            i = data.draw(st.integers(0, len(lines) - 1)) if lines else 0
            fields = lines[i].split(" ") if lines else []
            if op == "comment":
                if data.draw(st.booleans()):
                    lines.insert(i, "# a comment")
                elif lines:
                    lines[i] += "  # 7 8"
            elif op == "comment_break" and i + 1 < len(lines):
                # any line break ends a comment: the next line is still read
                brk = data.draw(st.sampled_from(LINE_BREAKS))
                lines[i : i + 2] = [f"{lines[i]} # c{brk}{lines[i + 1]}"]
            elif op == "blank":
                lines.insert(i, data.draw(st.sampled_from(["", "   ", "\t"])))
            elif op == "break" and lines:
                j = data.draw(st.integers(0, len(lines[i])))
                lines[i] = lines[i][:j] + data.draw(st.sampled_from(LINE_BREAKS)) + lines[i][j:]
            elif op == "extra" and lines:
                lines[i] += " " + data.draw(st.sampled_from(READER_TOKENS))
            elif op == "drop" and len(fields) > 1:
                lines[i] = " ".join(fields[:-1])
            elif op == "shift" and len(fields) > 1:
                # one line a field short and another a field long: the token count still fits
                lines[i] = " ".join(fields[:-1])
                j = data.draw(st.integers(0, len(lines) - 1))
                lines[j] += " " + fields[-1]
            elif op == "replace" and fields:
                fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(st.sampled_from(READER_TOKENS))
                lines[i] = " ".join(fields)
            elif op == "loop" and len(fields) > 1:
                lines[i] = " ".join([fields[0], fields[0], *fields[2:]])
            elif op == "repeat" and lines:
                lines.insert(i, lines[i])
            elif op == "delete" and lines:
                del lines[i]
            elif op == "trail" and lines:
                lines.append(lines[i])
            elif op in ("double_space", "tab") and len(fields) > 1:
                j = data.draw(st.integers(1, len(fields) - 1))
                lines[i] = " ".join(fields[:j]) + ("  " if op == "double_space" else "\t") + " ".join(fields[j:])
            elif op == "trailing_space" and lines:
                lines[i] += " "
            elif op == "self_move" and kind == "moves" and len(lines) > 1:
                # one move line's target becomes its source
                j = data.draw(st.integers(1, len(lines) - 1))
                move = lines[j].split(" ")
                lines[j] = " ".join([move[0], *move[:1], *move[2:]])
        newline = data.draw(st.sampled_from(["\n"] * 7 + ["\r\n"]))
        text = newline.join(lines) + data.draw(st.sampled_from(["", newline, newline + " " + newline]))
        if kind == "instance":
            parse, reference = parse_instance, reference_parse_instance
        else:
            parse, reference = parse_moves, reference_parse_moves
        with mock.patch.object(instances, "_content_lines", wraps=instances._content_lines) as line_reader:
            outcome = _outcome(parse, text)
        normal += not line_reader.called
        assert outcome == _outcome(reference, text)

    agree()
    assert normal >= 300


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.integers(0, 9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1)), max_size=3 * n + 2),
        )
    )
)
def test_graph_matches_the_set_per_vertex_build(case):
    """Repeated edges in either direction, self-loops and out-of-range ends:
    the same adjacency and edge count, or the same error text."""
    n, edges = case

    def build(cls):
        try:
            g = cls(n, iter(edges))
        except InputError as exc:
            return str(exc)
        return g.adjacency, g.edge_count

    assert build(Graph) == build(ReferenceGraph)


@functools.cache
def _big_files():
    """A 10^4-vertex tree, intervals and move file, each 10^4 lines long."""
    n = 10_000
    graph, d_s, d_t = heavy_path_instance(n, n // 10)
    tree = emit_instance(Instance("tree", graph, None, d_s, d_t))
    ids = list(range(n))
    random.Random(3).shuffle(ids)  # lines out of id order
    rows = "".join(f"{v} {2 * v} {2 * v + 3}\n" for v in ids)
    intervals = f"intervals {n}\n{rows}tokens 2: 0 {n - 1}\ntokens 2: 1 1\n"
    moves = f"moves {n}\n" + "".join(f"{v} {v + 1} 1\n" for v in range(n))
    return tree, intervals, moves


def test_valid_files_never_read_line_by_line():
    """Tree, interval and move files in normal form build no list of lines
    and parse no line on its own."""
    tree, intervals, moves = _big_files()
    boom = AssertionError("read line by line")
    with mock.patch.object(instances, "_parse_ints", side_effect=boom), mock.patch.object(
        instances, "_read_lines", side_effect=boom
    ), mock.patch.object(instances, "_content_lines", side_effect=boom):
        inst = parse_instance(tree)
        RootedTree(inst.graph, 0)
        assert parse_instance(intervals).n == 10_000
        assert parse_moves(moves)[0] == 10_000


@pytest.mark.parametrize(
    "which,bad,message",
    [
        (0, "5 x 1", "line {}: expected integers, got '5 x 1'"),
        (0, "1", "line {}: expected 2 integers, got 1"),
        (0, "7 7", "line 1: self-loop at vertex 7"),
        (1, "3 3 3 3", "line {}: expected 3 integers, got 4"),
        (1, "-4 2 9", "line {}: interval id -4 out of range"),
        (2, "1 2 0", "line {}: move count 0 must be positive"),
    ],
)
def test_a_bad_line_near_the_end_is_named(which, bad, message):
    lines = _big_files()[which].splitlines()
    lines[-5] = bad
    text = "\n".join(lines) + "\n"
    if which == 2:
        parse, reference = parse_moves, reference_parse_moves
    else:
        parse, reference = parse_instance, reference_parse_instance
    with pytest.raises(ParseError, match=f"^{re.escape(message.format(len(lines) - 4))}$"):
        parse(text)
    assert _outcome(parse, text) == _outcome(reference, text)


MOVES = "moves 3\n0 1 2\n2 3 1\n"
INTERVALS_1 = "intervals 1\n0 1 4\n1 3 6\ntokens 1: 0\ntokens 1: 1\n"


@pytest.mark.parametrize(
    "text,expected,line_reader",
    [
        (P4_TREE + "\n", "ok", True),  # a blank line after the token lines
        (P4_TREE + "  \n", "ok", True),
        (P4_TREE + "\t", "ok", True),
        (P4_TREE + "tokens 2: 1 3\n", "line 7: unexpected trailing content", True),
        (P4_TREE.replace("tokens 2: 1", "  tokens 2: 1"), "ok", False),  # stripped as the line reader strips it
        (P4_TREE.replace("tokens 2: 1", "\ntokens 2: 1"), "ok", True),
        (P4_TREE[: P4_TREE.rindex("tokens")] + "\n", "line 5: expected two token lines", True),
        (P4_TREE[: P4_TREE.rindex("tokens")] + " \n", "line 5: expected two token lines", True),
        (TWO_INTERVALS.replace("intervals 2", "intervals 3"), "line 4: expected integers, got 'tokens 1: 0'", True),
        (INTERVALS_1, "line 3: expected a token line, got '1 3 6'", True),
        ("tree 1\n\ntokens 1: 5\ntokens 1: 0\n", "line 3: token vertex 5 out of range for 1 vertices", True),
        ("graph 2\n\ntokens 1: 1\ntokens 1: 0\n", "ok", True),  # a blank line where the block would be
        ("", "line 1: empty instance", True),
        ("\n", "line 1: empty instance", True),
        (MOVES + "\n", "ok", True),
        ("moves 0\n\n", "ok", True),
        ("", "line 1: empty move file", True),
        ("\n", "line 1: empty move file", True),
    ],
)
def test_where_normal_form_reading_stops(text, expected, line_reader):
    """Texts that pass the whole-text test of normal form, or nearly: the
    same value or error text as the line-by-line reference, the line reader
    run exactly when the text is not in normal form, and a valid text's
    structure built once."""
    moves = text.startswith("moves") or "move file" in expected
    parse, reference = (parse_moves, reference_parse_moves) if moves else (parse_instance, reference_parse_instance)
    builders = ("peel_tree", "_graph_from", "intersection_graph", "_moves_from")
    with contextlib.ExitStack() as stack:
        lines = stack.enter_context(mock.patch.object(instances, "_content_lines", wraps=instances._content_lines))
        built = [stack.enter_context(mock.patch.object(instances, b, wraps=getattr(instances, b))) for b in builders]
        outcome = _outcome(parse, text)
    assert outcome == _outcome(reference, text)
    assert outcome[0] == "ok" if expected == "ok" else outcome == ("ParseError", expected)
    assert lines.called == line_reader
    if expected == "ok":
        # a tree goes through _graph_from and peel_tree, once each
        assert max(b.call_count for b in built) == 1
