import gc
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tokenslide import (
    FeasibilityError,
    Graph,
    InputError,
    IntervalRepresentation,
    InvariantError,
    Relation,
    SizeMismatchError,
    TokenMultiset,
    brute_force_matching,
    check_shortest_path_structure,
    classify_relation,
    distances_from,
    dominating_predicate,
    fast_match_intervals,
    find_greedy_move,
    fix_matching,
    intersection_graph,
    matching_cost,
    min_cost_matching,
    normalize_representation,
    reconf_interval,
    reconf_tree_dominating,
    reconfig_distance_bfs,
    verify_sequence,
)
from tokenslide import graphs, intervals, matching
from tokenslide.generators import gen_bench_interval_instance, random_interval_representation
from tokenslide.graphs import Coverage, Distances, RootedTree, closed_neighborhoods
from tokenslide.cli import main
from tokenslide.instances import Instance, emit_instance, emit_moves, parse_instance
from tokenslide.intervals import _ChainDistances, _verify_normalization

from helpers import bfs_path, bfs_sources, harvest_interval_stalls, iter_interval_instances

P4 = IntervalRepresentation([(1, 4), (3, 6), (5, 8), (7, 10)])
TRIANGLE = IntervalRepresentation([(1, 4), (2, 5), (3, 6)])


class TestNormalizeRepresentation:
    def test_touching_closed_intervals_stay_adjacent(self):
        rep = normalize_representation([(1, 5), (5, 9)])
        assert rep.intervals == ((1, 3), (2, 4))
        assert rep.intersects(0, 1)

    def test_rank_compression_preserves_order(self):
        rep = normalize_representation([(1, 4), (3, 6)])
        assert rep.intervals == ((1, 3), (2, 4))

    def test_point_interval(self):
        rep = normalize_representation([(5, 5)])
        assert rep.intervals == ((1, 2),)

    def test_reversed_interval_rejected(self):
        with pytest.raises(InputError):
            normalize_representation([(4, 2)])

    def test_random_representations_keep_the_intersection_graph(self):
        rng = random.Random(88)
        for _ in range(80):
            n = rng.randrange(1, 12)
            raw = []
            for _ in range(n):
                lo = rng.randrange(0, 14)
                raw.append((lo, lo + rng.randrange(0, 7)))
            rep = normalize_representation(raw)
            for u in range(n):
                for v in range(u + 1, n):
                    raw_overlap = raw[u][0] <= raw[v][1] and raw[v][0] <= raw[u][1]
                    assert rep.intersects(u, v) == raw_overlap

    @pytest.mark.parametrize("pads", [0, 600])
    def test_swapped_ranks_with_equal_degrees_rejected(self, pads):
        # vertices 0 and 2 both have one neighbour, so swapping their ranks
        # keeps every degree but changes the adjacency
        raw = [(0, 1), (1, 2), (10, 11), (11, 12)]
        raw += [(20 + 3 * i, 21 + 3 * i) for i in range(pads)]
        ranked = list(normalize_representation(raw).intervals)
        ranked[0], ranked[2] = ranked[2], ranked[0]
        with pytest.raises(InvariantError):
            _verify_normalization(raw, IntervalRepresentation(ranked))


class TestFurthestReach:
    @settings(max_examples=200)
    @given(
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.sampled_from([None, 0.3, 1.0, 3.0, 8.0]),
    )
    def test_is_the_closed_neighbour_reaching_furthest_right(self, n, seed, connected, spread):
        rep = random_interval_representation(n, random.Random(seed), connected, spread)
        g = intersection_graph(rep)
        expected = [max((v, *g.neighbors(v)), key=rep.right) for v in range(n)]
        # the same order of endpoints far outside a machine integer
        huge = IntervalRepresentation(
            (lo * 10**20 - 10**21, hi * 10**20 - 10**21) for lo, hi in rep.intervals
        )
        assert intersection_graph(huge) == g
        for r in (rep, huge):
            reach = r.furthest_reach()
            assert list(reach) == expected
            assert r.furthest_reach() is reach


class TestEndpoints:
    @settings(max_examples=100)
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.booleans())
    def test_right_then_left_end_per_vertex(self, n, seed, connected):
        rep = random_interval_representation(n, random.Random(seed), connected)
        # the same order of endpoints far outside a 64-bit integer
        huge = IntervalRepresentation(
            (lo * 10**20 - 10**21, hi * 10**20 - 10**21) for lo, hi in rep.intervals
        )
        for r in (rep, huge):
            ends = r.endpoints()
            assert list(ends) == [x for lo, hi in r.intervals for x in (hi, lo)]
            assert r.endpoints() is ends
        # the sweep matcher reads only the order of the ends
        rng = random.Random(seed)
        a = TokenMultiset(rng.randrange(n) for _ in range(n))
        b = TokenMultiset(rng.randrange(n) for _ in range(n))
        assert fast_match_intervals(huge, a, b) == fast_match_intervals(rep, a, b)


@st.composite
def interval_layouts(draw):
    """Raw closed intervals: placed anywhere (nested, crossing, disjoint), or
    laid left to right, where a step shorter than the last interval makes
    them overlap, path-like, and a longer one leaves a gap between
    components."""
    n = draw(st.integers(1, 30))
    if draw(st.booleans()):
        lefts = draw(st.lists(st.integers(0, 4 * n), min_size=n, max_size=n))
        lengths = draw(st.lists(st.integers(0, 4 * n), min_size=n, max_size=n))
        return [(lo, lo + length) for lo, length in zip(lefts, lengths)]
    raw, x = [], 0
    for _ in range(n):
        length = draw(st.integers(1, 6))
        raw.append((x, x + length))
        x += draw(st.integers(1, length + 3))
    return raw


@st.composite
def token_pairs(draw):
    """A layout and two token lists of one length, drawn from a few
    vertices so that tokens share vertices."""
    raw = draw(interval_layouts())
    vertices = st.sampled_from(draw(st.lists(st.integers(0, len(raw) - 1), min_size=1, max_size=4)))
    k = draw(st.integers(1, 8))
    size = st.lists(vertices, min_size=k, max_size=k)
    return raw, draw(size), draw(size)


def _lone_sets(closed, counts, v):
    """The sets of N[v] that only v's token hits, none if v holds two: the
    sets ``fix_matching`` asks N[y] to hold for a slide v -> y."""
    held = counts.__contains__
    return set() if counts[v] > 1 else {s for s in closed[v] if sum(map(held, closed[s])) == 1}


@settings(max_examples=300, derandomize=True, deadline=None)
@given(token_pairs())
def test_the_lone_sets_decide_a_slide_as_the_full_tracker(case):
    """``fix_matching``'s slide test, N[w] holding every set that
    ``_lone_sets(closed, counts, u)`` returns, answers ``can_slide(u, w)``
    as the full tracker does, for w = u and every neighbour w of u, whether
    u holds one token or a stack, and whether w is occupied or not."""
    raw, left, _ = case
    g = intersection_graph(normalize_representation(raw))
    closed = closed_neighborhoods(g)
    tokens = TokenMultiset(left)
    full = Coverage(closed, g.n, tokens)
    for u in tokens.support:
        lone = _lone_sets(closed, tokens._counts, u)
        for w in (u, *g.neighbors(u)):
            assert closed[w].issuperset(lone) == full.can_slide(u, w)
    assert tokens == TokenMultiset(left)


class TestChainRows:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(interval_layouts())
    def test_pair_queries_are_the_bfs_distances(self, raw):
        rep = normalize_representation(raw)
        g = intersection_graph(rep)
        table, chains = Distances(g), g._chains
        rows = [distances_from(g, s) for s in range(rep.n)]
        with bfs_sources() as sources:
            for s, bfs in enumerate(rows):
                row = table[s]
                assert [row[v] for v in range(rep.n)] == bfs
                assert [chains.distance(s, v) for v in range(rep.n)] == bfs
        assert sources == []  # every read was a chain query

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(token_pairs())
    @example(([(0, 1), (2, 3), (3, 5), (7, 9)], [0, 0, 1, 3], [2, 3, 3, 0]))  # unreachable pairs
    def test_chain_priced_matrix_is_the_bfs_priced_matrix(self, case):
        """The exact matcher hands scipy the same float64 matrix on an
        interval graph as on the same edges given as a plain graph, token by
        token; small blocks make the pricing run over several."""
        raw, left, right = case
        rep = normalize_representation(raw)
        g = intersection_graph(rep)
        plain = Graph(rep.n, g.edges())
        a, b = TokenMultiset(left), TokenMultiset(right)
        kernel = matching._assignment_kernel()
        priced = []

        def recording(cost):
            priced.append(cost.copy())
            return kernel(cost)

        with mock.patch.object(matching, "_linear_sum_assignment", recording):
            with mock.patch.object(intervals, "_BLOCK", 3):
                with bfs_sources() as sources:
                    by_graph = min_cost_matching(g, a, b)
                assert by_graph == min_cost_matching(plain, a, b)
        by_chain, by_bfs = priced
        assert by_chain.dtype == by_bfs.dtype == np.float64
        assert np.array_equal(by_chain, by_bfs)
        assert sources == []

    def test_interval_paths_build_no_bfs_row_and_graph_files_do(self):
        inst = parse_instance(emit_instance(gen_bench_interval_instance(60, 5)))
        rep, g = inst.rep, inst.graph
        s_rep, _, s_start, s_target, s_matching = harvest_interval_stalls(max_states=6)[0]
        stall = Instance("intervals", intersection_graph(s_rep), s_rep, s_start, s_target)
        stuck = parse_instance(emit_instance(stall))
        as_graph = parse_instance(emit_instance(Instance("graph", g, None, inst.d_s, inst.d_t)))
        # from the interval ending first to the one ending last: 11 hops
        path = bfs_path(g, min(range(rep.n), key=rep.right), max(range(rep.n), key=rep.right))

        def no_bfs(graph, s):
            raise AssertionError(f"BFS row from {s}")

        with mock.patch.object(graphs, "distances_from", no_bfs):
            seq = reconf_interval(rep, inst.d_s, inst.d_t)
            m, cost = min_cost_matching(g, inst.d_s, inst.d_t)
            assert seq.total_length == cost == matching_cost(g, m)
            fix_matching(stuck.rep, stuck.graph, stuck.d_s, stuck.d_t, s_matching)
            assert len(path) == 12 and check_shortest_path_structure(rep, path)
            with pytest.raises(AssertionError, match="^BFS row from"):
                matching_cost(as_graph.graph, m)


class TestRepresentationValidation:
    def test_coincident_endpoints_rejected(self):
        with pytest.raises(InputError):
            IntervalRepresentation([(1, 4), (4, 6)])

    def test_degenerate_interval_rejected(self):
        with pytest.raises(InputError):
            IntervalRepresentation([(3, 3)])


class TestClassifyRelation:
    def test_disjoint(self):
        rep = IntervalRepresentation([(1, 4), (5, 8)])
        assert classify_relation(rep, 0, 1) is Relation.LEFT_OF

    def test_nested(self):
        rep = IntervalRepresentation([(3, 6), (1, 10)])
        assert classify_relation(rep, 0, 1) is Relation.NESTED_IN

    def test_overlap(self):
        rep = IntervalRepresentation([(1, 4), (3, 6)])
        assert classify_relation(rep, 0, 1) is Relation.LEFT_INTERSECTS

    def test_same_vertex_rejected(self):
        with pytest.raises(InputError):
            classify_relation(P4, 1, 1)

    @pytest.mark.parametrize("u, v, named", [(0, -1, -1), (0, 4, 4), (-1, 4, -1), (4, 4, 4)])
    def test_ids_outside_the_representation_rejected(self, u, v, named):
        # -1 would wrap to vertex n - 1, and n would raise IndexError
        with pytest.raises(InputError, match=f"^vertex {named} out of range$"):
            classify_relation(P4, u, v)

    @settings(max_examples=200)
    @given(st.data())
    def test_exactly_one_relation_holds_and_mirrors(self, data):
        n = data.draw(st.integers(2, 9))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rep = random_interval_representation(n, random.Random(seed), connected=False)
        u = data.draw(st.integers(0, n - 1))
        v = data.draw(st.integers(0, n - 1))
        if u == v:
            return
        rel = classify_relation(rep, u, v)
        assert classify_relation(rep, v, u) is rel.mirror
        overlap = rep.intersects(u, v)
        assert (rel in (Relation.LEFT_OF, Relation.RIGHT_OF)) == (not overlap)


class TestIntersectionGraph:
    def test_path(self):
        assert intersection_graph(P4) == Graph(4, [(0, 1), (1, 2), (2, 3)])

    def test_triangle(self):
        assert intersection_graph(TRIANGLE) == Graph(3, [(0, 1), (1, 2), (0, 2)])

    def test_isolated_vertices(self):
        rep = IntervalRepresentation([(1, 2), (3, 4)])
        assert intersection_graph(rep) == Graph(2, [])

    def test_built_once_per_representation(self):
        rep = IntervalRepresentation([(1, 4), (3, 6), (5, 8)])
        assert intersection_graph(rep) is intersection_graph(rep)

    def test_parsed_instance_holds_the_graph_the_solver_reads(self):
        inst = parse_instance("intervals 2\n0 1 4\n1 3 6\ntokens 1: 0\ntokens 1: 1\n")
        assert inst.graph is intersection_graph(inst.rep)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(interval_layouts(), st.randoms(use_true_random=False))
    @example([(0, 1)], random.Random(0))  # one vertex
    @example([(5, 6), (0, 1), (2, 3), (9, 10), (3, 4)], random.Random(0))  # isolated vertices
    def test_chain_built_graph_equals_the_checked_build(self, raw, rng):
        """The rows built from the greedy chain are the rows that
        ``Graph(n, edges)`` builds from every intersecting pair, and the
        lazy N[v] table reads like the eager one, in any order."""
        rep = normalize_representation(rng.sample(raw, len(raw)))  # ids out of left-end order
        n = rep.n
        g = intersection_graph(rep)
        plain = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rep.intersects(u, v)])
        assert g.adjacency == plain.adjacency
        assert g.edge_count == plain.edge_count
        assert g.edges() == plain.edges()
        assert g == plain and hash(g) == hash(plain)
        eager = [frozenset({v, *plain.neighbors(v)}) for v in range(n)]
        table = closed_neighborhoods(g)
        assert len(table) == n
        for v in rng.sample(range(n), n):
            assert table[v] == eager[v]
        assert list(table) == eager

    def test_matches_pairwise_relations_on_random_instances(self):
        rng = random.Random(17)
        shapes = [(False, None)] + [(True, s) for s in (None, 0.3, 1.0, 3.0, 8.0)]
        for connected, spread in shapes:
            for _ in range(40):
                n = rng.randrange(1, 15)
                rep = random_interval_representation(n, rng, connected, spread)
                g = intersection_graph(rep)
                for u in range(n):
                    for v in range(u + 1, n):
                        assert g.has_edge(u, v) == rep.intersects(u, v)


class TestShortestPathStructure:
    def test_p4_path(self):
        assert check_shortest_path_structure(P4, [0, 1, 2, 3])

    def test_two_vertex_path_vacuous(self):
        assert check_shortest_path_structure(P4, [0, 1])

    def test_wrong_orientation_rejected(self):
        with pytest.raises(InputError):
            check_shortest_path_structure(P4, [3, 2, 1, 0])

    @pytest.mark.parametrize("path, named", [([0, 1, 4], 4), ([-1, 0], -1), ([5, 1, -1], -1)])
    def test_ids_outside_the_representation_rejected(self, path, named):
        with pytest.raises(InputError, match=f"^path vertex {named} out of range$"):
            check_shortest_path_structure(P4, path)

    def test_non_shortest_path_rejected(self):
        rep = IntervalRepresentation([(1, 4), (3, 6), (2, 7)])
        with pytest.raises(InputError):
            check_shortest_path_structure(rep, [0, 1, 2])  # 0 and 2 are adjacent

    def test_start_nested_in_its_successor_is_allowed(self):
        rep = IntervalRepresentation([(10, 11), (9, 20), (19, 30), (29, 40)])
        assert classify_relation(rep, 1, 0) is Relation.CONTAINS
        assert check_shortest_path_structure(rep, [0, 1, 2, 3])

    def test_random_shortest_paths_pass(self):
        rng = random.Random(99)
        checked = 0
        while checked < 120:
            r = random.Random(rng.randrange(10**9))
            n = r.randrange(5, 14)
            rep = random_interval_representation(n, r, connected=True)
            g = intersection_graph(rep)
            u, v = r.sample(range(n), 2)
            if distances_from(g, u)[v] < 2:
                continue
            path = bfs_path(g, u, v)
            if rep.right(path[0]) > rep.right(path[-1]):
                path = path[::-1]
            assert check_shortest_path_structure(rep, path)
            checked += 1


class TestReconfIntervalExamples:
    def test_equal_inputs(self):
        tokens = TokenMultiset([0, 2])
        assert reconf_interval(P4, tokens, tokens).moves == ()

    def test_p4_cross(self):
        d_s, d_t = TokenMultiset([0, 2]), TokenMultiset([1, 3])
        seq = reconf_interval(P4, d_s, d_t)
        assert seq.total_length == 2
        g = intersection_graph(P4)
        ok, final, _ = verify_sequence(g, dominating_predicate(g), d_s, seq)
        assert ok and final == d_t

    def test_triangle_single_slide(self):
        seq = reconf_interval(TRIANGLE, TokenMultiset([0]), TokenMultiset([2]))
        assert seq.moves == ((0, 2, 1),)

    def test_disconnected_but_reachable(self):
        rep = IntervalRepresentation([(1, 4), (2, 5), (7, 9), (8, 10)])
        seq = reconf_interval(rep, TokenMultiset([0, 2]), TokenMultiset([1, 3]))
        assert seq is not None and seq.total_length == 2

    def test_unreachable_across_components(self):
        # the surplus token would have to cross between components
        rep = IntervalRepresentation([(1, 4), (2, 5), (7, 9), (8, 10)])
        a = TokenMultiset([0, 2, 2])
        b = TokenMultiset([0, 0, 2])
        assert reconf_interval(rep, a, b) is None

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            reconf_interval(P4, TokenMultiset([0, 2]), TokenMultiset([1]))

    def test_non_dominating_rejected(self):
        with pytest.raises(FeasibilityError):
            reconf_interval(P4, TokenMultiset([0]), TokenMultiset([3]))

    def test_start_is_checked_before_target(self):
        # the target's vertex 7 is outside P4, but the start fails first
        with pytest.raises(FeasibilityError, match="^start configuration is not dominating$"):
            reconf_interval(P4, TokenMultiset([0]), TokenMultiset([7]))
        with pytest.raises(FeasibilityError, match="^target configuration is not dominating$"):
            reconf_interval(P4, TokenMultiset([0, 2]), TokenMultiset([0, 1]))
        with pytest.raises(InputError, match="^token on vertex 7 outside the graph$"):
            reconf_interval(P4, TokenMultiset([0, 2]), TokenMultiset([0, 7]))

    @pytest.mark.parametrize("tokens, named", [([9, 5], 5), ([-1, 100], -1)])
    def test_both_solvers_name_the_lowest_vertex_outside_the_graph(self, tokens, named):
        path4 = RootedTree(Graph(4, [(0, 1), (1, 2), (2, 3)]))
        start, target = TokenMultiset(tokens), TokenMultiset([1, 2])
        message = f"^token on vertex {named} outside the graph$"
        with pytest.raises(InputError, match=message):
            reconf_tree_dominating(path4, start, target)
        with pytest.raises(InputError, match=message):
            reconf_interval(P4, start, target)


def test_target_side_slide(tmp_path, capsys):
    """The solver's first move slides a target token (3 -> 4 toward 7), which
    is emitted reversed at the end; about 1 in 2 * 10**5 random instances has one."""
    rep = IntervalRepresentation(
        [(1, 4), (2, 6), (3, 7), (5, 10), (8, 14), (9, 12), (11, 16), (13, 20), (15, 19), (17, 18)]
    )
    d_s, d_t = TokenMultiset([1, 6, 7]), TokenMultiset([1, 3, 8])
    fixes = []
    seq = reconf_interval(rep, d_s, d_t, on_fix=lambda a, b, m: fixes.append(m))
    assert seq.moves == ((6, 4, 1), (7, 8, 1), (4, 3, 1))
    assert len(fixes) == 1
    g = intersection_graph(rep)
    assert reconfig_distance_bfs(g, dominating_predicate(g), d_s, d_t) == 3
    assert min_cost_matching(g, d_s, d_t)[1] == 3
    f, mf = tmp_path / "iv.txt", tmp_path / "moves.txt"
    f.write_text(emit_instance(Instance("intervals", g, rep, d_s, d_t)))
    mf.write_text(emit_moves(list(seq.moves), seq.total_length))
    assert main(["verify", str(f), str(mf), "--optimal"]) == 0
    assert capsys.readouterr().out == "valid optimal (3 moves)\n"


class TestReconfIntervalOptimality:
    def test_matches_oracle_and_matching_bound(self):
        for inst in iter_interval_instances(100, base_seed=31):
            fixes = []
            seq = reconf_interval(
                inst.rep, inst.d_s, inst.d_t, on_fix=lambda a, b, m: fixes.append((a, b, m))
            )
            assert seq is not None
            pred = dominating_predicate(inst.graph)
            ok, final, failure = verify_sequence(inst.graph, pred, inst.d_s, seq)
            assert ok and final == inst.d_t, failure
            d = reconfig_distance_bfs(inst.graph, pred, inst.d_s, inst.d_t)
            _, c = min_cost_matching(inst.graph, inst.d_s, inst.d_t)
            assert seq.total_length == d == c
            for a, b, m in fixes:
                assert matching_cost(inst.graph, m) == brute_force_matching(inst.graph, a, b)


class TestFixMatching:
    def test_repairs_every_harvested_stall(self):
        stalls = harvest_interval_stalls(max_states=6)
        assert stalls, "stall search found nothing; repair path would go untested"
        for rep, g, d_s, d_t, m in stalls:
            assert find_greedy_move(g, d_s, d_t, m) is None
            repaired = fix_matching(rep, g, d_s, d_t, m)
            repaired.validate_between(d_s, d_t)
            cost = matching_cost(g, repaired)
            assert cost == matching_cost(g, m)
            assert cost == brute_force_matching(g, d_s, d_t)
            assert find_greedy_move(g, d_s, d_t, repaired) is not None

    def test_transposed_instance_gives_transposed_repair(self):
        stalls = harvest_interval_stalls(max_states=6)[:4]  # the cached search's first four
        for rep, g, d_s, d_t, m in stalls:
            direct = fix_matching(rep, g, d_s, d_t, m)
            transposed = fix_matching(rep, g, d_t, d_s, m.inverse())
            assert transposed == direct.inverse()

    def test_equal_configurations_rejected(self):
        tokens = TokenMultiset([0, 2])
        m, _ = min_cost_matching(intersection_graph(P4), tokens, tokens)
        with pytest.raises(InputError):
            fix_matching(P4, intersection_graph(P4), tokens, tokens, m)

    def test_size_mismatch_is_invalid_input(self):
        # before the marginal check, which would report an internal MatchingError
        m = matching.Matching({(0, 1): 1, (2, 3): 1})
        with pytest.raises(SizeMismatchError, match="^token multisets differ in size: 2 vs 3$"):
            fix_matching(P4, intersection_graph(P4), TokenMultiset([0, 2]), TokenMultiset([1, 3, 3]), m)


def test_solving_and_repairing_leave_no_reference_cycle():
    """The graph keeps its chain tables but nothing pointing back at it or
    at the representation, so everything a solve builds is freed by
    reference counting alone; no BFS row is built."""
    rep, _, d_s, d_t, m = harvest_interval_stalls(max_states=6)[0]
    text = emit_instance(Instance("intervals", intersection_graph(rep), rep, d_s, d_t))

    def solve_and_repair():
        inst = parse_instance(text)
        reconf_interval(inst.rep, inst.d_s, inst.d_t)
        min_cost_matching(inst.graph, inst.d_s, inst.d_t)
        fix_matching(inst.rep, inst.graph, inst.d_s, inst.d_t, m)
        assert isinstance(inst.graph._chains, _ChainDistances)

    with bfs_sources() as sources:
        solve_and_repair()  # numpy and scipy are imported outside the measured run
    assert sources == []
    gc.collect()
    gc.disable()
    try:
        solve_and_repair()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_exact_matcher_memory_grows_with_k_squared_not_k_n():
    """The matcher prices its k x k matrix a block at a time and keeps no
    n-long row: its peak is a small multiple of the 8 k^2 bytes of the
    float64 matrix, where one n-long row per target took 8 k n bytes.  On
    an interval graph (k = 476, n = 5 000; 1.8 MB) the blocks are chain
    queries and no BFS row is built; on a caterpillar tree file (k = 400,
    n = 6 300; 1.3 MB) each distinct target's BFS row is built once and
    dropped after its column is read."""
    tokens = TokenMultiset([0, 2])
    min_cost_matching(intersection_graph(P4), tokens, tokens)  # numpy and scipy load outside the measurement
    rng = random.Random(26)
    spine = 3150
    edges = [(i, i + 1) for i in range(spine - 1)] + [(v, rng.randrange(spine)) for v in range(spine, 2 * spine)]
    ends = rng.sample(range(2 * spine), 800)
    caterpillar = Instance("tree", Graph(2 * spine, edges), None, TokenMultiset(ends[:400]), TokenMultiset(ends[400:]))
    tree = parse_instance(emit_instance(caterpillar))
    tree.graph.adjacency  # the tree file's graph builds its adjacency on first read, outside the measurement
    cases = [(gen_bench_interval_instance(5000, 81), 476, []), (tree, 400, sorted(ends[400:]))]
    for inst, k, rows in cases:
        with bfs_sources() as sources:
            tracemalloc.start()
            try:
                min_cost_matching(inst.graph, inst.d_s, inst.d_t)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert inst.d_s.total == k
        assert peak < 3 * 8 * k * k
        assert sources == rows


def test_path_shaped_interval_graph_roots_like_the_same_edges():
    """Rooting an interval graph runs one BFS, from the root, and
    shortest-path steps read its query rows; both agree with a plain graph
    of the same edges."""
    perm = random.Random(3).sample(range(12), 12)
    # interval i meets i - 1 and i + 1 only: a path, in shuffled ids
    spans = [(2 * i, 2 * i + 3) for i in range(12)]
    rep = IntervalRepresentation(spans[perm.index(v)] for v in range(12))
    g = intersection_graph(rep)
    plain = Graph(rep.n, g.edges())
    roots = (0, perm[5], perm[11])
    pairs = ((perm[3], perm[9]), (perm[9], perm[3]), (perm[4], perm[4]))
    with bfs_sources() as sources:
        trees = [RootedTree(g, root) for root in roots]
        steps = [graphs.succ_set(g, u, v) for u, v in pairs]
    assert sources == list(roots)
    for tree, root in zip(trees, roots):
        expected = RootedTree(plain, root)
        assert (tree.parent, tree.depth, tree.order) == (expected.parent, expected.depth, expected.order)
        assert isinstance(tree.depth, list)
    assert steps == [graphs.succ_set(plain, u, v) for u, v in pairs]
