import random
import subprocess
import sys
import textwrap
from collections import Counter
from operator import itemgetter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenslide import (
    Graph,
    InputError,
    IntervalRepresentation,
    UNREACHABLE,
    Matching,
    MatchingError,
    SizeMismatchError,
    TokenMultiset,
    brute_force_matching,
    distances_from,
    fast_match_intervals,
    intersection_graph,
    matching_cost,
    min_cost_matching,
    normalize_matching,
    rematch_after_slide,
    succ_set,
)
from tokenslide import matching
from tokenslide.generators import (
    random_connected_graph,
    random_interval_representation,
    random_token_multiset,
    random_tree,
)
from tokenslide.graphs import Distances

from helpers import bfs_sources, child_env


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


P4_INTERVALS = [(1, 4), (3, 6), (5, 8), (7, 10)]


class TestMatchingType:
    def test_marginal_validation(self):
        m = Matching({(0, 1): 1, (2, 3): 1})
        m.validate_between(TokenMultiset([0, 2]), TokenMultiset([1, 3]))
        with pytest.raises(MatchingError):
            m.validate_between(TokenMultiset([0, 1]), TokenMultiset([1, 3]))

    def test_wrong_source_marginal(self):
        m = Matching({(0, 1): 2, (2, 3): 1})
        m.validate_between(TokenMultiset({0: 2, 2: 1}), TokenMultiset({1: 2, 3: 1}))
        for wrong in ({0: 1, 2: 2}, {0: 2, 2: 1, 4: 1}, {0: 2}):
            with pytest.raises(MatchingError, match="source marginals"):
                m.validate_between(TokenMultiset(wrong), TokenMultiset({1: 2, 3: 1}))

    def test_wrong_target_marginal(self):
        m = Matching({(0, 1): 2, (2, 3): 1})
        for wrong in ({1: 1, 3: 2}, {1: 2, 3: 1, 5: 1}, {1: 3}):
            with pytest.raises(MatchingError, match="target marginals"):
                m.validate_between(TokenMultiset({0: 2, 2: 1}), TokenMultiset(wrong))

    def test_inverse_swaps_sides(self):
        m = Matching({(0, 1): 2, (3, 3): 1})
        assert m.inverse() == Matching({(1, 0): 2, (3, 3): 1})
        assert m.inverse().inverse() == m

    def test_zero_multiplicities_dropped(self):
        assert Matching({(0, 1): 0}).items() == []

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(MatchingError):
            Matching({(0, 1): -1})


class TestMatchingCost:
    def test_self_pair_costs_nothing(self):
        assert matching_cost(path(4), Matching({(0, 0): 1})) == 0

    def test_path_distance(self):
        assert matching_cost(path(4), Matching({(0, 3): 1})) == 3

    def test_multiplicity_scales_cost(self):
        assert matching_cost(Graph(2, [(0, 1)]), Matching({(0, 1): 2})) == 2

    def test_cross_component_pair_is_unreachable(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert matching_cost(g, Matching({(0, 2): 1})) is None

    @pytest.mark.parametrize("pair", [(-1, 0), (0, -1), (9, 0), (0, 4)])
    def test_pair_outside_the_graph_is_invalid_input(self, pair):
        message = rf"^pair \({pair[0]}, {pair[1]}\) has a vertex outside the graph$"
        with pytest.raises(InputError, match=message):
            matching_cost(path(4), Matching({pair: 1}))


@pytest.mark.parametrize("solver", [min_cost_matching, brute_force_matching])
@pytest.mark.parametrize(
    "a, b, named", [([-1], [0], -1), ([9], [0], 9), ([0], [9], 9), ([5, 1], [0, -2], -2)]
)
def test_exact_matchers_reject_tokens_outside_the_graph(solver, a, b, named):
    with pytest.raises(InputError, match=f"^token on vertex {named} outside the graph$"):
        solver(path(4), TokenMultiset(a), TokenMultiset(b))


class TestMinCostMatching:
    def test_identity(self):
        m, c = min_cost_matching(path(1), TokenMultiset([0]), TokenMultiset([0]))
        assert c == 0 and m == Matching({(0, 0): 1})

    def test_p4_cross(self):
        m, c = min_cost_matching(path(4), TokenMultiset([0, 2]), TokenMultiset([1, 3]))
        assert c == 2
        m.validate_between(TokenMultiset([0, 2]), TokenMultiset([1, 3]))

    def test_forced_double_pairing(self):
        _, c = min_cost_matching(Graph(2, [(0, 1)]), TokenMultiset({0: 2}), TokenMultiset({1: 2}))
        assert c == 2

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            min_cost_matching(path(2), TokenMultiset([0]), TokenMultiset([0, 1]))

    def test_unreachable_returns_none(self):
        g = Graph(4, [(0, 1), (2, 3)])
        m, c = min_cost_matching(g, TokenMultiset([0]), TokenMultiset([2]))
        assert m is None and c is None

    def test_empty_multisets(self):
        m, c = min_cost_matching(path(2), TokenMultiset(), TokenMultiset())
        assert c == 0 and m.total == 0

    def test_agrees_with_brute_force_on_random_graphs(self):
        rng = random.Random(12345)
        for _ in range(500):
            n = rng.randrange(2, 11)
            g = random_connected_graph(n, rng)
            k = rng.randrange(1, 6)
            a = random_token_multiset(n, k, rng)
            b = random_token_multiset(n, k, rng)
            m, c = min_cost_matching(g, a, b)
            assert c == brute_force_matching(g, a, b)
            m.validate_between(a, b)
            assert matching_cost(g, m) == c


def _expanded_column_matching(g, a, b):
    """The expanded-column fill, the reference for the block pricing: one
    BFS row per distinct target, kept for the whole fill, and one matrix
    column per target token.  Returns the matrix and (matching, cost)."""
    if a.total == 0:
        return None, (Matching(), 0)
    left, right = matching._expand(a), matching._expand(b)
    k = len(left)
    big = k * max(g.n, 1) + 1
    cost = np.empty((k, k), dtype=np.float64)
    rows = {v: distances_from(g, v) for v in set(right)}
    column = itemgetter(*left)
    for j, v in enumerate(right):
        cost[:, j] = column(rows[v])
    cost[cost == UNREACHABLE] = big
    pairs = Counter()
    total = 0
    for i, j in zip(*matching._assignment_kernel()(cost)):
        if cost[i, j] == big:
            return cost, (None, None)
        total += int(cost[i, j])
        pairs[(left[i], right[j])] += 1
    return cost, (Matching(pairs), total)


def _seeded_graph(kind, n, rng):
    if kind == "tree":
        return random_tree(n, rng)
    if kind == "connected":
        return random_connected_graph(n, rng)
    if kind == "disconnected":
        return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 1.5 / n])
    return intersection_graph(random_interval_representation(n, rng, connected=rng.random() < 0.5))


def _seeded_tokens(case, n, rng):
    """k = 0, k = 1, one distinct source, one distinct target, then random
    multisets drawn from a few vertices, so that most carry multiplicities."""
    shape = case % 6
    k = 0 if shape == 0 else 1 if shape == 1 else rng.randint(2, 12)
    pool = rng.sample(range(n), min(n, rng.randint(1, 6)))
    a = TokenMultiset([rng.choice(pool) for _ in range(k)])
    b = TokenMultiset([rng.randrange(n) for _ in range(k)])
    if shape == 2:
        a = TokenMultiset({rng.randrange(n): k})
    elif shape == 3:
        b = TokenMultiset({rng.randrange(n): k})
    return a, b


@pytest.mark.parametrize("kind", ["tree", "connected", "disconnected", "interval"])
def test_block_pricing_is_the_expanded_column_fill(kind):
    """On 500 seeded cases per kind of graph, the matcher hands the kernel
    the matrix of the expanded-column fill, entry for entry, and returns
    its matching and cost; pricing builds one BFS row per distinct target,
    none on an interval graph, and leaves its Distances table empty."""
    rng = random.Random(f"blocks-{kind}")
    kernel = matching._assignment_kernel()
    unreachable = 0
    for case in range(500):
        n = rng.randint(1, 30)
        g = _seeded_graph(kind, n, rng)
        a, b = _seeded_tokens(case, n, rng)
        priced = []

        def recording(cost):
            priced.append(cost.copy())
            return kernel(cost)

        with mock.patch.object(matching, "_linear_sum_assignment", recording), bfs_sources() as sources:
            got = min_cost_matching(g, a, b)
        expected_cost, expected = _expanded_column_matching(g, a, b)
        assert got == expected
        unreachable += got[1] is None
        if a.total:
            assert np.array_equal(priced[0], expected_cost)
        assert sources == ([] if kind == "interval" or not a.total else sorted(b.support))
        table = Distances(g)
        if a.total:
            list(table.blocks(sorted(a.support), sorted(b.support)))
        assert not table
    if kind == "disconnected":
        assert unreachable > 0


def _run_fresh(script):
    """Run script in a fresh interpreter, where no scipy module is loaded yet."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr[-600:]
    return proc.stdout


class TestAssignmentKernel:
    def test_direct_load_agrees_with_the_public_function(self):
        # tie-heavy matrices (entries 0-3 and the matcher's unreachable
        # sentinel) solved by the kernel loaded from its extension file, then
        # by scipy.optimize imported afterwards in the same process
        out = _run_fresh(
            """
            import random, sys
            import numpy as np
            from tokenslide.matching import _assignment_kernel

            kernel = _assignment_kernel()
            assert "scipy.optimize" not in sys.modules
            rng = random.Random(2024)
            cases = []
            for _ in range(3):
                for k in range(1, 41):
                    values = (0, 1, 2, 3, 4 * k + 1)
                    cost = np.array(
                        [[rng.choice(values) for _ in range(k)] for _ in range(k)], dtype=np.float64
                    )
                    rows, cols = kernel(cost)
                    cases.append((cost, rows.tolist(), cols.tolist()))
            from scipy.optimize import linear_sum_assignment

            for cost, rows, cols in cases:
                r, c = linear_sum_assignment(cost)
                assert (r.tolist(), c.tolist()) == (rows, cols), cost
            print(len(cases))
            """
        )
        assert out.split() == ["120"]

    @pytest.mark.parametrize("content", [None, b"not a shared object"])
    def test_unloadable_file_falls_back_to_the_public_import(self, content, tmp_path):
        # the same seeded instances, matched once through the extension file
        # and once through scipy.optimize with the file missing or broken
        lsap = tmp_path / "_lsap.so"
        if content is not None:
            lsap.write_bytes(content)
        out = _run_fresh(
            f"""
            import random, sys
            from tokenslide import Graph, matching
            from tokenslide.generators import random_connected_graph, random_token_multiset

            def matchings():
                rng = random.Random(7)
                out = []
                for _ in range(200):
                    n = rng.randrange(2, 25)
                    g = random_connected_graph(n, rng)
                    if rng.random() < 0.3:  # split off a component
                        cut = rng.randrange(1, n)
                        g = Graph(n, [(u, v) for u, v in g.edges() if (u < cut) == (v < cut)])
                    k = rng.randrange(1, 12)
                    a = random_token_multiset(n, k, rng)
                    b = random_token_multiset(n, k, rng)
                    out.append(matching.min_cost_matching(g, a, b))
                return out

            direct = matchings()
            assert "scipy.optimize" not in sys.modules
            matching._linear_sum_assignment = None
            del sys.modules["scipy.optimize._lsap"]
            matching._lsap_file = lambda: {str(lsap)!r}
            assert matchings() == direct
            assert "scipy.optimize" in sys.modules
            print(sum(c is None for _, c in direct), len(direct))
            """
        )
        unreachable, total = map(int, out.split())
        assert total == 200 and 0 < unreachable < total


class TestBruteForce:
    def test_identity(self):
        assert brute_force_matching(path(1), TokenMultiset([0]), TokenMultiset([0])) == 0

    def test_p4_cross(self):
        assert brute_force_matching(path(4), TokenMultiset([0, 2]), TokenMultiset([1, 3])) == 2

    def test_shared_support_identity(self):
        g = Graph(2, [(0, 1)])
        assert brute_force_matching(g, TokenMultiset([0, 1]), TokenMultiset([0, 1])) == 0

    def test_size_cap(self):
        big = TokenMultiset({0: 9})
        with pytest.raises(InputError):
            brute_force_matching(path(2), big, big)


class TestNormalize:
    def test_rewires_crossing_through_shared_vertex(self):
        g = path(3)
        a, b = TokenMultiset([0, 1]), TokenMultiset([1, 2])
        m = Matching({(0, 1): 1, (1, 2): 1})
        normalized = normalize_matching(g, m, a, b)
        assert normalized == Matching({(1, 1): 1, (0, 2): 1})
        assert matching_cost(g, normalized) == matching_cost(g, m) == 2

    def test_already_normalized_is_fixed_point(self):
        g = path(3)
        a, b = TokenMultiset([0, 1]), TokenMultiset([1, 2])
        m = Matching({(1, 1): 1, (0, 2): 1})
        assert normalize_matching(g, m, a, b) == m

    def test_equal_multisets_become_identity(self):
        g = path(4)
        a = TokenMultiset([0, 2])
        m, _ = min_cost_matching(g, a, a)
        assert normalize_matching(g, m, a, a) == Matching({(0, 0): 1, (2, 2): 1})

    def test_invalid_matching_rejected(self):
        g = path(3)
        with pytest.raises(MatchingError):
            normalize_matching(g, Matching({(0, 0): 1}), TokenMultiset([1]), TokenMultiset([1]))

    def test_random_instances_keep_cost_and_self_match_everything_shared(self):
        rng = random.Random(999)
        for _ in range(200):
            n = rng.randrange(2, 10)
            g = random_connected_graph(n, rng)
            k = rng.randrange(1, 6)
            a = random_token_multiset(n, k, rng)
            b = random_token_multiset(n, k, rng)
            m, c = min_cost_matching(g, a, b)
            normalized = normalize_matching(g, m, a, b)
            normalized.validate_between(a, b)
            assert matching_cost(g, normalized) == c
            inter = a.intersection(b)
            for v in range(n):
                assert normalized.multiplicity(v, v) == inter.count(v)


def _walk_every_shared_vertex(m, a, b):
    """normalize_matching's rewiring without its early return or partner
    index: every vertex of a ∩ b in increasing order, each swap of the
    lowest source x into v and the lowest target y out of v found by a
    scan of all the pairs."""
    m.validate_between(a, b)
    pairs = m.pairs
    for v in sorted(a.support & b.support):
        while pairs.get((v, v), 0) < min(a.count(v), b.count(v)):
            x = min(s for s, t in pairs if t == v and s != v)
            y = min(t for s, t in pairs if s == v and t != v)
            for old, new in (((x, v), (v, v)), ((v, y), (x, y))):
                pairs[old] -= 1
                if not pairs[old]:
                    del pairs[old]
                pairs[new] = pairs.get(new, 0) + 1
    return Matching(pairs)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(1, 9), st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_normalize_returns_what_the_full_walk_returns(n, k, seed):
    """On minimum, arbitrary and already normalised matchings of multisets
    that share vertices, the pairs that come back, through the early
    return or the walk, are those of the walk over every shared vertex."""
    rng = random.Random(seed)
    g = random_connected_graph(n, rng)
    a = random_token_multiset(n, k, rng)
    b = random_token_multiset(n, k, rng)
    left = [v for v, c in a.items() for _ in range(c)]
    right = [v for v, c in b.items() for _ in range(c)]
    rng.shuffle(right)
    arbitrary = Matching(Counter(zip(left, right)))
    minimum, _ = min_cost_matching(g, a, b)
    for m in (minimum, arbitrary, _walk_every_shared_vertex(arbitrary, a, b)):
        expected = _walk_every_shared_vertex(m, a, b)
        normalized = normalize_matching(g, m, a, b)
        assert normalized.pairs == expected.pairs
        assert normalize_matching(g, normalized, a, b).pairs == expected.pairs


class TestRematchAfterSlide:
    def test_adjacent_token_reaches_match(self):
        g = path(4)
        m = Matching({(0, 1): 1, (2, 3): 1})
        out = rematch_after_slide(g, m, 0, 1, 1)
        assert out == Matching({(1, 1): 1, (2, 3): 1})
        assert matching_cost(g, out) == 1

    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        assert rematch_after_slide(g, Matching({(0, 1): 1}), 0, 1, 1) == Matching({(1, 1): 1})

    def test_distance_drops_by_one(self):
        g = path(4)
        out = rematch_after_slide(g, Matching({(0, 3): 1}), 0, 1, 3)
        assert out == Matching({(1, 3): 1})
        assert matching_cost(g, out) == 2

    def test_missing_pair_rejected(self):
        with pytest.raises(MatchingError):
            rematch_after_slide(path(4), Matching({(0, 3): 1}), 1, 2, 3)

    def test_non_successor_rejected(self):
        with pytest.raises(MatchingError):
            rematch_after_slide(path(4), Matching({(1, 3): 1}), 1, 0, 3)

    def test_recomputed_minimum_drops_by_one_on_random_slides(self):
        rng = random.Random(31337)
        done = 0
        while done < 100:
            n = rng.randrange(2, 10)
            g = random_connected_graph(n, rng)
            k = rng.randrange(1, 5)
            a = random_token_multiset(n, k, rng)
            b = random_token_multiset(n, k, rng)
            m, c = min_cost_matching(g, a, b)
            moved = [(u, v) for (u, v), _ in m.items() if u != v]
            if not moved:
                continue
            u, v = moved[rng.randrange(len(moved))]
            succ = succ_set(g, u, v)
            u2 = succ[rng.randrange(len(succ))]
            out = rematch_after_slide(g, m, u, u2, v)
            assert matching_cost(g, out) == c - 1
            _, c2 = min_cost_matching(g, a.slide(u, u2), b)
            assert c2 == c - 1
            done += 1


class TestFastMatchIntervals:
    def rep(self):
        from tokenslide import IntervalRepresentation

        return IntervalRepresentation(P4_INTERVALS)

    def test_equal_multisets_fully_stripped(self):
        a = TokenMultiset([0, 2])
        m, c = fast_match_intervals(self.rep(), a, a)
        assert c == 0 and m == Matching({(0, 0): 1, (2, 2): 1})

    def test_p4_cross(self):
        m, c = fast_match_intervals(self.rep(), TokenMultiset([0, 2]), TokenMultiset([1, 3]))
        assert c == 2
        m.validate_between(TokenMultiset([0, 2]), TokenMultiset([1, 3]))

    def test_end_to_end_distance(self):
        m, c = fast_match_intervals(self.rep(), TokenMultiset([0]), TokenMultiset([3]))
        assert c == 3 and m == Matching({(0, 3): 1})

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            fast_match_intervals(self.rep(), TokenMultiset([0]), TokenMultiset([0, 1]))

    @pytest.mark.parametrize("a, b, named", [([9], [9], 9), ([0, 12], [0, 5], 5), ([3], [-1], -1)])
    def test_tokens_outside_the_representation_are_invalid_input(self, a, b, named):
        """Shared tokens too, and the lowest offender of either side."""
        message = f"^token on vertex {named} outside the representation$"
        with pytest.raises(InputError, match=message):
            fast_match_intervals(self.rep(), TokenMultiset(a), TokenMultiset(b))

    def test_disconnected_remainder_unreachable(self):
        from tokenslide import IntervalRepresentation

        rep = IntervalRepresentation([(1, 2), (3, 4)])
        m, c = fast_match_intervals(rep, TokenMultiset([0]), TokenMultiset([1]))
        assert m is None and c is None

    def test_matches_exact_solver_on_disjoint_supports(self):
        rng = random.Random(2026)
        done = 0
        trial = 0
        while done < 300:
            trial += 1
            r = random.Random(trial)
            n = r.randrange(2, 11)
            rep = random_interval_representation(n, r, connected=r.random() < 0.6)
            g = intersection_graph(rep)
            k = r.randrange(1, min(n, 5) + 1)
            if 2 * k > n:
                continue
            verts = list(range(n))
            r.shuffle(verts)
            a = TokenMultiset(verts[:k])
            b = TokenMultiset(verts[k : 2 * k])
            fm, fc = fast_match_intervals(rep, a, b)
            _, ec = min_cost_matching(g, a, b)
            assert fc == ec
            if fc is not None:
                fm.validate_between(a, b)
                assert matching_cost(g, fm) == fc
            done += 1

    def test_matches_exact_solver_on_overlapping_multisets(self):
        for trial in range(250):
            r = random.Random(10_000 + trial)
            n = r.randrange(2, 11)
            rep = random_interval_representation(n, r, connected=r.random() < 0.6)
            g = intersection_graph(rep)
            k = r.randrange(1, 6)
            a = TokenMultiset(r.randrange(n) for _ in range(k))
            b = TokenMultiset(r.randrange(n) for _ in range(k))
            fm, fc = fast_match_intervals(rep, a, b)
            _, ec = min_cost_matching(g, a, b)
            assert fc == ec
            if fc is not None:
                fm.validate_between(a, b)
                assert matching_cost(g, fm) == fc

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_matches_exact_solver_up_to_sixty_intervals(self, data):
        # sizes beyond the tests above: up to 60 intervals, connected,
        # disconnected or two to three connected blocks side by side, and
        # 1 to 2n tokens per side with repeats
        rng = data.draw(st.randoms(use_true_random=False))
        layout = data.draw(st.sampled_from(["connected", "disconnected", "blocks"]))
        spread = data.draw(st.sampled_from([None, 0.5, 2.0, 8.0]))
        if layout == "blocks":
            intervals = []
            for size in data.draw(st.lists(st.integers(1, 20), min_size=2, max_size=3)):
                block = random_interval_representation(size, rng, spread=spread)
                shift = 2 * len(intervals)
                intervals += [(lo + shift, hi + shift) for lo, hi in block.intervals]
            rng.shuffle(intervals)
            rep = IntervalRepresentation(intervals)
        else:
            n = data.draw(st.integers(1, 60))
            rep = random_interval_representation(n, rng, layout == "connected", spread)
        k = data.draw(st.integers(1, 2 * rep.n))
        tokens = st.lists(st.integers(0, rep.n - 1), min_size=k, max_size=k)
        a = TokenMultiset(data.draw(tokens))
        b = TokenMultiset(data.draw(tokens))
        g = intersection_graph(rep)
        fm, fc = fast_match_intervals(rep, a, b)
        _, ec = min_cost_matching(g, a, b)
        assert fc == ec
        assert (fm is None) == (fc is None)
        if fc is not None:
            fm.validate_between(a, b)
            assert matching_cost(g, fm) == fc
