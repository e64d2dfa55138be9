import collections
import gc
import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenslide import (
    FeasibilityError,
    Graph,
    InputError,
    MoveSequence,
    RootedTree,
    StateCapExceeded,
    TokenMultiset,
    dominating_predicate,
    hitting_predicate,
    independent_set_predicate,
    intersection_graph,
    min_cost_matching,
    reconf_interval,
    reconf_tree_dominating,
    reconfig_distance_bfs,
    verify_sequence,
    SetSystem,
)
from tokenslide.generators import (
    heavy_path_instance,
    random_connected_graph,
    random_interval_representation,
    random_subtree_family,
    random_token_multiset,
    random_tree,
)

from tokenslide.graphs import _PeeledTree, peel_tree
from tokenslide.oracle import reconfig_component, sequence_failure

from helpers import shortest_slide_sequence, unit_replay


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


class TestDistanceBfs:
    def test_zero_distance(self):
        g = path(4)
        tokens = TokenMultiset([0, 2])
        assert reconfig_distance_bfs(g, dominating_predicate(g), tokens, tokens) == 0

    def test_p4_dominating(self):
        g = path(4)
        d = reconfig_distance_bfs(
            g, dominating_predicate(g), TokenMultiset([0, 2]), TokenMultiset([1, 3])
        )
        assert d == 2

    def test_c4_independent_sets_unreachable(self):
        d = reconfig_distance_bfs(
            C4, independent_set_predicate(C4), TokenMultiset([0, 2]), TokenMultiset([1, 3])
        )
        assert d is None

    def test_infeasible_endpoint_rejected(self):
        g = path(4)
        with pytest.raises(FeasibilityError):
            reconfig_distance_bfs(
                g, dominating_predicate(g), TokenMultiset([0]), TokenMultiset([1])
            )

    def test_cap_exceeded(self):
        g = path(8)
        with pytest.raises(StateCapExceeded):
            reconfig_distance_bfs(
                g,
                dominating_predicate(g),
                TokenMultiset([0, 2, 5, 7]),
                TokenMultiset([1, 3, 5, 7]),
                cap=2,
            )

    @pytest.mark.parametrize("search", [reconfig_distance_bfs, reconfig_component])
    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_is_invalid_input(self, search, cap):
        """Also when start equals goal, which needs no search at all."""
        g = path(4)
        tokens = TokenMultiset([0, 2])
        with pytest.raises(InputError, match=f"state cap must be at least 1, got {cap}"):
            search(g, dominating_predicate(g), tokens, tokens, cap=cap)

    @pytest.mark.parametrize("search", [reconfig_distance_bfs, reconfig_component])
    def test_cap_of_one_stops_both_searches(self, search):
        """The component is not cut down to the first ``cap`` states."""
        g = path(4)
        start, goal = TokenMultiset([0, 2]), TokenMultiset([1, 3])
        with pytest.raises(StateCapExceeded, match="^visited more than 1 configurations$"):
            search(g, dominating_predicate(g), start, goal, cap=1)

    @pytest.mark.parametrize("make_pred", [dominating_predicate, independent_set_predicate])
    def test_component_size_is_the_least_cap_and_holds_the_reachable_goals(self, make_pred):
        rng = random.Random(2020)
        unreachable = done = 0
        while done < 60:
            n = rng.randrange(2, 8)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
            pred = make_pred(g)
            k = rng.randrange(1, 4)
            a = random_token_multiset(n, k, rng)
            b = random_token_multiset(n, k, rng)
            if not (pred(a.support_mask) and pred(b.support_mask)):
                continue
            states, slides = reconfig_component(g, pred, a, b)
            size = len(states)
            assert reconfig_component(g, pred, a, b, cap=size) == (states, slides)
            if size > 1:
                with pytest.raises(StateCapExceeded):
                    reconfig_component(g, pred, a, b, cap=size - 1)
            d = reconfig_distance_bfs(g, pred, a, b)
            assert (d is None) == (b.key() not in states)
            unreachable += d is None
            done += 1
        assert 0 < unreachable < done

    def test_tokens_outside_the_graph_are_invalid_input(self):
        g = path(4)
        pred = dominating_predicate(g)
        for start, goal, named in (([0, 2], [9, 1], 9), ([-1, 2], [0, 5], -1)):
            with pytest.raises(InputError, match=f"^token on vertex {named} outside the graph$"):
                reconfig_distance_bfs(g, pred, TokenMultiset(start), TokenMultiset(goal))
            with pytest.raises(InputError, match=f"^token on vertex {named} outside the graph$"):
                reconfig_component(g, pred, TokenMultiset(start), TokenMultiset(goal))

    def test_distance_is_symmetric(self):
        rng = random.Random(404)
        done = 0
        while done < 40:
            n = rng.randrange(2, 9)
            g = random_connected_graph(n, rng)
            pred = dominating_predicate(g)
            k = rng.randrange(1, 4)
            a = random_token_multiset(n, k, rng)
            b = random_token_multiset(n, k, rng)
            if not (pred(a.support_mask) and pred(b.support_mask)):
                continue
            assert reconfig_distance_bfs(g, pred, a, b) == reconfig_distance_bfs(g, pred, b, a)
            done += 1

    def test_never_beats_the_matching_bound(self):
        rng = random.Random(606)
        done = 0
        while done < 60:
            n = rng.randrange(2, 9)
            g = random_connected_graph(n, rng)
            pred = dominating_predicate(g)
            k = rng.randrange(1, 4)
            a = random_token_multiset(n, k, rng)
            b = random_token_multiset(n, k, rng)
            if not (pred(a.support_mask) and pred(b.support_mask)):
                continue
            d = reconfig_distance_bfs(g, pred, a, b)
            if d is None:
                continue
            _, c = min_cost_matching(g, a, b)
            assert d >= c
            done += 1


class TestHittingPredicate:
    def test_counts_support_only(self):
        system = SetSystem([{0, 1}, {2}])
        pred = hitting_predicate(system)
        assert pred(TokenMultiset({1: 3, 2: 1}).support_mask)
        assert not pred(TokenMultiset({1: 3}).support_mask)


class TestVerifySequence:
    def test_empty_sequence(self):
        g = path(4)
        start = TokenMultiset([0, 2])
        ok, final, failure = verify_sequence(g, dominating_predicate(g), start, MoveSequence([]))
        assert ok and final == start and failure is None

    def test_valid_two_step_sequence(self):
        g = path(4)
        seq = MoveSequence([(0, 1, 1), (2, 3, 1)])
        ok, final, failure = verify_sequence(
            g, dominating_predicate(g), TokenMultiset([0, 2]), seq
        )
        assert ok and final == TokenMultiset([1, 3]) and failure is None

    def test_non_edge_move_fails(self):
        g = path(4)
        ok, final, failure = verify_sequence(
            g, dominating_predicate(g), TokenMultiset([0, 2]), MoveSequence([(0, 2, 1)])
        )
        assert not ok and "not an edge" in failure
        assert final == TokenMultiset([0, 2])

    def test_missing_token_fails(self):
        g = path(4)
        ok, _, failure = verify_sequence(
            g, dominating_predicate(g), TokenMultiset([0, 2]), MoveSequence([(1, 2, 1)])
        )
        assert not ok and "no token" in failure

    def test_feasibility_violation_detected(self):
        g = path(4)
        start = TokenMultiset([1, 3])
        ok, final, failure = verify_sequence(
            g, dominating_predicate(g), start, MoveSequence([(3, 2, 1), (2, 1, 1)])
        )
        assert not ok and "infeasible" in failure
        assert final == TokenMultiset([1, 2])

    def test_predicate_without_hit_lists_rejected(self):
        with pytest.raises(InputError):
            verify_sequence(C4, independent_set_predicate(C4), TokenMultiset([0, 2]), MoveSequence([]))

    @staticmethod
    def _solve_and_time_verify(g, d_s, d_t):
        """The tree solver's sequence and the seconds its verify takes, gc off."""
        seq = reconf_tree_dominating(RootedTree(g, 0), d_s, d_t)
        pred = dominating_predicate(g)
        gc.disable()
        try:
            t0 = time.perf_counter()
            ok, final, failure = verify_sequence(g, pred, d_s, seq)
            elapsed = time.perf_counter() - t0
        finally:
            gc.enable()
        assert ok and final == d_t and failure is None
        return seq, elapsed

    def test_scale_of_the_triples(self):
        n = 100_000
        seq, elapsed = self._solve_and_time_verify(*heavy_path_instance(n, n // 3))
        assert seq.total_length > 10**9
        assert elapsed < 1.0, f"{elapsed:.2f}s for {len(seq.moves)} triples"

    def test_scale_of_the_triples_on_a_star(self):
        # half the triples leave the centre, so an O(deg) edge check would
        # make the replay quadratic (about 46 s at this size)
        n = 100_000
        half = (n - 1) // 2
        g = Graph(n, [(0, v) for v in range(1, n)])
        d_s = TokenMultiset([0, *range(1, 1 + half)])
        d_t = TokenMultiset([0, *range(1 + half, 1 + 2 * half)])
        seq, elapsed = self._solve_and_time_verify(g, d_s, d_t)
        assert elapsed < 3.0, f"{elapsed:.2f}s for {len(seq.moves)} triples"


def _random_triples(g, tokens, rng, length):
    """Triples that mostly follow the tokens, with non-edges, empty sources,
    counts above the token count and last tokens leaving mixed in."""
    counts = [0] * g.n
    for v, c in tokens.items():
        counts[v] = c
    out = []
    for _ in range(length):
        held = [v for v in range(g.n) if counts[v] and g.neighbors(v)]
        if not held or rng.random() < 0.05:
            u, v = rng.sample(range(g.n), 2)
            c = rng.randrange(1, 4)
        else:
            u = rng.choice(held)
            v = rng.choice(g.neighbors(u))
            if rng.random() < 0.9:
                c = rng.randrange(1, counts[u] + 1)
            else:
                c = counts[u] + rng.randrange(1, 3)
        out.append((u, v, c))
        moved = min(c, counts[u])
        counts[u] -= moved
        counts[v] += moved
    return MoveSequence(out)


def _check_against_unit_replay(g, pred, rng):
    picks = rng.choices(range(g.n), k=rng.randrange(1, g.n + 4))
    if rng.random() < 0.9:  # mostly feasible starts, so the triples get replayed
        while not pred(TokenMultiset(picks).support_mask):
            picks.append(rng.randrange(g.n))
    tokens = TokenMultiset(picks)
    seq = _random_triples(g, tokens, rng, rng.randrange(0, 12))
    assert verify_sequence(g, pred, tokens, seq) == unit_replay(g, pred, tokens, seq)


@given(st.integers(2, 8), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_verify_equals_unit_replay_dominating(n, density, seed):
    rng = random.Random(seed)
    g = Graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < density])
    _check_against_unit_replay(g, dominating_predicate(g), rng)


def _tree_replay_case(seed):
    """A random tree on 1-25 vertices, vertex 0 anywhere in its shape, as a
    peeled tree and as an eager graph, with a mostly dominating start and
    triples from ``_random_triples``, some with ids off the tree."""
    rng = random.Random(seed)
    n = rng.choice((1, 2)) if rng.random() < 0.1 else rng.randrange(3, 26)
    perm = rng.sample(range(n), n)
    ends = [perm[x] for v in range(1, n) for x in (v, rng.randrange(v))]
    eager = Graph(n, zip(ends[::2], ends[1::2]))
    pred = dominating_predicate(eager)
    picks = rng.choices(range(n), k=rng.randrange(1, n + 2))
    if rng.random() < 0.9:
        while not pred(TokenMultiset(picks).support_mask):
            picks.append(rng.randrange(n))
    tokens = TokenMultiset(picks)
    if n == 1:  # no edge to slide along
        moves = [(0, -2, 1)] * rng.randrange(2)
    else:
        moves = list(_random_triples(eager, tokens, rng, rng.randrange(0, 2 * n + 4)))
    if moves and rng.random() < 0.1:
        u, v, c = moves[rng.randrange(len(moves))]
        off = rng.choice((-1, n, n + 3))
        moves.insert(rng.randrange(len(moves) + 1), (u, off, c) if rng.random() < 0.5 else (off, v, c))
    return peel_tree(n, ends), eager, pred, tokens, MoveSequence(moves)


def _failed_slide(result):
    return tuple(map(int, re.search(r"\((-?\d+), (-?\d+)\)", result.failure).groups()))


def _replay_end(eager, result):
    """How a replay ended.  A feasibility failure is named by where the
    vertices that lose their last dominator sit relative to the slide's
    source u, in the tree rooted at 0: "root", u's "parent" or a "child"."""
    if result.ok:
        return {"valid"}
    if result.failure.startswith("start"):
        return {"infeasible start"}
    if "no token" in result.failure:
        return {"no token"}
    u, v = _failed_slide(result)
    if "not an edge" in result.failure:
        return {"not an edge" if 0 <= min(u, v) and max(u, v) < eager.n else "off the tree"}
    after = result.final.slide(u, v).support
    parent = RootedTree(eager, 0).parent
    lost = [x for x in range(eager.n) if not ({x, *eager.neighbors(x)} & after)]
    return {"root" if x == 0 else "parent" if x == parent[u] else "child" for x in lost}


def test_tree_replay_equals_unit_replay():
    """On a parsed (peeled) tree, ``verify_sequence`` replays on the parent
    array and must give the verdict, message and final configuration of
    the unit-move replay on the eager graph, in every way a replay ends."""
    ends_seen = collections.Counter()
    for seed in range(2400):
        peeled, eager, pred, tokens, seq = _tree_replay_case(seed)
        result = verify_sequence(peeled, dominating_predicate(peeled), tokens, seq)
        assert result == unit_replay(eager, pred, tokens, seq), seed
        assert type(peeled) is _PeeledTree and peeled._closed is None
        ends_seen.update(_replay_end(eager, result))
        if eager.n < 3:
            ends_seen[f"n={eager.n}"] += 1
    for end in ("valid", "infeasible start", "no token", "not an edge", "off the tree",
                "child", "parent", "root", "n=1", "n=2"):
        assert ends_seen[end] >= 20, (end, ends_seen)


def test_tree_replay_names_a_start_token_off_the_tree():
    peeled = peel_tree(3, [0, 1, 1, 2])
    eager = Graph(3, [(0, 1), (1, 2)])
    tokens = TokenMultiset([1, 5, 4])
    messages = []
    for g in (peeled, eager):
        with pytest.raises(InputError) as exc:
            verify_sequence(g, dominating_predicate(g), tokens, MoveSequence([]))
        messages.append(str(exc.value))
    assert messages[0] == messages[1] == "token on vertex 4 outside the graph"


@given(st.integers(2, 9), st.integers(0, 2**32 - 1))
def test_verify_equals_unit_replay_hitting(n, seed):
    rng = random.Random(seed)
    tree = RootedTree(random_tree(n, rng), 0)
    system = random_subtree_family(tree, rng, rng.randrange(1, n + 1))
    _check_against_unit_replay(tree.graph, hitting_predicate(system), rng)


class TestCertify:
    def test_good_sequence(self):
        g = path(4)
        seq = MoveSequence([(0, 1, 1), (2, 3, 1)])
        assert sequence_failure(
            g, dominating_predicate(g), TokenMultiset([0, 2]), TokenMultiset([1, 3]), seq
        ) is None

    def test_padded_sequence_rejected(self):
        g = path(4)
        seq = MoveSequence([(0, 1, 1), (1, 0, 1), (0, 1, 1), (2, 3, 1)])
        assert sequence_failure(
            g, dominating_predicate(g), TokenMultiset([0, 2]), TokenMultiset([1, 3]), seq
        ) is not None

    def test_trivial_instance(self):
        g = path(4)
        tokens = TokenMultiset([1, 3])
        assert sequence_failure(
            g, dominating_predicate(g), tokens, tokens, MoveSequence([])
        ) is None


def _feasible_tokens(n, pred, rng):
    """A few random tokens, then one on each new vertex in random order
    until the multiset is feasible."""
    picks = rng.choices(range(n), k=rng.randrange(1, 4))
    fresh = rng.sample(range(n), n)
    while not pred(TokenMultiset(picks).support_mask):
        v = fresh.pop()
        if v not in picks:
            picks.append(v)
    return picks


def _detour(g, pred, start, seq):
    """seq after one slide out of start and back, or None if no slide out
    of start keeps it feasible."""
    for u in sorted(start.support):
        for v in g.neighbors(u):
            if pred(start.slide(u, v).support_mask):
                return MoveSequence([(u, v, 1), (v, u, 1), *seq.moves])
    return None


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(["graph", "tree", "interval", "hitting"]), st.integers(0, 2**32 - 1))
def test_certifier_agrees_with_the_bfs_distance(kind, seed):
    """``sequence_failure(..., optimal=True)`` passes a sequence exactly when
    the exhaustive BFS distance, its length and the matching bound agree."""
    rng = random.Random(seed)
    n = rng.randrange(2, 8)
    rep = None
    if kind == "graph":
        g = random_connected_graph(n, rng)
    elif kind == "interval":
        rep = random_interval_representation(n, rng, connected=rng.random() < 0.8)
        g = intersection_graph(rep)
    else:
        g = random_tree(n, rng)
    if kind == "hitting":
        pred = hitting_predicate(random_subtree_family(RootedTree(g, 0), rng, rng.randrange(1, n + 1)))
    else:
        pred = dominating_predicate(g)
    a, b = _feasible_tokens(n, pred, rng), _feasible_tokens(n, pred, rng)
    fewer, more = sorted((a, b), key=len)
    fewer.extend(rng.choices(range(n), k=len(more) - len(fewer)))  # extra tokens keep it feasible
    start, goal = TokenMultiset(a), TokenMultiset(b)

    d = reconfig_distance_bfs(g, pred, start, goal)
    shortest = shortest_slide_sequence(g, pred, start, goal)
    if shortest is None:
        assert d is None
        return
    assert shortest.total_length == d
    _, c = min_cost_matching(g, start, goal)
    seqs = [shortest, _detour(g, pred, start, shortest)]
    if kind == "tree":
        seqs.append(reconf_tree_dominating(RootedTree(g, 0), start, goal))
    elif kind == "interval":
        seqs.append(reconf_interval(rep, start, goal))
    for seq in seqs:
        if seq is not None:
            length = seq.total_length
            certified = sequence_failure(g, pred, start, goal, seq, optimal=True) is None
            assert certified == (d == length == c), (seq.moves, d, c)
