import collections
import itertools
import random
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenslide import (
    Graph,
    InputError,
    RootedTree,
    SetSystem,
    TokenMultiset,
    UNREACHABLE,
    closed_neighborhood_system,
    distances_from,
    dominating_predicate,
    hitting_predicate,
    is_dominating,
    is_hitting,
    parse_instance,
    succ_set,
)
from tokenslide import graphs
from tokenslide.generators import (
    random_interval_representation,
    random_subtree_family,
    random_token_multiset,
    random_tree,
)
from tokenslide.graphs import (
    Coverage,
    Distances,
    TreeCoverage,
    check_tree,
    closed_neighborhoods,
    peel_tree,
    require_on_graph,
    steps_toward,
)
from tokenslide.interval_reconfig import find_greedy_move
from tokenslide.intervals import intersection_graph
from tokenslide.matching import Matching

from helpers import bfs_sources


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


class TestGraphConstruction:
    def test_path_adjacency(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.adjacency == ((1,), (0, 2), (1,))

    def test_single_vertex(self):
        g = Graph(1, [])
        assert g.adjacency == ((),)

    def test_duplicate_edges_collapse(self):
        g = Graph(4, [(0, 1), (1, 0), (1, 2), (2, 3)])
        assert g == path(4)

    def test_out_of_range_vertex(self):
        with pytest.raises(InputError):
            Graph(2, [(0, 2)])

    def test_self_loop(self):
        with pytest.raises(InputError):
            Graph(2, [(1, 1)])


class TestDistances:
    def test_path_metric(self):
        assert distances_from(path(4), 0) == [0, 1, 2, 3]

    def test_disconnected_sentinel(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert distances_from(g, 0) == [0, 1, UNREACHABLE, UNREACHABLE]

    def test_interior_source(self):
        assert distances_from(path(4), 2) == [2, 1, 0, 1]

    def test_symmetry_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randrange(2, 9)
            g = random_tree(n, rng)
            u = rng.randrange(n)
            v = rng.randrange(n)
            assert distances_from(g, u)[v] == distances_from(g, v)[u]


class TestSuccSet:
    def test_unique_path(self):
        assert succ_set(path(4), 0, 3) == (1,)

    def test_same_vertex_is_empty(self):
        assert succ_set(path(4), 2, 2) == ()

    def test_adjacent_target_is_own_successor(self):
        triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert succ_set(triangle, 0, 2) == (2,)

    def test_unreachable_target_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(InputError):
            succ_set(g, 0, 3)

    @pytest.mark.parametrize("u, v, named", [(0, -1, -1), (4, 0, 4), (-1, 4, -1)])
    def test_ids_outside_the_graph_named(self, u, v, named):
        with pytest.raises(InputError, match=f"^vertex {named} out of range$"):
            succ_set(path(4), u, v)

    def test_every_successor_one_step_closer(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randrange(2, 9)
            g = random_tree(n, rng)
            u, v = rng.randrange(n), rng.randrange(n)
            d = distances_from(g, v)
            succ = succ_set(g, u, v)
            if u != v:
                assert succ
            for w in succ:
                assert d[w] == d[u] - 1


class TestRootedTree:
    def test_order_visits_children_before_parents(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randrange(1, 12)
            tree = RootedTree(random_tree(n, rng), 0)
            seen = set()
            for v in tree.order:
                assert tree.parent[v] not in seen or tree.parent[v] == v
                seen.add(v)
            assert tree.parent[tree.root] == tree.root

    def test_non_tree_rejected(self):
        with pytest.raises(InputError):
            RootedTree(Graph(3, [(0, 1)]), 0)
        with pytest.raises(InputError):
            RootedTree(Graph(3, [(0, 1), (1, 2), (0, 2)]), 0)


class TestPredicates:
    def test_star_center_dominates(self):
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert is_dominating(star, TokenMultiset({0: 1}))

    def test_path_needs_coverage_at_the_end(self):
        assert not is_dominating(path(4), TokenMultiset({1: 1}))
        assert is_dominating(path(4), TokenMultiset({1: 1, 3: 1}))

    def test_hitting_examples(self):
        system = SetSystem([{0, 1}, {1, 2}])
        assert is_hitting(system, TokenMultiset({1: 1}))
        assert not is_hitting(system, TokenMultiset({0: 1}))

    def test_empty_system_vacuously_hit(self):
        assert is_hitting(SetSystem([]), TokenMultiset({0: 1}))
        assert is_hitting(SetSystem([]), TokenMultiset())


class TestSetSystem:
    def test_empty_set_rejected(self):
        with pytest.raises(InputError):
            SetSystem([[]])

    def test_disconnected_set_rejected_on_tree(self):
        tree = RootedTree(path(4), 0)
        with pytest.raises(InputError):
            SetSystem([[0, 3]], tree=tree)
        SetSystem([[0, 1], [1, 2, 3]], tree=tree)

    def test_out_of_range_member_rejected(self):
        tree = RootedTree(path(3), 0)
        with pytest.raises(InputError):
            SetSystem([[0, 5]], tree=tree)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_ids_outside_the_tree_named(self, bad):
        """The lowest offender of the first bad set is named; 7 lies outside too."""
        tree = RootedTree(path(3), 0)
        with pytest.raises(InputError, match=f"^set 1 mentions vertex {bad} outside the tree$"):
            SetSystem([[0, 1], [bad, 7, 2]], tree=tree)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_ids_outside_the_graph_named(self, bad):
        system = SetSystem([[0, 1], [bad, 7, 2], [9]])
        with pytest.raises(InputError, match=f"^set 1 mentions vertex {bad} outside the graph$"):
            system.hits(3)


class TestClosedNeighborhoods:
    def test_path_three(self):
        tree = RootedTree(path(3), 0)
        assert closed_neighborhood_system(tree).sets == ((0, 1), (0, 1, 2), (1, 2))

    def test_single_vertex(self):
        tree = RootedTree(Graph(1, []), 0)
        assert closed_neighborhood_system(tree).sets == ((0,),)

    def test_star(self):
        star = RootedTree(Graph(4, [(0, 1), (0, 2), (0, 3)]), 0)
        sets = closed_neighborhood_system(star).sets
        assert sets[0] == (0, 1, 2, 3)
        assert sets[1] == (0, 1)

    def test_hitting_neighborhoods_equals_dominating(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randrange(1, 11)
            tree = RootedTree(random_tree(n, rng), 0)
            system = closed_neighborhood_system(tree)
            tokens = random_token_multiset(n, rng.randrange(0, n + 1), rng)
            assert is_hitting(system, tokens) == is_dominating(tree.graph, tokens)


def _reference_rooting(g, root):
    """(parent, depth) of g rooted at root, by a BFS of its own."""
    parent, depth = {root: root}, {root: 0}
    queue = [root]
    for u in queue:
        for w in g.neighbors(u):
            if w not in depth:
                parent[w], depth[w] = u, depth[u] + 1
                queue.append(w)
    return [parent[v] for v in range(g.n)], [depth[v] for v in range(g.n)]


@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.data())
def test_rooted_tree_matches_a_reference_bfs(n, seed, data):
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)  # ids need not grow away from vertex 0
    g = Graph(n, [(perm[u], perm[v]) for u, v in random_tree(n, rng).edges()])
    root = data.draw(st.integers(0, n - 1))
    with bfs_sources() as sources:
        tree = RootedTree(g, root)
    parent, depth = _reference_rooting(g, root)
    assert (tree.parent, tree.depth) == (parent, depth)
    assert tree.order == tuple(sorted(range(n), key=lambda v: (-depth[v], v)))
    assert sources == [root]  # one BFS, from the root


def _shuffled_tree_ends(n, rng):
    """The edges of a random tree on 0..n-1 as a flat list, in random order,
    each edge either way round, and ids that need not grow away from 0."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in random_tree(n, rng).edges()]
    rng.shuffle(edges)
    return [x for e in edges for x in e]


def _eager_tree(n, ends):
    """Graph(n, edges) if check_tree accepts it, else None."""
    try:
        g = Graph(n, zip(ends[::2], ends[1::2]))
        check_tree(g)
    except InputError:
        return None
    return g


def _increasing_tree_ends(n, rng):
    """The edges of a random recursive tree, whose ids grow away from 0, as
    a flat list in the order of ``Graph.edges``: sorted ``lo hi`` lines, as
    ``emit_instance`` writes them."""
    return [x for e in random_tree(n, rng).edges() for x in e]


PEEL_OPS = ("dup", "loop", "range", "rewire", "detach")


def _mutated_ends(n, rng, ends):
    """ends with up to three of PEEL_OPS applied: repeated edges, self-loops,
    out-of-range ids, rewired edges (cycles and several components) and a
    detached two-vertex component whose edge was spent on a self-loop at 0."""
    m = len(ends) // 2
    for op in rng.choices(PEEL_OPS, k=rng.randrange(4)) if m else ():
        i = rng.randrange(m)
        if op == "dup":
            j = rng.randrange(m)
            ends[2 * i : 2 * i + 2] = ends[2 * j : 2 * j + 2]
        elif op == "loop":
            ends[2 * i + 1] = ends[2 * i]
        elif op == "range":
            ends[2 * i + rng.randrange(2)] = rng.choice([-1, n, n + 5])
        elif op == "rewire":
            ends[2 * i : 2 * i + 2] = [rng.randrange(n), rng.randrange(n)]
        elif op == "detach" and n >= 3:
            # a fresh edge between two other vertices, and vertex 0's loop to pay for it
            a, b = rng.sample(range(1, n), 2)
            j = (i + 1) % m
            ends[2 * i : 2 * i + 2] = [a, b]
            ends[2 * j : 2 * j + 2] = [0, 0]
    return ends


@contextmanager
def _rooting_spy():
    """Record what each call of the lower-end rooting returns."""
    seen = []
    real = graphs._lower_end_parents

    def spy(n, lo, hi):
        seen.append(real(n, lo, hi))
        return seen[-1]

    with mock.patch.object(graphs, "_lower_end_parents", spy):
        yield seen


def _check_peel(n, ends, rng):
    """peel_tree(n, ends) is None exactly when the eager Graph and check_tree
    reject the edges; else it roots them as a BFS does and builds the same
    adjacency on first read.  Returns whether it accepted."""
    peeled = peel_tree(n, list(ends))
    eager = _eager_tree(n, ends)
    assert (peeled is None) == (eager is None)
    if eager is None:
        return False
    tree = RootedTree(peeled, 0)
    assert tree._depth is None and peeled._adj is None  # both built by the depth read below
    expected = RootedTree(eager, 0)
    assert (tree.parent, tree.depth, tree.order) == (expected.parent, expected.depth, expected.order)
    assert peeled.edge_count == eager.edge_count == n - 1
    assert peeled.adjacency == eager.adjacency  # built from the parent array by the depth read
    assert peeled._adj is peeled.adjacency  # and kept
    assert peeled == eager and peeled.edges() == eager.edges()
    root = rng.randrange(n)  # any other root roots the lazily built adjacency by BFS
    other, expected = RootedTree(peeled, root), RootedTree(eager, root)
    assert (other.parent, other.depth, other.order) == (expected.parent, expected.depth, expected.order)
    return True


def test_peel_accepts_exactly_the_trees():
    """Both rooting paths, on 2 000 seeded edge lists, n = 1-12: half are
    increasing-id trees written ``lo hi`` (lower-end rooting decides most),
    half shuffled trees with random ids and random ends first (the peel
    decides), each with up to three mutations.  Each path must decide at
    least 200 cases; the lower-end rooting accepts or declines, the peel
    accepts or rejects."""
    rng = random.Random(2901)
    decided = collections.Counter()
    with _rooting_spy() as seen:
        for case in range(2000):
            n = rng.randrange(1, 13)
            ends = _increasing_tree_ends(n, rng) if case % 2 else _shuffled_tree_ends(n, rng)
            ends = _mutated_ends(n, rng, ends)
            del seen[:]
            accepted = _check_peel(n, ends, rng)
            rooted = bool(seen) and seen[-1] is not None
            assert not rooted or accepted
            if seen and not rooted:
                decided["lower ends declined"] += 1
            decided["lower ends" if rooted else "peel accepted" if accepted else "peel rejected"] += 1
    assert min(decided.values()) >= 200, decided


@pytest.mark.parametrize(
    "n, ends, parent, by_lower_ends",
    [
        (1, [], [0], True),
        (2, [0, 1], [0, 0], True),
        (2, [1, 0], [0, 0], False),
        (3, [0, 1, 0, 1], None, False),  # a repeated line
        (3, [0, 1, 0, 0], None, False),  # a 0 0 loop
        (4, [1, 0, 2, 1, 3, 1], [0, 0, 1, 1], False),  # an increasing tree written hi lo
        (4, [0, 1, 0, 2, 1, 2], None, False),  # all lo < hi; 3 has no parent, 0 1 2 a cycle
        (3, [0, 2, 1, 2], [0, 2, 0], False),  # all lo < hi; 1 has no parent, yet a tree
    ],
)
def test_peel_pinned_cases(n, ends, parent, by_lower_ends):
    with _rooting_spy() as seen:
        peeled = peel_tree(n, ends)
    assert (peeled and peeled._parent) == parent
    assert (seen[-1] is not None) == by_lower_ends
    assert (_eager_tree(n, ends) is None) == (parent is None)


@pytest.mark.parametrize(
    "n, edges",
    [
        # 5-6 is peeled from 6, which empties 5 before it is popped
        (7, [(0, 1), (1, 2), (0, 3), (3, 4), (5, 6), (0, 0)]),
        (4, [(2, 3), (0, 1), (0, 1)]),
        (3, [(1, 2), (2, 1)]),
    ],
)
def test_peel_rejects_a_detached_component(n, edges):
    assert peel_tree(n, [x for e in edges for x in e]) is None
    assert _eager_tree(n, [x for e in edges for x in e]) is None


def test_domination_on_the_parent_array():
    """On 2 000 seeded trees parsed from their edge lines (increasing ids
    and shuffled ones) and rooted anywhere, ``is_dominating`` on the tree's
    graph, which reads its root-0 parent array, agrees with the N[x] union
    on the eager graph of the same edges, and names the same lowest vertex
    outside the graph."""
    rng = random.Random(3101)
    seen = collections.Counter()
    for case in range(2000):
        n = rng.randrange(1, 15)
        ends = _increasing_tree_ends(n, rng) if case % 2 else _shuffled_tree_ends(n, rng)
        text = f"tree {n}\n" + "".join(f"{u} {v}\n" for u, v in zip(ends[::2], ends[1::2]))
        root = rng.randrange(n)
        tree = RootedTree(parse_instance(text + "tokens 1: 0\ntokens 1: 0\n").graph, root)
        eager = Graph(n, zip(ends[::2], ends[1::2]))
        assert tree.graph._parent is not None and eager._parent is None
        ids = rng.choices(range(n), k=rng.randrange(0, n + 1))
        if rng.random() < 0.1:
            ids.append(rng.choice((-2, -1, n, n + 3)))
        tokens = TokenMultiset(ids)

        def outcome(g):
            try:
                return is_dominating(g, tokens)
            except InputError as exc:
                return str(exc)

        got = outcome(tree.graph)
        assert got == outcome(eager), case
        seen[got if isinstance(got, bool) else "outside"] += 1
        seen["root > 0"] += root > 0
    assert min(seen.values()) >= 150, seen


@given(st.integers(2, 30), st.integers(0, 2**32 - 1))
def test_random_tree_is_a_tree(n, seed):
    g = random_tree(n, random.Random(seed))
    RootedTree(g, 0)  # validates connectivity and edge count
    assert g.edge_count == n - 1


def _check_tracker_against_oracle(g, make, pred, k):
    """Every size-k configuration, and every slide along an edge from each
    feasible one: the tracker ``make(tokens)`` must agree with the oracle's
    mask predicate."""
    for combo in itertools.combinations_with_replacement(range(g.n), k):
        tokens = TokenMultiset(combo)
        feasible = pred(tokens.support_mask)
        assert make(tokens).feasible == feasible
        if not feasible:
            continue
        for u in tokens.support:
            for w in g.neighbors(u):
                slid = tokens.slide(u, w)
                cover = make(tokens)
                assert cover.can_slide(u, w) == pred(slid.support_mask)
                cover.slide(u, w)
                assert cover.feasible == pred(slid.support_mask)
                assert TokenMultiset.from_counts_list(cover.counts) == slid


def _dominating_by_marking(g, tokens):
    """Domination as one mark per vertex of N[x] over the support, then a
    scan for an unmarked vertex; out-of-range tokens as require_on_graph
    names them."""
    support = tokens.support
    require_on_graph(g.n, support)
    covered = [False] * g.n
    for v in support:
        covered[v] = True
        for w in g.neighbors(v):
            covered[w] = True
    return all(covered)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.integers(1, 12),
    st.sampled_from(("plain", "peeled", "interval")),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(-2, 14), max_size=14),
)
def test_dominating_union_is_the_marking_loop(n, kind, density, seed, ids):
    """is_dominating, a union of N[x] tables or a scan of a peeled tree's
    parent array, agrees with marking N[x] vertex by vertex on plain
    graphs, peeled trees (asked first, before anything builds their
    adjacency) and interval graphs, and names the same lowest token outside
    the graph."""
    rng = random.Random(seed)
    if kind == "plain":
        g = _random_graph(n, density, rng)
    elif kind == "peeled":
        g = peel_tree(n, _shuffled_tree_ends(n, rng))
    else:
        g = intersection_graph(random_interval_representation(n, rng, connected=density < 0.5))
    tokens = TokenMultiset(ids)

    def outcome(check):
        try:
            return check(g, tokens)
        except InputError as exc:
            return str(exc)

    assert outcome(is_dominating) == outcome(_dominating_by_marking)


@given(st.integers(1, 7), st.integers(1, 3), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_coverage_agrees_with_dominating_predicate(n, k, density, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < density]
    g = Graph(n, edges)
    hits = closed_neighborhoods(g)
    _check_tracker_against_oracle(g, lambda t: Coverage(hits, n, t), dominating_predicate(g), k)


@given(st.integers(1, 8), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_coverage_agrees_with_hitting_predicate(n, k, seed):
    rng = random.Random(seed)
    tree = RootedTree(random_tree(n, rng), 0)
    system = random_subtree_family(tree, rng, rng.randrange(1, n + 1))
    hits = system.hits(n)
    _check_tracker_against_oracle(
        tree.graph, lambda t: Coverage(hits, len(system), t), hitting_predicate(system), k
    )


@given(st.integers(1, 8), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_tree_coverage_agrees_with_dominating_predicate(n, k, seed):
    """The parent-array tracker, on a tree rooted anywhere, answers like the
    mask predicate on every size-k configuration and every slide."""
    rng = random.Random(seed)
    tree = RootedTree(random_tree(n, rng), rng.randrange(n))
    pred = dominating_predicate(tree.graph)
    _check_tracker_against_oracle(tree.graph, lambda t: TreeCoverage(tree, t), pred, k)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_tree_coverage_state_after_a_walk_of_slides(n, seed):
    """After each slide of a random walk, feasible or not, every entry the
    tracker keeps equals that of a tracker built afresh on the new tokens,
    and its answers equal Coverage's on the N[v] sets."""
    rng = random.Random(seed)
    tree = RootedTree(random_tree(n, rng), rng.randrange(n))
    g = tree.graph
    tokens = TokenMultiset(rng.choices(range(n), k=rng.randrange(1, n + 2)))
    walk = TreeCoverage(tree, tokens)
    for _ in range(3 * n):
        fresh = TreeCoverage(tree, tokens)
        assert (walk.counts, walk.occupied, walk.sole) == (fresh.counts, fresh.occupied, fresh.sole)
        cover = Coverage(closed_neighborhoods(g), n, tokens)
        assert walk.feasible == cover.feasible
        if n == 1:
            break
        u = rng.choice(sorted(tokens.support))
        w = rng.choice(g.neighbors(u))
        assert walk.can_slide(u, w) == cover.can_slide(u, w)
        c = rng.randrange(1, tokens.count(u) + 1)
        walk.slide(u, w, c)
        for _ in range(c):
            tokens = tokens.slide(u, w)


def _labelled_trees(n):
    """Every tree on 0..n-1, from its Pruefer sequence, as a flat end list."""
    if n < 2:
        yield []
        return
    for code in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in code:
            degree[v] += 1
        ends = []
        for v in code:
            leaf = degree.index(1)
            ends += [leaf, v]
            degree[leaf] -= 1
            degree[v] -= 1
        ends += [i for i, d in enumerate(degree) if d == 1]
        yield ends


@pytest.mark.parametrize("n", range(1, 6))
def test_peeled_has_edge_is_the_eager_has_edge(n):
    """On every labelled tree with n vertices and every pair of ids, in
    range or not, a peeled tree answers ``has_edge`` like the eager graph
    before its adjacency is built, and after."""
    pairs = list(itertools.product(range(-2, n + 2), repeat=2))
    for ends in _labelled_trees(n):
        eager = Graph(n, zip(ends[::2], ends[1::2]))
        peeled = peel_tree(n, ends)
        expected = [eager.has_edge(u, v) for u, v in pairs]
        assert [peeled.has_edge(u, v) for u, v in pairs] == expected
        assert peeled._adj is None  # answered without the adjacency
        assert not peeled.has_edge(0, 0)  # the root is its own parent, not its neighbour
        assert peeled.adjacency == eager.adjacency
        assert peeled._adj is not None
        assert [peeled.has_edge(u, v) for u, v in pairs] == expected


def _random_graph(n, density, rng):
    """G(n, p); small densities leave it disconnected."""
    return Graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < density])


@given(st.integers(1, 9), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_distance_table_and_successor_rule(n, density, seed):
    rng = random.Random(seed)
    g = _random_graph(n, density, rng)
    table = Distances(g)
    assert not table  # rows are computed on first use only
    order = list(range(n))
    rng.shuffle(order)
    for v in order:
        row = distances_from(g, v)
        assert table[v] == row
        for u in range(n):
            on_shortest_path = tuple(
                w
                for w in range(n)
                if g.has_edge(u, w) and row[u] != UNREACHABLE and row[w] == row[u] - 1
            )
            assert steps_toward(g, u, row) == on_shortest_path
    assert sorted(table) == list(range(n))


@given(st.integers(1, 9), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_a_table_computes_each_row_once(n, density, seed):
    rng = random.Random(seed)
    g = _random_graph(n, density, rng)
    reads = rng.choices(range(n), k=3 * n)
    with bfs_sources() as sources:
        table = Distances(g)
        for v in reads:
            assert table[v] == distances_from(g, v)
        assert not Distances(g)  # the graph kept no row for a later table
    assert sorted(sources) == sorted(set(reads))


@given(st.integers(1, 9), st.integers(1, 4), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_greedy_move_same_for_every_distance_source(n, k, density, seed):
    rng = random.Random(seed)
    g = _random_graph(n, density, rng)
    d_s = random_token_multiset(n, k, rng)
    d_t = random_token_multiset(n, k, rng)
    left = [v for v, c in d_s.items() for _ in range(c)]
    right = [v for v, c in d_t.items() for _ in range(c)]
    rng.shuffle(right)
    pairs = {}
    for key in zip(left, right):
        pairs[key] = pairs.get(key, 0) + 1
    m = Matching(pairs)
    rows = [distances_from(g, v) for v in range(n)]
    expected = find_greedy_move(g, d_s, d_t, m)
    assert find_greedy_move(g, d_s, d_t, m, rows) == expected
    assert find_greedy_move(g, d_s, d_t, m, Distances(g)) == expected


@given(st.integers(1, 9), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_has_edge_and_closed_neighborhood_table(n, density, seed):
    g = _random_graph(n, density, random.Random(seed))

    def check_has_edge():
        for u in range(-1, n + 1):
            for v in range(-1, n + 1):
                expected = 0 <= u < n and 0 <= v < n and v in g.neighbors(u)
                assert g.has_edge(u, v) == expected  # False for u == v too

    check_has_edge()
    table = closed_neighborhoods(g)
    v = random.Random(seed).randrange(n)
    assert table[v] == frozenset({v, *g.neighbors(v)})
    assert list(table.keys()) == [v]  # reading N[v] built only N[v]
    assert len(table) == n
    for outside in (-1, n):  # a negative id does not wrap round
        with pytest.raises(IndexError):
            table[outside]
    assert tuple(table) == tuple(frozenset({v, *g.neighbors(v)}) for v in range(n))
    assert closed_neighborhoods(g) is table
    check_has_edge()
