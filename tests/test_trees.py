import collections
import random
import time

import pytest

from tokenslide import (
    FeasibilityError,
    Graph,
    InputError,
    InvariantError,
    MoveSequence,
    RootedTree,
    SetSystem,
    SizeMismatchError,
    TokenMultiset,
    compress_moves,
    dominating_predicate,
    hitting_predicate,
    min_cost_matching,
    reconf_tree,
    reconf_tree_dominating,
    reconfig_distance_bfs,
    verify_sequence,
)
from tokenslide.generators import gen_hitting_instance, heavy_path_instance, random_tree
from tokenslide.graphs import is_dominating, peel_tree
from tokenslide.instances import emit_instance, parse_instance
from tokenslide.tree_reconfig import _CHILD_SCANS, _differ, _sweep

from helpers import iter_tree_instances


def path_tree(n, root=0):
    return RootedTree(Graph(n, [(i, i + 1) for i in range(n - 1)]), root)


def _dense_sweep(tree, h_s, h_t):
    """The sweep over every vertex of ``tree.order``, kept as the reference
    that ``_sweep``, which visits only the root paths of the vertices whose
    counts differ, must reproduce triple for triple."""
    n = tree.n
    cs = [0] * n
    ct = [0] * n
    for v, c in h_s.items():
        cs[v] = c
    for v, c in h_t.items():
        ct[v] = c
    parent = tree.parent
    front = []
    back = []
    for v in tree.order:
        if v == tree.root:
            continue
        delta = cs[v] - ct[v]
        p = parent[v]
        if delta > 0:
            front.append((v, p, delta))
            cs[v] -= delta
            cs[p] += delta
        elif delta < 0:
            back.append((p, v, -delta))
            ct[v] += delta
            ct[p] -= delta
    if cs[tree.root] != ct[tree.root]:
        raise InvariantError("leftover imbalance at the root despite equal sizes")
    return MoveSequence(front + back[::-1])


def _random_rooted_tree(n, rng):
    """A random tree on 0..n-1 with ids in random order: peeled and rooted
    at 0, or built eagerly and rooted by ``check_tree`` at a random vertex."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in random_tree(n, rng).edges()]
    if rng.random() < 0.5:
        return RootedTree(peel_tree(n, [x for e in edges for x in e]), 0)
    return RootedTree(Graph(n, edges), rng.randrange(n))


def _root_path(tree, v):
    path = [v]
    while path[-1] != tree.root:
        path.append(tree.parent[path[-1]])
    return path


def _sweep_case(rng, rooted=_random_rooted_tree):
    """A tree, ``rooted(n, rng)``, and two token multisets of equal size, of
    one of the shapes where only some root paths carry tokens."""
    n = rng.choice((1, 2, 3)) if rng.random() < 0.1 else rng.randrange(4, 40)
    tree = rooted(n, rng)
    shape = rng.choice(("random", "pile", "cancel", "equal", "root"))
    base = [rng.randrange(n) for _ in range(rng.randrange(n + 1))]
    if shape == "random":
        k = rng.randrange(2 * n + 1)
        start = [rng.randrange(n) for _ in range(k)]
        target = [rng.randrange(n) for _ in range(k)]
    elif shape == "pile":  # a pile on a shared base, as perfbench's trees
        pile = rng.randrange(1, 2 * n + 1)
        start = base + [rng.randrange(n)] * pile
        target = base + [rng.randrange(n)] * pile
    elif shape == "cancel":  # tokens move within x's subtree, whose surplus stays 0
        x = rng.randrange(n)
        below = [v for v in range(n) if x in _root_path(tree, v)]
        start = base + [rng.choice(below) for _ in range(rng.randrange(1, 4))]
        target = base + [rng.choice(below) for _ in start[len(base) :]]
    elif shape == "equal":
        start = target = base
    else:  # the root gains or loses tokens
        extra = [rng.randrange(n) for _ in range(rng.randrange(1, 4))]
        start, target = base + extra, base + [tree.root] * len(extra)
        if rng.random() < 0.5:
            start, target = target, start
    return tree, TokenMultiset(start), TokenMultiset(target)


class TestSweepAgainstDenseReference:
    def test_sweep_matches_the_dense_sweep(self):
        rng = random.Random(2501)
        shapes_with_moves = 0
        for _ in range(2400):
            tree, h_s, h_t = _sweep_case(rng)
            seq = _sweep(tree, h_s, h_t)
            assert seq.moves == _dense_sweep(tree, h_s, h_t).moves
            shapes_with_moves += bool(seq.moves)
        assert shapes_with_moves > 1000

    def test_hitting_families_match_the_dense_sweep(self):
        rng = random.Random(2502)
        for seed in range(300):
            tree, system, h_s, h_t = gen_hitting_instance(rng.randrange(1, 16), seed)
            # subtrees stay subtrees under any root
            tree = RootedTree(tree.graph, rng.randrange(tree.n))
            seq = reconf_tree(tree, SetSystem(system.sets, tree=tree), h_s, h_t)
            assert seq.moves == _dense_sweep(tree, h_s, h_t).moves

    def test_sweep_reads_no_depth(self):
        """The depths the sweep gives U on its walks order U as ``tree.depth``
        does, over 2 000 seeded cases on trees rooted from the lower ends of
        their edge lines, whose depth is never read: dominating instances
        solved from their parsed files, and increasing-id trees with the
        token shapes of ``_sweep_case``, each against the eager graph rooted
        by BFS.  Other roots: ``test_hitting_families_match_the_dense_sweep``."""
        rng = random.Random(2903)
        for inst in iter_tree_instances(1400, 2903, max_n=40, max_k=14):
            parsed = parse_instance(emit_instance(inst))
            tree = RootedTree(parsed.graph, 0)
            seq = reconf_tree_dominating(tree, parsed.d_s, parsed.d_t)
            assert tree._depth is None and parsed.graph._adj is None
            eager = RootedTree(inst.graph, 0)
            assert seq.moves == _sweep(eager, inst.d_s, inst.d_t).moves == _dense_sweep(eager, inst.d_s, inst.d_t).moves

        eagers = []

        def lower_end_tree(n, rng):
            edges = random_tree(n, rng).edges()  # sorted lo hi lines
            eagers.append(RootedTree(Graph(n, edges), 0))
            return RootedTree(peel_tree(n, [x for e in edges for x in e]), 0)

        long_walks = 0
        for _ in range(600):
            tree, h_s, h_t = _sweep_case(rng, lower_end_tree)
            eager = eagers.pop()
            seq = _sweep(tree, h_s, h_t)
            assert tree._depth is None
            assert seq.moves == _dense_sweep(eager, h_s, h_t).moves
            long_walks += len(seq.moves) > len(_differ(h_s, h_t))  # some walk passed two vertices
        assert long_walks > 100

    @pytest.mark.parametrize("root", [0, 2, 4])
    def test_unequal_sizes_leave_an_imbalance_at_the_root(self, root):
        tree = path_tree(5, root)
        for start, target in (([0, 1], [4]), ([root, root], [root]), ([3], [1, 1, 2])):
            h_s, h_t = TokenMultiset(start), TokenMultiset(target)
            for sweep in (_sweep, _dense_sweep):
                with pytest.raises(InvariantError, match="leftover imbalance at the root"):
                    sweep(tree, h_s, h_t)

    def test_solving_a_peeled_tree_sorts_no_order(self):
        n = 30
        tree = RootedTree(peel_tree(n, [x for i in range(1, n) for x in (i, (i - 1) // 2)]), 0)
        base = list(range(n // 2))  # the inner vertices of this heap-shaped tree
        d_s = TokenMultiset(base + [n - 1] * 5)
        d_t = TokenMultiset(base + [n // 2] * 5)
        seq = reconf_tree_dominating(tree, d_s, d_t)
        assert tree._order is None
        depth = tree.depth
        assert tree.order == tuple(sorted(range(n), key=lambda v: (-depth[v], v)))
        assert seq.moves == _dense_sweep(tree, d_s, d_t).moves


class TestMoveSequence:
    def test_compress_merges_consecutive_runs(self):
        seq = compress_moves([(0, 1), (0, 1), (1, 2), (0, 1)])
        assert seq.moves == ((0, 1, 2), (1, 2, 1), (0, 1, 1))
        assert seq.total_length == 4

    def test_rejects_degenerate_triples(self):
        with pytest.raises(InputError):
            MoveSequence([(1, 1, 1)])
        with pytest.raises(InputError):
            MoveSequence([(0, 1, 0)])


class TestTreeReconfExamples:
    def test_equal_inputs_do_nothing(self):
        tree = path_tree(6)
        tokens = TokenMultiset([1, 4])
        assert reconf_tree_dominating(tree, tokens, tokens).moves == ()

    def test_p4_dominating(self):
        tree = path_tree(4)
        d_s, d_t = TokenMultiset([0, 2]), TokenMultiset([1, 3])
        seq = reconf_tree_dominating(tree, d_s, d_t)
        assert seq.moves == ((0, 1, 1), (2, 3, 1))
        ok, final, _ = verify_sequence(tree.graph, dominating_predicate(tree.graph), d_s, seq)
        assert ok and final == d_t

    def test_vertex_cover_mode(self):
        tree = path_tree(3)
        system = SetSystem([{0, 1}, {1, 2}], tree=tree)
        seq = reconf_tree(tree, system, TokenMultiset([0, 2]), TokenMultiset([0, 1]))
        assert seq.moves == ((2, 1, 1),)

    def test_star_identity(self):
        star = RootedTree(Graph(4, [(0, 1), (0, 2), (0, 3)]), 0)
        center = TokenMultiset([0])
        assert reconf_tree_dominating(star, center, center).moves == ()


class TestTreeReconfErrors:
    def test_size_mismatch(self):
        tree = path_tree(4)
        with pytest.raises(SizeMismatchError):
            reconf_tree_dominating(tree, TokenMultiset([1]), TokenMultiset([1, 3]))

    def test_non_dominating_input(self):
        tree = path_tree(4)
        with pytest.raises(FeasibilityError):
            reconf_tree_dominating(tree, TokenMultiset([0, 1]), TokenMultiset([1, 3]))

    def test_bad_set_system(self):
        tree = path_tree(4)
        system = SetSystem([[0, 3]])  # not validated until attached to the tree
        with pytest.raises(InputError):
            reconf_tree(tree, system, TokenMultiset([0, 3]), TokenMultiset([0, 3]))

    @pytest.mark.parametrize(
        "start, target, named",
        [([0, 4, -1], [1, 2, 3], -1), ([0, 4, 99], [1, 2, 3], 99), ([0, 4, 2], [1, 3, 7], 7)],
    )
    def test_tokens_outside_the_tree_are_invalid_input(self, start, target, named):
        tree = path_tree(5)
        system = SetSystem([{0, 1}, {3, 4}], tree=tree)
        with pytest.raises(InputError, match=f"^token on vertex {named} outside the graph$"):
            reconf_tree(tree, system, TokenMultiset(start), TokenMultiset(target))


def _outcome(solve, tree, d_s, d_t):
    try:
        return "ok", solve(tree, d_s, d_t).moves
    except (InputError, FeasibilityError) as exc:
        return type(exc).__name__, str(exc)


def _solve_with_full_checks(tree, d_s, d_t):
    """``reconf_tree_dominating`` as it read before the target was checked
    on N[D] only: both sides by ``is_dominating``."""
    for tokens, label in ((d_s, "start"), (d_t, "target")):
        if not is_dominating(tree.graph, tokens):
            raise FeasibilityError(f"{label} configuration is not dominating")
    return _sweep(tree, d_s, d_t)


def test_target_checked_around_the_changed_vertices():
    """Checking the target on N[D] alone raises the same errors, with the
    same texts and in the same order, as the full check, both when the
    emptied vertices' children are scanned for and when there are too many
    emptied vertices and the full check runs."""
    seen = collections.Counter()
    for seed in range(3000):
        rng = random.Random(seed)
        n = rng.randrange(1, 30)
        tree = _random_rooted_tree(n, rng)
        pred = dominating_predicate(tree.graph)
        picks = rng.choices(range(n), k=rng.randrange(1, n + 2))
        if rng.random() < 0.9:  # mostly dominating starts, so the target gets checked
            while not pred(TokenMultiset(picks).support_mask):
                picks.append(rng.randrange(n))
        moved = list(picks)
        for _ in range(rng.choice((1, 2, 3, 2 * n))):  # a few tokens moved, or all of them
            moved[rng.randrange(len(moved))] = rng.randrange(n)
        if rng.random() < 0.05:
            moved[rng.randrange(len(moved))] = rng.choice((-1, n, n + 4))
        d_s, d_t = TokenMultiset(picks), TokenMultiset(moved)
        outcome = _outcome(reconf_tree_dominating, tree, d_s, d_t)
        assert outcome == _outcome(_solve_with_full_checks, tree, d_s, d_t), seed
        emptied = sum(v not in d_t for v in d_s.support)
        seen["scan" if emptied <= _CHILD_SCANS else "full"] += outcome[1] == "target configuration is not dominating"
        seen[outcome[0] if outcome[0] != "FeasibilityError" else outcome[1].split()[0]] += 1
    assert min(seen[k] for k in ("scan", "full", "ok", "InputError", "start", "target")) >= 20, seen


class TestTreeOptimality:
    def test_matches_oracle_and_matching_bound(self):
        for inst in iter_tree_instances(120, base_seed=882):
            tree = RootedTree(inst.graph, 0)
            seq = reconf_tree_dominating(tree, inst.d_s, inst.d_t)
            pred = dominating_predicate(inst.graph)
            ok, final, failure = verify_sequence(inst.graph, pred, inst.d_s, seq)
            assert ok and final == inst.d_t, failure
            d = reconfig_distance_bfs(inst.graph, pred, inst.d_s, inst.d_t)
            _, c = min_cost_matching(inst.graph, inst.d_s, inst.d_t)
            assert seq.total_length == d == c

    def test_hitting_set_families(self):
        rng = random.Random(5)
        for seed in range(60):
            tree, system, h_s, h_t = gen_hitting_instance(rng.randrange(2, 13), seed)
            seq = reconf_tree(tree, system, h_s, h_t)
            pred = hitting_predicate(system)
            ok, final, failure = verify_sequence(tree.graph, pred, h_s, seq)
            assert ok and final == h_t, failure
            d = reconfig_distance_bfs(tree.graph, pred, h_s, h_t)
            _, c = min_cost_matching(tree.graph, h_s, h_t)
            assert seq.total_length == d == c

    def test_emitted_vertices_never_get_deeper(self):
        # the child vertex of each move, in emission order of the two
        # buffers, must have non-increasing depth
        for inst in iter_tree_instances(60, base_seed=4242):
            tree = RootedTree(inst.graph, 0)
            seq = reconf_tree_dominating(tree, inst.d_s, inst.d_t)
            front_depths = []
            back_depths = []
            for u, v, _ in seq.moves:
                if tree.depth[u] > tree.depth[v]:
                    front_depths.append(tree.depth[u])
                else:
                    back_depths.append(tree.depth[v])
            assert front_depths == sorted(front_depths, reverse=True)
            assert back_depths == sorted(back_depths)


class TestTreeScaling:
    def test_compressed_output_stays_linear_on_heavy_paths(self):
        n = 4000
        graph, d_s, d_t = heavy_path_instance(n, n // 3)
        tree = RootedTree(graph, 0)
        seq = reconf_tree_dominating(tree, d_s, d_t)
        assert len(seq.moves) <= n
        assert seq.total_length >= (n // 3) * (n - 1)
        _, c = min_cost_matching(graph, d_s, d_t)
        assert seq.total_length == c

    def test_doubling_n_roughly_doubles_time(self):
        cases = []
        for n in (50_000, 100_000):
            graph, d_s, d_t = heavy_path_instance(n, n // 3)
            cases.append((RootedTree(graph, 0), d_s, d_t))
        # the repeats alternate between the sizes, so a drift in machine
        # speed slows both alike instead of only the later one
        best = [float("inf")] * len(cases)
        for _ in range(3):
            for i, (tree, d_s, d_t) in enumerate(cases):
                t0 = time.perf_counter()
                reconf_tree_dominating(tree, d_s, d_t)
                best[i] = min(best[i], time.perf_counter() - t0)
        t1, t2 = best
        assert t2 / t1 < 2.5, f"time grew {t2 / t1:.2f}x when n doubled"
