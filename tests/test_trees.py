import random
import time

import pytest

from tokenslide import (
    FeasibilityError,
    Graph,
    InputError,
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
from tokenslide.generators import gen_hitting_instance, heavy_path_instance

from helpers import iter_tree_instances


def path_tree(n, root=0):
    return RootedTree(Graph(n, [(i, i + 1) for i in range(n - 1)]), root)


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
