"""Shortest token-sliding reconfiguration of hitting sets on trees.

Deepest vertex first, the surplus of tokens in each subtree slides across
the edge to its parent.  Moves that push source tokens upward are emitted
immediately; moves that would pull target-side tokens upward are buffered
and emitted reversed (parent down to child) at the end, so the whole output
runs forward from the start configuration.  Only the edges on the root
paths of the vertices whose counts differ can carry tokens, so the sweep
visits those and no others: its cost follows these paths, not n, and the
output is run-length compressed to at most one triple per vertex.
"""

from __future__ import annotations

from .errors import FeasibilityError, InvariantError
from .graphs import RootedTree, SetSystem, TreeCoverage, require_hitting, require_on_graph
from .graphs import require_same_size
from .graphs import closed_neighborhood_system  # noqa: F401  perfbench's --trace 1 patches it here
from .moves import MoveSequence
from .multiset import TokenMultiset


def reconf_tree(
    tree: RootedTree, system: SetSystem, h_s: TokenMultiset, h_t: TokenMultiset
) -> MoveSequence:
    """Shortest move sequence turning h_s into h_t, all intermediates hitting.

    Both inputs must hit every set of ``system`` and every set must induce a
    subtree of ``tree``; the sequence length always equals the minimum-cost
    matching bound.
    """
    require_same_size(h_s, h_t)
    system.ensure_subtrees(tree)
    require_on_graph(tree.n, h_s.support | h_t.support)
    require_hitting(system, h_s, "start")
    require_hitting(system, h_t, "target")
    return _sweep(tree, h_s, h_t)


def reconf_tree_dominating(
    tree: RootedTree, d_s: TokenMultiset, d_t: TokenMultiset
) -> MoveSequence:
    """Dominating-set specialization: hit the family of closed neighborhoods.

    Every closed neighborhood of a tree is a star, hence a subtree, so the
    family needs no validation and is never built.  One ``TreeCoverage`` of
    the start, on the tree's parent array, checks both ends, and the tree's
    adjacency is never read: the start in its constructor, the target by
    ``reach``, which looks only at the vertices that the move to the target
    empties.
    """
    require_same_size(d_s, d_t)
    cover = TreeCoverage(tree, d_s)
    if not cover.feasible:
        raise FeasibilityError("start configuration is not dominating")
    differ = _differ(d_s, d_t)
    if not cover.reach(d_t, differ):
        raise FeasibilityError("target configuration is not dominating")
    del cover  # three lists of n entries, freed before the sweep allocates its own
    return _sweep(tree, d_s, d_t, differ)


def _differ(h_s: TokenMultiset, h_t: TokenMultiset) -> set[int]:
    """The vertices whose counts differ between h_s and h_t."""
    return {v for v, _ in h_s._counts.items() ^ h_t._counts.items()}


def _sweep(
    tree: RootedTree, h_s: TokenMultiset, h_t: TokenMultiset, differ: set[int] | None = None
) -> MoveSequence:
    """The deepest-first sweep on two feasible configurations of equal size
    whose counts differ on D, the vertices ``differ`` (by default computed
    here).

    The surplus S(v) of v's subtree, source minus target tokens, crosses the
    edge from v to its parent.  It can be non-zero only if some vertex of D
    lies in that subtree, that is only for v on the root path of a vertex
    of D.  ``tree._climb(D)`` gives U, the union of these paths less the
    root, in the relative order of ``tree.order``, without reading
    ``tree.depth``; S(v) is pushed to the parent in that order, and all of
    it arrives at the root, where S(root) = 0 for equal sizes.  Cost:
    O(|D| + |U| log |U|) after two C-level allocations of n entries, the
    first freed before the second is made.
    """
    if differ is None:
        differ = _differ(h_s, h_t)
    count_s = h_s._counts.get
    count_t = h_t._counts.get
    parent = tree.parent
    root = tree.root
    up = tree._climb(differ)[0]  # its level list, n entries, is freed here
    surplus = [0] * len(parent)
    for v in differ:
        surplus[v] = count_s(v, 0) - count_t(v, 0)

    front: list[tuple[int, int, int]] = []
    back: list[tuple[int, int, int]] = []
    for v in up:
        delta = surplus[v]
        if delta:
            p = parent[v]
            surplus[p] += delta
            if delta > 0:
                front.append((v, p, delta))
            else:
                back.append((p, v, -delta))
    if surplus[root]:
        raise InvariantError("leftover imbalance at the root despite equal sizes")
    del surplus, up  # n and |U| entries, freed before the triples are copied
    # each triple has v != p and a count of at least 1
    return MoveSequence._two_sided(front, back)
