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

from collections import deque
from itertools import repeat
from operator import setitem

from .errors import FeasibilityError, InvariantError
from .graphs import RootedTree, SetSystem, is_dominating, require_hitting, require_on_graph
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
    family needs no validation and is never built.  On a tree that holds
    its parent array (see ``RootedTree``) domination is checked on that
    array, and the tree's adjacency is never read.  The target is checked only around the
    vertices whose counts differ from the start's (``_dominates_around``).
    """
    require_same_size(d_s, d_t)
    if not is_dominating(tree.graph, d_s):
        raise FeasibilityError("start configuration is not dominating")
    differ = _differ(d_s, d_t)
    if not _dominates_around(tree, d_t, differ):
        raise FeasibilityError("target configuration is not dominating")
    return _sweep(tree, d_s, d_t, differ)


def _differ(h_s: TokenMultiset, h_t: TokenMultiset) -> set[int]:
    """The vertices whose counts differ between h_s and h_t."""
    return {v for v, _ in h_s._counts.items() ^ h_t._counts.items()}


#: Emptied vertices whose children ``_dominates_around`` finds by scanning
#: the parent list; one scan, in C, costs about an eighth of the full check.
_CHILD_SCANS = 4


def _dominates_around(tree: RootedTree, tokens: TokenMultiset, differ: set[int]) -> bool:
    """``is_dominating(tree.graph, tokens)``, given a dominating configuration
    whose counts differ from the tokens' on the vertices ``differ`` alone.

    Only a vertex x with N[x] meeting ``differ`` can have lost its last
    dominator: a vertex of ``differ``, its parent, or a child of a vertex
    that the tokens leave empty (a child of an occupied vertex is
    dominated).  x is dominated iff x or its parent holds a token or x has
    an occupied child.  Those children are found by scanning the parent
    list, so past ``_CHILD_SCANS`` emptied vertices the full check runs.
    A token outside the tree lies in ``differ`` and raises as in the full
    check.
    """
    require_on_graph(tree.n, differ)
    held = tokens._counts.__contains__
    emptied = [v for v in differ if not held(v)]
    if len(emptied) > _CHILD_SCANS:
        return is_dominating(tree.graph, tokens)
    parent = tree.parent
    near = set(differ)
    near.update(map(parent.__getitem__, differ))
    for v in emptied:
        near.update(_children(parent, v))
    with_child = None  # the parents of the occupied vertices, built if needed
    for x in near:
        if held(x) or held(parent[x]):
            continue
        if with_child is None:
            with_child = set(map(parent.__getitem__, tokens._counts))
        if x not in with_child:
            return False
    return True


def _children(parent: list[int], v: int) -> list[int]:
    """The vertices whose parent is v (v too if it is the root), found by
    ``list.index`` scans."""
    out = []
    i = -1
    try:
        while True:
            i = parent.index(v, i + 1)
            out.append(i)
    except ValueError:
        return out


def _sweep(
    tree: RootedTree, h_s: TokenMultiset, h_t: TokenMultiset, differ: set[int] | None = None
) -> MoveSequence:
    """The deepest-first sweep on two feasible configurations of equal size
    whose counts differ on D, the vertices ``differ`` (by default computed
    here).

    The surplus S(v) of v's subtree, source minus target tokens, crosses the
    edge from v to its parent.  It can be non-zero only if some vertex of D
    lies in that subtree, that is only for v on the root path of a vertex
    of D.  The walk up from each vertex of D stops at the first vertex
    whose depth is known, the root from the start, so it visits U, the
    union of these paths less the root, once; it then gives the vertices
    it passed their depths, counted from that vertex's, in one C-level
    scatter, so ``tree.depth`` is never read.  U is sorted by id and,
    stably, by decreasing depth, which is the relative order of
    ``tree.order``, and S(v) is pushed to the parent in that order; all of
    it arrives at the root, where S(root) = 0 for equal sizes.  Cost:
    O(|D| + |U| log |U|), the sorts and scatters in C, after two C-level
    allocations of n entries.
    """
    if differ is None:
        differ = _differ(h_s, h_t)
    count_s = h_s._counts.get
    count_t = h_t._counts.get
    parent = tree.parent
    root = tree.root
    n = len(parent)
    surplus = [0] * n
    level = [-1] * n  # the depths of the root and of U, -1 elsewhere
    level[root] = 0
    up: list[int] = []
    for v in differ:
        surplus[v] = count_s(v, 0) - count_t(v, 0)
        start = len(up)
        while level[v] < 0:
            up.append(v)
            v = parent[v]
        # up[start:] runs from the deepest vertex passed up to a child of v
        d = level[v]
        deque(map(setitem, repeat(level), up[start:], range(d + len(up) - start, d, -1)), 0)
    # the sort is stable under reverse=True, so ties keep increasing id
    up.sort()
    up.sort(key=level.__getitem__, reverse=True)
    del level  # n entries, freed before the triples are built

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
    front.extend(reversed(back))
    del back
    # each triple has v != p and a count of at least 1
    return MoveSequence._trusted(tuple(front))
