"""Shortest token-sliding reconfiguration of hitting sets on trees.

One pass over the vertices in decreasing-depth order: at the deepest vertex
where the two configurations disagree, the surplus tokens slide to the
parent.  Moves that push source tokens upward are emitted immediately;
moves that would pull target-side tokens upward are buffered and emitted
reversed (parent down to child) at the end, so the whole output runs
forward from the start configuration.  Linear time, and the output is
run-length compressed to at most one triple per vertex.
"""

from __future__ import annotations

from .errors import FeasibilityError, InvariantError
from .graphs import RootedTree, SetSystem, is_dominating_tree, require_hitting, require_on_graph
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
    family needs no validation and is never built: domination is checked on
    the parent array, and the tree's adjacency is never read.
    """
    require_same_size(d_s, d_t)
    for tokens, label in ((d_s, "start"), (d_t, "target")):
        if not is_dominating_tree(tree, tokens):
            raise FeasibilityError(f"{label} configuration is not dominating")
    return _sweep(tree, d_s, d_t)


def _sweep(tree: RootedTree, h_s: TokenMultiset, h_t: TokenMultiset) -> MoveSequence:
    """The deepest-first sweep on two feasible configurations of equal size."""
    n = tree.n
    cs = [0] * n
    ct = [0] * n
    for v, c in h_s.items():
        cs[v] = c
    for v, c in h_t.items():
        ct[v] = c

    parent = tree.parent
    front: list[tuple[int, int, int]] = []
    back: list[tuple[int, int, int]] = []
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

