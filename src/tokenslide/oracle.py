"""Ground truth at desk scale: exhaustive BFS over configurations plus
sequence verification, and the optimality certificate by the matching bound.

One breadth-first search (``_bfs``) serves both the distance and the
component, and stops with StateCapExceeded once it passes its state cap.
States are token multisets; feasibility predicates look only at the support
and receive it as a bit mask, which keeps the BFS inner loop cheap.  The
upward-closed predicates (dominating, hitting) also carry ``tracker(n,
start)``, which builds the tracker of start's tokens on an n-vertex graph:
a ``graphs.TreeCoverage`` on the parent array of a tree that holds one
(``_parent``: a tree from ``peel_tree``, or one rooted at 0), and a
``graphs.Coverage`` on N[v] sets or on a family's sets otherwise.  ``verify_sequence`` replays a
sequence on it one triple at a time, and ``_bfs`` checks both ends with it,
so an infeasible end is rejected before any mask is built.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from typing import Callable, NamedTuple

from .errors import FeasibilityError, InputError, StateCapExceeded
from .graphs import UNREACHABLE, Coverage, Graph, RootedTree, SetSystem, TreeCoverage
from .graphs import closed_neighborhoods, distances_from, require_on_graph, require_same_size
from .matching import min_cost_matching
from .moves import MoveSequence
from .multiset import TokenMultiset

#: Visited-state budget for the exhaustive search.
DEFAULT_STATE_CAP = 2_000_000

Predicate = Callable[[int], bool]


def _masks(sets: Iterable[Iterable[int]]) -> list[int]:
    out = []
    for s in sets:
        mask = 0
        for v in s:
            mask |= 1 << v
        out.append(mask)
    return out


def dominating_predicate(g: Graph) -> Predicate:
    """Feasible iff the support dominates g.

    The mask table is built on the first call: it is quadratic in n, and
    neither ``verify_sequence`` nor the end checks of the search call the
    predicate, only ``tracker``.  On a tree that holds its parent array the
    tracker reads that array alone, so a replay builds neither the adjacency
    nor any N[v] set.
    """
    full = (1 << g.n) - 1
    closed: list[int] = []

    def pred(support_mask: int) -> bool:
        if not closed:
            closed.extend(_masks(closed_neighborhoods(g)))
        covered = 0
        m = support_mask
        while m:
            low = m & -m
            covered |= closed[low.bit_length() - 1]
            m ^= low
        return covered == full

    def tracker(n: int, start: TokenMultiset) -> Coverage | TreeCoverage:
        # n is g.n; a set family, which knows no graph, needs it
        if g._parent is not None:
            return TreeCoverage(RootedTree(g), start)
        return Coverage(closed_neighborhoods(g), g.n, start)

    pred.tracker = tracker
    return pred


def hitting_predicate(system: SetSystem) -> Predicate:
    """Feasible iff the support intersects every set of the system.

    The mask table is built on the first call, as in ``dominating_predicate``.
    """
    set_masks: list[int] = []

    def pred(support_mask: int) -> bool:
        if not set_masks:
            set_masks.extend(_masks(system.sets))
        return all(support_mask & m for m in set_masks)

    pred.tracker = lambda n, start: Coverage(system.hits(n), len(system), start)
    return pred


def independent_set_predicate(g: Graph) -> Predicate:
    """Feasible iff no two support vertices are adjacent (oracle self-tests)."""
    nbr = _masks(g.adjacency)

    def pred(support_mask: int) -> bool:
        m = support_mask
        while m:
            low = m & -m
            if nbr[low.bit_length() - 1] & support_mask:
                return False
            m ^= low
        return True

    return pred


Key = tuple[tuple[int, int], ...]


def _bfs(g: Graph, pred: Predicate, start: TokenMultiset, goal: TokenMultiset, cap: int):
    """Breadth-first search from start, after checking ``cap``, the sizes, the
    tokens' range and both ends.  Yields (key, new_key, new_key's depth):
    (None, start's key, 0), then every feasible one-token slide in visit
    order.  Raises StateCapExceeded after the slide that reaches the
    configuration past ``cap``.
    """
    if cap < 1:
        raise InputError(f"state cap must be at least 1, got {cap}")
    require_same_size(start, goal)
    require_on_graph(g.n, start.support | goal.support)
    tracker = getattr(pred, "tracker", None)
    for tokens, label in ((start, "start"), (goal, "goal")):
        # a tracker decides without the predicate's masks, Theta(n^2) bits
        # for domination, which an infeasible end would build for nothing
        if not (tracker(g.n, tokens).feasible if tracker else pred(tokens.support_mask)):
            raise FeasibilityError(f"{label} configuration is infeasible")
    adj = g.adjacency
    start_key = start.key()
    depth = {start_key: 0}
    yield None, start_key, 0
    frontier = deque([(start_key, start.support_mask)])
    while frontier:
        key, mask = frontier.popleft()
        d = depth[key] + 1
        counts = dict(key)
        for v, c in key:
            base = mask & ~(1 << v) if c == 1 else mask
            for w in adj[v]:
                new_mask = base | 1 << w
                if not pred(new_mask):
                    continue
                counts[v] -= 1
                counts[w] = counts.get(w, 0) + 1
                new_key = tuple(sorted((x, k) for x, k in counts.items() if k))
                counts[w] -= 1
                counts[v] += 1
                known = depth.get(new_key)
                yield key, new_key, d if known is None else known
                if known is None:
                    depth[new_key] = d
                    if len(depth) > cap:
                        raise StateCapExceeded(f"visited more than {cap} configurations")
                    frontier.append((new_key, new_mask))


def reconfig_distance_bfs(
    g: Graph,
    pred: Predicate,
    start: TokenMultiset,
    goal: TokenMultiset,
    cap: int = DEFAULT_STATE_CAP,
) -> int | None:
    """Exact slide distance between two feasible configurations.

    Explores the reconfiguration graph breadth-first, one token slide per
    edge.  Returns None when the goal is not in the start's component;
    raises StateCapExceeded after visiting more than ``cap`` states, and
    InputError when ``cap`` is below 1 or a token lies outside g.
    """
    goal_key = goal.key()
    for _, key, d in _bfs(g, pred, start, goal, cap):
        if key == goal_key:
            return d
    return None


def reconfig_component(
    g: Graph,
    pred: Predicate,
    start: TokenMultiset,
    goal: TokenMultiset,
    cap: int = DEFAULT_STATE_CAP,
) -> tuple[set[Key], set[tuple[Key, Key]]]:
    """Configurations reachable from start and the slides between them as
    ordered key pairs, from the search ``reconfig_distance_bfs`` runs, with
    its errors: StateCapExceeded when there are more than ``cap`` of them.
    """
    states: set[Key] = set()
    slides: set[tuple[Key, Key]] = set()
    for key, new_key, _ in _bfs(g, pred, start, goal, cap):
        states.add(new_key)
        if key is not None:
            slides.add((key, new_key) if key < new_key else (new_key, key))
    return states, slides


class VerifyResult(NamedTuple):
    ok: bool
    final: TokenMultiset
    failure: str | None


def verify_sequence(
    g: Graph, pred: Predicate, start: TokenMultiset, seq: MoveSequence
) -> VerifyResult:
    """Replay a move sequence, checking edges, token presence and feasibility.

    Failures name the unit move at fault, counted from 0 across the whole
    sequence.  On failure, ``final`` is the configuration after the longest
    valid prefix.

    The predicate must be upward-closed and carry ``tracker`` (as
    ``dominating_predicate`` and ``hitting_predicate`` do).  Then a triple
    (u, v, c) with a tokens on u only visits the supports S + v, which
    contains the feasible S, and, after its a-th move, S + v - u, so one
    ``can_slide`` of the tracker per triple decides it.
    """
    tracker = getattr(pred, "tracker", None)
    if tracker is None:
        raise InputError("verify_sequence needs an upward-closed predicate with a tracker")
    cover = tracker(g.n, start)
    counts = cover.counts

    def fail(message: str) -> VerifyResult:
        return VerifyResult(False, TokenMultiset.from_counts_list(counts), message)

    if not cover.feasible:
        return fail("start configuration is infeasible")
    has_edge, can_slide, slide = g.has_edge, cover.can_slide, cover.slide
    i = 0
    for u, v, c in seq.moves:
        if not has_edge(u, v):
            return fail(f"move {i}: ({u}, {v}) is not an edge")
        a = counts[u]
        if a < 1:
            return fail(f"move {i}: no token on vertex {u}")
        if c < a:
            slide(u, v, c)
        else:
            if a > 1:
                slide(u, v, a - 1)
            if not can_slide(u, v):
                return fail(f"move {i + a - 1}: configuration after ({u}, {v}) is infeasible")
            slide(u, v)
            if c > a:
                return fail(f"move {i + a}: no token on vertex {u}")
        i += c
    return VerifyResult(True, TokenMultiset.from_counts_list(counts), None)


def sequence_failure(
    g: Graph,
    pred: Predicate,
    start: TokenMultiset,
    goal: TokenMultiset,
    seq: MoveSequence,
    optimal: bool = True,
) -> str | None:
    """The first failed check as the one line ``tokenslide verify`` prints, or
    None: the replay, the goal, and with ``optimal`` the matching bound.

    No slide sequence is shorter than the minimum-cost matching c* between
    start and goal, and a replayed sequence of length L shows that the
    distance is at most L.  So c* == L certifies that L is the distance, and
    no configuration search is needed.  On trees and on interval graphs
    (those from ``intersection_graph``) c* is the distance, so c* < L shows
    that L is not shortest; on any other graph c* may fall below the
    distance, and c* < L leaves L only not certified.
    """
    ok, final, failure = verify_sequence(g, pred, start, seq)
    if not ok:
        return f"invalid: {failure}"
    if final != goal:
        return "invalid: sequence does not end in the target configuration"
    length = seq.total_length
    if optimal:
        _, cost = min_cost_matching(g, start, goal)
        if cost != length:
            if g._chains is None and not _is_tree(g):
                return f"not certified: matching bound {cost} is below length {length}"
            return f"suboptimal: matching bound {cost} differs from length {length}"
    return None


def _is_tree(g: Graph) -> bool:
    # a graph that holds a parent array is a tree; any other graph runs a BFS
    tree_sized = g.edge_count == g.n - 1
    return g._parent is not None or tree_sized and UNREACHABLE not in distances_from(g, 0)
