"""Ground truth at desk scale: exhaustive BFS over configurations plus
sequence verification.

States are token multisets; feasibility predicates look only at the support
and receive it as a bit mask, which keeps the BFS inner loop cheap.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, NamedTuple

from .errors import FeasibilityError, StateCapExceeded
from .graphs import Graph, SetSystem, require_same_size
from .matching import min_cost_matching
from .moves import MoveSequence, iter_unit_moves
from .multiset import TokenMultiset

#: Visited-state budget for the exhaustive search.
DEFAULT_STATE_CAP = 2_000_000

Predicate = Callable[[int], bool]


def dominating_predicate(g: Graph) -> Predicate:
    """Feasible iff the support dominates g."""
    full = (1 << g.n) - 1
    closed = []
    for v in range(g.n):
        mask = 1 << v
        for w in g.neighbors(v):
            mask |= 1 << w
        closed.append(mask)

    def pred(support_mask: int) -> bool:
        covered = 0
        m = support_mask
        while m:
            low = m & -m
            covered |= closed[low.bit_length() - 1]
            m ^= low
        return covered == full

    return pred


def hitting_predicate(system: SetSystem) -> Predicate:
    """Feasible iff the support intersects every set of the system."""
    set_masks = []
    for s in system.sets:
        mask = 0
        for v in s:
            mask |= 1 << v
        set_masks.append(mask)

    def pred(support_mask: int) -> bool:
        return all(support_mask & m for m in set_masks)

    return pred


def independent_set_predicate(g: Graph) -> Predicate:
    """Feasible iff no two support vertices are adjacent (oracle self-tests)."""
    nbr = []
    for v in range(g.n):
        mask = 0
        for w in g.neighbors(v):
            mask |= 1 << w
        nbr.append(mask)

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


def _slides(adj, pred: Predicate, key: Key, mask: int):
    """Every feasible one-token slide from a configuration, as (key, support mask)."""
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
            yield new_key, new_mask


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
    raises StateCapExceeded after visiting more than ``cap`` states.
    """
    require_same_size(start, goal)
    if not pred(start.support_mask):
        raise FeasibilityError("start configuration is infeasible")
    if not pred(goal.support_mask):
        raise FeasibilityError("goal configuration is infeasible")
    start_key = start.key()
    goal_key = goal.key()
    if start_key == goal_key:
        return 0
    adj = g.adjacency
    visited = {start_key}
    frontier: deque[tuple[Key, int, int]] = deque([(start_key, start.support_mask, 0)])
    while frontier:
        key, mask, d = frontier.popleft()
        for new_key, new_mask in _slides(adj, pred, key, mask):
            if new_key in visited:
                continue
            if new_key == goal_key:
                return d + 1
            visited.add(new_key)
            if len(visited) > cap:
                raise StateCapExceeded(f"visited more than {cap} configurations")
            frontier.append((new_key, new_mask, d + 1))
    return None


def reconfig_component(
    g: Graph, pred: Predicate, start: TokenMultiset, cap: int = DEFAULT_STATE_CAP
) -> tuple[set[Key], set[tuple[Key, Key]]]:
    """Configurations reachable from start, the first ``cap`` of them in
    breadth-first order, and the slides between those as ordered key pairs."""
    seen = {start.key()}
    slides: set[tuple[Key, Key]] = set()
    frontier = deque([(start.key(), start.support_mask)])
    while frontier:
        key, mask = frontier.popleft()
        for new_key, new_mask in _slides(g.adjacency, pred, key, mask):
            if new_key not in seen:
                if len(seen) >= cap:
                    continue
                seen.add(new_key)
                frontier.append((new_key, new_mask))
            slides.add((key, new_key) if key < new_key else (new_key, key))
    return seen, slides


class VerifyResult(NamedTuple):
    ok: bool
    final: TokenMultiset
    failure: str | None


def verify_sequence(
    g: Graph, pred: Predicate, start: TokenMultiset, seq: MoveSequence
) -> VerifyResult:
    """Replay a move sequence, checking edges, token presence and feasibility.

    On failure, ``final`` is the configuration after the longest valid prefix.
    """
    counts = dict(start.items())
    mask = start.support_mask
    if not pred(mask):
        return VerifyResult(False, TokenMultiset(counts), "start configuration is infeasible")
    for i, (u, v) in enumerate(iter_unit_moves(seq)):
        if not g.has_edge(u, v):
            return VerifyResult(False, TokenMultiset(counts), f"move {i}: ({u}, {v}) is not an edge")
        if counts.get(u, 0) < 1:
            return VerifyResult(False, TokenMultiset(counts), f"move {i}: no token on vertex {u}")
        new_mask = (mask & ~(1 << u)) if counts[u] == 1 else mask
        new_mask |= 1 << v
        if not pred(new_mask):
            return VerifyResult(
                False, TokenMultiset(counts), f"move {i}: configuration after ({u}, {v}) is infeasible"
            )
        counts[u] -= 1
        if not counts[u]:
            del counts[u]
        counts[v] = counts.get(v, 0) + 1
        mask = new_mask
    return VerifyResult(True, TokenMultiset(counts), None)


def certify_optimality(
    g: Graph,
    pred: Predicate,
    start: TokenMultiset,
    goal: TokenMultiset,
    seq: MoveSequence,
    cap: int = DEFAULT_STATE_CAP,
) -> bool:
    """True iff seq is valid, reaches the goal, and its length equals both
    the exhaustive BFS distance and the minimum-cost matching bound."""
    ok, final, _ = verify_sequence(g, pred, start, seq)
    if not ok or final != goal:
        return False
    d = reconfig_distance_bfs(g, pred, start, goal, cap=cap)
    if d != seq.total_length:
        return False
    _, cost = min_cost_matching(g, start, goal)
    return cost == seq.total_length
