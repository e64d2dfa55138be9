"""Shortest dominating-set reconfiguration on interval graphs.

The solver keeps a minimum-cost matching between the two configurations and
repeatedly slides some token one step along a shortest path to its match,
provided the configuration stays dominating.  When no matched token can
move, the matching is repaired by swapping the partners of two pairs; the
repair never increases the cost and always re-enables a move, so every
emitted move lowers the matching bound by exactly one, and the loop stops
when the bound is spent.

The loop finds its next slide on a worklist (``_Worklist``), not by
rescanning every pair: a pair found blocked stays off the list until a
slide on its side could free it, and a repair queues only the pairs it
creates.  The slide taken is the first feasible one in (source, target)
order, source side first; ``find_greedy_move`` answers with the same
worklist, built fresh.  Each repair is one call of the module-level
``fix_matching`` with the current configurations, the pairs dict wrapped
as a ``Matching`` without a copy, and the loop's distance rows.  The
repair works on the neighbourhood of one vertex v: its candidates are v's
neighbours, and its slide test counts hits only for the sets in N[v].
What it still reads of the whole configuration (the matching's marginals
and self pairs, the ends of its non-self pairs, the source's domination)
it reads in C, so no repair makes a Python pass over every token.
"""

from __future__ import annotations

import logging
from heapq import heappop, heappush
from itertools import chain, compress, repeat
from operator import eq, gt
from typing import Callable

from .errors import FeasibilityError, InputError, InvariantError
from .graphs import Coverage, Distances, Graph, closed_neighborhoods, is_dominating, steps_toward
from .graphs import distances_from  # noqa: F401  perfbench's --trace 1 patches it here
from .graphs import require_on_graph, require_same_size
from .intervals import IntervalRepresentation, intersection_graph
from .matching import Matching, _pair_ends, _shift_pair, min_cost_matching, normalize_matching
from .moves import MoveSequence, compress_moves
from .multiset import TokenMultiset

logger = logging.getLogger(__name__)

FixListener = Callable[[TokenMultiset, TokenMultiset, Matching], None]


class _Worklist:
    """The matched pairs of ``reconf_interval`` that may have a feasible slide.

    One heap of non-self pair keys per side, in (source, target) order:
    the source side slides a pair's source toward its target, the target
    side its target toward its source.  ``first`` returns the first
    feasible slide in that order, source side first.  It pops the keys at
    the top that have no feasible step and files them as blocked, so every
    non-self pair that is not queued is blocked.

    A blocked pair's mover u holds one token, and for each step w some set
    in N[u] is hit once and not gained by w.  A slide a -> a2 on the pair's
    side frees it only if u is a2, whose count rose, or such a set lies in
    N[a2] and its hit count rose from 1 to 2; only those pairs are queued
    again.  The tail a cannot free it: a step onto an emptied a gains N[a],
    but before the slide the tokens on a and on u both hit every set in
    N[a] and N[u], so none of those was hit once.  A slide leaves the other
    side's tracker as it was and a repair leaves both, so otherwise only
    new keys are queued.  Keys that left the matching are dropped when
    they reach the top.
    """

    __slots__ = ("g", "dist", "pairs", "covers", "heaps", "queued", "blocked")

    def __init__(
        self,
        g: Graph,
        dist: Distances | list[list[int]],
        pairs: dict[tuple[int, int], int],
        cover_s: Coverage,
        cover_t: Coverage,
    ):
        self.g = g
        self.dist = dist
        self.pairs = pairs
        self.covers = (cover_s, cover_t)
        keys = sorted(key for key in pairs if key[0] != key[1])  # a sorted list is a heap
        self.heaps = (keys, keys[:])
        self.queued = (set(keys), set(keys))
        # per side: mover -> the other ends of its blocked pairs
        self.blocked: tuple[dict[int, set[int]], dict[int, set[int]]] = ({}, {})

    def _queue(self, side: int, key: tuple[int, int]) -> None:
        queued = self.queued[side]
        if key not in queued:
            queued.add(key)
            heappush(self.heaps[side], key)

    def first(self) -> tuple[str, int, int, int] | None:
        """The first feasibility-preserving slide along the matching: pairs in
        increasing (source, target) order, source side first, steps by
        increasing id; None when both sides are stuck.  Reads ``pairs``
        and the trackers without changing them."""
        g, dist, pairs = self.g, self.dist, self.pairs
        for side in (0, 1):
            heap, queued, blocked = self.heaps[side], self.queued[side], self.blocked[side]
            can_slide = self.covers[side].can_slide
            while heap:
                key = heap[0]
                if key in pairs:
                    mover, goal = key if side == 0 else (key[1], key[0])
                    for w in steps_toward(g, mover, dist[goal]):
                        if can_slide(mover, w):
                            return ("st"[side], mover, w, goal)
                    blocked.setdefault(mover, set()).add(goal)
                heappop(heap)
                queued.discard(key)
        return None

    def slide(self, side_name: str, a: int, a2: int, goal: int) -> None:
        """Apply the slide a -> a2 toward goal that ``first`` returned."""
        side = "st".index(side_name)
        cover = self.covers[side]
        counts = cover.counts
        a2_was_empty = not counts[a2]
        cover.slide(a, a2)
        key = (a2, goal) if side == 0 else (goal, a2)
        _shift_pair(self.pairs, (a, goal) if side == 0 else (goal, a), key)
        if a2 != goal:
            self._queue(0, key)
            self._queue(1, key)
        blocked = self.blocked[side]
        if not blocked:
            return
        hits, hit = cover.hits, cover.hit_counts
        freed = {a2}
        if a2_was_empty:
            # N[s] is the set of vertices whose N[.] holds s
            for s in hits[a2]:
                if hit[s] == 2:
                    freed.update(hits[s])
        pairs = self.pairs
        for u in freed & blocked.keys():
            for p in blocked.pop(u):
                key = (u, p) if side == 0 else (p, u)
                if key in pairs:
                    self._queue(side, key)

    def rematch(self, pairs: dict[tuple[int, int], int]) -> None:
        """Take over a repaired matching of the same two configurations."""
        for key in pairs.keys() - self.pairs.keys():
            if key[0] != key[1]:
                self._queue(0, key)
                self._queue(1, key)
        self.pairs = pairs


def find_greedy_move(
    g: Graph,
    d_s: TokenMultiset,
    d_t: TokenMultiset,
    m: Matching,
    dist: Distances | list[list[int]] | None = None,
) -> tuple[str, int, int, int] | None:
    """The feasibility-preserving slide that ``reconf_interval`` would take next.

    The solver's own scan, ``_Worklist.first``, on fresh trackers of d_s
    and d_t: matched pairs in increasing (source, target) order, source
    side first, successor candidates by increasing id.  Returns
    ("s", u, u_next, target) or ("t", v, v_next, source), or None when both
    sides are stuck.  ``dist`` is a ``Distances`` or a list of BFS rows,
    one per vertex; by default one is built.  Raises InputError, as
    ``matching_cost`` does, for a pair with a vertex outside the graph, and
    MatchingError unless m's marginals are d_s and d_t.
    """
    require_same_size(d_s, d_t)
    n = g.n
    hits = closed_neighborhoods(g)
    cover_s, cover_t = Coverage(hits, n, d_s), Coverage(hits, n, d_t)
    pairs = m._pairs  # only read: first() never writes to it
    for pair in pairs:
        require_on_graph(n, pair, "pair {vertices} has a vertex outside the graph")
    m.validate_between(d_s, d_t)
    if dist is None:
        dist = Distances(g)
    return _Worklist(g, dist, pairs, cover_s, cover_t).first()


def _dominating_cover(g: Graph, tokens: TokenMultiset, label: str) -> Coverage:
    """The tracker of tokens on g's N[v] table; raises unless they dominate g."""
    cover = Coverage(closed_neighborhoods(g), g.n, tokens)
    if not cover.feasible:
        raise FeasibilityError(f"{label} configuration is not dominating")
    return cover


def _partners(ends: list[int], others: list[int], x: int) -> list[int]:
    """``others[i]`` for every i with ``ends[i] == x``, x itself left out, by
    increasing id; the ends are compared in C."""
    return sorted(o for o in compress(others, map(eq, ends, repeat(x))) if o != x)


def fix_matching(
    rep: IntervalRepresentation,
    g: Graph,
    d_s: TokenMultiset,
    d_t: TokenMultiset,
    m: Matching,
    _dist: Distances | list[list[int]] | None = None,
) -> Matching:
    """Swap partners of two matched pairs so that a greedy slide exists.

    Intended for the stuck state in which no matched token can slide along
    a shortest path without breaking domination.  Let v be the vertex whose
    two counts differ and whose interval ends first; when v carries
    target-side surplus the problem is solved transposed.  Candidates y
    (target-side surplus, adjacent to v) are scanned by increasing right
    endpoint, partners v' of v and y' of y by increasing id, and the first
    exchange ``(v, v'), (y', y)  ->  (v, y), (y', v')`` that keeps the slide
    v -> y dominating without raising the matching cost is applied.  Such
    an exchange always exists here; failing to find one is reported as an
    internal invariant violation.

    The repair works on v's neighbourhood, not on the whole configuration:
    the candidates are v's neighbours, and y passes the slide test iff N[y]
    holds every set in N[v] that only v's token hits (none if v holds two
    or more).  That is ``Coverage.can_slide(v, y)`` without a tracker: a
    set that only v hits holds no occupied y.  The pairs dict keeps the
    caller's orientation when the problem is transposed; the partners of v
    and of each y scanned are read off its keys, and the exchange writes
    the keys back in that orientation.  What still reads every pair or token runs in
    C: validating and normalising the matching once, finding v among the
    ends of the non-self pairs, and checking that the source side
    dominates (``is_dominating``).

    On a state that is not stuck, v may already be matched to a candidate
    y; the exchange then moves a unit from that pair back onto itself, and
    the normalised input matching comes back unchanged.  So call this only
    when ``find_greedy_move(...)`` is None; that is the solver's own scan,
    and ``reconf_interval`` calls this only after it finds no move.
    """
    require_same_size(d_s, d_t)
    if d_s == d_t:
        raise InputError("configurations are already equal; nothing to repair")
    pairs = normalize_matching(g, m, d_s, d_t)._pairs  # a fresh dict, ours to change
    # Self counts now sit at min(d_s, d_t), so no vertex has non-self pairs
    # both ways, and the vertices whose counts differ are the ends of the
    # non-self pairs.
    firsts, seconds, moved = _pair_ends(pairs)
    right = rep._right.__getitem__
    v = min(chain(compress(firsts, moved), compress(seconds, moved)), key=right)
    cs, ct = d_s._counts, d_t._counts
    transposed = ct.get(v, 0) > cs.get(v, 0)
    sources, targets = firsts, seconds
    if transposed:
        d_s, cs, ct = d_t, ct, cs
        sources, targets = targets, sources
    if not is_dominating(g, d_s):
        raise FeasibilityError("source configuration is not dominating")

    def key(s: int, t: int) -> tuple[int, int]:
        """The pairs key that matches source s to target t."""
        return (t, s) if transposed else (s, t)

    closed = closed_neighborhoods(g)
    # the sets of N[v] that only v's token hits, none if v holds two
    lone = set() if cs[v] > 1 else {s for s in closed[v] if sum(map(cs.__contains__, closed[s])) == 1}
    dist = Distances(g) if _dist is None else _dist
    nbrs = g.neighbors(v)
    surplus = map(gt, map(ct.get, nbrs, repeat(0)), map(cs.get, nbrs, repeat(0)))
    v_partners = _partners(sources, targets, v)
    for y in sorted(compress(nbrs, surplus), key=right):
        if not closed[y].issuperset(lone):
            continue
        y_partners = _partners(targets, sources, y)
        for v2 in v_partners:
            for y2 in y_partners:
                d_y2v2, d_vv2, d_y2y = dist[y2][v2], dist[v][v2], dist[y2][y]
                if min(d_y2v2, d_vv2, d_y2y) >= 0 and 1 + d_y2v2 - d_vv2 - d_y2y <= 0:
                    _shift_pair(pairs, key(v, v2), key(v, y))
                    _shift_pair(pairs, key(y2, y), key(y2, v2))
                    logger.debug(
                        "repair: v=%d y=%d swapped partners v'=%d y'=%d", v, y, v2, y2
                    )
                    # No second normalize_matching: the exchange removes two
                    # non-self pairs and keeps the marginals, and self counts,
                    # already at their cap min(d_s, d_t), stay there.
                    return Matching._trusted(pairs)
    raise InvariantError(
        "no cost-preserving repair found; the matching was not minimum or a move existed"
    )


def _greedy_moves(
    rep: IntervalRepresentation,
    g: Graph,
    dist: Distances,
    cover_s: Coverage,
    cover_t: Coverage,
    pairs: dict[tuple[int, int], int],
    cost: int,
    on_fix: FixListener | None,
) -> list[tuple[int, int]]:
    """The unit moves of the greedy loop from a minimum-cost matching ``pairs``
    of cost ``cost`` between the trackers' configurations.

    The trackers and ``pairs`` are changed in place.  Every slide lowers the
    matching cost by one, so the loop runs until ``cost`` moves are out.
    """
    cs, ct = cover_s.counts, cover_t.counts
    work = _Worklist(g, dist, pairs, cover_s, cover_t)
    front: list[tuple[int, int]] = []
    back: list[tuple[int, int]] = []
    emitted = 0
    repaired = False  # a repair that no move has followed yet
    while emitted < cost:
        found = work.first()
        if found is None:
            if repaired:
                raise InvariantError("matching repair did not enable a move")
            if cs == ct:
                raise InvariantError(f"emitted {emitted} moves but the matching bound is {cost}")
            cur_s = TokenMultiset.from_counts_list(cs)
            cur_t = TokenMultiset.from_counts_list(ct)
            m = fix_matching(rep, g, cur_s, cur_t, Matching._trusted(work.pairs), _dist=dist)
            if on_fix is not None:
                on_fix(cur_s, cur_t, m)
            work.rematch(m.pairs)
            repaired = True
            continue
        repaired = False
        side, a, a2, other = found
        logger.debug("move %d: side=%s %d->%d toward %d", emitted, side, a, a2, other)
        work.slide(side, a, a2, other)
        if side == "s":
            front.append((a, a2))
        else:
            back.append((a2, a))
        emitted += 1
    if cs != ct:
        raise InvariantError(
            f"configurations still differ after {cost} moves: "
            "reaching the target would emit more moves than the matching bound allows"
        )
    return front + back[::-1]


def reconf_interval(
    rep: IntervalRepresentation,
    d_s: TokenMultiset,
    d_t: TokenMultiset,
    on_fix: FixListener | None = None,
) -> MoveSequence | None:
    """Shortest move sequence between two dominating multisets, or None when
    tokens would have to cross between components.

    The sequence length always equals the minimum-cost matching bound.
    ``on_fix`` is a diagnostics hook called with (d_s, d_t, repaired
    matching) after every matching repair.
    """
    g = intersection_graph(rep)
    require_same_size(d_s, d_t)
    cover_s = _dominating_cover(g, d_s, "start")
    cover_t = _dominating_cover(g, d_t, "target")
    if d_s == d_t:
        return MoveSequence(())
    m, cost = min_cost_matching(g, d_s, d_t)
    if cost is None:
        return None
    m = normalize_matching(g, m, d_s, d_t)
    moves = _greedy_moves(rep, g, Distances(g), cover_s, cover_t, m.pairs, cost, on_fix)
    return compress_moves(moves)
