"""Shortest dominating-set reconfiguration on interval graphs.

The solver keeps a minimum-cost matching between the two configurations and
repeatedly slides some token one step along a shortest path to its match,
provided the configuration stays dominating.  When no matched token can
move, the matching is repaired by swapping the partners of two pairs; the
repair never increases the cost and always re-enables a move, so every
emitted move lowers the matching bound by exactly one.
"""

from __future__ import annotations

import logging
from typing import Callable

from .errors import FeasibilityError, InputError, InvariantError
from .graphs import Coverage, Distances, Graph, closed_neighborhoods, steps_toward
from .graphs import distances_from  # noqa: F401  perfbench's --trace 1 patches it here
from .graphs import require_same_size
from .intervals import IntervalRepresentation, intersection_graph
from .matching import Matching, _shift_pair, min_cost_matching, normalize_matching
from .moves import MoveSequence, compress_moves
from .multiset import TokenMultiset

logger = logging.getLogger(__name__)

FixListener = Callable[[TokenMultiset, TokenMultiset, Matching], None]


def _scan(
    g: Graph,
    dist: Distances | list[list[int]],
    pairs: dict[tuple[int, int], int],
    cover_s: Coverage,
    cover_t: Coverage,
) -> tuple[str, int, int, int] | None:
    """First feasibility-preserving slide along the matching, source side first."""
    ordered = sorted(pairs)
    for u, v in ordered:
        if u != v:
            for u2 in steps_toward(g, u, dist[v]):
                if cover_s.can_slide(u, u2):
                    return ("s", u, u2, v)
    for u, v in ordered:
        if u != v:
            for v2 in steps_toward(g, v, dist[u]):
                if cover_t.can_slide(v, v2):
                    return ("t", v, v2, u)
    return None


def find_greedy_move(
    g: Graph,
    d_s: TokenMultiset,
    d_t: TokenMultiset,
    m: Matching,
    dist: Distances | list[list[int]] | None = None,
) -> tuple[str, int, int, int] | None:
    """The feasibility-preserving slide that ``reconf_interval`` would take next.

    Scans matched pairs in increasing (source, target) order, source side
    first, successor candidates by increasing id.  Returns
    ("s", u, u_next, target) or ("t", v, v_next, source), or None when both
    sides are stuck.
    """
    if dist is None:
        dist = Distances(g)
    hits = closed_neighborhoods(g)
    return _scan(g, dist, m.pairs, Coverage(hits, g.n, d_s), Coverage(hits, g.n, d_t))


def _dominating_cover(g: Graph, tokens: TokenMultiset, label: str) -> Coverage:
    """The tracker of tokens on g's N[v] table; raises unless they dominate g."""
    cover = Coverage(closed_neighborhoods(g), g.n, tokens)
    if not cover.feasible:
        raise FeasibilityError(f"{label} configuration is not dominating")
    return cover


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
    target-side surplus the problem is solved transposed and the result is
    transposed back once.  Candidates y (target-side surplus, adjacent to
    v) are scanned by increasing right endpoint, partners v' of v and y' of
    y by increasing id, and the first exchange
    ``(v, v'), (y', y)  ->  (v, y), (y', v')`` that keeps the slide v -> y
    dominating without raising the matching cost is applied.  Such an
    exchange always exists here; failing to find one is reported as an
    internal invariant violation.  One pass on one pairs dict: the matching
    is validated and normalised once, and the tracker reads the graph's
    shared N[v] table and also checks that the source side dominates.

    On a state that is not stuck, v may already be matched to a candidate
    y; the exchange then moves a unit from that pair back onto itself, and
    the normalised input matching comes back unchanged.  So call this only
    when ``find_greedy_move(...)`` is None; ``reconf_interval`` calls it
    only after the same scan finds no move.
    """
    if d_s == d_t:
        raise InputError("configurations are already equal; nothing to repair")
    pairs = normalize_matching(g, m, d_s, d_t).pairs
    cs, ct = d_s._counts, d_t._counts  # Counters: 0 for a vertex without tokens
    v = min((x for x in cs.keys() | ct.keys() if cs[x] != ct[x]), key=rep.right)
    transposed = ct[v] > cs[v]
    if transposed:
        d_s, cs, ct = d_t, ct, cs
        pairs = {(t, s): c for (s, t), c in pairs.items()}

    cover = _dominating_cover(g, d_s, "source")
    dist = Distances(g) if _dist is None else _dist
    v_partners = sorted(t for s, t in pairs if s == v and t != v)
    for y in sorted((x for x in ct if ct[x] > cs[x]), key=rep.right):
        if not g.has_edge(v, y) or not cover.can_slide(v, y):
            continue
        y_partners = sorted(s for s, t in pairs if t == y and s != y)
        for v2 in v_partners:
            for y2 in y_partners:
                d_y2v2, d_vv2, d_y2y = dist[y2][v2], dist[v][v2], dist[y2][y]
                if min(d_y2v2, d_vv2, d_y2y) >= 0 and 1 + d_y2v2 - d_vv2 - d_y2y <= 0:
                    _shift_pair(pairs, (v, v2), (v, y))
                    _shift_pair(pairs, (y2, y), (y2, v2))
                    logger.debug(
                        "repair: v=%d y=%d swapped partners v'=%d y'=%d", v, y, v2, y2
                    )
                    # No second normalize_matching: the exchange removes two
                    # non-self pairs and keeps the marginals, and self counts,
                    # already at their cap min(d_s, d_t), stay there.
                    if transposed:
                        pairs = {(t, s): c for (s, t), c in pairs.items()}
                    return Matching(pairs)
    raise InvariantError(
        "no cost-preserving repair found; the matching was not minimum or a move existed"
    )


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

    dist = Distances(g)
    cs, ct = cover_s.counts, cover_t.counts
    pairs = m.pairs

    front: list[tuple[int, int]] = []
    back: list[tuple[int, int]] = []
    emitted = 0
    repairs_without_progress = 0
    while cs != ct:
        found = _scan(g, dist, pairs, cover_s, cover_t)
        if found is not None:
            repairs_without_progress = 0
            side, a, a2, other = found
            logger.debug("move %d: side=%s %d->%d toward %d", emitted, side, a, a2, other)
            if side == "s":
                front.append((a, a2))
                cover_s.slide(a, a2)
                _shift_pair(pairs, (a, other), (a2, other))
            else:
                back.append((a2, a))
                cover_t.slide(a, a2)
                _shift_pair(pairs, (other, a), (other, a2))
            emitted += 1
            if emitted > cost:
                raise InvariantError("emitted more moves than the matching bound allows")
            continue
        if repairs_without_progress:
            raise InvariantError("matching repair did not enable a move")
        cur_s = TokenMultiset.from_counts_list(cs)
        cur_t = TokenMultiset.from_counts_list(ct)
        repaired = fix_matching(rep, g, cur_s, cur_t, Matching(pairs))
        if on_fix is not None:
            on_fix(cur_s, cur_t, repaired)
        pairs = repaired.pairs
        repairs_without_progress += 1
    if emitted != cost:
        raise InvariantError(f"emitted {emitted} moves but the matching bound is {cost}")
    return compress_moves(front + back[::-1])
