"""Interval representations, pairwise relations and the derived graph."""

from __future__ import annotations

import enum
from array import array
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from itertools import accumulate

from .errors import InputError, InvariantError
from .graphs import UNREACHABLE, Distances, Graph, require_on_graph


class IntervalRepresentation:
    """Per-vertex closed intervals with pairwise-distinct integer endpoints."""

    __slots__ = ("_left", "_right", "_chain", "_graph", "_ends")

    def __init__(self, intervals: Iterable[tuple[int, int]]):
        left = []
        right = []
        for i, (lo, hi) in enumerate(intervals):
            if lo >= hi:
                raise InputError(f"interval {i} is [{lo}, {hi}]; endpoints must satisfy l < r")
            left.append(lo)
            right.append(hi)
        endpoints = left + right
        if len(set(endpoints)) != len(endpoints):
            raise InputError("interval endpoints must be pairwise distinct")
        self._left = tuple(left)
        self._right = tuple(right)
        # one left-end sort for the edges, the distance queries and the matcher
        self._chain = _greedy_chain(self._left, self._right)
        self._graph: Graph | None = None  # see intersection_graph
        self._ends: Sequence[int] | None = None  # see endpoints

    def furthest_reach(self) -> tuple[int, ...]:
        """``reach[v]``: among the intervals with ``left < right(v)``, v
        included, the one with the largest right endpoint.

        An interval starting before v ends either inside v, so it meets v, or
        before v starts, so it never beats v: ``reach[v]`` is v's closed
        neighbour reaching furthest right, and v itself exactly when no
        neighbour ends after v.
        """
        return self._chain[2]

    def endpoints(self) -> Sequence[int]:
        """``right(v)`` at index ``2v`` and ``left(v)`` at ``2v + 1``.

        One flat int64 array, built on the first call and cached: a vertex's
        two ends share a cache line, and the ints read from it are fresh
        objects that lie together, where the tuples' ints lie wherever the
        input put them.  On large n that keeps a per-token lookup from
        missing the cache.  Coordinates beyond 64 bits fall back to a list.
        """
        if self._ends is None:
            try:
                ends = array("q", bytes(16 * len(self._left)))
                ends[0::2] = array("q", self._right)
                ends[1::2] = array("q", self._left)
            except OverflowError:
                ends = [x for pair in zip(self._right, self._left) for x in pair]
            self._ends = ends
        return self._ends

    @property
    def n(self) -> int:
        return len(self._left)

    def left(self, v: int) -> int:
        return self._left[v]

    def right(self, v: int) -> int:
        return self._right[v]

    @property
    def intervals(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self._left, self._right))

    def intersects(self, u: int, v: int) -> bool:
        return self._left[u] < self._right[v] and self._left[v] < self._right[u]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalRepresentation):
            return NotImplemented
        return self._left == other._left and self._right == other._right

    def __repr__(self) -> str:
        return f"IntervalRepresentation(n={self.n})"


def _greedy_chain(
    lo: Sequence[int], hi: Sequence[int]
) -> tuple[list[int], list[int], tuple[int, ...]]:
    """``(order, cut, reach)`` for intervals ``[lo[v], hi[v]]``.

    ``order`` lists the ids by increasing lo, and ``order[: cut[v]]`` are
    the intervals with ``lo < hi(v)``, v among them.  ``reach[v]`` is the
    one of those with the largest hi: ``furthest_reach``.
    """
    order = sorted(range(len(lo)), key=lo.__getitem__)
    starts = [lo[v] for v in order]
    cut = [bisect_left(starts, h) for h in hi]
    # at[i]: the interval with the largest hi among order[: i + 1]
    at = list(accumulate(order, lambda best, v: v if hi[v] > hi[best] else best))
    return order, cut, tuple(at[c - 1] for c in cut)


#: Vertex pairs priced per numpy block by ``_ChainDistances.blocks``; it
#: bounds the size of each temporary array.
_BLOCK = 1 << 14


class _ChainDistances:
    """Distances of an interval graph, queried on its greedy chain.

    Let u and v be two intervals that do not meet, u the one that ends
    first, so v starts after u ends.  The intervals within i hops of u
    reach right up to the right end of x_i, where x_0 = u and
    ``x_(i+1) = reach[x_i]``, so v lies i + 1 hops away for the first i
    with ``cut[x_i] > pos[v]``: x_i ends after v starts.  ``cut`` never
    decreases along the chain, and the chain stalls where
    ``reach[x] == x``: u's component ends there, and v lies in another
    (Chen, Lee, Sridhar and Sekharan, Networks 31, 1998).  Intervals meet
    iff each starts before the other ends, ``pos[u] < cut[v]`` and
    ``pos[v] < cut[u]``.  The queries compare only positions in left-end
    order and ``cut`` indices, never coordinates, so endpoints of any size
    work.

    ``view(s)[v]`` walks the chain for one pair; ``blocks`` prices many
    pairs at once in numpy.  Holds only sequences of ints, never the
    representation or the graph, so a graph can keep it without forming a
    reference cycle, and nothing per source: a row is a ``_ChainRow`` view.
    """

    __slots__ = ("_pos", "_cut", "_reach")

    def __init__(self, chain: tuple[list[int], list[int], tuple[int, ...]]):
        order, cut, reach = chain
        pos = [0] * len(order)
        for i, v in enumerate(order):
            pos[v] = i
        self._pos = pos
        self._cut = cut
        self._reach = reach

    def view(self, s: int) -> "_ChainRow":
        """The distance row of s as a read-only view that queries."""
        return _ChainRow(self, s)

    def blocks(self, sources: Sequence[int], targets: Sequence[int]):
        """Yield ``(lo, hi, block)`` over consecutive slices of targets, with
        ``block[i, j] == view(sources[i])[targets[lo + j]]`` as an intp
        array; sources must not be empty.

        Each chain walk jumps along a doubling table of ``reach``: level j
        maps x to x_(2**j), and the levels stop once they reach every
        chain's end, about log2 of the longest chain.  Per pair, the jumps
        from the top level down find the last x_i with ``cut[x_i] <= pos``
        of the later interval, since ``cut`` never decreases along a chain.
        The table is built per call and dropped with the generator.
        """
        import numpy as np

        pos = np.array(self._pos, dtype=np.intp)
        cut = np.array(self._cut, dtype=np.intp)
        reach = np.array(self._reach, dtype=np.intp)
        levels = [reach]
        while True:
            top = levels[-1]
            jump = top[top]
            if np.array_equal(jump, top):
                break
            levels.append(jump)
        u = np.array(sources, dtype=np.intp)[:, None]
        pu, cu = pos[u], cut[u]
        all_targets = np.array(targets, dtype=np.intp)
        width = max(_BLOCK // len(sources), 1)
        for lo in range(0, len(all_targets), width):
            v = all_targets[lo : lo + width]
            pv, cv = pos[v], cut[v]
            first = cu <= pv  # u ends before v starts
            x = np.where(first, u, v)
            t = np.where(first, pv, pu)
            apart = first | (cv <= pu)
            hops = np.zeros(x.shape, dtype=np.intp)
            for j in range(len(levels) - 1, -1, -1):
                y = levels[j][x]
                step = cut[y] <= t
                np.copyto(x, y, where=step)
                np.add(hops, 1 << j, out=hops, where=step)
            # x is the last interval of the walk that ends before the later
            # one starts: one more hop reaches past it, unless x ends the chain
            hops += 2
            hops[cut[reach[x]] <= t] = UNREACHABLE
            np.copyto(hops, u != v, where=~apart)  # 0 on the diagonal, 1 where they meet
            yield lo, lo + len(v), hops


class _ChainRow:
    """The distance row of one interval, read off ``_ChainDistances``.

    ``row[v]`` queries one distance; the view holds no n-long list, so
    nothing grows with the number of rows read.
    """

    __slots__ = ("_chains", "_s")

    def __init__(self, chains: _ChainDistances, s: int):
        self._chains = chains
        self._s = s

    def __getitem__(self, v: int) -> int:
        """The distance from s to v, UNREACHABLE across components."""
        u, chains = self._s, self._chains
        if u == v:
            return 0
        pos, cut, reach = chains._pos, chains._cut, chains._reach
        if cut[u] <= pos[v]:  # u ends before v starts
            x, t = u, pos[v]
        elif cut[v] <= pos[u]:
            x, t = v, pos[u]
        else:
            return 1
        d = 1
        while cut[x] <= t:
            y = reach[x]
            if y == x:
                return UNREACHABLE
            x = y
            d += 1
        return d


class Relation(enum.Enum):
    """How one interval sits relative to another; exactly one holds per pair."""

    LEFT_OF = "left_of"
    RIGHT_OF = "right_of"
    NESTED_IN = "nested_in"
    CONTAINS = "contains"
    LEFT_INTERSECTS = "left_intersects"
    RIGHT_INTERSECTS = "right_intersects"

    @property
    def mirror(self) -> "Relation":
        return _MIRROR[self]


_MIRROR = {
    Relation.LEFT_OF: Relation.RIGHT_OF,
    Relation.RIGHT_OF: Relation.LEFT_OF,
    Relation.NESTED_IN: Relation.CONTAINS,
    Relation.CONTAINS: Relation.NESTED_IN,
    Relation.LEFT_INTERSECTS: Relation.RIGHT_INTERSECTS,
    Relation.RIGHT_INTERSECTS: Relation.LEFT_INTERSECTS,
}


def classify_relation(rep: IntervalRepresentation, u: int, v: int) -> Relation:
    """Classify the ordered pair (u, v); u == v is rejected."""
    require_on_graph(rep.n, (u, v), "vertex {v} out of range")
    if u == v:
        raise InputError("cannot classify an interval against itself")
    lu, ru = rep.left(u), rep.right(u)
    lv, rv = rep.left(v), rep.right(v)
    if ru < lv:
        return Relation.LEFT_OF
    if rv < lu:
        return Relation.RIGHT_OF
    if lv < lu and ru < rv:
        return Relation.NESTED_IN
    if lu < lv and rv < ru:
        return Relation.CONTAINS
    if lu < lv < ru < rv:
        return Relation.LEFT_INTERSECTS
    return Relation.RIGHT_INTERSECTS


def normalize_representation(raw: Sequence[tuple[int, int]]) -> IntervalRepresentation:
    """Rank-compress endpoints to 1..2n while preserving closed intersections.

    Coincident raw coordinates are ordered left endpoints first (so touching
    closed intervals stay adjacent), ties within a kind by vertex id.  Point
    intervals are allowed in the raw input.
    """
    for i, (lo, hi) in enumerate(raw):
        if lo > hi:
            raise InputError(f"interval {i} is [{lo}, {hi}]; endpoints must satisfy l <= r")
    events = []
    for i, (lo, hi) in enumerate(raw):
        events.append((lo, 0, i))
        events.append((hi, 1, i))
    events.sort()
    left = [0] * len(raw)
    right = [0] * len(raw)
    for rank, (_, kind, i) in enumerate(events, start=1):
        if kind == 0:
            left[i] = rank
        else:
            right[i] = rank
    rep = IntervalRepresentation(zip(left, right))
    _verify_normalization(raw, rep)
    return rep


def _verify_normalization(raw: Sequence[tuple[int, int]], rep: IntervalRepresentation) -> None:
    """Check that the ranks keep every closed intersection of the raw intervals.

    Placed at its rank, each raw endpoint reads (coordinate, 0 for a left
    end, 1 for a right end), and the sequence must be non-decreasing.  With
    lefts first at ties, raw ``lo_u <= hi_v`` then holds iff
    ``rank(lo_u) < rank(hi_v)``, so two ranked intervals intersect exactly
    when their raw closed intervals do.
    """
    size = 2 * rep.n
    placed: list[tuple[int, int]] = [(0, 0)] * size
    for v, (lo, hi) in enumerate(raw):
        for rank, key in ((rep.left(v), (lo, 0)), (rep.right(v), (hi, 1))):
            if not 1 <= rank <= size:
                raise InvariantError(f"normalization gave vertex {v} rank {rank} outside 1..{size}")
            placed[rank - 1] = key
    for rank in range(1, size):
        if placed[rank] < placed[rank - 1]:
            raise InvariantError(
                f"normalization ranks raw endpoint {placed[rank]} after {placed[rank - 1]}"
            )


def intersection_graph(rep: IntervalRepresentation) -> Graph:
    """Graph with an edge wherever two intervals overlap.

    Two intervals meet iff one starts inside the other, and the intervals
    starting inside v are those after v in left-end order up to the first
    that starts after v ends: ``order[i + 1 : cut[v]]`` on the
    representation's greedy chain, with v at ``order[i]``.  Each row takes
    that slice, plus every earlier-starting interval whose slice holds v,
    and is sorted by id.  So the rows are built straight from the chain,
    with no edge list and none of ``Graph(n, edges)``'s per-edge checks,
    which a chain cannot fail, and they equal the rows that build gives.

    Built on the first call and cached on rep, so the parser, the solver
    and every other caller share one graph, and with it its N[v] table.
    Its ``Distances`` tables answer point queries on the representation's
    greedy chain (``_ChainDistances``) instead of running a BFS per row.
    """
    if rep._graph is not None:
        return rep._graph
    order, cut, _ = rep._chain
    adj: list[list[int]] = [[] for _ in order]
    for i, v in enumerate(order):
        later = order[i + 1 : cut[v]]
        adj[v] += later
        for u in later:
            adj[u].append(v)
    for row in adj:
        row.sort()
    g = Graph._from_rows(tuple(map(tuple, adj)))
    g._chains = _ChainDistances(rep._chain)
    rep._graph = g
    return g


def check_shortest_path_structure(rep: IntervalRepresentation, path: Sequence[int]) -> bool:
    """Structural oracle for shortest paths walked left to right.

    Requires ``path`` to be a shortest path in the intersection graph; for
    three or more vertices the first interval must end before the last one.
    Checks that each interval right-intersects its predecessor (the very
    first step may instead be covered entirely by its successor, which can
    happen when the path starts inside a long interval) and that intervals
    two apart are disjoint.
    """
    k = len(path)
    if k < 2:
        raise InputError("path needs at least two vertices")
    require_on_graph(rep.n, path, "path vertex {v} out of range")
    if len(set(path)) != k:
        raise InputError("path repeats a vertex")
    for a, b in zip(path, path[1:]):
        if not rep.intersects(a, b):
            raise InputError(f"consecutive vertices {a} and {b} are not adjacent")
    g = intersection_graph(rep)
    if Distances(g)[path[0]][path[-1]] != k - 1:
        raise InputError("not a shortest path")
    if k == 2:
        return True
    if rep.right(path[0]) > rep.right(path[-1]):
        raise InputError("path must be oriented so the first interval ends before the last")
    for i in range(k - 2):
        rel = classify_relation(rep, path[i + 1], path[i])
        allowed = (Relation.RIGHT_INTERSECTS, Relation.CONTAINS) if i == 0 else (Relation.RIGHT_INTERSECTS,)
        if rel not in allowed:
            return False
        if rep.intersects(path[i + 2], path[i]):
            return False
    return True
