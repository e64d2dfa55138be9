"""Minimum-cost matchings between equal-size token multisets under graph distance.

The exact solver expands multiplicities into unit tokens, prices them in a
float64 matrix, the dtype the kernel reads without a copy, and hands the
square assignment problem to scipy's shortest augmenting path solver.  The
distinct (source, target) vertex pairs are priced in blocks by
``graphs.Distances.blocks``: chain queries on an interval graph, one BFS
row per distinct target elsewhere, gathered at the sources and dropped,
so memory is O(k^2 + n).  The solver, ``linear_sum_assignment``, is loaded
on first use straight from scipy's compiled ``scipy/optimize/_lsap``
extension, so a solve never runs the ``scipy.optimize`` package's
``__init__`` (most of a cold solve's time and memory); when that file is
missing or fails to load, the public ``scipy.optimize`` import supplies
the same function.  A factorial brute-force oracle and a near-linear
greedy matcher for interval representations live alongside it.
"""

from __future__ import annotations

import importlib.util
import itertools
import os
import sys
from collections import Counter, defaultdict
from collections.abc import Mapping
from heapq import heappop, heappush
from importlib.machinery import EXTENSION_SUFFIXES
from operator import itemgetter, ne

from .errors import InputError, InvariantError, MatchingError
from .graphs import UNREACHABLE, Distances, Graph, require_on_graph, require_same_size, succ_set
from .graphs import distances_from  # noqa: F401  perfbench's --trace 1 patches it here
from .intervals import IntervalRepresentation
from .multiset import TokenMultiset

#: Largest token count accepted by the brute-force oracle.
BRUTE_FORCE_CAP = 8
#: Largest token count per side accepted by ``min_cost_matching``: its dense
#: k x k float64 cost matrix is 200 MB at this k, and the kernel reads it in place.
EXACT_MATCHING_CAP = 5000

_LSAP = "scipy.optimize._lsap"
#: scipy's ``linear_sum_assignment``, set by ``_assignment_kernel`` on first use.
_linear_sum_assignment = None


class Matching:
    """Multiset of ordered (source, target) vertex pairs with multiplicities."""

    __slots__ = ("_pairs", "total")

    def __init__(self, pairs: Mapping[tuple[int, int], int] = ()):
        cleaned: dict[tuple[int, int], int] = {}
        items = pairs.items() if isinstance(pairs, Mapping) else pairs
        for (u, v), c in items:
            if c < 0:
                raise MatchingError(f"negative multiplicity {c} for pair ({u}, {v})")
            if c:
                cleaned[(u, v)] = cleaned.get((u, v), 0) + c
        self._pairs = cleaned
        self.total = sum(cleaned.values())

    @classmethod
    def _trusted(cls, pairs: dict[tuple[int, int], int]) -> "Matching":
        """Wrap, without copying or checking, a pairs dict with positive
        multiplicities that the solver or the repair has built."""
        m = cls.__new__(cls)
        m._pairs = pairs
        m.total = sum(pairs.values())
        return m

    def multiplicity(self, u: int, v: int) -> int:
        return self._pairs.get((u, v), 0)

    def items(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(self._pairs.items())

    @property
    def pairs(self) -> dict[tuple[int, int], int]:
        return dict(self._pairs)

    def inverse(self) -> "Matching":
        return Matching({(v, u): c for (u, v), c in self._pairs.items()})

    def validate_between(self, a: TokenMultiset, b: TokenMultiset) -> None:
        """Check row/column sums equal the multiset multiplicities."""
        pairs = self._pairs
        left = Counter(map(itemgetter(0), pairs))
        right = Counter(map(itemgetter(1), pairs))
        for (u, v), c in itertools.compress(pairs.items(), map((1).__lt__, pairs.values())):
            left[u] += c - 1
            right[v] += c - 1
        # compared as plain dicts, which is exact since no count is zero;
        # Counter's own == walks both operands in Python
        if not dict.__eq__(left, a._counts):
            raise MatchingError("source marginals do not match the left multiset")
        if not dict.__eq__(right, b._counts):
            raise MatchingError("target marginals do not match the right multiset")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self._pairs == other._pairs

    def __repr__(self) -> str:
        return f"Matching({self.items()!r})"


def _shift_pair(
    pairs: dict[tuple[int, int], int], old: tuple[int, int], new: tuple[int, int]
) -> None:
    """Move one unit of multiplicity from pair old to pair new, dropping old at zero."""
    pairs[old] -= 1
    if not pairs[old]:
        del pairs[old]
    pairs[new] = pairs.get(new, 0) + 1


def matching_cost(g: Graph, m: Matching) -> int | None:
    """Sum of graph distances weighted by multiplicities; None if any pair is split across components."""
    dist = Distances(g)
    total = 0
    for (u, v), c in m.items():
        require_on_graph(g.n, (u, v), "pair {vertices} has a vertex outside the graph")
        d = dist[v][u]
        if d == UNREACHABLE:
            return None
        total += d * c
    return total


def _expand(tokens: TokenMultiset) -> list[int]:
    out = []
    for v, c in tokens.items():
        out.extend([v] * c)
    return out


def _lsap_file() -> str | None:
    """Path of scipy's compiled assignment module, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.submodule_search_locations is None:
        return None
    for base in spec.submodule_search_locations:
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(base, "optimize", "_lsap" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _assignment_kernel():
    """scipy's ``linear_sum_assignment``, cached after the first call.

    Taken from an already imported ``scipy.optimize._lsap``, else loaded from
    its extension file alone; the public ``scipy.optimize`` import, which
    costs far more, is the fallback when that file is missing or fails.
    """
    global _linear_sum_assignment
    if _linear_sum_assignment is None:
        module = sys.modules.get(_LSAP)
        if module is None and (path := _lsap_file()) is not None:
            try:
                spec = importlib.util.spec_from_file_location(_LSAP, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
            except (ImportError, OSError):
                module = None
        kernel = getattr(module, "linear_sum_assignment", None)
        if kernel is None:
            from scipy.optimize import linear_sum_assignment as kernel
        _linear_sum_assignment = kernel
    return _linear_sum_assignment


def min_cost_matching(
    g: Graph, a: TokenMultiset, b: TokenMultiset
) -> tuple[Matching | None, int | None]:
    """Cheapest matching between a and b under graph distance.

    Returns (matching, cost); (None, None) when no finite-cost matching
    exists because matched tokens would have to cross components.  Raises
    InputError above EXACT_MATCHING_CAP tokens per side, before the k x k
    cost matrix is allocated.
    """
    require_same_size(a, b)
    require_on_graph(g.n, a.support | b.support)
    if a.total > EXACT_MATCHING_CAP:
        raise InputError(
            f"exact matching capped at {EXACT_MATCHING_CAP} tokens per side, got {a.total}"
        )
    if a.total == 0:
        return Matching(), 0
    import numpy as np

    left = _expand(a)
    right = _expand(b)
    k = len(left)
    # any value above the largest possible finite total makes the solver
    # avoid unreachable pairs whenever a finite assignment exists.  Every
    # entry is an integer far below 2**53, so float64 holds it exactly
    big = k * max(g.n, 1) + 1
    cost = np.empty((k, k), dtype=np.float64)
    # one distance per distinct (source, target) pair, priced a block of
    # targets at a time and spread over the tokens on those vertices
    (sources, s_counts), (targets, t_counts) = zip(*a.items()), zip(*b.items())
    token_rows = np.repeat(np.arange(len(sources)), s_counts)
    token_cols = np.repeat(np.arange(len(targets)), t_counts)
    for lo, hi, block in Distances(g).blocks(sources, targets):
        block[block == UNREACHABLE] = big
        c0, c1 = np.searchsorted(token_cols, (lo, hi))
        cost[:, c0:c1] = block[np.ix_(token_rows, token_cols[c0:c1] - lo)]
    rows, cols = _assignment_kernel()(cost)
    pairs: Counter[tuple[int, int]] = Counter()
    total = 0
    for i, j, d in zip(rows.tolist(), cols.tolist(), cost[rows, cols].tolist()):
        if d == big:
            return None, None
        total += int(d)
        pairs[(left[i], right[j])] += 1
    return Matching(pairs), total


def brute_force_matching(g: Graph, a: TokenMultiset, b: TokenMultiset) -> int | None:
    """Exact minimum cost by enumerating every bijection between token expansions.

    Independent of the assignment solver on purpose; capped at
    BRUTE_FORCE_CAP tokens.
    """
    require_same_size(a, b)
    require_on_graph(g.n, a.support | b.support)
    k = a.total
    if k > BRUTE_FORCE_CAP:
        raise InputError(f"brute force capped at {BRUTE_FORCE_CAP} tokens, got {k}")
    if k == 0:
        return 0
    left = _expand(a)
    right = _expand(b)
    dist = Distances(g)
    table = [[dist[v][u] for v in right] for u in left]
    best: int | None = None
    for perm in itertools.permutations(range(k)):
        total = 0
        for i, j in enumerate(perm):
            d = table[i][j]
            if d == UNREACHABLE:
                total = -1
                break
            total += d
        if total >= 0 and (best is None or total < best):
            best = total
    return best


def _pair_ends(pairs: dict[tuple[int, int], int]) -> tuple[list[int], list[int], list[bool]]:
    """The sources and the targets of the pairs, in the dict's order, and
    whether each pair is non-self; three passes in C."""
    firsts = list(map(itemgetter(0), pairs))
    seconds = list(map(itemgetter(1), pairs))
    return firsts, seconds, list(map(ne, firsts, seconds))


def normalize_matching(
    g: Graph, m: Matching, a: TokenMultiset, b: TokenMultiset
) -> Matching:
    """Rewire m so every vertex in a ∩ b is fully self-matched.

    Repeatedly swaps (x, v), (v, y) for (v, v), (x, y); by the triangle
    inequality this never increases the cost, so a minimum-cost input stays
    minimum-cost.
    """
    m.validate_between(a, b)
    pairs = m.pairs
    # With the marginals right, v's self count is below its cap min(a, b)
    # iff a non-self pair leaves v and another enters it.  Those vertices
    # are found in C; when there are none, as on every stuck state of
    # perfbench's interval_repair chains, m comes back as it is.
    firsts, seconds, moved = _pair_ends(pairs)
    leaving = set(itertools.compress(firsts, moved))
    short = sorted(leaving.intersection(itertools.compress(seconds, moved)))
    if not short:
        return Matching._trusted(pairs)
    ca, cb = a._counts, b._counts
    # partners of the non-self pairs, kept up to date through the swaps;
    # self counts only rise, so the vertices skipped above stay at their cap
    sources: defaultdict[int, set[int]] = defaultdict(set)
    targets: defaultdict[int, set[int]] = defaultdict(set)
    for u, t in pairs:
        if u != t:
            sources[t].add(u)
            targets[u].add(t)
    for v in short:
        want = min(ca[v], cb[v])
        while pairs.get((v, v), 0) < want:
            x = min(sources[v])
            y = min(targets[v])
            if pairs[(x, v)] == 1:
                sources[v].discard(x)
                targets[x].discard(v)
            if pairs[(v, y)] == 1:
                targets[v].discard(y)
                sources[y].discard(v)
            if x != y:
                sources[y].add(x)
                targets[x].add(y)
            _shift_pair(pairs, (x, v), (v, v))
            _shift_pair(pairs, (v, y), (x, y))
    return Matching._trusted(pairs)


def rematch_after_slide(g: Graph, m: Matching, u: int, u_next: int, target: int) -> Matching:
    """Replace one (u, target) pair by (u_next, target) after sliding u one step closer.

    u_next must be a neighbor of u on a shortest u-target path, which is
    exactly what makes the new matching cost one less.
    """
    if m.multiplicity(u, target) < 1:
        raise MatchingError(f"pair ({u}, {target}) is not in the matching")
    if u_next not in succ_set(g, u, target):
        raise MatchingError(f"{u_next} is not on a shortest path from {u} to {target}")
    pairs = m.pairs
    _shift_pair(pairs, (u, target), (u_next, target))
    return Matching(pairs)


# ---------------------------------------------------------------------------
# Greedy sweep matcher on interval representations
# ---------------------------------------------------------------------------


def _drain_match(
    src: list[int], tgt: list[int], amount: int, pairs: dict[tuple[int, int], int]
) -> None:
    """Pair off `amount` tokens from the tails of two flat record stacks
    ``[origin, count, origin, count, ...]``."""
    while amount:
        ca = src[-1]
        cb = tgt[-1]
        take = amount if amount < ca else ca
        if cb < take:
            take = cb
        key = (src[-2], tgt[-2])
        pairs[key] = pairs.get(key, 0) + take
        if ca == take:
            del src[-2:]
        else:
            src[-1] = ca - take
        if cb == take:
            del tgt[-2:]
        else:
            tgt[-1] = cb - take
        amount -= take


def fast_match_intervals(
    rep: IntervalRepresentation, a: TokenMultiset, b: TokenMultiset
) -> tuple[Matching | None, int | None]:
    """Greedy minimum matching working directly on the representation.

    Shared tokens are stripped into zero-cost self-pairs first.  The rest is
    an event-driven sweep by increasing endpoint: a token pile that sees an
    opposite token on an adjacent vertex matches the one whose interval ends
    first, otherwise the whole pile slides to the neighbor reaching furthest
    right, read from the representation's cached ``furthest_reach()``
    table.  Per call, the sweep reads that table and the endpoint table
    (``rep.endpoints()``, built on the first call) only for vertices holding
    tokens, so its work and memory are proportional to the number of tokens
    and slides, not to n.
    Returns (None, None) when some token can never reach the other side.
    """
    require_same_size(a, b)
    n = rep.n
    ca, cb = a._counts, b._counts
    require_on_graph(n, ca.keys() | cb.keys(), "token on vertex {v} outside the representation")
    ends = rep.endpoints()
    # shared tokens become self-pairs; what is left on each side starts a
    # pile: first the piles of a (side 0), then from index na those of b
    pairs: dict[tuple[int, int], int] = {}
    piles: list[int] = []
    counts: list[int] = []
    for v, c in ca.items():
        o = cb.get(v, 0)
        if o:
            pairs[(v, v)] = c if c < o else o
        if c > o:
            piles.append(v)
            counts.append(c - o)
    remaining = a.total - sum(pairs.values())
    if remaining == 0:
        return Matching._trusted(pairs), 0
    na = len(piles)
    for v, c in cb.items():
        o = ca.get(v, 0)
        if c > o:
            piles.append(v)
            counts.append(c - o)

    # Every vertex that ever holds a pile gets a slot in the parallel lists
    # below: the starting piles first, in event order (by right end), then
    # each new slide target as it is reached.  The per-call state is a few
    # flat lists, and the heaps hold right ends, read back to slots through
    # `slot`: endpoints are pairwise distinct.  The ends come fresh from the
    # representation's endpoint table, so they lie together in memory.
    # A slot holds tokens of one side at a time: the starting supports are
    # disjoint, and a pile slides only when no opposite pile has started
    # before right(v), while reach[v] starts before right(v), so a slid pile
    # never lands on opposite tokens.
    m = len(piles)
    ids = list(range(m))
    rgt = [ends[2 * v] for v in piles]
    order = sorted(ids, key=rgt.__getitem__)
    rgt = [rgt[i] for i in order]
    vert = [piles[i] for i in order]
    cnt = [counts[i] for i in order]
    side = [0 if i < na else 1 for i in order]
    # a pile's tokens came from one origin, orig[j], while recs[j] is None;
    # piles that merge keep flat (origin, count) stacks in recs instead
    orig = vert[:]
    recs: list[list[int] | None] = [None] * m
    slot = dict(zip(rgt, ids))
    lft = [ends[2 * v + 1] for v in vert]
    acts = sorted(ids, key=lft.__getitem__)  # starting piles by left end
    reach = rep.furthest_reach()
    active: tuple[list[int], list[int]] = ([], [])  # started piles per side
    dynamic: list[int] = []  # arrivals of slid piles on new slots

    started = sp = 0
    total = 0
    while remaining:
        if dynamic and (sp >= m or dynamic[0] < rgt[sp]):
            rv = heappop(dynamic)
            j = slot[rv]
        elif sp < m:
            j = sp
            rv = rgt[j]
            sp += 1
        else:
            break
        # start the piles whose interval begins before right(v); nothing
        # reaches or leaves a vertex before it starts, so each still holds
        # its starting pile
        while started < m and lft[acts[started]] < rv:
            x = acts[started]
            started += 1
            heappush(active[side[x]], rgt[x])
        c = cnt[j]
        if not c:
            continue
        s = side[j]
        heap = active[1 - s]
        while c:
            while heap:
                x = slot[heap[0]]
                if cnt[x] and side[x] != s:
                    break
                heappop(heap)
            else:
                break
            cx = cnt[x]
            met = c if c < cx else cx
            sa, sb = (x, j) if s else (j, x)
            ra, rb = recs[sa], recs[sb]
            if ra is None and rb is None:
                key = (orig[sa], orig[sb])
                pairs[key] = pairs.get(key, 0) + met
            else:
                if ra is None:
                    ra = [orig[sa], cnt[sa] if s else c]
                if rb is None:
                    rb = [orig[sb], c if s else cnt[sb]]
                _drain_match(ra, rb, met, pairs)
            total += met  # matched across one edge
            cnt[x] = cx - met
            remaining -= met
            c -= met
        cnt[j] = 0
        if not c:
            continue
        # every event is at right(v) of its slot's vertex v, so v lies in its
        # own prefix.  Endpoints are distinct, so the prefix's furthest reach
        # ends at right(v) only when it is v; any other interval of the
        # prefix ends before, so no second-best is needed: w == v means
        # stranded
        v = vert[j]
        w = reach[v]
        if w == v:
            return None, None  # stranded in a component with no partner
        total += c
        rw = ends[2 * w]
        k = slot.get(rw)
        if k is None:
            k = len(vert)
            slot[rw] = k
            rgt.append(rw)
            vert.append(w)
            cnt.append(c)
            side.append(s)
            orig.append(orig[j])
            recs.append(recs[j])
            heappush(active[s], rw)
            heappush(dynamic, rw)
        elif cnt[k]:
            src = recs[j] or [orig[j], c]
            dst = recs[k] or [orig[k], cnt[k]]
            if len(dst) < len(src):
                src, dst = dst, src
            dst.extend(src)
            recs[k] = dst
            cnt[k] += c
        else:
            orig[k] = orig[j]
            recs[k] = recs[j]
            cnt[k] = c
            side[k] = s
            heappush(active[s], rw)
        recs[j] = None
    if remaining:
        raise InvariantError("sweep finished with unmatched tokens")
    return Matching._trusted(pairs), total
