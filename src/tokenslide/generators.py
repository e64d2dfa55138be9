"""Seeded random instances: trees, interval representations, token sets.

All randomness flows through ``random.Random(seed)`` (the stdlib Mersenne
Twister), so generated instances are reproducible across platforms.
"""

from __future__ import annotations

import random
from bisect import insort
from collections.abc import Iterable, Sequence

from .errors import InputError
from .graphs import Coverage, Graph, RootedTree, SetSystem, TreeCoverage, domination_tracker, is_dominating
from .instances import Instance
from .intervals import IntervalRepresentation, intersection_graph, normalize_representation
from .multiset import TokenMultiset

_GEN_RETRY_CAP = 60


def random_tree(n: int, rng: random.Random) -> Graph:
    """Random recursive tree on n >= 1 vertices: vertex i attaches to a
    uniform earlier vertex, its parent."""
    return Graph._from_rows(None, [rng.randrange(i) if i else 0 for i in range(n)])


def random_connected_graph(n: int, rng: random.Random) -> Graph:
    """Random tree plus fewer than n extra random edges."""
    extra_edges = rng.randrange(0, n)
    edges = {(min(u, v), max(u, v)) for u, v in random_tree(n, rng).edges()}
    for _ in range(extra_edges):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def random_interval_representation(
    n: int, rng: random.Random, connected: bool = True, spread: float | None = None
) -> IntervalRepresentation:
    """Random intervals with distinct integer endpoints.

    With ``connected=True`` consecutive intervals in left-endpoint order are
    forced to overlap, so the intersection graph is connected.  ``spread``
    scales interval lengths in units of the mean left-endpoint gap: small
    values give sparse, path-like graphs; the default gives long intervals
    and a dense graph.
    """
    if connected:
        lefts = sorted(rng.random() for _ in range(n))
        reach = 0.8 if spread is None else spread / n
        raw = []
        for i, lo in enumerate(lefts):
            anchor = lefts[i + 1] if i + 1 < n else lo
            hi = anchor + rng.random() * reach + 1e-9
            raw.append((lo, hi))
        return normalize_representation(raw)
    ranks = list(range(1, 2 * n + 1))
    rng.shuffle(ranks)
    raw = []
    for i in range(n):
        a, b = ranks[2 * i], ranks[2 * i + 1]
        raw.append((min(a, b), max(a, b)))
    return IntervalRepresentation(raw)


def random_token_multiset(n: int, k: int, rng: random.Random) -> TokenMultiset:
    """k tokens on uniform vertices, repetitions allowed."""
    return TokenMultiset(rng.randrange(n) for _ in range(k))


def random_subtree_family(tree: RootedTree, rng: random.Random, n_sets: int) -> SetSystem:
    """Connected vertex sets grown from random seeds by random expansion."""
    g = tree.graph
    sets = []
    for _ in range(n_sets):
        current = {rng.randrange(g.n)}
        frontier = set(g.neighbors(next(iter(current))))
        while frontier and rng.random() < 0.55:
            w = rng.choice(sorted(frontier))
            current.add(w)
            frontier |= set(g.neighbors(w))
            frontier -= current
        sets.append(sorted(current))
    return SetSystem(sets, tree=tree)


def _greedy_dominating(g: Graph, order: Iterable[int], pick_of: Sequence[int]) -> set[int]:
    """Each vertex of ``order`` still uncovered adds ``pick_of[v]``, which
    covers its closed neighbourhood."""
    covered = [False] * g.n
    chosen: set[int] = set()
    for v in order:
        if not covered[v]:
            pick = pick_of[v]
            chosen.add(pick)
            covered[pick] = True
            for w in g.neighbors(pick):
                covered[w] = True
    return chosen


def greedy_dominating_tree(tree: RootedTree) -> set[int]:
    """Minimum dominating set of a tree: deepest uncovered vertex picks its
    parent (the root is its own parent)."""
    return _greedy_dominating(tree.graph, tree.order, tree.parent)


def greedy_dominating_intervals(rep: IntervalRepresentation, g: Graph) -> set[int]:
    """Minimum dominating set of an interval graph by a left-to-right sweep:
    the uncovered interval ending first is dominated by the neighbor
    reaching furthest right."""
    return _greedy_dominating(g, sorted(range(g.n), key=rep._right.__getitem__), rep.furthest_reach())


def diversify_tokens(
    g: Graph, cover: Coverage | TreeCoverage, rng: random.Random, steps: int
) -> TokenMultiset:
    """Random walk in the reconfiguration graph: feasibility-preserving slides.

    Starts from the feasible configuration that ``cover`` tracks and moves
    it along; returns where the walk ends.
    """
    counts = cover.counts
    occupied = [v for v, c in enumerate(counts) if c]
    for _ in range(steps):
        u = rng.choice(occupied)
        nbrs = g.neighbors(u)
        if not nbrs:
            continue
        w = rng.choice(nbrs)
        if not cover.can_slide(u, w):
            continue
        cover.slide(u, w)
        if not counts[u]:
            occupied.remove(u)
        if counts[w] == 1:
            insort(occupied, w)
    return TokenMultiset.from_counts_list(counts)


def _pad_to_size(base: set[int], k: int, n: int, rng: random.Random) -> TokenMultiset:
    extra = sorted(set(range(n)) - base)
    rng.shuffle(extra)
    padded = sorted(base) + extra[: k - len(base)]
    return TokenMultiset(padded)


def _scrambled_instance(
    graph: Graph, rep: IntervalRepresentation | None, base: set[int], k: int, rng: random.Random
) -> Instance:
    """Pad the dominating set base to exactly k tokens, then scramble each
    side with a walk of 2n random slide attempts that keep it feasible."""
    n = graph.n
    start = _pad_to_size(base, k, n, rng)
    if k == n:
        d_s = d_t = start
    else:
        d_s = diversify_tokens(graph, domination_tracker(graph, start), rng, 2 * n)
        d_t = diversify_tokens(graph, domination_tracker(graph, start), rng, 2 * n)
    assert is_dominating(graph, d_s) and is_dominating(graph, d_t)
    kind = "tree" if rep is None else "intervals"
    return Instance(kind=kind, graph=graph, rep=rep, d_s=d_s, d_t=d_t)


def gen_instance(kind: str, n: int, k: int, seed: int) -> Instance:
    """Deterministic random instance with two feasible equal-size token sets.

    Starts from a greedy dominating set, pads it to exactly k tokens, then
    scrambles each side with feasibility-preserving random slides.  Retries
    with a fresh structure when no dominating set of size k exists; gives up
    after a fixed number of attempts.
    """
    if kind not in ("tree", "interval"):
        raise InputError(f"unknown instance kind {kind!r}")
    if not 1 <= k <= n:
        raise InputError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = random.Random(seed)
    for _ in range(_GEN_RETRY_CAP):
        if kind == "tree":
            graph = random_tree(n, rng)
            rep = None
            base = greedy_dominating_tree(RootedTree(graph, 0))
        else:
            rep = random_interval_representation(n, rng, connected=True)
            graph = intersection_graph(rep)
            base = greedy_dominating_intervals(rep, graph)
        if len(base) <= k:
            return _scrambled_instance(graph, rep, base, k, rng)
    raise InputError(f"no dominating set of size {k} found for kind={kind}, n={n} after retries")


def gen_bench_interval_instance(n: int, seed: int) -> Instance:
    """Random sparse-ish interval instance with a token budget slightly above
    the minimum; sparse graphs need many tokens, which makes the solve
    non-trivial."""
    rng = random.Random(seed)
    rep = random_interval_representation(n, rng, connected=True, spread=8.0)
    graph = intersection_graph(rep)
    base = greedy_dominating_intervals(rep, graph)
    return _scrambled_instance(graph, rep, base, min(n, len(base) + 2), rng)


def gen_hitting_instance(
    n: int, seed: int
) -> tuple[RootedTree, SetSystem, TokenMultiset, TokenMultiset]:
    """Random tree, random connected-subtree family, two random hitting sets."""
    rng = random.Random(seed)
    tree = RootedTree(random_tree(n, rng), 0)
    n_sets = rng.randrange(1, n + 1)
    system = random_subtree_family(tree, rng, n_sets)
    # one hitting vertex per set: its member closest to the root
    depth = tree.depth
    base = {min(s, key=lambda v: (depth[v], v)) for s in system.sets}
    start = TokenMultiset(sorted(base))
    hits = system.hits(n)
    h_s = diversify_tokens(tree.graph, Coverage(hits, len(system), start), rng, 2 * n)
    h_t = diversify_tokens(tree.graph, Coverage(hits, len(system), start), rng, 2 * n)
    return tree, system, h_s, h_t


def heavy_path_instance(n: int, pile: int) -> tuple[Graph, TokenMultiset, TokenMultiset]:
    """Path instance whose reconfiguration needs about pile*n unit moves.

    Both sides share a sparse dominating pattern; on top of it one side
    stacks ``pile`` extra tokens on the left end and the other on the right
    end, so the whole pile must march across the path.
    """
    graph = Graph._from_rows(None, [0, *range(n - 1)])  # the path 0-1-...-(n-1)
    pattern = [v for v in range(n) if v % 3 == 1]
    if not pattern or pattern[-1] + 1 < n - 1:
        pattern.append(n - 1)
    base = dict.fromkeys(pattern, 1)
    d_s = dict(base)
    d_s[0] = d_s.get(0, 0) + pile
    d_t = dict(base)
    d_t[n - 1] = d_t.get(n - 1, 0) + pile
    return graph, TokenMultiset(d_s), TokenMultiset(d_t)
