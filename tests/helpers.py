"""Shared randomized-instance machinery for the test suite."""

from __future__ import annotations

import functools
import itertools
import random
from collections import deque

import tokenslide as ts
from tokenslide.generators import gen_instance, random_interval_representation


def bfs_path(g: ts.Graph, s: int, t: int) -> list[int] | None:
    """Some shortest path from s to t, or None if unreachable."""
    parent: dict[int, int | None] = {s: None}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        if u == t:
            break
        for w in g.neighbors(u):
            if w not in parent:
                parent[w] = u
                queue.append(w)
    if t not in parent:
        return None
    path = [t]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


def iter_tree_instances(count: int, base_seed: int, max_n: int = 12, max_k: int = 4):
    """Yield exactly `count` random tree instances with dominating token sets."""
    rng = random.Random(base_seed)
    produced = 0
    seed = base_seed
    while produced < count:
        seed += 1
        n = rng.randrange(2, max_n + 1)
        k = rng.randrange(1, min(n, max_k) + 1)
        try:
            inst = gen_instance("tree", n, k, seed)
        except ts.InputError:
            continue
        produced += 1
        yield inst


def iter_interval_instances(count: int, base_seed: int, max_n: int = 10, max_k: int = 3):
    """Yield exactly `count` random interval instances with dominating token sets."""
    rng = random.Random(base_seed)
    produced = 0
    seed = base_seed
    while produced < count:
        seed += 1
        n = rng.randrange(2, max_n + 1)
        k = rng.randrange(1, min(n, max_k) + 1)
        try:
            inst = gen_instance("interval", n, k, seed)
        except ts.InputError:
            continue
        produced += 1
        yield inst


def enumerate_min_matchings(g: ts.Graph, d_s: ts.TokenMultiset, d_t: ts.TokenMultiset):
    """All minimum-cost matchings between small multisets, by enumeration."""
    _, best = ts.min_cost_matching(g, d_s, d_t)
    if best is None:
        return
    left = [v for v, c in d_s.items() for _ in range(c)]
    right = [v for v, c in d_t.items() for _ in range(c)]
    dist = {v: ts.distances_from(g, v) for v in set(left)}
    seen = set()
    for perm in itertools.permutations(range(len(right))):
        cost = 0
        ok = True
        for i, j in enumerate(perm):
            d = dist[left[i]][right[j]]
            if d < 0:
                ok = False
                break
            cost += d
        if not ok or cost != best:
            continue
        pairs: dict[tuple[int, int], int] = {}
        for i, j in enumerate(perm):
            key = (left[i], right[j])
            pairs[key] = pairs.get(key, 0) + 1
        frozen = tuple(sorted(pairs.items()))
        if frozen not in seen:
            seen.add(frozen)
            yield ts.Matching(pairs)


@functools.cache
def harvest_interval_stalls(max_states: int, seed_cap: int = 400):
    """Stuck states for the matching repair: a representation, two dominating
    sets and a minimum-cost matching under which no token can slide along a
    shortest path to its match without breaking domination.

    Found by enumerating dominating-set pairs and all their minimum
    matchings on small random interval graphs.  The search takes seconds,
    so its result is cached per argument and shared.
    """
    out = []
    for seed in range(seed_cap):
        r = random.Random(seed)
        n = r.randrange(4, 9)
        rep = random_interval_representation(n, r, connected=r.random() < 0.7)
        g = ts.intersection_graph(rep)
        pred = ts.dominating_predicate(g)
        doms = []
        for k in (2, 3):
            for comb in itertools.combinations(range(n), k):
                t = ts.TokenMultiset(comb)
                if pred(t.support_mask):
                    doms.append(t)
        done = False
        for d_s, d_t in itertools.permutations(doms, 2):
            if done or d_s.total != d_t.total:
                continue
            for m in enumerate_min_matchings(g, d_s, d_t):
                m = ts.normalize_matching(g, m, d_s, d_t)
                if ts.find_greedy_move(g, d_s, d_t, m) is None:
                    out.append((rep, g, d_s, d_t, m))
                    done = True
                    break
        if len(out) >= max_states:
            break
    return tuple(out)


def unit_replay(g: ts.Graph, pred, start: ts.TokenMultiset, seq: ts.MoveSequence):
    """Reference for ``verify_sequence``: expand every triple into unit moves
    and run the mask predicate after each one."""
    counts = dict(start.items())
    mask = start.support_mask

    def fail(message: str) -> ts.VerifyResult:
        return ts.VerifyResult(False, ts.TokenMultiset(counts), message)

    if not pred(mask):
        return fail("start configuration is infeasible")
    i = 0
    for u, v, c in seq.moves:
        for _ in range(c):
            if not g.has_edge(u, v):
                return fail(f"move {i}: ({u}, {v}) is not an edge")
            if counts.get(u, 0) < 1:
                return fail(f"move {i}: no token on vertex {u}")
            new_mask = (mask & ~(1 << u)) if counts[u] == 1 else mask
            new_mask |= 1 << v
            if not pred(new_mask):
                return fail(f"move {i}: configuration after ({u}, {v}) is infeasible")
            counts[u] -= 1
            if not counts[u]:
                del counts[u]
            counts[v] = counts.get(v, 0) + 1
            mask = new_mask
            i += 1
    return ts.VerifyResult(True, ts.TokenMultiset(counts), None)


def shortest_slide_sequence(g: ts.Graph, pred, start: ts.TokenMultiset, goal: ts.TokenMultiset):
    """Some shortest slide sequence from start to goal as unit triples, by
    breadth-first search over token-count tuples; None if unreachable."""

    def mask(counts):
        return sum(1 << v for v, c in enumerate(counts) if c)

    def tup(t):
        counts = [0] * g.n
        for v, c in t.items():
            counts[v] = c
        return tuple(counts)

    source, target = tup(start), tup(goal)
    parent = {source: None}
    queue = deque([source])
    while queue and target not in parent:
        counts = queue.popleft()
        for u in range(g.n):
            if not counts[u]:
                continue
            for v in g.neighbors(u):
                nxt = list(counts)
                nxt[u] -= 1
                nxt[v] += 1
                nxt = tuple(nxt)
                if nxt not in parent and pred(mask(nxt)):
                    parent[nxt] = (counts, (u, v, 1))
                    queue.append(nxt)
    if target not in parent:
        return None
    moves = []
    while parent[target] is not None:
        target, move = parent[target]
        moves.append(move)
    return ts.MoveSequence(moves[::-1])
