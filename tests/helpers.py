"""Shared randomized-instance machinery for the test suite."""

from __future__ import annotations

import functools
import itertools
import os
import random
from collections import deque
from contextlib import contextmanager
from unittest import mock

import tokenslide as ts
from tokenslide import graphs
from tokenslide.errors import InputError, ParseError
from tokenslide.generators import gen_instance, random_interval_representation
from tokenslide.graphs import UNREACHABLE, distances_from
from tokenslide.instances import KINDS, MAX_GRAPH_VERTICES, Instance
from tokenslide.intervals import IntervalRepresentation, intersection_graph
from tokenslide.multiset import TokenMultiset


@contextmanager
def bfs_sources():
    """Record the source of every ``graphs.distances_from`` call inside."""
    sources: list[int] = []
    real = graphs.distances_from

    def counting(graph, s):
        sources.append(s)
        return real(graph, s)

    with mock.patch.object(graphs, "distances_from", counting):
        yield sources


def check_tree(graph, root: int = 0) -> list[int]:
    """The ``distances_from`` row of root in graph, after checking that graph
    is a tree: n - 1 distinct edges and every vertex reachable."""
    n = graph.n
    if graph.edge_count != n - 1:
        raise InputError(f"tree on {n} vertices must have {n - 1} edges, got {graph.edge_count}")
    depth = distances_from(graph, root)
    if UNREACHABLE in depth:
        raise InputError("tree is not connected")
    return depth


def reference_rooting(g, root: int) -> tuple[list[int], list[int]]:
    """(parent, depth) of g rooted at root, by a BFS of its own."""
    parent, depth = {root: root}, {root: 0}
    queue = [root]
    for u in queue:
        for w in g.neighbors(u):
            if w not in depth:
                parent[w], depth[w] = u, depth[u] + 1
                queue.append(w)
    return [parent[v] for v in range(g.n)], [depth[v] for v in range(g.n)]


def child_env() -> dict[str, str]:
    """This process's environment with the directory that holds its
    ``tokenslide`` first on PYTHONPATH, so that a child interpreter imports
    the same copy."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(ts.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


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


@functools.cache
def harvest_repair_gadgets() -> tuple:
    """Lone gadgets (rep, d_s, d_t) on which ``reconf_interval`` itself gets
    stuck and repairs: each harvested stuck state with its vertex ids
    permuted at random, up to four permutations per state that make the
    solver fire a repair.  Whether the solver's own matching is the stuck
    one depends on the ids, as in perfbench's gadget search."""
    rng = random.Random(3707)
    out = []
    for rep, _, d_s, d_t, _ in harvest_interval_stalls(max_states=6):
        found = 0
        for _ in range(32):
            perm = list(range(rep.n))
            rng.shuffle(perm)
            spans = [None] * rep.n
            for v, span in enumerate(rep.intervals):
                spans[perm[v]] = span
            gadget = (
                IntervalRepresentation(spans),
                TokenMultiset({perm[v]: c for v, c in d_s.items()}),
                TokenMultiset({perm[v]: c for v, c in d_t.items()}),
            )
            fired = []
            ts.reconf_interval(*gadget, on_fix=lambda *state: fired.append(1))
            if fired:
                out.append(gadget)
                found += 1
                if found == 4:
                    break
    return tuple(out)


def side_by_side(parts) -> tuple[IntervalRepresentation, TokenMultiset, TokenMultiset]:
    """The disjoint union of interval instances (rep, d_s, d_t), laid out
    left to right on the line in the order given."""
    spans, d_s, d_t = [], {}, {}
    for rep, a, b in parts:
        shift = max(hi for _, hi in spans) + 1 - min(lo for lo, _ in rep.intervals) if spans else 0
        offset = len(spans)
        spans += [(lo + shift, hi + shift) for lo, hi in rep.intervals]
        d_s.update((v + offset, c) for v, c in a.items())
        d_t.update((v + offset, c) for v, c in b.items())
    return IntervalRepresentation(spans), TokenMultiset(d_s), TokenMultiset(d_t)


def run_length(unit_moves) -> tuple[tuple[int, int, int], ...]:
    """Consecutive equal unit moves (u, v) merged into triples (u, v, c): the
    reference for the runs that both solvers build as they slide."""
    triples: list[list[int]] = []
    for u, v in unit_moves:
        if triples and triples[-1][0] == u and triples[-1][1] == v:
            triples[-1][2] += 1
        else:
            triples.append([u, v, 1])
    return tuple(map(tuple, triples))


def has_maximal_runs(moves) -> bool:
    """No two consecutive triples share (u, v)."""
    return all(a[:2] != b[:2] for a, b in zip(moves, moves[1:]))


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


# The line-by-line instance and move reader, kept as the reference that the
# bulk reader in ``tokenslide.instances`` must agree with: same instances,
# same error texts.  It builds graphs the same way too, with a set per vertex.


class ReferenceGraph(ts.Graph):
    """A Graph whose adjacency is built with a set per vertex, and which
    holds no parent array even when its edges form a tree: on it
    ``is_dominating`` takes the N[x] union and ``domination_tracker`` a
    ``Coverage``, the references the tree model is checked against."""

    __slots__ = ()

    def __init__(self, n, edges=()):
        if n < 0:
            raise InputError(f"vertex count must be non-negative, got {n}")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self._adj = tuple(tuple(sorted(s)) for s in adj)
        self.edge_count = sum(map(len, adj)) // 2
        self._closed = None
        self._chains = None
        self._parent = None
        self.n = n


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    return out


def _parse_ints(lineno: int, line: str, expect: int | None = None) -> list[int]:
    parts = line.split()
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ParseError(lineno, f"expected integers, got {line!r}") from None
    if expect is not None and len(values) != expect:
        raise ParseError(lineno, f"expected {expect} integers, got {len(values)}")
    return values


def _parse_tokens(lineno: int, line: str, n: int) -> TokenMultiset:
    head, _, rest = line.partition(":")
    parts = head.split()
    if len(parts) != 2 or parts[0] != "tokens" or not parts[1].isdecimal():
        raise ParseError(lineno, f"expected 'tokens k: v1 ... vk', got {line!r}")
    k = int(parts[1])
    ids = _parse_ints(lineno, rest)
    if len(ids) != k:
        raise ParseError(lineno, f"token line declares {k} tokens but lists {len(ids)}")
    for v in ids:
        if not 0 <= v < n:
            raise ParseError(lineno, f"token vertex {v} out of range for {n} vertices")
    return TokenMultiset(ids)


def reference_parse_instance(text: str) -> Instance:
    """Parse an instance file; raises ParseError with a line number on bad input."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError(1, "empty instance")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] not in KINDS:
        raise ParseError(lineno, f"expected header 'tree|graph|intervals N', got {header!r}")
    kind = parts[0]
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(lineno, f"bad vertex count {parts[1]!r}") from None
    if n < 1:
        raise ParseError(lineno, "vertex count must be positive")
    if kind == "graph" and n > MAX_GRAPH_VERTICES:
        raise ParseError(lineno, f"graph files allow at most {MAX_GRAPH_VERTICES} vertices, got {n}")

    pos = 1
    rep: IntervalRepresentation | None = None
    if kind == "intervals":
        seen: dict[int, tuple[int, int]] = {}
        ends: set[int] = set()
        repeat = None  # the first line with an endpoint an earlier line has
        for _ in range(n):
            if pos >= len(lines):
                raise ParseError(lines[-1][0], f"expected {n} interval lines")
            ln, line = lines[pos]
            pos += 1
            v, lo, hi = _parse_ints(ln, line, expect=3)
            if not 0 <= v < n:
                raise ParseError(ln, f"interval id {v} out of range")
            if v in seen:
                raise ParseError(ln, f"duplicate interval id {v}")
            if lo >= hi:
                raise ParseError(ln, f"interval [{lo}, {hi}] must have left < right")
            seen[v] = (lo, hi)
            if repeat is None and (lo in ends or hi in ends):
                repeat = ln
            ends.update((lo, hi))
        if repeat is not None:
            raise ParseError(repeat, "interval endpoints must be pairwise distinct")
        rep = IntervalRepresentation(seen[v] for v in range(n))
        graph = intersection_graph(rep)
    else:
        edges = []
        expected = n - 1 if kind == "tree" else None
        while pos < len(lines) and not lines[pos][1].startswith("tokens"):
            ln, line = lines[pos]
            pos += 1
            u, v = _parse_ints(ln, line, expect=2)
            edges.append((u, v))
        if expected is not None and len(edges) != expected:
            raise ParseError(lineno, f"tree on {n} vertices needs {expected} edges, got {len(edges)}")
        try:
            graph = ReferenceGraph(n, edges)
            if kind == "tree":
                # duplicate edges collapse in Graph, so n - 1 lines need not be n - 1 edges
                check_tree(graph)
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None

    token_sets = []
    for _ in range(2):
        if pos >= len(lines):
            raise ParseError(lines[-1][0], "expected two token lines")
        ln, line = lines[pos]
        pos += 1
        if not line.startswith("tokens"):
            raise ParseError(ln, f"expected a token line, got {line!r}")
        token_sets.append(_parse_tokens(ln, line, n))
    if pos < len(lines):
        raise ParseError(lines[pos][0], "unexpected trailing content")
    d_s, d_t = token_sets
    if d_s.total != d_t.total:
        raise ParseError(lineno, f"token blocks differ in size: {d_s.total} vs {d_t.total}")
    return Instance(kind=kind, graph=graph, rep=rep, d_s=d_s, d_t=d_t)


def reference_parse_moves(text: str) -> tuple[int, list[tuple[int, int, int]]]:
    """Parse solver output: a 'moves N' header then one 'u v count' per line."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError(1, "empty move file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "moves":
        raise ParseError(lineno, f"expected 'moves N', got {header!r}")
    try:
        declared = int(parts[1])
    except ValueError:
        raise ParseError(lineno, f"bad move count {parts[1]!r}") from None
    triples = []
    total = 0
    for ln, line in lines[1:]:
        u, v, c = _parse_ints(ln, line, expect=3)
        if c < 1:
            raise ParseError(ln, f"move count {c} must be positive")
        if u == v:
            raise ParseError(ln, f"move ({u}, {v}) does not change anything")
        triples.append((u, v, c))
        total += c
    if total != declared:
        raise ParseError(lineno, f"header declares {declared} moves but lines sum to {total}")
    return declared, triples
