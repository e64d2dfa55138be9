"""Undirected graphs, rooted trees, set systems and feasibility predicates.

Vertices are dense 0-based integers, so per-vertex maps are plain lists.
Unreachable distances use the integer sentinel ``UNREACHABLE`` (never a float).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from collections.abc import Collection, Iterable, Sequence
from operator import itemgetter
from types import MappingProxyType

from .errors import FeasibilityError, InputError, SizeMismatchError
from .multiset import TokenMultiset

#: Distance value reported for vertices in a different component.
UNREACHABLE = -1


class Graph:
    """Immutable undirected graph given by symmetric adjacency lists.

    ``Graph(n, edges)`` checks every edge.  Two builders skip that list and
    equal the graph it would give: a tree from ``peel_tree`` holds its
    parent and depth arrays, rooted at 0, and builds its adjacency from the
    parents on the first read; ``intersection_graph`` hands its rows,
    sorted, to ``_from_rows``.  A graph keeps no distance row: each
    ``Distances`` table owns the rows it reads.
    """

    __slots__ = ("n", "edge_count", "_adj", "_closed", "_chains", "_parent")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InputError(f"vertex count must be non-negative, got {n}")
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            adj[u].append(v)
            adj[v].append(u)
        for row in adj:
            row.sort()
            if len(set(row)) < len(row):  # a repeated edge
                row[:] = sorted(set(row))
        self._adj = tuple(map(tuple, adj))
        self.edge_count = sum(map(len, adj)) // 2
        self._closed: _ClosedNeighborhoods | None = None  # see closed_neighborhoods
        self._chains = None  # an interval graph's distance queries, see Distances
        self._parent: tuple[list[int], list[int]] | None = None  # see peel_tree
        self.n = n

    @classmethod
    def _from_rows(cls, adj: tuple[tuple[int, ...], ...]) -> Graph:
        """The graph with these adjacency rows, taken unchecked: the caller
        guarantees that they are symmetric, sorted by id, and free of
        self-loops and repeats."""
        g = cls.__new__(cls)
        g._adj = adj
        g.edge_count = sum(map(len, adj)) // 2
        g._closed = None
        g._chains = None
        g._parent = None
        g.n = len(adj)
        return g

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return self._adj

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        # adjacency tuples are sorted: O(log deg), even at a star's centre
        nbrs = self._adj[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self._adj[u] if u < v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


class _PeeledTree(Graph):
    """A tree from ``peel_tree``: its parent and depth arrays (vertex 0 is the
    root, its own parent) as one pair, with the adjacency left unset.

    The solve path of a tree never reads the adjacency, so it is built from
    the parent array on the first read instead of by the parser.
    """

    __slots__ = ()

    def __init__(self, parent: list[int], depth: list[int]):
        self.n = len(parent)
        self.edge_count = self.n - 1
        self._parent = (parent, depth)
        self._closed = None
        self._chains = None

    def __getattr__(self, name: str):
        # Python calls this only when the normal lookup fails: for _adj, on
        # its first read.  It also slows every other lookup on the class,
        # which is why eager graphs are plain Graphs and this one turns into
        # one as soon as its adjacency is built.
        if name != "_adj":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for v, p in enumerate(self._parent[0]):
            if v != p:
                adj[p].append(v)
                adj[v].append(p)
        for row in adj:
            row.sort()
        self._adj = adj = tuple(map(tuple, adj))
        self.__class__ = Graph
        return adj


def distances_from(g: Graph, s: int) -> list[int]:
    """BFS distances from s; UNREACHABLE for other components."""
    require_on_graph(g.n, (s,), "source {v} out of range")
    dist = [UNREACHABLE] * g.n
    dist[s] = 0
    queue = deque([s])
    adj = g.adjacency
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in adj[u]:
            if dist[w] == UNREACHABLE:
                dist[w] = du + 1
                queue.append(w)
    return dist


class Distances(dict):
    """Distance rows of g, each set up the first time the table asks for it
    and kept in the table, and blocks of distances between two vertex
    lists, which are not kept.

    ``dist[v][w]`` is the distance between v and w, so the table can stand
    wherever a list of ``distances_from`` rows is read.  A graph built by
    ``intersection_graph`` answers from its intervals' greedy chain
    (``g._chains``): its rows are read-only views that query one distance
    per read.  Every other graph runs ``distances_from``, a BFS, once per
    row.  g keeps no row, so two tables of one graph share nothing.
    """

    __slots__ = ("graph",)

    def __init__(self, g: Graph):
        self.graph = g

    def __missing__(self, v: int) -> Sequence[int]:
        g = self.graph
        if g._chains is not None and 0 <= v < g.n:  # distances_from rejects v out of range
            row = g._chains.view(v)
        else:
            row = distances_from(g, v)
        self[v] = row
        return row

    def blocks(self, sources: Sequence[int], targets: Sequence[int]):
        """Yield ``(lo, hi, block)`` over consecutive slices of targets, with
        ``block[i, j] == distance(sources[i], targets[lo + j])`` as an intp
        array; sources must not be empty.

        An interval graph's blocks come from its greedy chain
        (``intervals._ChainDistances.blocks``).  Elsewhere each block is
        one target's column, gathered from its ``distances_from`` row at
        the sources; the row is dropped, not kept in the table.
        """
        g = self.graph
        if g._chains is not None:
            yield from g._chains.blocks(sources, targets)
            return
        import numpy as np

        column = itemgetter(*sources)  # a bare value for one source
        for j, v in enumerate(targets):
            yield j, j + 1, np.array(column(distances_from(g, v)), dtype=np.intp).reshape(-1, 1)


def steps_toward(g: Graph, u: int, row: Sequence[int]) -> tuple[int, ...]:
    """Neighbors w of u with ``row[w] == row[u] - 1``, by increasing id.

    With row the distance row of v, these are the first steps of the shortest
    u-v paths: empty for u == v and when v lies in another component.
    """
    target = row[u] - 1
    return tuple([w for w in g.neighbors(u) if row[w] == target])


def succ_set(g: Graph, u: int, v: int) -> tuple[int, ...]:
    """Neighbors of u that lie on some shortest u-v path, sorted.

    Empty for u == v.  Raises if v is unreachable from u.
    """
    require_on_graph(g.n, (u, v), "vertex {v} out of range")
    row = Distances(g)[v]
    if row[u] == UNREACHABLE:
        raise InputError(f"vertex {v} is unreachable from {u}")
    return steps_toward(g, u, row)


def check_tree(graph: Graph, root: int = 0) -> list[int]:
    """The ``distances_from`` row of root in graph, after checking that graph
    is a tree: n - 1 distinct edges and every vertex reachable."""
    n = graph.n
    if graph.edge_count != n - 1:
        raise InputError(f"tree on {n} vertices must have {n - 1} edges, got {graph.edge_count}")
    depth = distances_from(graph, root)
    if UNREACHABLE in depth:
        raise InputError("tree is not connected")
    return depth


def peel_tree(n: int, ends: list[int]) -> Graph | None:
    """The tree on vertices 0..n-1 with the edges (ends[0], ends[1]),
    (ends[2], ends[3]), ..., rooted at 0, or None unless these edges,
    repeats and self-loops counted, are exactly the edges of such a tree.

    Leaf peeling: deg[v] counts v's edges not yet peeled and xr[v] is the XOR
    of their other ends, so at degree 1 xr[v] is v's one neighbour left, its
    parent.  Each peel removes one edge that is no self-loop (a loop adds 2 to
    a degree for good), so n - 1 peels use up all n - 1 edges, and they join
    every vertex but 0 to a vertex peeled later or to 0: a tree.  Conversely
    a tree loses a leaf other than 0 until only 0 is left.  The returned
    graph builds its adjacency only when first read.
    """
    if len(ends) != 2 * (n - 1) or ends and (min(ends) < 0 or max(ends) >= n):
        return None
    deg = [0] * n
    xr = [0] * n
    for u, v in zip(ends[::2], ends[1::2]):
        deg[u] += 1
        deg[v] += 1
        xr[u] ^= v
        xr[v] ^= u
    order: list[int] = []
    peeled = order.append
    for v in [v for v in range(1, n) if deg[v] == 1]:
        # peel v, then its parent while that is left with one edge: a vertex
        # gets down to one edge only when a child is peeled.  A leaf listed
        # here may have lost its edge since: the other end of a two-vertex
        # component, which must not be peeled towards 0 (xr[v] = 0)
        while v and deg[v] == 1:
            peeled(v)
            p = xr[v]
            xr[p] ^= v
            deg[p] -= 1
            v = p
    if len(order) != n - 1:
        return None
    # a peeled v keeps xr[v] = its parent; 0 is left with xr[0] = 0
    depth = [0] * n
    for v in reversed(order):
        depth[v] = depth[xr[v]] + 1
    return _PeeledTree(xr, depth)


class RootedTree:
    """A connected acyclic graph with parent/depth data and a processing order.

    ``order`` lists vertices by decreasing depth (ties by increasing id), so
    every vertex appears before its parent; it is sorted on first read, and
    the solver never reads it.  The root is its own parent.
    Rooted at 0, a graph from ``peel_tree`` hands over its parent and depth
    arrays, which it keeps, so both are read-only, and neither a BFS nor
    the adjacency is needed.  Any other graph or root is checked by
    ``check_tree``: ``depth`` is the root's BFS row, and the parents come
    from it.
    """

    __slots__ = ("graph", "root", "parent", "depth", "_order")

    def __init__(self, graph: Graph, root: int = 0):
        n = graph.n
        if n == 0:
            raise InputError("tree needs at least one vertex")
        if not 0 <= root < n:
            raise InputError(f"root {root} out of range")
        peeled = graph._parent if root == 0 else None
        if peeled is not None:
            parent, depth = peeled
        else:
            depth = check_tree(graph, root)
            # in a tree each other vertex has exactly one neighbour one level
            # up: each row is read only up to it
            parent = [root] * n
            for w, nbrs in enumerate(graph.adjacency):
                up = depth[w] - 1
                for u in nbrs:
                    if depth[u] == up:
                        parent[w] = u
                        break
        self.graph = graph
        self.root = root
        self.parent = parent
        self.depth = depth
        self._order: tuple[int, ...] | None = None

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def order(self) -> tuple[int, ...]:
        if self._order is None:
            depth = self.depth
            # the sort is stable under reverse=True, so ties keep increasing id
            self._order = tuple(sorted(range(len(depth)), key=depth.__getitem__, reverse=True))
        return self._order

    def __repr__(self) -> str:
        return f"RootedTree(n={self.n}, root={self.root})"


class SetSystem:
    """A family of non-empty vertex sets.

    When built with a tree, every set is required to induce a connected
    subgraph of it; violations are rejected eagerly.
    """

    __slots__ = ("sets",)

    def __init__(self, sets: Iterable[Iterable[int]], tree: RootedTree | None = None):
        normalized = []
        for i, s in enumerate(sets):
            members = tuple(sorted(set(s)))
            if not members:
                raise InputError(f"set {i} is empty")
            normalized.append(members)
        self.sets = tuple(normalized)
        if tree is not None:
            self.ensure_subtrees(tree)

    def ensure_subtrees(self, tree: RootedTree) -> None:
        """Check every set induces a subtree; raises on the first offender."""
        n = tree.n
        parent = tree.parent
        member = [False] * n
        for i, s in enumerate(self.sets):
            require_on_graph(n, s, f"set {i} mentions vertex {{v}} outside the tree")
            for v in s:
                member[v] = True
            # a set of size k induces a subtree iff k-1 members have their parent inside
            inner_edges = sum(1 for v in s if parent[v] != v and member[parent[v]])
            for v in s:
                member[v] = False
            if inner_edges != len(s) - 1:
                raise InputError(f"set {i} does not induce a subtree")

    def hits(self, n: int) -> list[frozenset[int]]:
        """Per vertex of an n-vertex graph, the indices of the sets containing it."""
        out: list[set[int]] = [set() for _ in range(n)]
        for i, s in enumerate(self.sets):
            require_on_graph(n, s, f"set {i} mentions vertex {{v}} outside the graph")
            for v in s:
                out[v].add(i)
        return [frozenset(h) for h in out]

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetSystem):
            return NotImplemented
        return self.sets == other.sets

    def __repr__(self) -> str:
        return f"SetSystem({len(self.sets)} sets)"


def is_dominating(g: Graph, tokens: TokenMultiset) -> bool:
    """True iff every vertex is in the support or adjacent to it.

    One union, in C, of N[x] over the support, taken from the graph's N[v]
    table, which builds the sets it does not hold yet; after a tracker of
    the same tokens has read them, only the union is left to do.
    """
    support = tokens._counts.keys()
    require_on_graph(g.n, support)
    closed = closed_neighborhoods(g)
    return len(set().union(*map(closed.__getitem__, support))) == g.n


def is_dominating_tree(tree: RootedTree, tokens: TokenMultiset) -> bool:
    """``is_dominating(tree.graph, tokens)`` read off the parent array: v is
    dominated iff v, its parent or one of its children holds a token."""
    support = tokens.support
    require_on_graph(tree.n, support)
    parent = tree.parent
    covered = [p in support for p in parent]  # the parent holds a token
    for v in support:
        covered[v] = covered[parent[v]] = True
    return False not in covered


def is_hitting(system: SetSystem, tokens: TokenMultiset) -> bool:
    """True iff the support intersects every set of the system."""
    supp = tokens.support
    for s in system.sets:
        if not any(v in supp for v in s):
            return False
    return True


class _ClosedNeighborhoods(dict):
    """N[v] for every vertex of one graph, each set built the first time it
    is read and kept in the table.

    ``table[v]`` is ``frozenset((v, *neighbors(v)))``.  The table reads like
    the tuple of all n sets it stands for: ``len()`` is n, and iteration
    yields N[0], ..., N[n-1], building what is missing.  It holds the
    adjacency tuple, not the graph, so the graph can keep its table without
    forming a reference cycle.
    """

    __slots__ = ("_adj",)

    def __init__(self, adj: tuple[tuple[int, ...], ...]):
        self._adj = adj

    def __missing__(self, v: int) -> frozenset[int]:
        if v < 0:  # the adjacency tuple raises IndexError for v >= n
            raise IndexError(f"vertex {v} out of range")
        self[v] = closed = frozenset((v, *self._adj[v]))
        return closed

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self):
        return map(self.__getitem__, range(len(self._adj)))


def closed_neighborhoods(g: Graph) -> _ClosedNeighborhoods:
    """N[v] for every vertex: the sets a token on v hits when set w is N[w].

    One table per graph, made on the first call and cached on g, so every
    caller shares it; each N[v] in it is built only when first read, so a
    caller that touches few vertices pays for few sets.
    """
    table = g._closed
    if table is None:
        table = g._closed = _ClosedNeighborhoods(g._adj)
    return table


def closed_neighborhood_system(tree: RootedTree) -> SetSystem:
    """One set N[v] per vertex; hitting it is the same as dominating the tree."""
    return SetSystem(closed_neighborhoods(tree.graph), tree=tree)


class Coverage:
    """Token counts per vertex and hit counts per set, updated slide by slide.

    ``hits[v]`` holds the sets a token on v hits: ``closed_neighborhoods(g)``
    for domination, ``SetSystem.hits`` for a set family.  The tracker only
    reads ``hits``, so trackers on one graph share its cached N[v] table,
    which builds only the sets they read.
    Callers read ``counts`` but change it only through ``slide``.

    ``Coverage.around`` builds a tracker for the slides out of one vertex
    u alone: it holds hit counts for the sets in N[u] only, which is all
    that ``can_slide(u, w)`` reads for w in N[u].
    """

    __slots__ = ("hits", "counts", "hit_counts")

    def __init__(self, hits: Sequence[frozenset[int]], n_sets: int, tokens: TokenMultiset):
        n = len(hits)
        items = tokens.items()
        # sorted, so the ends decide; the support is built only to name the
        # offender (find_greedy_move builds two trackers per call)
        if items and (items[0][0] < 0 or items[-1][0] >= n):
            require_on_graph(n, tokens.support)
        counts = [0] * n
        hit = [0] * n_sets
        for v, c in items:
            counts[v] = c
            for s in hits[v]:
                hit[s] += 1
        self.hits = hits
        self.counts = counts
        self.hit_counts = hit

    @classmethod
    def around(cls, closed: _ClosedNeighborhoods, tokens: TokenMultiset, u: int) -> Coverage:
        """A tracker of tokens on the N[v] table ``closed`` that answers
        ``can_slide(u, w)`` for w = u and w in N(u), and nothing else.

        N[s] holds x iff N[x] holds s, so the hit count of N[s] is the
        number of occupied vertices in N[s]; it is counted for the sets in
        N[u] only, in O(sum of |N[s]|) and without an n-long list.  The
        counts are a read-only view of the tokens, so ``slide`` raises.  The
        caller checks that u and the tokens lie on the graph.
        """
        counts = tokens._counts  # a Counter: 0 off the support
        cover = cls.__new__(cls)
        cover.hits = closed
        cover.counts = MappingProxyType(counts)
        cover.hit_counts = {s: sum(map(counts.__contains__, closed[s])) for s in closed[u]}
        return cover

    @property
    def feasible(self) -> bool:
        """True iff every set is hit."""
        return 0 not in self.hit_counts

    def can_slide(self, u: int, w: int) -> bool:
        """Would sliding one token u -> w leave every set that is hit now hit?

        Only sets around u can lose their last token, and only when u's last
        token leaves, so the check is O(|hits[u]|).
        """
        counts = self.counts
        if u == w or counts[u] >= 2:
            return True
        hit = self.hit_counts
        gained = self.hits[w] if counts[w] == 0 else ()
        for s in self.hits[u]:
            if hit[s] == 1 and s not in gained:
                return False
        return True

    def slide(self, u: int, w: int, count: int = 1) -> None:
        """Move ``count`` >= 1 tokens u -> w; the caller ensures u holds them.

        Hit counts change only when u empties or w gains its first token.
        """
        counts = self.counts
        hit = self.hit_counts
        counts[u] -= count
        if not counts[u]:
            for s in self.hits[u]:
                hit[s] -= 1
        if not counts[w]:
            for s in self.hits[w]:
                hit[s] += 1
        counts[w] += count


def require_same_size(a: TokenMultiset, b: TokenMultiset) -> None:
    if a.total != b.total:
        raise SizeMismatchError(f"token multisets differ in size: {a.total} vs {b.total}")


def require_on_graph(
    n: int, vertices: Collection[int], message: str = "token on vertex {v} outside the graph"
) -> None:
    """Raise InputError unless all vertices lie in 0..n-1; ``message`` may name
    the lowest offender as {v} and the collection as {vertices}."""
    if vertices and (min(vertices) < 0 or max(vertices) >= n):
        v = min(u for u in vertices if not 0 <= u < n)
        raise InputError(message.format(v=v, vertices=vertices))


def require_hitting(system: SetSystem, tokens: TokenMultiset, label: str) -> None:
    if not is_hitting(system, tokens):
        raise FeasibilityError(f"{label} configuration is not a hitting set")
