"""Undirected graphs, rooted trees, set systems and feasibility predicates.

Vertices are dense 0-based integers, so per-vertex maps are plain lists.
Unreachable distances use the integer sentinel ``UNREACHABLE`` (never a float).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from collections.abc import Collection, Iterable, Sequence
from itertools import repeat
from operator import itemgetter, lt, or_, setitem

from .errors import FeasibilityError, InputError, SizeMismatchError
from .multiset import TokenMultiset

#: Distance value reported for vertices in a different component.
UNREACHABLE = -1


class Graph:
    """Immutable undirected graph given by symmetric adjacency lists.

    ``Graph(n, edges)`` checks every edge.  Two builders skip that list,
    through ``_from_rows``, and equal the graph it would give:
    ``intersection_graph`` hands over its rows, sorted; a tree from
    ``peel_tree`` holds only its parent array, rooted at 0 (``_parent``),
    and leaves ``_adj`` None until ``adjacency`` builds the rows from it on
    the first read, which is the only place that happens.  Until then
    ``has_edge`` reads the parent array, and every other reader of the rows
    goes through ``adjacency``.  An eager tree gets ``_parent`` too when a
    ``RootedTree`` first roots it at 0.  A graph keeps no distance row: each
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
        self._adj: tuple[tuple[int, ...], ...] | None = tuple(map(tuple, adj))
        self.edge_count = sum(map(len, adj)) // 2
        self._closed: _ClosedNeighborhoods | None = None  # see closed_neighborhoods
        self._chains = None  # an interval graph's distance queries, see Distances
        self._parent: list[int] | None = None  # see peel_tree
        self.n = n

    @classmethod
    def _from_rows(
        cls, adj: tuple[tuple[int, ...], ...] | None, parent: list[int] | None = None
    ) -> Graph:
        """The graph with these adjacency rows, taken unchecked: the caller
        guarantees that they are symmetric, sorted by id, and free of
        self-loops and repeats.  With adj None, the tree with this parent
        array instead, rooted at 0 (its own parent), its rows unbuilt."""
        g = cls.__new__(cls)
        g.n = len(parent) if adj is None else len(adj)
        g.edge_count = g.n - 1 if adj is None else sum(map(len, adj)) // 2
        g._adj = adj
        g._parent = parent
        g._closed = None
        g._chains = None
        return g

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj = self._adj
        if adj is None:  # a tree from peel_tree, read for the first time
            rows: list[list[int]] = [[] for _ in range(self.n)]
            for v, p in enumerate(self._parent):
                if v != p:
                    rows[p].append(v)
                    rows[v].append(p)
            for row in rows:
                row.sort()
            self._adj = adj = tuple(map(tuple, rows))
        return adj

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        if self._adj is None:
            # read off the parent array, so the adjacency stays unbuilt;
            # u != v keeps the root, its own parent, from an edge to itself
            parent = self._parent
            return u != v and (parent[u] == v or parent[v] == u)
        # adjacency tuples are sorted: O(log deg), even at a star's centre
        nbrs = self._adj[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def edges(self) -> list[tuple[int, int]]:
        adj = self.adjacency
        return [(u, v) for u in range(self.n) for v in adj[u] if u < v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adjacency == other.adjacency

    def __hash__(self) -> int:
        return hash((self.n, self.adjacency))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


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

    Lower-end rooting first, in C: if every edge is written ``lo hi`` with
    lo < hi, each vertex's parent is taken to be the lower end of the edge
    that names it as the higher one.  If that gives every vertex but 0 a
    parent, the n - 1 edges give each of 1..n-1 exactly one edge to a lower
    id: they are distinct, hold no loop, and every walk up ends at 0, so
    they form the tree rooted at 0 and these are its parents.  This is how
    ``emit_instance`` writes a tree whose ids grow away from 0 (random
    recursive trees, paths, caterpillars).

    Any other edge list goes to leaf peeling: deg[v] counts v's edges not
    yet peeled and xr[v] is the XOR of their other ends, so at degree 1
    xr[v] is v's one neighbour left, its parent.  Each peel removes one edge
    that is no self-loop (a loop adds 2 to a degree for good), so n - 1
    peels use up all n - 1 edges, and they join every vertex but 0 to a
    vertex peeled later or to 0: a tree.  Conversely a tree loses a leaf
    other than 0 until only 0 is left.  The returned graph holds the parent
    array alone; it builds its adjacency only when first read.
    """
    if len(ends) != 2 * (n - 1) or ends and (min(ends) < 0 or max(ends) >= n):
        return None
    lo, hi = ends[::2], ends[1::2]
    parent = _lower_end_parents(n, lo, hi)
    if parent is not None:
        return Graph._from_rows(None, parent)
    deg = [0] * n
    xr = [0] * n
    for u, v in zip(lo, hi):
        deg[u] += 1
        deg[v] += 1
        xr[u] ^= v
        xr[v] ^= u
    peeled = 0
    for v in [v for v in range(1, n) if deg[v] == 1]:
        # peel v, then its parent while that is left with one edge: a vertex
        # gets down to one edge only when a child is peeled.  A leaf listed
        # here may have lost its edge since: the other end of a two-vertex
        # component, which must not be peeled towards 0 (xr[v] = 0)
        while v and deg[v] == 1:
            peeled += 1
            p = xr[v]
            xr[p] ^= v
            deg[p] -= 1
            v = p
    # a peeled v keeps xr[v] = its parent; 0 is left with xr[0] = 0
    return Graph._from_rows(None, xr) if peeled == n - 1 else None


def _lower_end_parents(n: int, lo: list[int], hi: list[int]) -> list[int] | None:
    """``parent[hi[i]] = lo[i]``, with 0 its own parent, if lo[i] < hi[i]
    for every i and that gives each vertex a parent; else None.  The
    caller has checked that the ids lie in 0..n-1.  The test, the scatter
    and the search for a vertex left without a parent each run in C."""
    if not all(map(lt, lo, hi)):
        return None
    parent = [-1] * n
    parent[0] = 0
    deque(map(setitem, repeat(parent), hi, lo), 0)
    return None if -1 in parent else parent


class RootedTree:
    """A connected acyclic graph with parent/depth data and a processing order.

    ``order`` lists vertices by decreasing depth (ties by increasing id), so
    every vertex appears before its parent; it is sorted on first read, and
    the solver never reads it.  The root is its own parent.
    Rooted at 0, a graph that holds ``graph._parent`` (from ``peel_tree``,
    or rooted at 0 before) hands it over, and the tree keeps it, so it is
    read-only; neither a BFS runs nor is the adjacency built, and ``depth``
    is the root's BFS row, computed on its first read, which the solver
    never makes.  Any other graph or root is checked by ``check_tree``:
    ``depth`` is the root's BFS row, and the parents come from it; rooted
    at 0, the graph then keeps them as ``_parent``.
    """

    __slots__ = ("graph", "root", "parent", "_depth", "_order")

    def __init__(self, graph: Graph, root: int = 0):
        n = graph.n
        if n == 0:
            raise InputError("tree needs at least one vertex")
        if not 0 <= root < n:
            raise InputError(f"root {root} out of range")
        parent = graph._parent if root == 0 else None
        depth = None
        if parent is None:
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
            if root == 0:  # kept on the graph, as peel_tree's: is_dominating reads it
                graph._parent = parent
        self.graph = graph
        self.root = root
        self.parent = parent
        self._depth: list[int] | None = depth
        self._order: tuple[int, ...] | None = None

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def depth(self) -> list[int]:
        """Each vertex's distance from the root, read-only.  A peeled graph's
        are its root's ``distances_from`` row, computed on the first read."""
        if self._depth is None:
            self._depth = distances_from(self.graph, self.root)
        return self._depth

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

    On a tree that holds its parent array (from ``peel_tree`` or rooted at
    0 by ``RootedTree``) it reads that array: v is dominated iff v, its
    parent or one of its children holds a token.  Domination
    does not depend on the root, so this holds however the tree is rooted.
    Any other graph takes one union, in C, of N[x] over the support, from
    the graph's N[v] table, which builds the sets it does not hold yet;
    after a tracker of the same tokens has read them, only the union is
    left to do.
    """
    support = tokens._counts.keys()
    require_on_graph(g.n, support)
    parent = g._parent
    if parent is None:
        closed = closed_neighborhoods(g)
        return len(set().union(*map(closed.__getitem__, support))) == g.n
    support = frozenset(support)  # probed n times below: a set answers faster than a view
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
        table = g._closed = _ClosedNeighborhoods(g.adjacency)
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


class TreeCoverage:
    """``Coverage`` of a tree's closed neighbourhoods, kept on its parent
    array: no adjacency, no N[v] sets, and O(1) work per slide.

    Besides each vertex's token count it keeps ``occupied[v]``, the number
    of v's children that hold a token, and ``sole[v]``, the number of v's
    children that only v can dominate: empty, with no occupied child.  A
    vertex that fills or empties changes O(1) of these entries.  The root
    is its own parent and nobody's child.
    Callers read ``counts`` but change it only through ``slide``.
    """

    __slots__ = ("parent", "counts", "occupied", "sole")

    def __init__(self, tree: RootedTree, tokens: TokenMultiset):
        parent = tree.parent
        n = len(parent)
        held = tokens._counts
        require_on_graph(n, held.keys())  # min and max in C; no sorted copy
        counts = [0] * n
        occupied = [0] * n
        for v, c in held.items():
            counts[v] = c
            occupied[parent[v]] += 1
        root = tree.root
        if counts[root]:
            occupied[root] -= 1  # the root is not its own child
        sole = [0] * n
        for v, p in enumerate(parent):
            if not (counts[v] or occupied[v]):
                sole[p] += 1
        if not (counts[root] or occupied[root]):
            sole[root] -= 1  # nor its own sole child
        self.parent = parent
        self.counts = counts
        self.occupied = occupied
        self.sole = sole

    @property
    def feasible(self) -> bool:
        """True iff every vertex, its parent or one of its children holds a token."""
        counts = self.counts
        return all(map(or_, map(or_, counts, self.occupied), map(counts.__getitem__, self.parent)))

    def can_slide(self, u: int, w: int) -> bool:
        """Would sliding one token u -> w, for w = u or w a neighbour of u,
        leave every vertex that is dominated now dominated?

        Only u's last token can undominate anything, and only in N[u]; u
        itself keeps w.  A child of u is lost if only u dominates it and it
        is not w.  u's parent p is lost unless it is w, holds a token, has
        a parent that does, or has an occupied child other than u.
        """
        counts = self.counts
        if u == w or counts[u] >= 2:
            return True
        parent = self.parent
        occupied = self.occupied
        sole = self.sole[u]
        # w is the one child that only u dominates, or there is none
        if sole and (sole > 1 or parent[w] != u or counts[w] or occupied[w]):
            return False
        p = parent[u]
        return p == u or p == w or counts[p] > 0 or counts[parent[p]] > 0 or occupied[p] > 1

    def slide(self, u: int, w: int, count: int = 1) -> None:
        """Move ``count`` >= 1 tokens u -> w; the caller ensures u holds them.

        The other entries change only when u empties or w gains its first
        token: then the parent p of that vertex x counts one occupied child
        fewer or more, x may join or leave p's sole children, and p may join
        or leave those of its own parent.
        """
        counts = self.counts
        counts[u] -= count
        if not counts[u]:
            parent, occupied, sole = self.parent, self.occupied, self.sole
            p = parent[u]
            if p != u:
                if not occupied[u]:
                    sole[p] += 1
                occupied[p] -= 1
                if not (occupied[p] or counts[p]) and parent[p] != p:
                    sole[parent[p]] += 1
        if not counts[w]:
            parent, occupied, sole = self.parent, self.occupied, self.sole
            p = parent[w]
            if p != w:
                if not occupied[w]:
                    sole[p] -= 1
                if not (occupied[p] or counts[p]) and parent[p] != p:
                    sole[parent[p]] -= 1
                occupied[p] += 1
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
