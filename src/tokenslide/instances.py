"""Plain-text instance files: structure plus two token blocks.

Format (``#`` starts a comment, blank lines are ignored)::

    tree 4            # or "graph N" / "intervals N"
    0 1               # tree/graph: one edge per line (tree: exactly N-1)
    1 2               # intervals: one "id left right" line per vertex
    2 3
    tokens 2: 0 2     # start tokens; repeats encode multiplicity
    tokens 2: 1 3     # target tokens; must have the same count

Emitting is canonical (sorted edges and token lists), so parse and emit
round-trip byte-identically on emitted files.

A ``graph N`` file may list no edges, so N is capped at
``MAX_GRAPH_VERTICES`` before anything is allocated per vertex; ``tree`` and
``intervals`` files must list a line per edge or vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError
from .graphs import Graph, check_tree
from .intervals import IntervalRepresentation, intersection_graph
from .multiset import TokenMultiset

KINDS = ("tree", "graph", "intervals")
#: Largest N accepted in a ``graph N`` header.
MAX_GRAPH_VERTICES = 100_000


@dataclass(frozen=True)
class Instance:
    kind: str
    graph: Graph
    rep: IntervalRepresentation | None
    d_s: TokenMultiset
    d_t: TokenMultiset

    @property
    def n(self) -> int:
        return self.graph.n


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


def parse_instance(text: str) -> Instance:
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
        try:
            rep = IntervalRepresentation(seen[v] for v in range(n))
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
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
            graph = Graph(n, edges)
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


def _emit_tokens(tokens: TokenMultiset) -> str:
    ids = []
    for v, c in tokens.items():
        ids.extend([v] * c)
    return f"tokens {len(ids)}: " + " ".join(str(v) for v in ids)


def emit_instance(inst: Instance) -> str:
    """Canonical text form; parse(emit(x)) reproduces x exactly."""
    lines = [f"{inst.kind} {inst.n}"]
    if inst.kind == "intervals":
        assert inst.rep is not None
        for v in range(inst.n):
            lines.append(f"{v} {inst.rep.left(v)} {inst.rep.right(v)}")
    else:
        for u, v in sorted(inst.graph.edges()):
            lines.append(f"{u} {v}")
    lines.append(_emit_tokens(inst.d_s))
    lines.append(_emit_tokens(inst.d_t))
    return "\n".join(lines) + "\n"


def parse_moves(text: str) -> tuple[int, list[tuple[int, int, int]]]:
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
        triples.append((u, v, c))
        total += c
    if total != declared:
        raise ParseError(lineno, f"header declares {declared} moves but lines sum to {total}")
    return declared, triples


def emit_moves(moves: list[tuple[int, int, int]], total: int) -> str:
    lines = [f"moves {total}"]
    lines.extend(f"{u} {v} {c}" for u, v, c in moves)
    return "\n".join(lines) + "\n"
