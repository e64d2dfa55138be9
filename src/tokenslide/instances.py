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

import re
from dataclasses import dataclass
from itertools import chain, compress, count
from operator import ge

from .errors import ParseError
from .graphs import Graph, check_tree, peel_tree
from .intervals import IntervalRepresentation, intersection_graph
from .multiset import TokenMultiset

KINDS = ("tree", "graph", "intervals")
#: Largest N accepted in a ``graph N`` header.
MAX_GRAPH_VERTICES = 100_000
#: A comment, up to the next line boundary of ``str.splitlines``.
_COMMENT = re.compile("#[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*")


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


def _content_lines(text: str) -> tuple[list[int], list[str]]:
    """The lines holding more than a comment, stripped, and their 1-based
    line numbers, as two parallel lists."""
    stripped = list(map(str.strip, _COMMENT.sub("", text).splitlines()))
    return list(compress(count(1), stripped)), list(filter(None, stripped))


def _parse_ints(lineno: int, line: str, expect: int | None = None) -> list[int]:
    parts = line.split()
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ParseError(lineno, f"expected integers, got {line!r}") from None
    if expect is not None and len(values) != expect:
        raise ParseError(lineno, f"expected {expect} integers, got {len(values)}")
    return values


def _read_block(lines: list[str], width: int) -> list[int] | None:
    """The integers of ``lines`` in order, or None unless every line holds
    exactly ``width`` of them.

    One split and one ``int`` pass over the whole block.  The lines are
    joined around a ``|`` token, which is no integer.  With the right token
    count, dropping every ``width + 1``-th token drops as many tokens as
    there are separators; if only integers are left, the dropped tokens were
    the separators, so every line held exactly ``width`` integers.
    """
    if not lines:
        return []
    tokens = " | ".join(lines).split()
    if len(tokens) != (width + 1) * len(lines) - 1:
        return None
    del tokens[width :: width + 1]
    try:
        return list(map(int, tokens))
    except ValueError:
        return None


def _read_lines(nums: list[int], lines: list[str], width: int, check=None) -> list[int]:
    """What ``_read_block`` reads, line by line, for blocks it rejects: the
    first line in file order that does not hold ``width`` integers, or whose
    values fail ``check(lineno, values)``, raises its ParseError."""
    out: list[int] = []
    for ln, line in zip(nums, lines):
        values = _parse_ints(ln, line, expect=width)
        if check is not None:
            check(ln, values)
        out += values
    return out


def _parse_tokens(lineno: int, line: str, n: int) -> TokenMultiset:
    head, _, rest = line.partition(":")
    parts = head.split()
    if len(parts) != 2 or parts[0] != "tokens" or not parts[1].isdecimal():
        raise ParseError(lineno, f"expected 'tokens k: v1 ... vk', got {line!r}")
    k = int(parts[1])
    try:
        ids = list(map(int, rest.split()))
    except ValueError:
        raise ParseError(lineno, f"expected integers, got {rest!r}") from None
    if len(ids) != k:
        raise ParseError(lineno, f"token line declares {k} tokens but lists {len(ids)}")
    if ids and (min(ids) < 0 or max(ids) >= n):
        v = next(v for v in ids if not 0 <= v < n)
        raise ParseError(lineno, f"token vertex {v} out of range for {n} vertices")
    return TokenMultiset(ids)


def _parse_intervals(nums: list[int], lines: list[str], header: int, n: int) -> IntervalRepresentation:
    """The representation from the n lines after the header."""
    block = lines[1 : n + 1]
    flat = _read_block(block, 3)
    if flat is not None and len(block) == n:
        ids = flat[::3]
        lefts, rights = flat[1::3], flat[2::3]
        if min(ids) >= 0 and max(ids) < n and len(set(ids)) == n and not any(map(ge, lefts, rights)):
            if ids != list(range(n)):
                by_id = sorted(range(n), key=ids.__getitem__)
                lefts = list(map(lefts.__getitem__, by_id))
                rights = list(map(rights.__getitem__, by_id))
            try:
                return IntervalRepresentation(zip(lefts, rights))
            except ValueError as exc:
                # an endpoint repeats: name the first line, in file order, that repeats one
                ends: set[int] = set()
                for ln, lo, hi in zip(nums[1:], flat[1::3], flat[2::3]):
                    if lo in ends or hi in ends:
                        raise ParseError(ln, str(exc)) from None
                    ends.update((lo, hi))
                raise ParseError(header, str(exc)) from None
    seen: set[int] = set()

    def check(ln: int, values: list[int]) -> None:
        v, lo, hi = values
        if not 0 <= v < n:
            raise ParseError(ln, f"interval id {v} out of range")
        if v in seen:
            raise ParseError(ln, f"duplicate interval id {v}")
        if lo >= hi:
            raise ParseError(ln, f"interval [{lo}, {hi}] must have left < right")
        seen.add(v)

    _read_lines(nums[1 : n + 1], block, 3, check)
    raise ParseError(nums[-1], f"expected {n} interval lines")


def _parse_edges(nums: list[int], lines: list[str], header: int, kind: str, n: int) -> tuple[Graph, int]:
    """The graph from the edge lines after the header, which run up to the
    first line starting with ``tokens``, and the index of that line.

    A tree file whose edges form a tree gets the rooted graph of
    ``peel_tree``; any other edge list is built eagerly and, in a tree file,
    ``check_tree`` names what is wrong with it."""
    # no line holds a newline, so the first "\ntokens" starts that line
    joined = "\n".join(lines)
    at = joined.find("\ntokens")
    stop = joined.count("\n", 0, at) + 1 if at >= 0 else len(lines)
    flat = _read_block(lines[1:stop], 2)
    if flat is None:
        flat = _read_lines(nums[1:stop], lines[1:stop], 2)
    if kind == "tree":
        if len(flat) != 2 * (n - 1):
            raise ParseError(header, f"tree on {n} vertices needs {n - 1} edges, got {len(flat) // 2}")
        graph = peel_tree(n, flat)
        if graph is not None:
            return graph, stop
        # not a tree: the eager build and check_tree below name the fault
    try:
        graph = Graph(n, zip(flat[::2], flat[1::2]))
        if kind == "tree":
            # duplicate edges collapse in Graph, so n - 1 lines need not be n - 1 edges
            check_tree(graph)
    except ValueError as exc:
        raise ParseError(header, str(exc)) from None
    return graph, stop


def parse_instance(text: str) -> Instance:
    """Parse an instance file; raises ParseError with a line number on bad input."""
    nums, lines = _content_lines(text)
    if not lines:
        raise ParseError(1, "empty instance")
    lineno, header = nums[0], lines[0]
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

    rep: IntervalRepresentation | None = None
    if kind == "intervals":
        rep = _parse_intervals(nums, lines, lineno, n)
        graph = intersection_graph(rep)
        pos = n + 1
    else:
        graph, pos = _parse_edges(nums, lines, lineno, kind, n)

    token_sets = []
    for _ in range(2):
        if pos >= len(lines):
            raise ParseError(nums[-1], "expected two token lines")
        ln, line = nums[pos], lines[pos]
        pos += 1
        if not line.startswith("tokens"):
            raise ParseError(ln, f"expected a token line, got {line!r}")
        token_sets.append(_parse_tokens(ln, line, n))
    if pos < len(lines):
        raise ParseError(nums[pos], "unexpected trailing content")
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
    nums, lines = _content_lines(text)
    if not lines:
        raise ParseError(1, "empty move file")
    lineno, header = nums[0], lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "moves":
        raise ParseError(lineno, f"expected 'moves N', got {header!r}")
    try:
        declared = int(parts[1])
    except ValueError:
        raise ParseError(lineno, f"bad move count {parts[1]!r}") from None
    flat = _read_block(lines[1:], 3)
    if flat is None or flat and min(flat[2::3]) < 1:

        def check(ln: int, values: list[int]) -> None:
            if values[2] < 1:
                raise ParseError(ln, f"move count {values[2]} must be positive")

        flat = _read_lines(nums[1:], lines[1:], 3, check)
    counts = flat[2::3]
    total = sum(counts)
    if total != declared:
        raise ParseError(lineno, f"header declares {declared} moves but lines sum to {total}")
    return declared, list(zip(flat[::3], flat[1::3], counts))


def emit_moves(moves: list[tuple[int, int, int]], total: int) -> str:
    # one format over the flattened triples: no string per line
    return "moves %d\n" % total + "%d %d %d\n" * len(moves) % tuple(chain.from_iterable(moves))
