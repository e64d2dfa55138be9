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

A text in *normal form* is read in bulk.  Normal form is what
``emit_instance`` and ``emit_moves`` write: ASCII, ``\n`` line ends, no
comment and no blank line, and a block of edge, interval or move lines
that holds only unsigned integers without leading zeros, one space apart.
``str.find`` cuts such a text into its header, its block and its token
lines, and ``_read_block`` reads the whole block with one ``json.loads``,
so no list of lines and no string per integer is built.  Every other text
goes through the line reader (``_content_lines``), which numbers the lines
that hold more than a comment.  Both readers hand their integers to the
same checks, so a text gets the same result, or the same ParseError, from
either.

A ``graph N`` file may list no edges, so N is capped at
``MAX_GRAPH_VERTICES`` before anything is allocated per vertex; ``tree`` and
``intervals`` files must list a line per edge or vertex.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import chain, compress, count
from operator import eq, ge

from .errors import ParseError
from .graphs import Graph, check_tree, peel_tree
from .intervals import IntervalRepresentation, intersection_graph
from .multiset import TokenMultiset

KINDS = ("tree", "graph", "intervals")
#: Largest N accepted in a ``graph N`` header.
MAX_GRAPH_VERTICES = 100_000
#: A comment, up to the next line boundary of ``str.splitlines``.
_COMMENT = re.compile("#[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*")
#: What an ASCII text in normal form never holds: a comment, and every line
#: boundary of ``str.splitlines`` but ``\n``.
_NOT_NORMAL = ("#", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e")
_DIGITS = b"0123456789"


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


def _normal_header(text: str) -> tuple[str, int] | None:
    """The first line of text, stripped, and where it ends, if text passes
    the whole-text test of normal form: ASCII, with no comment, no line
    boundary but ``\n`` and a first line that is not blank.  Else None."""
    if not text.isascii() or any(map(text.__contains__, _NOT_NORMAL)):
        return None
    end = text.find("\n")
    if end < 0:
        end = len(text)
    header = text[:end].strip()
    return (header, end) if header else None


def _parse_ints(lineno: int, line: str, expect: int | None = None) -> list[int]:
    parts = line.split()
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ParseError(lineno, f"expected integers, got {line!r}") from None
    if expect is not None and len(values) != expect:
        raise ParseError(lineno, f"expected {expect} integers, got {len(values)}")
    return values


def _read_block(block: str, width: int) -> list[int] | None:
    """The integers of block, lines joined by ``\n`` with no line break at
    the end, in order; None unless the block is in normal form and every
    line holds exactly ``width`` integers.

    Deleting the digits (one ``bytes.translate``) must leave ``width - 1``
    spaces on each line and one ``\n`` between lines: that checks every
    character and every line's width at once.  One ``json.loads`` then
    reads the block with each space and line break a comma.  json rejects
    the rest of what is not normal, a leading zero and an empty field
    (a doubled, leading or trailing space), as it would ``00`` and
    ``,,``, and raises the ValueError of ``int`` for a value past the
    digit limit.
    """
    if not block:
        return []
    if width < 1 or not block.isascii():
        return None
    separators = block.encode().translate(None, _DIGITS)
    breaks = block.count("\n")
    # the length first: a token line's width is a count the file declares
    if len(separators) != width * (breaks + 1) - 1:
        return None
    row = b" " * (width - 1)
    if separators != (row + b"\n") * breaks + row:
        return None
    listed = "[" + block.replace(" ", ",").replace("\n", ",") + "]"
    del block  # often the only reference to a slice of the file: freed before the list is built
    try:
        return json.loads(listed)
    except ValueError:
        return None


def _read_lines(nums: Sequence[int], lines: list[str], width: int, check=None) -> list[int]:
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


def _check_rows(nums: Sequence[int], flat: list[int], check) -> None:
    """``check(lineno, values)`` on each line's three values of a block that
    was read whole, in file order."""
    for ln, *values in zip(nums, flat[::3], flat[1::3], flat[2::3]):
        check(ln, values)


def _parse_tokens(lineno: int, line: str, n: int) -> TokenMultiset:
    head, _, rest = line.partition(":")
    parts = head.split()
    if len(parts) != 2 or parts[0] != "tokens" or not parts[1].isdecimal():
        raise ParseError(lineno, f"expected 'tokens k: v1 ... vk', got {line!r}")
    k = int(parts[1])
    ids = _read_block(rest.strip(), k)
    if ids is None:
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


def _instance_header(lineno: int, header: str) -> tuple[str, int]:
    """The kind and vertex count of an instance header."""
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
    return kind, n


def _interval_check(n: int) -> Callable[[int, list[int]], None]:
    """The check of one ``id left right`` line, which remembers the ids it
    has seen."""
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

    return check


def _intervals_from(header: int, n: int, nums: Sequence[int], flat: list[int]) -> IntervalRepresentation:
    """The representation from the n interval lines numbered nums, whose
    3n integers are flat."""
    ids, lefts, rights = flat[::3], flat[1::3], flat[2::3]
    if not (min(ids) >= 0 and max(ids) < n and len(set(ids)) == n and not any(map(ge, lefts, rights))):
        # n ids that are not 0..n-1 repeat one or leave the range
        _check_rows(nums, flat, _interval_check(n))
    if ids != list(range(n)):
        by_id = sorted(range(n), key=ids.__getitem__)
        lefts = list(map(lefts.__getitem__, by_id))
        rights = list(map(rights.__getitem__, by_id))
    try:
        return IntervalRepresentation(zip(lefts, rights))
    except ValueError as exc:
        # an endpoint repeats: name the first line, in file order, that repeats one
        ends: set[int] = set()
        for ln, lo, hi in zip(nums, flat[1::3], flat[2::3]):
            if lo in ends or hi in ends:
                raise ParseError(ln, str(exc)) from None
            ends.update((lo, hi))
        raise ParseError(header, str(exc)) from None


def _graph_from(header: int, kind: str, n: int, flat: list[int]) -> Graph:
    """The graph of the edge list flat.

    A tree file whose edges form a tree gets the rooted graph of
    ``peel_tree``; any other edge list is built eagerly and, in a tree file,
    ``check_tree`` names what is wrong with it."""
    if kind == "tree":
        if len(flat) != 2 * (n - 1):
            raise ParseError(header, f"tree on {n} vertices needs {n - 1} edges, got {len(flat) // 2}")
        graph = peel_tree(n, flat)
        if graph is not None:
            return graph
        # not a tree: the eager build and check_tree below name the fault
    try:
        graph = Graph(n, zip(flat[::2], flat[1::2]))
        if kind == "tree":
            # duplicate edges collapse in Graph, so n - 1 lines need not be n - 1 edges
            check_tree(graph)
    except ValueError as exc:
        raise ParseError(header, str(exc)) from None
    return graph


def _structure_from(
    header: int, kind: str, n: int, nums: Sequence[int], flat: list[int]
) -> tuple[Graph, IntervalRepresentation | None]:
    """The graph, and an interval file's representation, from the block's
    line numbers and integers."""
    if kind == "intervals":
        rep = _intervals_from(header, n, nums, flat)
        return intersection_graph(rep), rep
    return _graph_from(header, kind, n, flat), None


def _instance_from(
    header: int,
    kind: str,
    n: int,
    structure: tuple[Graph, IntervalRepresentation | None],
    tail: tuple[list[int], list[str]],
    last: int,
) -> Instance:
    """The instance from the structure ``_structure_from`` built and the
    content lines after the block (numbers, lines); ``last`` numbers the
    file's last content line.  The callers drop the block's integers before
    this call, so they are freed before the token lines are read."""
    graph, rep = structure
    tail_nums, tail_lines = tail
    token_sets = []
    for ln, line in zip(tail_nums[:2], tail_lines):
        if not line.startswith("tokens"):
            raise ParseError(ln, f"expected a token line, got {line!r}")
        token_sets.append(_parse_tokens(ln, line, n))
    if len(token_sets) < 2:
        raise ParseError(last, "expected two token lines")
    if len(tail_lines) > 2:
        raise ParseError(tail_nums[2], "unexpected trailing content")
    d_s, d_t = token_sets
    if d_s.total != d_t.total:
        raise ParseError(header, f"token blocks differ in size: {d_s.total} vs {d_t.total}")
    return Instance(kind=kind, graph=graph, rep=rep, d_s=d_s, d_t=d_t)


def _parse_normal_instance(text: str) -> Instance | None:
    """The instance of a text in normal form; None for any other text."""
    head = _normal_header(text)
    if head is None:
        return None
    header, end = head
    kind, n = _instance_header(1, header)
    # the block runs up to the first line that starts with "tokens"
    at = text.find("\ntokens", end)
    if at < 0:
        return None
    width = 3 if kind == "intervals" else 2
    flat = _read_block(text[end + 1 : at], width)
    tokens = text[at + 1 : len(text) - text.endswith("\n")].split("\n")
    if flat is None or kind == "intervals" and len(flat) != 3 * n or len(tokens) != 2:
        return None
    tokens = [line.strip() for line in tokens]
    if not tokens[1]:
        return None
    first = 2 + len(flat) // width
    structure = _structure_from(1, kind, n, range(2, first), flat)
    del flat
    return _instance_from(1, kind, n, structure, ([first, first + 1], tokens), first + 1)


def parse_instance(text: str) -> Instance:
    """Parse an instance file; raises ParseError with a line number on bad input."""
    inst = _parse_normal_instance(text)
    if inst is not None:
        return inst
    nums, lines = _content_lines(text)
    if not lines:
        raise ParseError(1, "empty instance")
    lineno = nums[0]
    kind, n = _instance_header(lineno, lines[0])
    if kind == "intervals":
        stop = n + 1
        flat = _read_block("\n".join(lines[1:stop]), 3)
        if flat is None or len(lines) < stop:
            flat = _read_lines(nums[1:stop], lines[1:stop], 3, _interval_check(n))
        if len(lines) < stop:
            raise ParseError(nums[-1], f"expected {n} interval lines")
    else:
        # the edge lines run up to the first line starting with "tokens";
        # no line holds a newline, so the first "\ntokens" starts that line
        joined = "\n".join(lines)
        at = joined.find("\ntokens")
        stop = joined.count("\n", 0, at) + 1 if at >= 0 else len(lines)
        flat = _read_block(joined[len(lines[0]) + 1 : at if at >= 0 else len(joined)], 2)
        del joined
        if flat is None:
            flat = _read_lines(nums[1:stop], lines[1:stop], 2)
    tail = (nums[stop:], lines[stop:])
    structure = _structure_from(lineno, kind, n, nums[1:stop], flat)
    del flat, lines
    return _instance_from(lineno, kind, n, structure, tail, nums[-1])


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


def _check_move(ln: int, values: list[int]) -> None:
    u, v, c = values
    if c < 1:
        raise ParseError(ln, f"move count {c} must be positive")
    if u == v:
        raise ParseError(ln, f"move ({u}, {v}) does not change anything")


def _moves_header(lineno: int, header: str) -> int:
    """The move count a move file's header declares."""
    parts = header.split()
    if len(parts) != 2 or parts[0] != "moves":
        raise ParseError(lineno, f"expected 'moves N', got {header!r}")
    try:
        return int(parts[1])
    except ValueError:
        raise ParseError(lineno, f"bad move count {parts[1]!r}") from None


def _moves_from(
    header: int, declared: int, nums: Sequence[int], flat: list[int]
) -> tuple[int, list[tuple[int, int, int]]]:
    """The triples of the move lines numbered nums, whose integers are flat."""
    counts = flat[2::3]
    if counts and (min(counts) < 1 or any(map(eq, flat[::3], flat[1::3]))):
        _check_rows(nums, flat, _check_move)
    total = sum(counts)
    if total != declared:
        raise ParseError(header, f"header declares {declared} moves but lines sum to {total}")
    return declared, list(zip(*[iter(flat)] * 3))


def parse_moves(text: str) -> tuple[int, list[tuple[int, int, int]]]:
    """Parse solver output: a 'moves N' header then one 'u v count' per line."""
    head = _normal_header(text)
    if head is not None:
        header, end = head
        declared = _moves_header(1, header)
        flat = _read_block(text[end + 1 : len(text) - text.endswith("\n")], 3)
        if flat is not None:
            return _moves_from(1, declared, range(2, 2 + len(flat) // 3), flat)
    nums, lines = _content_lines(text)
    if not lines:
        raise ParseError(1, "empty move file")
    lineno = nums[0]
    declared = _moves_header(lineno, lines[0])
    flat = _read_block("\n".join(lines[1:]), 3)
    if flat is None:
        flat = _read_lines(nums[1:], lines[1:], 3, _check_move)
    return _moves_from(lineno, declared, nums[1:], flat)


def emit_moves(moves: list[tuple[int, int, int]], total: int) -> str:
    # one format over the flattened triples: no string per line
    return "moves %d\n" % total + "%d %d %d\n" * len(moves) % tuple(chain.from_iterable(moves))
