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

Each file kind has one reader, ``_read_instance`` or ``_read_moves``, which
cuts its input into header, block and token lines with ``str.find`` on one
string; ``_read_block`` reads a block in *normal form* with one
``json.loads``, so no list of lines and no string per integer is built.
Normal form is what ``emit_instance`` and ``emit_moves`` write: ASCII,
``\n`` line ends, no comment, no blank line, and a block of unsigned
integers without leading zeros, one space apart.  ``_parse`` feeds the
reader the text itself when it may be in normal form, and the reader
returns None at the first sign that it is not.  Any other text is fed as
its content lines joined by ``\n``, with their line numbers, and a block
``_read_block`` rejects is read line by line.  Either way a text meets the
same checks, so it gets the same result or the same ParseError.

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
from typing import TypeVar

from .errors import ParseError
from .graphs import Graph, RootedTree, peel_tree
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
_T = TypeVar("_T")


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


def _content_lines(text: str) -> tuple[list[int], str]:
    """The 1-based numbers of the lines holding more than a comment, and
    those lines, stripped, joined by ``\n``."""
    stripped = list(map(str.strip, _COMMENT.sub("", text).splitlines()))
    return list(compress(count(1), stripped)), "\n".join(filter(None, stripped))


def _parse(text: str, read: Callable[[str, Sequence[int] | None], _T | None], empty: str) -> _T:
    """What ``read(body, nums)`` makes of text.  A text that passes the
    whole-text test of normal form (ASCII, no comment, no line boundary but
    ``\n``, a first character that is not white space) is read as it is,
    with ``nums=None``; the reader returns None at the first sign that the
    text is not in normal form, before it builds anything.  Every other
    text, and one the reader turned down, is read as its content lines
    joined by ``\n``, with their line numbers."""
    if text[:1].strip() and text.isascii() and not any(map(text.__contains__, _NOT_NORMAL)):
        out = read(text, None)
        if out is not None:
            return out
    nums, body = _content_lines(text)
    if not nums:
        raise ParseError(1, empty)
    return read(body, nums)


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
    """The integers of block, one or more lines joined by ``\n`` with no
    line break at the end, in order; None unless the block is in normal
    form and every line holds exactly ``width`` integers.  An empty block
    is one blank line.

    Deleting the digits (one ``bytes.translate``) must leave ``width - 1``
    spaces on each line and one ``\n`` between lines: that checks every
    character and every line's width at once.  One ``json.loads`` then
    reads the block with each space and line break a comma.  json rejects
    the rest of what is not normal, a leading zero and an empty field
    (a doubled, leading or trailing space), as it would ``00`` and
    ``,,``, and raises the ValueError of ``int`` for a value past the
    digit limit.
    """
    if not block or width < 1 or not block.isascii():
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
    ``peel_tree``; any other edge list is built eagerly (and rooted there
    if its edges form a tree, see ``Graph``) and, in a tree file,
    ``RootedTree`` names what is wrong with it: the edge count or a
    disconnected graph."""
    if kind == "tree":
        if len(flat) != 2 * (n - 1):
            raise ParseError(header, f"tree on {n} vertices needs {n - 1} edges, got {len(flat) // 2}")
        graph = peel_tree(n, flat)
        if graph is not None:
            return graph
        # not a tree: the eager build and RootedTree below name the fault
    try:
        graph = Graph(n, zip(flat[::2], flat[1::2]))
        if kind == "tree":
            # duplicate edges collapse in Graph, so n - 1 lines need not be n - 1 edges
            RootedTree(graph)
    except ValueError as exc:
        raise ParseError(header, str(exc)) from None
    return graph


def _read_instance(body: str, nums: Sequence[int] | None) -> Instance | None:
    """The instance of body, whose lines ``nums`` numbers; see ``_parse``.

    The header is the first line.  The block runs up to the first line that
    starts with ``tokens``, but in an intervals file read line by line it is
    the n lines after the header.  The token lines follow the block."""
    normal = nums is None
    if normal:
        nums = range(1, len(body) + 2)
    end = body.find("\n") if "\n" in body else len(body)
    kind, n = _instance_header(nums[0], body[:end].strip())
    width = 3 if kind == "intervals" else 2
    if kind == "intervals" and not normal:
        # the n lines after the header, or as many as there are
        at = end
        for _ in range(min(n, len(nums) - 1)):
            at = body.find("\n", at + 1)
        if at < 0:
            at = len(body)
    else:
        at = body.find("\ntokens", end)
        if at < 0:
            if normal:
                return None
            at = len(body)
    # a block that ends past the header holds a line, maybe a blank one
    flat = _read_block(body[end + 1 : at], width) if at > end else []
    if flat is None or kind == "intervals" and len(flat) != 3 * n:
        if normal:
            return None
        check = _interval_check(n) if kind == "intervals" else None
        flat = _read_lines(nums[1:], body[end + 1 : at].split("\n"), width, check)
        if kind == "intervals" and len(flat) != 3 * n:
            raise ParseError(nums[-1], f"expected {n} interval lines")
    tokens = body[at + 1 : len(body) - body.endswith("\n")].split("\n") if at < len(body) else []
    if normal and (len(tokens) != 2 or not tokens[1].strip()):
        return None
    first = 1 + len(flat) // width  # where the token lines start in nums
    rep = None
    if kind == "intervals":
        rep = _intervals_from(nums[0], n, nums[1:first], flat)
        graph = intersection_graph(rep)
    else:
        graph = _graph_from(nums[0], kind, n, flat)
    del flat  # freed before the token lines are read
    token_sets = []
    for ln, line in zip(nums[first : first + 2], map(str.strip, tokens)):
        if not line.startswith("tokens"):
            raise ParseError(ln, f"expected a token line, got {line!r}")
        token_sets.append(_parse_tokens(ln, line, n))
    if len(token_sets) < 2:
        raise ParseError(nums[-1], "expected two token lines")
    if len(tokens) > 2:
        raise ParseError(nums[first + 2], "unexpected trailing content")
    d_s, d_t = token_sets
    if d_s.total != d_t.total:
        raise ParseError(nums[0], f"token blocks differ in size: {d_s.total} vs {d_t.total}")
    return Instance(kind=kind, graph=graph, rep=rep, d_s=d_s, d_t=d_t)


def parse_instance(text: str) -> Instance:
    """Parse an instance file; raises ParseError with a line number on bad input."""
    return _parse(text, _read_instance, "empty instance")


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


def _read_moves(body: str, nums: Sequence[int] | None) -> tuple[int, list[tuple[int, int, int]]] | None:
    """The move count and triples of body, whose lines ``nums`` numbers;
    see ``_parse``.  Every line after the header is a move line."""
    normal = nums is None
    if normal:
        nums = range(1, len(body) + 2)
    end = body.find("\n") if "\n" in body else len(body)
    declared = _moves_header(nums[0], body[:end].strip())
    at = len(body) - body.endswith("\n")
    # a block that ends past the header holds a line, maybe a blank one
    flat = _read_block(body[end + 1 : at], 3) if at > end else []
    if flat is None:
        if normal:
            return None
        flat = _read_lines(nums[1:], body[end + 1 : at].split("\n"), 3, _check_move)
    return _moves_from(nums[0], declared, nums[1:], flat)


def parse_moves(text: str) -> tuple[int, list[tuple[int, int, int]]]:
    """Parse solver output: a 'moves N' header then one 'u v count' per line."""
    return _parse(text, _read_moves, "empty move file")


def emit_moves(moves: Sequence[tuple[int, int, int]], total: int) -> str:
    # one format over the flattened triples: no string per line
    return "moves %d\n" % total + "%d %d %d\n" * len(moves) % tuple(chain.from_iterable(moves))
