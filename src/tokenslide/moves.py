"""Compressed move sequences: lists of (from, to, count) slide triples."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import eq, itemgetter

from .errors import InputError


class MoveSequence:
    """Ordered slides, run-length compressed.

    A triple (u, v, c), a tuple, stands for c consecutive slides of one
    token from u to v.  ``total_length`` is the number of unit moves, which
    may be far larger than the number of triples.
    """

    __slots__ = ("moves", "total_length")

    def __init__(self, moves: Iterable[tuple[int, int, int]] = ()):
        # checked column by column; the loop runs only to name the first
        # offender, in order, with the per-triple check's text
        moves = tuple(moves)
        counts = list(map(itemgetter(2), moves))
        if any(map(eq, map(itemgetter(0), moves), map(itemgetter(1), moves))) or counts and min(counts) < 1:
            for u, v, c in moves:
                if u == v:
                    raise InputError(f"move ({u}, {v}) does not change anything")
                if c < 1:
                    raise InputError(f"move ({u}, {v}) has count {c} < 1")
        self.moves = moves
        self.total_length = sum(counts)

    @classmethod
    def _trusted(cls, moves: tuple[tuple[int, int, int], ...]) -> MoveSequence:
        """The sequence of these triples, taken unchecked: the caller
        guarantees u != v and c >= 1 in each."""
        seq = cls.__new__(cls)
        seq.moves = moves
        seq.total_length = sum(map(itemgetter(2), moves))
        return seq

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        return iter(self.moves)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MoveSequence):
            return NotImplemented
        return self.moves == other.moves

    def __repr__(self) -> str:
        return f"MoveSequence({len(self.moves)} triples, {self.total_length} moves)"


def compress_moves(unit_moves: Iterable[tuple[int, int]]) -> MoveSequence:
    """Merge consecutive identical unit moves into triples."""
    triples: list[list[int]] = []
    for u, v in unit_moves:
        if triples and triples[-1][0] == u and triples[-1][1] == v:
            triples[-1][2] += 1
        else:
            triples.append([u, v, 1])
    return MoveSequence(tuple(t) for t in triples)
