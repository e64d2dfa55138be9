"""Compressed move sequences: lists of (from, to, count) slide triples.

Both solvers build their output as runs of such triples while they slide:
the source side's runs in order, the target side's runs to be emitted in
reverse.  ``MoveSequence._two_sided`` joins the two sides into one
sequence, so no solver holds a list with one entry per unit move.
"""

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

    @classmethod
    def _two_sided(cls, front: list[tuple[int, int, int]], back: list[tuple[int, int, int]]) -> MoveSequence:
        """The runs ``front`` in order, then the runs ``back`` in reverse,
        taken unchecked as in ``_trusted``; ``back`` is emptied.

        Where the two sides meet on one (u, v) their runs are merged.  So when
        neither side holds two consecutive runs of one (u, v), the result is
        the run-length encoding of the unit moves that the runs stand for.
        """
        if front and back and front[-1][:2] == back[-1][:2]:
            u, v, c = front.pop()
            back[-1] = (u, v, c + back[-1][2])
        front.extend(reversed(back))
        back.clear()
        return cls._trusted(tuple(front))

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        return iter(self.moves)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MoveSequence):
            return NotImplemented
        return self.moves == other.moves

    def __repr__(self) -> str:
        return f"MoveSequence({len(self.moves)} triples, {self.total_length} moves)"

