"""Token multisets over dense integer vertex ids.

A configuration of tokens is a multiplicity function over vertices.  The
set-style operations use multiplicity semantics: union adds counts,
intersection takes pointwise minima and difference clamps at zero.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from itertools import compress

from .errors import InputError


class TokenMultiset:
    """Immutable multiset of tokens keyed by vertex id."""

    __slots__ = ("_counts", "total")

    def __init__(self, tokens: Mapping[int, int] | Iterable[int] = ()):
        counts: Counter[int] = Counter()
        if isinstance(tokens, Mapping):
            for v, c in tokens.items():
                if c < 0:
                    raise InputError(f"negative multiplicity {c} for vertex {v}")
                if c:
                    counts[v] = c
        else:
            counts.update(tokens)
        self._counts = counts
        self.total = sum(counts.values())

    @classmethod
    def from_counts_list(cls, counts: list[int]) -> "TokenMultiset":
        """Build from a dense per-vertex count array."""
        if counts and min(counts) < 0:
            v = next(v for v, c in enumerate(counts) if c < 0)
            raise InputError(f"negative multiplicity {counts[v]} for vertex {v}")
        return cls._trusted(Counter(dict(compress(enumerate(counts), counts))))

    @classmethod
    def _trusted(cls, counts: Counter[int]) -> "TokenMultiset":
        """Wrap, without copying or checking, a Counter of positive counts
        that the caller has built and will not change."""
        tokens = cls.__new__(cls)
        tokens._counts = counts
        tokens.total = sum(counts.values())
        return tokens

    def count(self, v: int) -> int:
        return self._counts.get(v, 0)

    def __contains__(self, v: int) -> bool:
        return v in self._counts

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self._counts)

    @property
    def support_mask(self) -> int:
        mask = 0
        for v in self._counts:
            mask |= 1 << v
        return mask

    def items(self) -> list[tuple[int, int]]:
        """(vertex, multiplicity) pairs in increasing vertex order."""
        return sorted(self._counts.items())

    def key(self) -> tuple[tuple[int, int], ...]:
        """Canonical encoding; equal multisets have equal keys."""
        return tuple(sorted(self._counts.items()))

    def union(self, other: "TokenMultiset") -> "TokenMultiset":
        return TokenMultiset(self._counts + other._counts)

    def intersection(self, other: "TokenMultiset") -> "TokenMultiset":
        return TokenMultiset(self._counts & other._counts)

    def difference(self, other: "TokenMultiset") -> "TokenMultiset":
        return TokenMultiset(self._counts - other._counts)

    def symmetric_difference(self, other: "TokenMultiset") -> "TokenMultiset":
        return TokenMultiset((self._counts - other._counts) + (other._counts - self._counts))

    def slide(self, u: int, v: int) -> "TokenMultiset":
        """Move one token from u to v.  Adjacency is the caller's business."""
        if self._counts.get(u, 0) < 1:
            raise InputError(f"no token on vertex {u} to slide")
        counts = Counter(self._counts)
        counts[u] -= 1
        if counts[u] == 0:
            del counts[u]
        counts[v] += 1
        return TokenMultiset(counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TokenMultiset):
            return NotImplemented
        # as plain dicts, exact since no count is zero; Counter's own ==
        # walks both operands in Python
        return dict.__eq__(self._counts, other._counts)

    def __hash__(self) -> int:
        return hash(self.key())

    def __bool__(self) -> bool:
        return self.total > 0

    def __repr__(self) -> str:
        return f"TokenMultiset({dict(self.items())!r})"
