"""Partitions: weakly decreasing tuples of nonnegative integers.

Trailing zeros are normalised away, so ``Partition((2, 1, 0))`` and
``Partition((2, 1))`` are the same object value.  A partition indexes both a
Schur determinant and a wedge basis element of the same degree.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .poly import memo


class Partition:
    __slots__ = ("parts", "_hash")   # the hash is taken once, in __init__

    def __init__(self, parts: Iterable[int] = ()):
        cleaned = list(parts)
        if any(p < 0 for p in cleaned):
            raise ValueError("partition parts must be nonnegative")
        if any(cleaned[i] < cleaned[i + 1] for i in range(len(cleaned) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {cleaned}")
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        parts = tuple(cleaned)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "_hash", hash(parts))

    def __setattr__(self, *a):
        raise AttributeError("Partition is immutable")

    def __reduce__(self):   # copies and pickles rebuild through __init__
        return Partition, (self.parts,)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def part(self, j: int) -> int:
        """The j-th part (1-based), zero beyond the length."""
        return self.parts[j - 1] if 1 <= j <= len(self.parts) else 0

    def size(self) -> int:
        return sum(self.parts)

    def fits_rectangle(self, rows: int, cols: int) -> bool:
        return len(self.parts) <= rows and (not self.parts or self.parts[0] <= cols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return self._hash

    def __lt__(self, other: "Partition") -> bool:
        return (self.size(), self.parts) < (other.size(), other.parts)

    def __repr__(self) -> str:
        return f"Partition{self.parts}"

    def __str__(self) -> str:
        return "()" if not self.parts else "(" + ",".join(map(str, self.parts)) + ")"

    def to_json(self) -> list[int]:
        return list(self.parts)

    @staticmethod
    def from_json(doc) -> "Partition":
        return Partition(tuple(doc))


EMPTY = Partition(())


def partitions_in_rectangle(rows: int, cols: int) -> list[Partition]:
    """All partitions whose Young diagram fits in rows x cols, sorted."""
    out: list[Partition] = []

    def rec(prefix: list[int], maxpart: int, depth: int):
        out.append(Partition(tuple(prefix)))
        if depth == rows:
            return
        for p in range(maxpart, 0, -1):
            rec(prefix + [p], p, depth + 1)

    rec([], cols, 0)
    return sorted(out)


@memo
def wedge_indices(lam: Partition, r: int) -> tuple[int, ...]:
    """Strictly decreasing exponent sequence (r-1+l1, r-2+l2, ..., lr)."""
    if len(lam) > r:
        raise ValueError(f"partition {lam} longer than degree {r}")
    return tuple(r - j + lam.part(j) for j in range(1, r + 1))


@memo
def partition_of_indices(indices: tuple[int, ...]) -> Partition:
    """Inverse of :func:`wedge_indices`; takes a strictly decreasing tuple."""
    r = len(indices)
    parts = tuple(indices[j - 1] - (r - j) for j in range(1, r + 1))
    return Partition(parts)
