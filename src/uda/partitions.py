"""Partitions: weakly decreasing tuples of nonnegative integers.

Trailing zeros are normalised away, so ``Partition((2, 1, 0))`` and
``Partition((2, 1))`` are the same object value.  A partition indexes both a
Schur determinant and a wedge basis element of the same degree.

A ``Partition`` is a ``tuple`` of its parts, so its length, items and hash
are the tuple's own, taken in C; ``hash(Partition(p)) == hash(p)``.  It is
equal only to partitions, though, so a plain tuple never finds it as a key.
Partitions are ordered by size, then by parts.

The wedge basis element of lam at rank r has the indices
lam_j + r - j, j = 1..r.  In the fermionic reading of Date, Jimbo,
Kashiwara and Miwa these are the positions of r particles, a Maya diagram,
held here as an int with one bit per particle (``maya_mask``);
``partition_of_mask`` reads a diagram back.  The diagram is the one
encoding of a wedge basis element: the exterior layer keys its terms by
it, and every operator image is formed on it.

The shift derivations move particles up.  Adding a horizontal k-strip to
lam (Pieri's rule, the action of h_k) moves particles up k places in all,
none to or past the old place of the particle above
(``horizontal_strips``); adding a vertical k-strip (e_k) moves k particles
up one place each, each into a hole (``vertical_strips``).
"""

from __future__ import annotations

from typing import Iterable

from .poly import memo


class Partition(tuple):
    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        cleaned = list(parts)
        if any(p < 0 for p in cleaned):
            raise ValueError("partition parts must be nonnegative")
        if any(cleaned[i] < cleaned[i + 1] for i in range(len(cleaned) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {cleaned}")
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        return tuple.__new__(cls, cleaned)

    @staticmethod
    def _of(parts: Iterable[int]) -> "Partition":
        """The partition of ``parts``, taken as they are: weakly decreasing,
        positive and checked by no one, as a Maya diagram's are."""
        return tuple.__new__(Partition, parts)

    def __reduce__(self):   # copies and pickles rebuild through __new__
        return Partition, (tuple(self),)

    @property
    def parts(self) -> tuple[int, ...]:
        """The parts as a plain tuple."""
        return tuple(self)

    def part(self, j: int) -> int:
        """The j-th part (1-based), zero beyond the length."""
        return self[j - 1] if 1 <= j <= len(self) else 0

    def size(self) -> int:
        return sum(self)

    def fits_rectangle(self, rows: int, cols: int) -> bool:
        return len(self) <= rows and (not self or self[0] <= cols)

    __hash__ = tuple.__hash__

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    # (size, parts) order, compared without building the pair
    def __lt__(self, other: "Partition") -> bool:
        a, b = sum(self), sum(other)
        return a < b if a != b else tuple.__lt__(self, other)

    def __gt__(self, other: "Partition") -> bool:
        return Partition.__lt__(other, self)

    def __le__(self, other: "Partition") -> bool:
        return not Partition.__lt__(other, self)

    def __ge__(self, other: "Partition") -> bool:
        return not Partition.__lt__(self, other)

    def __repr__(self) -> str:
        return f"Partition{tuple(self)}"

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self)) + ")"

    def to_json(self) -> list[int]:
        return list(self)

    @staticmethod
    def from_json(doc) -> "Partition":
        return Partition(tuple(doc))


EMPTY = Partition(())


def partitions_in_rectangle(rows: int, cols: int) -> list[Partition]:
    """All partitions whose Young diagram fits in rows x cols, sorted.

    The parts are added one row at a time from a stack of prefixes, so a
    box of any number of rows takes no recursion.  The sort compares the
    keys (size, *parts), the order of ``Partition.__lt__``, in C."""
    out: list[Partition] = []
    prefixes: list[tuple[int, ...]] = [()]
    while prefixes:
        prefix = prefixes.pop()
        out.append(Partition(prefix))
        if len(prefix) < rows:
            top = prefix[-1] if prefix else cols
            prefixes.extend([prefix + (p,) for p in range(1, top + 1)])
    return sorted(out, key=lambda lam: (sum(lam), *lam))


@memo
def maya_mask(lam: Partition, r: int) -> int:
    """The Maya diagram of lam at rank r: bit i is set for each wedge index i.

    The r - len(lam) zero parts fill bits 0 .. r-len(lam)-1.
    """
    if len(lam) > r:
        raise ValueError(f"partition {lam} longer than degree {r}")
    mask = (1 << r - len(lam)) - 1
    for s, p in enumerate(lam):
        mask |= 1 << p + r - 1 - s
    return mask


@memo
def partition_of_mask(mask: int) -> Partition:
    """Inverse of :func:`maya_mask`: the rank is the number of set bits.

    The particles are read from the top down, the k-th from the top, at
    bit i, giving the part i - (r - 1 - k), until those left fill the
    lowest bits (``mask & mask + 1`` is zero): their parts are zero."""
    below = mask.bit_count()   # particles at or below the top one
    parts = []
    while mask & mask + 1:
        top = mask.bit_length() - 1
        below -= 1
        parts.append(top - below)
        mask ^= 1 << top
    return Partition._of(parts)


def horizontal_strips(mask: int, k: int) -> list[int]:
    """The Maya diagrams of lam + a horizontal k-strip, lam's being ``mask``.

    Each particle but the top one moves up by at most the gap below the old
    place of the particle above it; the top one takes the steps left.  The
    particles are placed from the lowest up, so no choice is a dead end."""
    if not mask:
        return [] if k else [0]
    places = [i for i in range(mask.bit_length()) if mask >> i & 1]
    # (diagram so far, steps left)
    states = [(0, k)]
    for p, above in zip(places, places[1:]):
        states = [(done | 1 << p + d, left - d) for done, left in states
                  for d in range(min(left, above - p - 1) + 1)]
    return [done | 1 << places[-1] + left for done, left in states]


def vertical_strips(mask: int, k: int) -> list[int]:
    """The Maya diagrams of lam + a vertical k-strip, lam's being ``mask``.

    k particles move up one place each; the particles are placed from the
    top down, and one may move only if the place above it is not held by a
    particle that stays."""
    # (diagram so far, moves left)
    states = [(0, k)]
    while mask:
        p = mask.bit_length() - 1
        mask ^= 1 << p
        below = mask.bit_count()   # the moves left must fit below p
        states = [(done | 1 << p + d, left - d) for done, left in states
                  for d in ((0, 1) if left and not done >> p + 1 & 1 else (0,))
                  if left - d <= below]
    return [done for done, left in states if not left]
