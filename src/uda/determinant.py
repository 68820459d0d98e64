"""Small exact determinants over a commutative ring.

Cofactor expansion with memoisation on column subsets.  The entries only need
+, -, * and truthiness, so the same routine serves both polynomial and
truncated-Laurent matrices.  Only entries that are exactly zero are skipped:
a truncated Laurent series with no stored coefficient is not the ring zero,
and skipping it would drop the window its truncation imposes on the product.
Fraction-free elimination is deliberately avoided: the matrices here are
tiny and their entries live in rings that are not fields.

Two callers remain: ``glaction.mixed_schur_det`` (truncated-Laurent entries)
and ``exterior.residue_tuple`` (polynomial entries).  Schur determinants do
not come here; ``symfunc._giambelli_cached`` expands them through its own
cache.
"""

from __future__ import annotations


def _exact_zero(x) -> bool:
    """Zero everywhere, not just on a truncation window."""
    return not x and all(getattr(x, "exact", ()))


def exact_det(rows):
    """Determinant of a square matrix given as a list of rows."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix has no determinant here")
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not square")
    if n == 1:
        return rows[0][0]

    memo: dict[tuple[int, ...], object] = {}

    def minor(cols: tuple[int, ...]):
        # determinant of the submatrix on rows n-len(cols) .. n-1 and `cols`
        if len(cols) == 1:
            return rows[n - 1][cols[0]]
        got = memo.get(cols)
        if got is not None:
            return got
        i = n - len(cols)
        acc = None
        for t, col in enumerate(cols):
            entry = rows[i][col]
            if _exact_zero(entry):
                continue
            rest = minor(cols[:t] + cols[t + 1:])
            if _exact_zero(rest):
                continue
            term = entry * rest
            if t & 1:
                term = -term
            acc = term if acc is None else acc + term
        if acc is None:
            acc = rows[0][0] - rows[0][0]  # ring zero of the right type
        memo[cols] = acc
        return acc

    return minor(tuple(range(n)))
