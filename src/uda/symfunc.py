"""Structural series and Schur determinants.

The five series that drive everything:

  c(z)   = 1 - c1 z + c2 z^2 - ... + (-1)^n cn z^n        (degree n, exact)
  E_r(z) = 1 - e1 z + ... + (-1)^r er z^r                  (degree r, exact)
  H_r(z) = 1 / E_r(z)                                      (coefficients in e's)
  sum_j h_j(c) z^j = c(z) * H(z)                           (deformed completes)
  s(w)   = 1 / c(w)                                        (dual-basis scaling)

c(z) and E_r(z) are the one builder ``_alternating``, [1, -v1, v2, ...] cut
at its bound, the only place the sign (-1)^i is written.  The generic f(X),
its factor p(X) and the deformed X^j(c) (``exterior.xc_expand``) are their
reversals; s_k and e_m (``_e_in_h``, from E(-z) = 1/H(-z)) are read off the
reciprocals of c(w) and H(-z) = _alternating over the h's.

The deformed complete function h_j(c) is computed from the generating
identity c(z)*H(z), with the h's of H(z) kept as free symbols; this
reproduces h1(c) = h1 - c1, h2(c) = h2 - c1*h1 + c2 and so on.  The ambient
bound n makes c_j vanish for j > n; passing ``n=None`` keeps every c_j, and
``n=0`` specialises all of them to zero.

Schur determinants are r x r with entry h_{lam_j - j + k}(c) in row k and
column j.  With lam empty this is the identity pattern, and a single-part
partition (m) gives back h_m(c).  Each is expanded along its first or its
last row (``_expand``), every minor being the Schur determinant of a
smaller partition taken from one memo of minors, ``_giambelli_cached``.
The minor of column j along row r has lam_j + r - j boxes fewer than lam,
one along row 1 keeps all of them, so row r is the default; row 1 is kept
for the hook-like shapes, where its zero entries h_{<0} leave fewer minors
and fewer products.  The determinant that ``giambelli`` is asked for, of
len(lam) rows, is no minor of any other of that size: it is built for its
caller and not kept in the memo.
"""

from __future__ import annotations

from .partitions import Partition
from .poly import (FAM_C, FAM_E, FAM_H, MvPolynomial, ONE, ZERO,
                   _sum_of_products, h_, memo)


def _alternating(fam: int, top: int | None, order: int) -> list[MvPolynomial]:
    """[1, -v1, v2, ..., (-1)^order v_order] over the variables v_i of the
    family ``fam``, v_i = 0 past ``top`` (None: no bound), none of which is
    made: the one statement of the alternating sign."""
    last = order if top is None else max(0, min(top, order))
    vs = [MvPolynomial.variable(fam, i) for i in range(1, last + 1)]
    return ([ONE] + [-v if i % 2 else v for i, v in enumerate(vs, 1)]
            + [ZERO] * (order - last))


def c_series_coeffs(order: int, n: int | None) -> list[MvPolynomial]:
    """Coefficients of c(z) through z^order (c_j = 0 beyond the ambient n)."""
    return _alternating(FAM_C, n, order)


def e_series_coeffs(r: int, order: int) -> list[MvPolynomial]:
    """Coefficients of E_r(z) through z^order."""
    return _alternating(FAM_E, r, order)


def h_symbol_series(order: int) -> list[MvPolynomial]:
    """1, h1, h2, ... as free symbols, through the given order."""
    return [ONE] + [h_(j) for j in range(1, order + 1)]


@memo
def h_deformed(j: int, n: int | None) -> MvPolynomial:
    """The deformed complete function h_j(c) = sum_i (-1)^i c_i h_{j-i}."""
    if j < 0:
        return ZERO
    cz = c_series_coeffs(j if n is None else min(j, n), n)
    return _sum_of_products((a, h_(j - i) if i < j else ONE)
                            for i, a in enumerate(cz))


@memo
def s_coefficient(k: int, n: int | None) -> MvPolynomial:
    """Coefficient s_k of s(w) = 1/c(w); s_0 = 1, s_1 = c1, ...  Memoised per
    (k, n) from s_k = c1 s_{k-1} - c2 s_{k-2} + ..., the lower ones filled
    first, 32 apart, so that the recursion stays shallow."""
    if k <= 0:
        return ONE if k == 0 else ZERO
    for m in range(k % 32, k, 32):
        s_coefficient(m, n)
    cw = c_series_coeffs(k if n is None else min(k, n), n)
    return -_sum_of_products((a, s_coefficient(k - i, n))
                             for i, a in enumerate(cw) if i)


def _expand_along_row_one(parts: tuple[int, ...]) -> bool:
    """Whether the determinant of ``parts`` (r = len(parts)) forms fewer term
    products along row 1 than along row r: only on shapes with a first part
    above 1, a last part of 1 and either a first part longer than the
    second or at least half of the parts equal to 1, the hooks among them."""
    r = len(parts)
    return (r > 1 and parts[-1] == 1 < parts[0]
            and (parts[0] > parts[1] or 2 * parts.count(1) >= r))


def _expand(parts: tuple[int, ...], r: int, n: int | None) -> MvPolynomial:
    """det( h_{lam_j - j + k}(c) ) of size r x r, a new polynomial expanded
    over the minors of ``_giambelli_cached``.

    Expanding along the last row gives

      Delta_lam^(r) = sum_j (-1)^(r+j) h_{lam_j - j + r}(c) * Delta_nu(j)^(r-1),
      nu(j) = (lam_1, ..., lam_{j-1}, lam_{j+1} - 1, ..., lam_r - 1),

    and expanding along the first row

      Delta_lam^(r) = sum_j (-1)^(j-1) h_{lam_j - j + 1}(c) * Delta_mu(j)^(r-1),
      mu(j) = (lam_1 + 1, ..., lam_{j-1} + 1, lam_{j+1}, ..., lam_r),

    because deleting that row and column j leaves the matrix of nu(j) or
    mu(j).  |nu(j)| = |lam| - lam_j - (r - j), r - j + 1 boxes fewer at the
    least, while |mu(j)| = |lam| keeps every box: along row 1 a column 1^k
    caches every hook (m, 1^(k-m)), along row r only the columns below it.
    Row 1 still wins where its entries h_{<0} vanish and its few minors are
    thin hooks, so the shape alone picks the row (``_expand_along_row_one``).
    The minors of either row are entries of the cache, shared across
    partitions and calls, and the r products are summed by one
    ``_sum_of_products``.  For r > len(lam) the matrix is block lower
    triangular with a unitriangular lower corner, so Delta_lam^(r) =
    Delta_lam^(len(lam)), read from the cache; a minor nu(j) whose trailing
    parts reach 0 is asked for at its own length on that ground.
    """
    if r == 0:
        if parts:
            raise ValueError("nonempty partition with r = 0")
        return MvPolynomial.one()
    if r > len(parts):
        return _giambelli_cached(parts, len(parts), n)
    pairs = []   # the sign goes on the entry, an h_k(c) of k + 1 terms at most
    if _expand_along_row_one(parts):
        for j in range(r):
            entry = h_deformed(parts[j] - j, n)
            if entry:
                pairs.append((-entry if j & 1 else entry, _giambelli_cached(
                    tuple(p + 1 for p in parts[:j]) + parts[j + 1:], r - 1, n)))
    else:
        for j in range(r):
            entry = h_deformed(parts[j] - j + r - 1, n)
            minor = parts[:j] + tuple(p - 1 for p in parts[j + 1:] if p > 1)
            pairs.append((-entry if (r - 1 - j) & 1 else entry,
                          _giambelli_cached(minor, len(minor), n)))
    return _sum_of_products(pairs)


@memo
def _giambelli_cached(parts: tuple[int, ...], r: int, n: int | None) -> MvPolynomial:
    """The minors of the Schur determinants, ``_expand`` read-only: every
    determinant that a Laplace expansion asks for, and every request of
    more rows than parts, which ``giambelli`` asks for at its own length,
    the key under which it is a minor.  A request of exactly len(lam) rows
    is expanded for its caller and not kept here: no determinant of its
    size has it as a minor."""
    return _expand(parts, r, n)


def giambelli(lam: Partition, r: int, n: int | None) -> MvPolynomial:
    """The Schur determinant det( h_{lam_j - j + k}(c) ) of size r x r.

    With r = len(lam) it is a new polynomial that belongs to the caller;
    with fewer parts it equals the determinant of len(lam) rows, which may
    be a minor of a later request, and comes read-only from the cache."""
    if len(lam) > r:
        raise ValueError(f"partition {lam} longer than r={r}")
    if len(lam) < r:   # memoised at its own length, as the minors are
        return _giambelli_cached(lam.parts, len(lam), n)
    return _expand(lam.parts, r, n)


def _boxed_partition_counts(rows: int, cols: int, top: int) -> list[int]:
    """The number of partitions of m into at most ``rows`` parts, each at most
    ``cols``, for m = 0..top: the Gaussian binomial [rows+cols, rows]_q."""
    g = [1] + [0] * top
    for i in range(1, rows + 1):
        for m in range(top, cols + i - 1, -1):   # times 1 - q^(cols+i)
            g[m] -= g[m - cols - i]
        for m in range(i, top + 1):              # divided by 1 - q^i
            g[m] += g[m - i]
    return g


def giambelli_term_bound(lam: Partition, n: int | None) -> int:
    """An upper bound on the number of terms of the Schur determinant of
    lam, counted without any polynomial arithmetic.

    Each term of the expansion is a product of len(lam) entries h_j(c) =
    sum_i (-1)^i c_i h_{j-i} with j <= lam_1 + len(lam) - 1, so each monomial
    of the result has at most len(lam) h's and len(lam) c's, with indices
    of that size (the c's also at most n), and weight |lam|.  The bound
    counts those monomials.  On the columns 1^k the tests check it is the
    term count itself.
    """
    rows, weight = len(lam.parts), sum(lam.parts)
    if not rows:
        return 1
    top = lam.parts[0] + rows - 1
    hs = _boxed_partition_counts(rows, top, weight)
    cs = (hs if n is None or n >= top
          else _boxed_partition_counts(rows, n, weight))
    return sum(hs[a] * cs[weight - a] for a in range(weight + 1))


def giambelli_h_term_count(lam: Partition) -> int:
    """The monomials in h alone that ``giambelli_term_bound`` counts, so a
    lower bound on it: the partitions of |lam| in the len(lam) x top box,
    top = lam_1 + len(lam) - 1, counted as their complements in the box when
    those are smaller, so that the list is as long as the smaller weight."""
    rows, weight = len(lam.parts), sum(lam.parts)
    if not rows:
        return 1
    top = lam.parts[0] + rows - 1
    m = min(weight, rows * top - weight)
    return _boxed_partition_counts(rows, top, m)[m]


def x_power_term_count(i: int, n: int | None, stop: int, *,
                       every_power: bool = False) -> int:
    """The terms of X^i = sum_m s_(i-m)(c) X^m(c) over the deformed basis:
    s_k has one monomial per partition of k with parts at most n (no bound
    when n is None), as many as there are with at most n parts.  With
    ``every_power``, the terms of X^0 .. X^i together: s_k is in the i-k+1
    powers X^k .. X^i.  The partitions of 0..t are counted for t = 1, 3,
    7, ... up to i, so the count stops soon after it passes ``stop``: it
    is exact up to ``stop``, and a lower bound past it."""
    t = 0
    while True:
        t = min(i, 2 * t + 1)
        counts = _boxed_partition_counts(t if n is None else min(t, n), t, t)
        count = (sum([(i - k + 1) * q for k, q in enumerate(counts)])
                 if every_power else sum(counts))
        if count > stop or t == i:
            return count


@memo
def _e_in_h(i: int) -> MvPolynomial:
    # e_m = e_{m-1} h_1 - e_{m-2} h_2 + ... + (-1)^{m-1} e_0 h_m, from E*H = 1
    if i == 0:
        return ONE
    return -_sum_of_products((a, _e_in_h(i - k))
                             for k, a in enumerate(_alternating(FAM_H, None, i)) if k)


def e_to_h_rewrite(p: MvPolynomial) -> MvPolynomial:
    """Rewrite every e-variable as its h-polynomial (e1 -> h1, e2 -> h1^2-h2, ...)."""
    evars = {v for v in p.variables() if v[0] == FAM_E}
    if not evars:
        return p
    return p.substitute({v: _e_in_h(v[1]) for v in evars})


def generic_factor_poly(r: int) -> list[MvPolynomial]:
    """X^r - e1 X^{r-1} + ... + (-1)^r er, as coefficients of 1, X, ..., X^r."""
    if r < 1:
        raise ValueError("degree must be at least 1")
    return e_series_coeffs(r, r)[::-1]


def generic_monic_coeffs(n: int) -> list[MvPolynomial]:
    """X^n - c1 X^{n-1} + ... + (-1)^n cn, as coefficients of 1, X, ..., X^n."""
    return c_series_coeffs(n, n)[::-1]
