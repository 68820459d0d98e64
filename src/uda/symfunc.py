"""Structural series and Schur determinants.

The five series that drive everything:

  c(z)   = 1 - c1 z + c2 z^2 - ... + (-1)^n cn z^n        (degree n, exact)
  E_r(z) = 1 - e1 z + ... + (-1)^r er z^r                  (degree r, exact)
  H_r(z) = 1 / E_r(z)                                      (coefficients in e's)
  sum_j h_j(c) z^j = c(z) * H(z)                           (deformed completes)
  s(w)   = 1 / c(w)                                        (dual-basis scaling)

The deformed complete function h_j(c) is computed from the generating
identity c(z)*H(z), with the h's of H(z) kept as free symbols; this
reproduces h1(c) = h1 - c1, h2(c) = h2 - c1*h1 + c2 and so on.  The ambient
bound n makes c_j vanish for j > n; passing ``n=None`` keeps every c_j, and
``n=0`` specialises all of them to zero.

Schur determinants are r x r with entry h_{lam_j - j + k}(c) in row k and
column j.  With lam empty this is the identity pattern, and a single-part
partition (m) gives back h_m(c).  They are expanded along the first row, each
minor being the Schur determinant of a smaller partition taken from the same
cache (see ``_giambelli_cached``).
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import Partition
from .poly import FAM_E, MvPolynomial, ONE, ZERO, c_, e_, h_, series_inverse


def c_series_coeffs(order: int, n: int | None) -> list[MvPolynomial]:
    """Coefficients of c(z) through z^order (c_j = 0 beyond the ambient n)."""
    out = [ONE]
    for j in range(1, order + 1):
        if n is not None and j > n:
            out.append(ZERO)
        else:
            out.append(-c_(j) if j % 2 else c_(j))
    return out


def e_series_coeffs(r: int, order: int) -> list[MvPolynomial]:
    """Coefficients of E_r(z) through z^order."""
    out = [ONE]
    for j in range(1, order + 1):
        if j > r:
            out.append(ZERO)
        else:
            out.append(-e_(j) if j % 2 else e_(j))
    return out


def h_symbol_series(order: int) -> list[MvPolynomial]:
    """1, h1, h2, ... as free symbols, through the given order."""
    return [ONE] + [h_(j) for j in range(1, order + 1)]


@lru_cache(maxsize=None)
def h_deformed(j: int, n: int | None) -> MvPolynomial:
    """The deformed complete function h_j(c) = sum_i (-1)^i c_i h_{j-i}."""
    if j < 0:
        return ZERO
    if j == 0:
        return ONE
    acc = h_(j)
    top = j if n is None else min(j, n)
    for i in range(1, top + 1):
        term = c_(i) if j - i == 0 else c_(i) * h_(j - i)
        acc = acc + (-term if i % 2 else term)
    return acc


@lru_cache(maxsize=None)
def _s_coeffs_cached(order: int, n: int | None) -> tuple[MvPolynomial, ...]:
    return tuple(series_inverse(c_series_coeffs(order, n), order))


def s_coefficient(k: int, n: int | None) -> MvPolynomial:
    """Coefficient s_k of s(w) = 1/c(w); s_0 = 1, s_1 = c1, ..."""
    if k < 0:
        return ZERO
    return _s_coeffs_cached(max(k, 8), n)[k]


@lru_cache(maxsize=None)
def _giambelli_cached(parts: tuple[int, ...], r: int, n: int | None) -> MvPolynomial:
    """det( h_{lam_j - j + k}(c) ) of size r x r, expanded through this cache.

    Expanding along the first row gives

      Delta_lam^(r) = sum_j (-1)^(j-1) h_{lam_j - j + 1}(c) * Delta_mu(j)^(r-1),
      mu(j) = (lam_1 + 1, ..., lam_{j-1} + 1, lam_{j+1}, ..., lam_r),

    because deleting row 1 and column j leaves the matrix of mu(j).  The
    minors are themselves entries of this cache, shared across partitions
    and calls.  For r > len(lam) the matrix is block lower triangular with
    a unitriangular lower corner, so Delta_lam^(r) = Delta_lam^(len(lam)).
    """
    if r == 0:
        if parts:
            raise ValueError("nonempty partition with r = 0")
        return ONE
    if r > len(parts):
        return _giambelli_cached(parts, len(parts), n)
    acc = None
    for j in range(r):
        entry = h_deformed(parts[j] - j, n)
        if not entry:
            continue
        minor = _giambelli_cached(
            tuple(p + 1 for p in parts[:j]) + parts[j + 1:r], r - 1, n)
        term = entry * minor
        if j & 1:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def giambelli(lam: Partition, r: int, n: int | None) -> MvPolynomial:
    """The Schur determinant det( h_{lam_j - j + k}(c) ) of size r x r, as cached."""
    if len(lam) > r:
        raise ValueError(f"partition {lam} longer than r={r}")
    return _giambelli_cached(lam.parts, r, n)


@lru_cache(maxsize=None)
def _e_in_h(i: int) -> MvPolynomial:
    # e_m = e_{m-1} h_1 - e_{m-2} h_2 + ... + (-1)^{m-1} e_0 h_m, from E*H = 1
    if i == 0:
        return ONE
    acc = ZERO
    for k in range(1, i + 1):
        term = _e_in_h(i - k) * h_(k)
        acc = acc + (-term if k % 2 == 0 else term)
    return acc


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
    coeffs = [ZERO] * (r + 1)
    coeffs[r] = ONE
    for i in range(1, r + 1):
        coeffs[r - i] = -e_(i) if i % 2 else e_(i)
    return coeffs


def generic_monic_coeffs(n: int) -> list[MvPolynomial]:
    """X^n - c1 X^{n-1} + ... + (-1)^n cn, as coefficients of 1, X, ..., X^n."""
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    for i in range(1, n + 1):
        coeffs[n - i] = -c_(i) if i % 2 else c_(i)
    return coeffs
