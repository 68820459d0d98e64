"""Hasse-Schmidt derivations on the exterior algebra.

``sigma_plus`` is the derivation whose z^i coefficient restricts to
multiplication by X^i on vectors; on a wedge it follows the Cauchy rule

    sigma_i(u ^ v) = sum_{a+b=i} sigma_a(u) ^ sigma_b(v).

``sigma_bar_plus`` is its inverse: on a vector it is f -> f - X f z, and it
extends multiplicatively, so on a degree-r wedge it is an exact polynomial of
degree at most r in z.  The remaining operator acts by the two-term shift
rules

    X^m(c) |-> X^m(c) - X^{m-1}(c) / z,
    h_j(c) |-> h_j(c) - h_{j-1}(c) / z,

which is all the closed-form determinant needs; no exponential series is
involved there.
"""

from __future__ import annotations

from itertools import combinations

from .bilaurent import BiLaurent
from .exterior import ExtElement, sort_indices
from .poly import ONE, _frozen, _sum_by_key
from .symfunc import h_deformed

_UNIT = {1: ONE, -1: _frozen(-ONE)}   # a sign as a polynomial factor


def _compositions(total: int, slots: int):
    """Weak compositions of `total` into `slots` parts."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def sigma_coefficient(i: int, u: ExtElement) -> ExtElement:
    """The z^i coefficient of the multiplicative shift series on u."""
    if i == 0:
        return u
    products = []
    for idx, coeff in u.terms.items():
        for comp in _compositions(i, u.r):
            shifted = sort_indices(tuple(a + d for a, d in zip(idx, comp)))
            if shifted is not None:
                sidx, sign = shifted
                products.append((sidx, coeff, _UNIT[sign]))
    return ExtElement._of(u.r, u.tag, _sum_by_key(products))


def sigma_plus(u: ExtElement, order: int) -> list[ExtElement]:
    """Coefficients of sigma_plus(z) u through z^order."""
    return [sigma_coefficient(i, u) for i in range(order + 1)]


def sigma_bar_plus(u: ExtElement) -> list[ExtElement]:
    """The inverse derivation: every factor picks up (1 - X z).

    Returns the z-polynomial coefficients, an exact list of length r+1.
    """
    out = []
    for k in range(u.r + 1):
        products = []
        for idx, coeff in u.terms.items():
            for subset in combinations(range(u.r), k):
                bumped = sort_indices(tuple(
                    a + (1 if slot in subset else 0) for slot, a in enumerate(idx)))
                if bumped is not None:
                    sidx, sign = bumped
                    products.append((sidx, coeff, _UNIT[-sign if k % 2 else sign]))
        out.append(ExtElement._of(u.r, u.tag, _sum_by_key(products)))
    return out


def sigma_bar_minus_h(j: int, n: int | None) -> BiLaurent:
    """h_j(c) - h_{j-1}(c) z^{-1}, an exact two-term Laurent polynomial."""
    terms = {}
    hj = h_deformed(j, n)
    if hj:
        terms[(0, 0)] = hj
    if j >= 1:
        prev = h_deformed(j - 1, n)
        if prev:
            terms[(-1, 0)] = -prev
    return BiLaurent(terms, (-1, 0, 0, 0))
