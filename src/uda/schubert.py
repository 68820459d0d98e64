"""Hasse-Schmidt derivations on the exterior algebra.

``sigma_plus`` is the derivation whose z^i coefficient restricts to
multiplication by X^i on vectors; on a wedge it follows the Cauchy rule

    sigma_i(u ^ v) = sum_{a+b=i} sigma_a(u) ^ sigma_b(v).

On a wedge monomial this is Pieri's rule (Macdonald I.5; Laksov and
Thorup, *Splitting algebras and Schubert calculus*, 2012): sigma_i adds a
horizontal i-strip, each with coefficient 1, which on the Maya diagram is
``partitions.horizontal_strips``; every term it forms survives, so none is
formed only to cancel.

``sigma_bar_plus`` is its inverse: on a vector it is f -> f - X f z, and it
extends multiplicatively, so on a degree-r wedge it is an exact polynomial of
degree at most r in z.  Its z^k coefficient is (-1)^k times the sum of the
vertical k-strips (``partitions.vertical_strips``).

The remaining operator acts by the two-term shift rules

    X^m(c) |-> X^m(c) - X^{m-1}(c) / z,
    h_j(c) |-> h_j(c) - h_{j-1}(c) / z,

which is all the closed-form determinant needs; no exponential series is
involved there.
"""

from __future__ import annotations

from .bilaurent import BiLaurent
from .exterior import ExtElement
from .partitions import horizontal_strips, vertical_strips
from .poly import ONE, _frozen, _sum_by_key
from .symfunc import h_deformed

_MINUS_ONE = _frozen(-ONE)


def sigma_coefficient(i: int, u: ExtElement) -> ExtElement:
    """The z^i coefficient of the multiplicative shift series on u: every
    horizontal i-strip added to every monomial."""
    if i == 0:
        return u
    return ExtElement._of(u.r, u.tag, _sum_by_key(
        (moved, coeff, ONE) for mask, coeff in u.terms.items()
        for moved in horizontal_strips(mask, i)))


def sigma_plus(u: ExtElement, order: int) -> list[ExtElement]:
    """Coefficients of sigma_plus(z) u through z^order."""
    return [sigma_coefficient(i, u) for i in range(order + 1)]


def sigma_bar_plus(u: ExtElement) -> list[ExtElement]:
    """The inverse derivation: every factor picks up (1 - X z).

    Returns the z-polynomial coefficients, an exact list of length r+1.
    """
    return [ExtElement._of(u.r, u.tag, _sum_by_key(
        (moved, coeff, _MINUS_ONE if k % 2 else ONE)
        for mask, coeff in u.terms.items() for moved in vertical_strips(mask, k)))
        for k in range(u.r + 1)]


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
