"""Hasse-Schmidt derivations on the exterior algebra.

The shift series sum_i sigma_i z^i is the derivation whose z^i coefficient
restricts to multiplication by X^i on vectors; on a wedge it follows the
Cauchy rule

    sigma_i(u ^ v) = sum_{a+b=i} sigma_a(u) ^ sigma_b(v).

``sigma_coefficient`` forms sigma_i.  On a wedge monomial this is Pieri's
rule (Macdonald I.5; Laksov and Thorup, *Splitting algebras and Schubert
calculus*, 2012): sigma_i adds a horizontal i-strip, each with coefficient
1, which on the Maya diagram is ``partitions.horizontal_strips``; every
term it forms survives, so none is formed only to cancel.

The closed-form determinant needs only the two-term shift rules

    X^m(c) |-> X^m(c) - X^{m-1}(c) / z,
    h_j(c) |-> h_j(c) - h_{j-1}(c) / z,

the second of which is ``sigma_bar_minus_h``; no exponential series is
involved there.
"""

from __future__ import annotations

from .bilaurent import BiLaurent
from .exterior import ExtElement
from .partitions import horizontal_strips
from .poly import ONE, _sum_by_key
from .symfunc import h_deformed


def sigma_coefficient(i: int, u: ExtElement) -> ExtElement:
    """The z^i coefficient of the multiplicative shift series on u: every
    horizontal i-strip added to every monomial."""
    if i == 0:
        return u
    return ExtElement._of(u.r, u.tag, _sum_by_key(
        (moved, coeff, ONE) for mask, coeff in u.terms.items()
        for moved in horizontal_strips(mask, i)))


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
