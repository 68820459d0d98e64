"""The rank-one module isomorphism between polynomials and top wedges.

Degree-r wedges form a free rank-one module over the polynomial algebra in
the h's, generated by the unit wedge X^{r-1} ^ ... ^ X^0: each h_i acts as
the i-th shift coefficient ``sigma_coefficient``.  The isomorphism is read
through Schur coordinates: ``schur_map_of_poly`` gives the coordinates of
p . unit_wedge in the deformed basis, and ``schur_map_to_poly`` sums
a_lam Delta_lam back, so the round trip is the canonical Schur normal form
of p.  The rectangle filter of ``quotient_project`` is the normal form
modulo the ideal generated by h_{n-r+1}(c), ..., h_n(c): Schur terms whose
first part exceeds n-r lie in that ideal, the rest are a basis of the
quotient.

Applications of sigma-monomials to the unit wedge are memoised; they are
c-free and shared across every ambient n, which is what keeps the sweep
tests cheap.
"""

from __future__ import annotations

from .exterior import ExtElement, unit_wedge, wedge_coords
from .partitions import Partition
from .poly import (FAM_C, FAM_H, MvPolynomial, _sum_by_key, _sum_of_products,
                   memo)
from .schubert import sigma_coefficient
from .symfunc import e_to_h_rewrite, giambelli

@memo
def sigma_monomial_wedge(r: int, h_indices: tuple[int, ...]) -> ExtElement:
    """Apply sigma_{i1} ... sigma_{ik} to the unit wedge (plain basis)."""
    if not h_indices:
        return unit_wedge(r)
    return sigma_coefficient(h_indices[0], sigma_monomial_wedge(r, h_indices[1:]))


@memo
def _schur_map_of_monomial(r: int, n: int | None,
                           h_indices: tuple[int, ...]) -> dict[Partition, MvPolynomial]:
    return wedge_coords(sigma_monomial_wedge(r, h_indices), n)


def split_h_terms(p: MvPolynomial):
    """Each term of p, its e-variables rewritten to h's, split into its
    h-index multiset (descending) and its c-part, a polynomial."""
    for mono, q in e_to_h_rewrite(p).terms.items():
        h_indices = [idx for (fam, idx), exp in mono if fam == FAM_H
                     for _ in range(exp)]
        c_part = tuple(power for power in mono if power[0][0] == FAM_C)
        yield tuple(h_indices[::-1]), MvPolynomial({c_part: q})


def schur_map_of_poly(p: MvPolynomial, r: int,
                      n: int | None = None) -> dict[Partition, MvPolynomial]:
    """Schur coordinates of p as an element of the degree-r module."""
    return _sum_by_key(
        (lam, scalar, coeff) for h_indices, scalar in split_h_terms(p)
        for lam, coeff in _schur_map_of_monomial(r, n, h_indices).items())


def quotient_project(p: MvPolynomial, r: int, n: int) -> dict[Partition, MvPolynomial]:
    """Normal form in the quotient: Schur coordinates inside the rectangle.

    Coordinates on partitions with first part above n-r are discarded; they
    span the image of the defining ideal.
    """
    full = schur_map_of_poly(p, r, n)
    return {lam: v for lam, v in full.items() if lam.part(1) <= n - r}


def schur_map_to_poly(coords: dict[Partition, MvPolynomial], r: int,
                      n: int | None) -> MvPolynomial:
    """Assemble a Schur coordinate map back into a canonical polynomial."""
    return _sum_of_products((MvPolynomial._coerce(coords[lam]), giambelli(lam, r, n))
                            for lam in sorted(coords))
