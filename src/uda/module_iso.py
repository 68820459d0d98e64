"""The rank-one module isomorphism between polynomials and top wedges.

Degree-r wedges form a free rank-one module over the polynomial algebra in
the h's, generated by the unit wedge X^{r-1} ^ ... ^ X^0: each h_i acts as
the i-th shift coefficient ``sigma_i``.  This file implements the
isomorphism in both directions and the induced normal form in the quotient
where partitions are confined to an r x (n-r) rectangle.

  poly_to_wedge:  p  |->  p . unit_wedge        (h_i acting as sigma_i)
  wedge_to_poly:  u  |->  sum a_lam Delta_lam   (coordinates in the deformed
                                                 basis, Schur determinants)

``wedge_to_poly(poly_to_wedge(p))`` is the canonical Schur normal form of p;
it is the identity on polynomials already written in that form.  The
rectangle filter of ``quotient_project`` is the normal form modulo the ideal
generated by h_{n-r+1}(c), ..., h_n(c): Schur terms whose first part exceeds
n-r lie in that ideal, the rest are a basis of the quotient.

Applications of sigma-monomials to the unit wedge are memoised; they are
c-free and shared across every ambient n, which is what keeps the sweep
tests cheap.
"""

from __future__ import annotations

from .exterior import BasisTag, ExtElement, unit_wedge, wedge_coords
from .partitions import Partition
from .poly import FAM_C, FAM_H, MvPolynomial, memo
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


def poly_to_wedge(p: MvPolynomial, r: int, n: int | None = None) -> ExtElement:
    """The module action of p on the unit wedge; result in the plain basis.

    e-variables are rewritten to h's first, c-variables stay scalars.
    """
    acc = ExtElement.zero(r, BasisTag.PLAIN_X)
    for h_indices, scalar in split_h_terms(p):
        acc = acc + sigma_monomial_wedge(r, h_indices).scale(scalar)
    return acc


def wedge_to_poly(u: ExtElement, n: int | None = None) -> MvPolynomial:
    """Schur normal form of the coordinate of u over the unit wedge."""
    return schur_map_to_poly(wedge_coords(u, n), u.r, n)


def schur_map_of_poly(p: MvPolynomial, r: int,
                      n: int | None = None) -> dict[Partition, MvPolynomial]:
    """Schur coordinates of p as an element of the degree-r module."""
    acc: dict[Partition, MvPolynomial] = {}
    for h_indices, scalar in split_h_terms(p):
        for lam, coeff in _schur_map_of_monomial(r, n, h_indices).items():
            term = scalar * coeff
            s = acc.get(lam)
            acc[lam] = term if s is None else s + term
    return {lam: v for lam, v in acc.items() if v}


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
    acc = MvPolynomial.zero()
    for lam in sorted(coords):
        acc = acc + coords[lam] * giambelli(lam, r, n)
    return acc
