"""Reference implementations that only the tests use.

Each function here was once library API that no command, document or suite
reaches.  It stays as an independent reference for the identities its tests
pin, built from the library's own pieces: the ``MvPolynomial`` arithmetic,
the wedge elements, and the walk of operator images.
"""

from uda.errors import NonUnitConstantTerm
from uda.exterior import BasisTag, ExtElement, wedge_coords
from uda.glaction import _images
from uda.module_iso import (schur_map_to_poly, sigma_monomial_wedge,
                            split_h_terms)
from uda.partitions import vertical_strips
from uda.poly import MvPolynomial, ONE, _sum_by_key, var_name
from uda.schubert import sigma_coefficient


def series_inverse(coeffs: list[MvPolynomial], order: int) -> list[MvPolynomial]:
    """Invert a univariate power series with polynomial coefficients.

    ``coeffs`` lists the coefficients of 1, z, z^2, ... (missing entries are
    zero).  The constant term must be 1.  Returns the coefficients of the
    inverse through ``z^order``, so that the product is 1 modulo z^(order+1).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if not coeffs or coeffs[0] != ONE:
        raise NonUnitConstantTerm("series inversion needs constant term 1")
    inv = [ONE]
    for m in range(1, order + 1):
        acc = MvPolynomial.zero()
        for k in range(1, min(m, len(coeffs) - 1) + 1):
            acc = acc + coeffs[k] * inv[m - k]
        inv.append(-acc)
    return inv


def specialize_family_zero(p: MvPolynomial, fam: int) -> MvPolynomial:
    """``p`` with every variable of the family ``fam`` set to zero."""
    return MvPolynomial({m: q for m, q in p.terms.items()
                         if all(v[0] != fam for v, _ in m)})


def text_by_powers(p: MvPolynomial) -> str:
    """``str(p)`` as it was written from each term's powers, joined by "*"
    term by term, rather than from its parts' joined fragments."""
    pieces = []
    for mono, q in p.sorted_terms():
        text = "*".join(var_name(v) if e == 1 else f"{var_name(v)}^{e}"
                        for v, e in mono)
        pieces.append(("- " if q < 0 else "+ ")
                      + (f"{abs(q)}*{text}" if text and q != 1 and q != -1
                         else text or str(abs(q))))
    text = " ".join(pieces)
    return "-" + text[2:] if text.startswith("-") else text[2:] or "0"


# -- the rank-one module isomorphism, through wedges -----------------------------


def poly_to_wedge(p: MvPolynomial, r: int, n: int | None = None) -> ExtElement:
    """The module action of p on the unit wedge; result in the plain basis.

    e-variables are rewritten to h's first, c-variables stay scalars.
    """
    return ExtElement._of(r, BasisTag.PLAIN_X, _sum_by_key(
        (idx, coeff, scalar) for h_indices, scalar in split_h_terms(p)
        for idx, coeff in sigma_monomial_wedge(r, h_indices).terms.items()))


def wedge_to_poly(u: ExtElement, n: int | None = None) -> MvPolynomial:
    """Schur normal form of the coordinate of u over the unit wedge."""
    return schur_map_to_poly(wedge_coords(u, n), u.r, n)


# -- the shift series and its inverse ----------------------------------------------


def sigma_plus(u: ExtElement, order: int) -> list[ExtElement]:
    """Coefficients of sigma_plus(z) u through z^order."""
    return [sigma_coefficient(i, u) for i in range(order + 1)]


def sigma_bar_plus(u: ExtElement) -> list[ExtElement]:
    """The inverse derivation: every factor picks up (1 - X z).

    Returns the z-polynomial coefficients, an exact list of length r+1: the
    z^k coefficient is (-1)^k times the vertical k-strips of each monomial.
    """
    minus_one = -ONE
    return [ExtElement._of(u.r, u.tag, _sum_by_key(
        (moved, coeff, minus_one if k % 2 else ONE)
        for mask, coeff in u.terms.items() for moved in vertical_strips(mask, k)))
        for k in range(u.r + 1)]


# -- generating functions as tables ----------------------------------------------


def image_table(lam, r, n, dual, window):
    """The images of ``glaction._images`` keyed (i, w), in its order: the
    Schur coordinates of the operator at z^i w^w, for w <= 0 the operator
    X^i (x) del^-w ("plain") or X^i(c) (x) del^-w(s) ("adapted"), and for
    w = k > 0 the adapted X^i(c) (x) phi_k."""
    return {(i, w): dict(coords) for i, w, coords in _images(lam, r, n, dual, window)}


def genfun_json(lam, r, n, dual, table) -> dict:
    """The genfun document of ``table`` as a JSON payload: the lambda, r, n
    and dual, and one term per coefficient at w <= 0 in the order (-w, z),
    its coordinates sorted by partition; the images at w > 0 are left out,
    as the documents leave them out."""
    terms = []
    for (z, w) in sorted(table, key=lambda k: (-k[1], k[0])):
        if w > 0:
            continue
        coords = table[(z, w)]
        schur = [{"partition": mu.to_json(), "coeff": str(coords[mu])}
                 for mu in sorted(coords)]
        terms.append({"z": z, "w": w, "schur": schur})
    return {"lambda": lam.to_json(), "r": r, "n": n, "dual": dual,
            "terms": terms}
