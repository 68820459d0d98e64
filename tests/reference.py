"""Reference implementations that only the tests use.

Each function here was once library API that no command, document or suite
reaches.  It stays as an independent reference for the identities its tests
pin, written with the public ``MvPolynomial`` arithmetic alone.
"""

from uda.errors import NonUnitConstantTerm
from uda.poly import MvPolynomial, ONE, var_name


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
