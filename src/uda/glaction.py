"""The star action on the decomposition algebra and its closed forms.

An operator f(X) (x) g(del) acts on a Schur basis element through the
exterior module: wedge f against the contraction of g with the corresponding
deformed wedge monomial, then read the result back through the rank-one
module isomorphism.  ``star_oracle`` does exactly that, slot by slot; it is
deliberately brute force and serves as the independent reference for the
generating functions below.

The closed forms package all operator images at once.  The kernel is an
r x r determinant: first row the deformed evaluations w^{-(r-j+lam_j)}(c),
the remaining rows the two-term shifts h_{lam_j-j+k}(c) - h_{...-1}(c)/z.
The series

    z^{r-1} * (sum_j h_j z^j) * det(...)

collects the images of X^i (x) del^j at z^i w^{-j}; scaling by c(z)/c(w)
switches to the adapted operators X^i(c) (x) del^j(s).  One builder,
``_closed_form``, makes every version of this product: the determinant's
w-exponents lie in [-(r-1+lam_1), 0], so carrying 1/c(w) to depth
r-1+lam_1+max(wmax, 0) makes every coefficient at w <= wmax exact.  The
quotient closed form ``_finite_closed_form``, a cross-check, is the adapted
product cut at w <= 0 and pushed through the rectangle normal form.

On the rank-n quotient the adapted operators are far simpler than either
route suggests: X^i(c) (x) del^j(s) is the matrix unit E_ij acting on the
r-th exterior power of the deformed basis, so every image is a signed basis
element or zero.  ``quotient_action`` computes it by signed index
substitution on the wedge indices of lam, with integers and tuples only;
``generating_action_finite`` (a table of signed basis elements with no
polynomial series), ``rep_matrix`` and ``bracket_check`` are served from it,
and the oracle and the closed form check it.

Positive powers of w in the scaled forms do not correspond to any operator
of the family (the dual forms are indexed by j >= 0) and they do not vanish
under projection; when a window with wmax > 0 asks for them they are
reported on the result object and excluded from the Schur form and from
the JSON document.  Coefficients at z^i with i > n-1 must project to zero
in the quotient closed form and are checked up to an explicit margin; a
nonzero survivor raises ``WindowViolation``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

from .bilaurent import BiLaurent
from .determinant import exact_det
from .errors import WindowViolation
from .exterior import (BasisTag, DeltaForm, DualDeltaForm, ExtElement,
                       LinearForm, contract, convert_basis, reduce_mod_n,
                       w_value, wedge, wedge_coords)
from .module_iso import quotient_project, schur_map_of_poly, schur_map_to_poly
from .partitions import (Partition, partition_of_indices,
                         partitions_in_rectangle, wedge_indices)
from .poly import MvPolynomial, ONE, ZERO, series_mul
from .schubert import sigma_bar_minus_h
from .symfunc import (c_series_coeffs, generic_factor_poly,
                      generic_monic_coeffs, h_deformed, h_symbol_series,
                      s_coefficient)


@dataclass(frozen=True)
class StarOperator:
    """f(X) (x) g(del): a vector polynomial paired with a coordinate form."""
    vector: tuple[MvPolynomial, ...]   # coefficients of X^0, X^1, ...
    vector_tag: BasisTag
    form: LinearForm

    @staticmethod
    def plain(i: int, j: int) -> "StarOperator":
        vec = (ZERO,) * i + (ONE,)
        return StarOperator(vec, BasisTag.PLAIN_X, DeltaForm(j))

    @staticmethod
    def adapted(i: int, j: int) -> "StarOperator":
        vec = (ZERO,) * i + (ONE,)
        return StarOperator(vec, BasisTag.DEFORMED_XC, DualDeltaForm(j))


def _vector_element(op: StarOperator, ambient: int | None) -> ExtElement:
    e = ExtElement(1, op.vector_tag,
                   {(k,): coeff for k, coeff in enumerate(op.vector) if coeff})
    return convert_basis(e, BasisTag.DEFORMED_XC, ambient)


def star_oracle_coords(op: StarOperator, lam: Partition, r: int,
                       n: int | None = None, *, quotient: bool = True
                       ) -> dict[Partition, MvPolynomial]:
    """Schur coordinates of (f (x) g) acting on the basis element of lam.

    With ``n`` set and ``quotient`` true, the computation happens in the rank
    n quotient module: wedge factors with exponent >= n are dropped and the
    answer lives on rectangle partitions.  With ``quotient`` false, n only
    bounds the c-variables.
    """
    if len(lam) > r:
        raise ValueError(f"partition {lam} longer than r={r}")
    u = ExtElement.basis_monomial(wedge_indices(lam, r), BasisTag.DEFORMED_XC)
    v = contract(op.form, u, n)
    w = wedge(_vector_element(op, n), v)
    if n is not None and quotient:
        w = reduce_mod_n(w, n)
    coords = wedge_coords(w, n)
    if n is not None and quotient:
        for mu in coords:
            if mu.part(1) > n - r:
                raise WindowViolation(
                    f"coordinate outside the {r}x{n - r} rectangle: {mu}")
    return coords


def star_oracle(op: StarOperator, lam: Partition, r: int,
                n: int | None = None, *, quotient: bool = True) -> MvPolynomial:
    """The brute-force star action, returned in Schur normal form."""
    coords = star_oracle_coords(op, lam, r, n, quotient=quotient)
    return schur_map_to_poly(coords, r, n)


# -- the closed forms ------------------------------------------------------------


def mixed_schur_det(lam: Partition, r: int, n: int | None) -> BiLaurent:
    """det of [w^{-(r-j+lam_j)}(c) ; shifted h rows], an exact Laurent polynomial.

    Row 1 holds the deformed evaluations at X = 1/w; row k >= 2 holds
    h_{lam_j - j + k}(c) - h_{lam_j - j + k - 1}(c)/z.  Entries follow the
    same index pattern as the Schur determinant, which the equivalence suite
    pins against the brute-force action.
    """
    if len(lam) > r:
        raise ValueError(f"partition {lam} longer than r={r}")
    rows: list[list[BiLaurent]] = []
    rows.append([w_value(r - j + lam.part(j), n) for j in range(1, r + 1)])
    for k in range(2, r + 1):
        rows.append([sigma_bar_minus_h(lam.part(j) - j + k, n)
                     for j in range(1, r + 1)])
    return exact_det(rows)


@dataclass(frozen=True)
class ActionResult:
    """A generating function of star-action images on one basis element.

    ``schur_form`` maps (z-exp, w-exp) to the Schur coordinates of that
    coefficient.  The closed forms keep in ``series`` the normal-form
    coefficients on the window where they are valid.  The finite form,
    read off by ``quotient_action``, holds the ints 1 and -1, exact at every
    (i, j), and its ``series`` is None.  For the adapted form read with
    wmax > 0, nonzero coefficients at positive powers of w (which correspond
    to no operator of the family) are collected in ``positive_w`` instead of
    ``schur_form``.  The fields cannot be reassigned; the maps in them are
    built per call and belong to the caller.
    """
    lam: Partition
    r: int
    n: int | None
    dual: str                       # "plain" or "adapted"
    series: BiLaurent | None        # None: exact at every (i, j)
    schur_form: Mapping[tuple[int, int], Mapping[Partition, int | MvPolynomial]]
    positive_w: Mapping[tuple[int, int], Mapping[Partition, MvPolynomial]] = field(
        default_factory=dict)

    def coords_at(self, i: int, j: int) -> Mapping[Partition, int | MvPolynomial]:
        """Schur coordinates of the image under the (z^i, w^-j) operator.

        Operators are indexed by i, j >= 0; a negative index names none of
        them and raises ``ValueError``; one outside ``series``'s window
        raises ``WindowViolation``.
        """
        if i < 0 or j < 0:
            raise ValueError(f"operator indices must be nonnegative, got ({i}, {j})")
        if self.series is not None and not self.series.valid_at(i, -j):
            raise WindowViolation(
                f"(z^{i}, w^-{j}) outside computed window {self.series.window}")
        return self.schur_form.get((i, -j), {})

    def to_json(self) -> dict:
        terms = []
        for (z, w) in sorted(self.schur_form, key=lambda k: (-k[1], k[0])):
            coords = self.schur_form[(z, w)]
            schur = [{"partition": mu.to_json(), "coeff": str(coords[mu])}
                     for mu in sorted(coords)]
            terms.append({"z": z, "w": w, "schur": schur})
        return {"lambda": self.lam.to_json(), "r": self.r, "n": self.n,
                "dual": self.dual, "terms": terms}


def _closed_form(lam: Partition, r: int, ambient: int | None, ztop: int,
                 wmax: int | None = None) -> BiLaurent:
    """z^(r-1) * [c(z)] * H(z) * [s(w)] * det on the window z in [0, ztop].

    Without ``wmax`` this is the plain form.  With it, the product is
    scaled by c(z)/c(w), and 1/c(w) is carried far enough that every
    coefficient at a w-exponent up to ``wmax`` is exact.
    """
    det = mixed_schur_det(lam, r, ambient)
    hseries = BiLaurent.from_z_series(h_symbol_series(ztop), ztop)
    if wmax is None:
        prod = BiLaurent.monomial(r - 1, 0) * hseries * det
    else:
        s_order = r - 1 + lam.part(1) + max(wmax, 0)
        cpoly = BiLaurent.from_z_series(c_series_coeffs(ambient, ambient),
                                        ambient, truncated_above=False)
        sseries = BiLaurent.from_w_series(
            [s_coefficient(k, ambient) for k in range(s_order + 1)], s_order)
        prod = BiLaurent.monomial(r - 1, 0) * cpoly * hseries * sseries * det
    return prod.restrict((0, ztop) + prod.window[2:])


def _project(series: BiLaurent, lam: Partition, r: int, ambient: int | None,
             n: int | None = None):
    """Schur coordinates of every coefficient, split into w <= 0 and w > 0.

    With the quotient rank ``n`` set, only coordinates inside the r x (n-r)
    rectangle are kept, and a survivor beyond z^{n-1} or below w^{-(n-1)}
    raises ``WindowViolation``.
    """
    schur: dict[tuple[int, int], dict[Partition, MvPolynomial]] = {}
    positive: dict[tuple[int, int], dict[Partition, MvPolynomial]] = {}
    for key in sorted(series.coeffs):
        coords = schur_map_of_poly(series.coeffs[key], r, ambient)
        if n is not None:
            coords = {mu: v for mu, v in coords.items() if mu.part(1) <= n - r}
        if not coords:
            continue
        z, w = key
        if w > 0:
            positive[key] = coords
            continue
        if n is not None and z > n - 1:
            raise WindowViolation(
                f"nonzero projected coefficient at z^{z} (> n-1 = {n - 1}) "
                f"for lambda={lam}, r={r}, n={n}")
        if n is not None and w < -(n - 1):
            raise WindowViolation(
                f"nonzero projected coefficient at w^{w} (< -(n-1)) "
                f"for lambda={lam}, r={r}, n={n}")
        schur[key] = coords
    return schur, positive


def _cut_w(series: BiLaurent, wmin: int | None, wmax: int) -> BiLaurent:
    zlo, zhi, wlo, whi = series.window
    lo, hi = wlo if wmin is None else max(wlo, wmin), min(whi, wmax)
    if lo > hi:
        asked = wlo if wmin is None else wmin
        raise ValueError(f"wmin/wmax ask for the w-window [{asked}, {wmax}], "
                         f"which misses the product's w-range [{wlo}, {whi}]")
    return series.restrict((zlo, zhi, lo, hi))


def generating_action(lam: Partition, r: int, zmax: int, wmin: int | None = None,
                      n: int | None = None) -> ActionResult:
    """Images of all X^i (x) del^j on one basis element, packaged at z^i w^-j.

    The result window is z in [0, zmax], w in [-(r-1+lam_1), 0]; ``wmin``
    narrows the w side if requested, and one that leaves no w-exponent
    raises ``ValueError``.  ``n`` bounds the c-variables only; ``n=0``
    specialises every c to zero.
    """
    if zmax < 0:
        raise ValueError("zmax must be nonnegative")
    series = _cut_w(_closed_form(lam, r, n, zmax), wmin, 0)
    schur, _ = _project(series, lam, r, n)
    return ActionResult(lam, r, n, "plain", series, schur)


def generating_action_adapted(lam: Partition, r: int, n: int, zmax: int,
                              wmin: int | None = None, wmax: int = 0) -> ActionResult:
    """The scaled form c(z)/c(w) for the adapted operators X^i(c) (x) del^j(s).

    The 1/c(w) expansion is carried far enough that every coefficient with
    w-exponent at most ``wmax`` is exact.  Nonzero coefficients at positive
    powers of w are split off into ``positive_w``.  A ``wmin``/``wmax``
    window that misses the product's w-range raises ``ValueError``.
    """
    if zmax < 0:
        raise ValueError("zmax must be nonnegative")
    series = _cut_w(_closed_form(lam, r, n, zmax, wmax), wmin, wmax)
    schur, positive = _project(series, lam, r, n)
    return ActionResult(lam, r, n, "adapted", series, schur, positive)


def _finite_closed_form(lam: Partition, r: int, n: int, zero_c: bool = False
                        ) -> dict[tuple[int, int], dict[Partition, MvPolynomial]]:
    """The Schur form of ``generating_action_finite`` from the closed form.

    The adapted product is cut at w <= 0 and projected to the rectangle; the
    vanishing beyond z^{n-1} is checked up to max(2, r) extra orders.
    """
    ambient = 0 if zero_c else n
    prod = _closed_form(lam, r, ambient, n - 1 + max(2, r), wmax=0)
    return _project(prod, lam, r, ambient, n)[0]


def generating_action_finite(lam: Partition, r: int, n: int) -> ActionResult:
    """The full quotient-module structure on one rectangle basis element.

    The coefficient at z^i w^-j is the image of X^i(c) (x) del^j(s), read off
    by ``quotient_action`` for every i, j in [0, n-1]; the Schur form equals
    the closed form ``_finite_closed_form``.  Every coefficient is an exact
    signed basis element, so the result carries no ``series``.
    """
    if not (1 <= r <= n):
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if not lam.fits_rectangle(r, n - r):
        raise ValueError(f"partition {lam} does not fit {r}x{n - r}")
    images = {(i, -j): quotient_action(i, j, lam, r, n)
              for i in range(n) for j in range(n - 1, -1, -1)}
    schur = {key: dict([image]) for key, image in images.items() if image}
    return ActionResult(lam, r, n, "adapted", None, schur)


# -- representation matrices -------------------------------------------------------


@dataclass(frozen=True)
class RepMatrix:
    """The matrix of one adapted basis operator on the rectangle Schur basis.

    Every entry is the int 1 or -1; missing entries are zero.
    """
    i: int
    j: int
    r: int
    n: int
    basis: tuple[Partition, ...]
    entries: Mapping[tuple[Partition, Partition], int]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def to_json(self) -> dict:
        cells = []
        for (mu, lam) in sorted(self.entries, key=lambda k: (k[1], k[0])):
            cells.append({"row": mu.to_json(), "col": lam.to_json(),
                          "coeff": str(self.entries[(mu, lam)])})
        return {"i": self.i, "j": self.j, "r": self.r, "n": self.n,
                "dimension": self.dimension,
                "basis": [p.to_json() for p in self.basis],
                "entries": cells}


def quotient_action(i: int, j: int, lam: Partition, r: int, n: int
                    ) -> tuple[Partition, int] | None:
    """The image of X^i(c) (x) del^j(s) on the quotient basis element of lam.

    On the rank-n quotient the adapted operator is the matrix unit E_ij on
    the r-th exterior power of the deformed basis, so the image is a signed
    basis element or zero: del^j(s) removes the index j from its slot s
    (sign (-1)^s), X^i(c) is wedged in front, and sorting it into place
    flips the sign once per remaining index above i.  Only integers and
    tuples are involved; the answer is (mu, 1), (mu, -1) or None.
    """
    if not (0 <= i <= n - 1 and 0 <= j <= n - 1):
        raise ValueError(f"operator indices must lie in [0, {n - 1}]")
    if not (1 <= r <= n):
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if not lam.fits_rectangle(r, n - r):
        raise ValueError(f"partition {lam} does not fit {r}x{n - r}")
    idx = wedge_indices(lam, r)
    if j not in idx or (i != j and i in idx):
        return None
    slot = idx.index(j)
    rest = idx[:slot] + idx[slot + 1:]
    flips = slot + sum(1 for k in rest if k > i)
    mu = partition_of_indices(tuple(sorted(rest + (i,), reverse=True)))
    return mu, -1 if flips % 2 else 1


def rep_matrix(i: int, j: int, r: int, n: int) -> RepMatrix:
    """Representation matrix of X^i(c) (x) del^j(s) on the quotient basis.

    Each column is one signed index substitution (``quotient_action``), so
    every entry is 1 or -1 and no polynomial arithmetic is done; the closed
    form and the oracle remain as cross-checks in the tests and suites.
    """
    basis = tuple(partitions_in_rectangle(r, n - r))
    entries: dict[tuple[Partition, Partition], int] = {}
    for lam in basis:
        image = quotient_action(i, j, lam, r, n)
        if image is not None:
            mu, sign = image
            entries[(mu, lam)] = sign
    return RepMatrix(i, j, r, n, basis, entries)


@lru_cache(maxsize=None)
def _signs(i: int, j: int, r: int, n: int
           ) -> Mapping[tuple[Partition, Partition], int]:
    """The +-1 entries of ``rep_matrix(i, j, r, n)``, read-only."""
    return MappingProxyType(rep_matrix(i, j, r, n).entries)


def _mat_mul(a: dict, b: dict) -> dict:
    by_col: dict[Partition, list[tuple[Partition, int]]] = {}
    for (mu, nu), x in a.items():
        by_col.setdefault(nu, []).append((mu, x))
    out: dict[tuple[Partition, Partition], int] = {}
    for (nu, lam), y in b.items():
        for mu, x in by_col.get(nu, ()):  # a(mu,nu) * b(nu,lam)
            out[(mu, lam)] = out.get((mu, lam), 0) + x * y
    return {key: v for key, v in out.items() if v}


def _mat_diff(x: dict, y: dict) -> dict:
    out = dict(x)
    for key, v in y.items():
        out[key] = out.get(key, 0) - v
    return {key: v for key, v in out.items() if v}


def bracket_check(a: int, b: int, c: int, d: int, r: int, n: int) -> bool:
    """Verify [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb on the quotient.

    The matrices hold only the constants 1 and -1, so the check multiplies
    and adds their entries as ints.
    """
    A, B = _signs(a, b, r, n), _signs(c, d, r, n)
    lhs = _mat_diff(_mat_mul(A, B), _mat_mul(B, A))
    rhs: Mapping = {}
    if b == c:
        rhs = _signs(a, d, r, n)
    if d == a:
        rhs = _mat_diff(rhs, _signs(c, b, r, n))
    return lhs == rhs


# -- universal factorisation ---------------------------------------------------------


def universal_factorization(r: int, n: int
                            ) -> tuple[list[MvPolynomial], list[MvPolynomial], bool]:
    """The generic monic polynomial splits over the quotient algebra.

    Returns the degree-r factor (coefficients in e's), the complementary
    factor X^{n-r} + h_1(c) X^{n-r-1} + ... + h_{n-r}(c), and whether their
    product reduces to X^n - c1 X^{n-1} + ... + (-1)^n cn coefficientwise in
    the quotient normal form.
    """
    if not (1 <= r <= n):
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    p = generic_factor_poly(r)
    q = [h_deformed(n - r - m, n) for m in range(n - r)] + [ONE]
    diff = series_mul(p, q, n)
    target = generic_monic_coeffs(n)
    ok = True
    for m in range(n + 1):
        delta = diff[m] - target[m]
        if quotient_project(delta, r, n):
            ok = False
            break
    return p, q, ok
