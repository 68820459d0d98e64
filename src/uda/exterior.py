"""Exterior algebra of the polynomial module in one variable X.

Degree-r elements are stored as linear combinations of wedge monomials
``X^{i1} ^ X^{i2} ^ ... ^ X^{ir}`` with strictly decreasing exponents, the
coefficients being polynomials in the c-variables only.  A wedge monomial
is keyed by its Maya diagram (``partitions.maya_mask``): an int with bit i
set for each factor X^i, so a degree-r key has r bits set.  Every element
carries a basis tag: PLAIN_X for the monomial basis (X^i) and DEFORMED_XC
for the deformed basis X^i(c) = X^i - c1 X^{i-1} + c2 X^{i-2} - ...
Mixing tags without an explicit conversion raises ``TagMismatch``; sign
errors from silent reinterpretation are the dominant bug source in this kind
of code, so the tag is checked everywhere.  Terms are checked only by the
public constructors, which keeps re-validation off the oracle's hot path.

A wedge monomial with indices (i1 > ... > ir) corresponds to the partition
(i1-(r-1), i2-(r-2), ..., ir), which is how Schur coordinates are read off
once an element is expressed in the deformed basis
(``partitions.partition_of_mask``).  The sign of a factor's place is a
count of bits: X^k wedged in front of a diagram passes the factors above
k, ``(mask >> k + 1).bit_count()`` of them.

Every sum over wedge monomials (``+``, ``wedge``, ``contract``,
``convert_basis``) lists ``(mask, a, b)`` triples and leaves the summing
to ``poly._sum_by_key``, the one term loop; only the oracle
(``glaction.star_oracle_coords``) sums inline, because its requests are too
small to pay for a call.  ``convert_basis`` expands the factors from the
lowest up, inserting each in front of the ones converted so far, so that
terms with the same factors left are summed once.

Contraction of a linear form against a wedge expands as the alternating sum
over slots, slot i carrying sign (-1)^(i-1); the slot removed contributes
the form's value on that factor.  A form lists its nonzero slots from the
wedge's Maya diagram (``LinearForm.slots``), the slot of X^i being the
number of bits set above bit i; a delta form in its own basis reads its one
slot at most off bit j.  ``w_value`` collects the values of all coordinate
forms on one deformed basis vector into a Laurent polynomial in w; those
Laurent polynomials make up the first row of the closed-form determinant
(``glaction.mixed_schur_det``).

The residue calculus expands a fraction f(X)/p_r(X) as a Laurent series in
1/X (the denominator contributes X^-r times the complete-function series)
and extracts coefficients of X^-1; determinants of such residues recover
Schur coordinates by an entirely independent route, which is what makes the
cross-checks in the test suite meaningful.
"""

from __future__ import annotations

import enum
from itertools import chain
from typing import Mapping, Sequence

from .bilaurent import BiLaurent
from .determinant import exact_det
from .errors import DegreeZeroError, TagMismatch, WindowExcludesMinusOne
from .partitions import Partition, partition_of_mask
from .poly import (MvPolynomial, ONE, ZERO, _frozen, _sum_by_key,
                   _sum_of_products, memo)
from .symfunc import c_series_coeffs, h_symbol_series, s_coefficient


class BasisTag(enum.Enum):
    PLAIN_X = "X"
    DEFORMED_XC = "Xc"


class ExtElement:
    """A homogeneous exterior element: finite sum of tagged wedge monomials.

    ``terms`` maps the Maya diagram of each wedge monomial, an int with bit
    i set for the factor X^i, to its coefficient.  ``ExtElement(...)``,
    ``zero``, ``basis_monomial`` and ``vector`` check every key (an int
    >= 0 with r bits set) and drop zeros.  ``_of`` keeps terms valid by
    construction unchecked, and ``_freeze`` makes them and their
    coefficients read-only in place.
    ``r``, ``tag`` and ``terms`` cannot be reassigned.
    """

    __slots__ = ("_r", "_tag", "_terms")

    def __init__(self, r: int, tag: BasisTag,
                 terms: Mapping[int, MvPolynomial] | None = None):
        self._r = r
        self._tag = tag
        clean: dict[int, MvPolynomial] = {}
        for mask, coeff in (terms or {}).items():
            if not coeff:
                continue
            if not isinstance(mask, int) or mask < 0 or mask.bit_count() != r:
                raise ValueError(f"{mask!r} is not the Maya diagram of a "
                                 f"wedge monomial of degree {r}")
            clean[mask] = coeff
        self._terms = clean

    @property
    def r(self) -> int:
        """The degree: every wedge monomial has r factors."""
        return self._r

    @property
    def tag(self) -> BasisTag:
        """The basis the wedge monomials are written in."""
        return self._tag

    @property
    def terms(self) -> Mapping[int, MvPolynomial]:
        """``mask -> coefficient``, one entry per nonzero wedge monomial."""
        return self._terms

    # -- constructors --------------------------------------------------------

    @staticmethod
    def _of(r: int, tag: BasisTag, terms: dict) -> "ExtElement":
        e = ExtElement.__new__(ExtElement)
        e._r, e._tag, e._terms = r, tag, terms
        return e

    def _freeze(self) -> None:
        self._terms = _frozen(self._terms)

    @staticmethod
    def zero(r: int, tag: BasisTag) -> "ExtElement":
        return ExtElement(r, tag, {})

    @staticmethod
    def basis_monomial(mask: int, tag: BasisTag) -> "ExtElement":
        """The wedge of the factors X^i whose bits are set in ``mask``."""
        return ExtElement(mask.bit_count(), tag, {mask: ONE})

    @staticmethod
    def vector(i: int, tag: BasisTag) -> "ExtElement":
        if i < 0:
            raise ValueError(f"negative exponent {i}")
        return ExtElement(1, tag, {1 << i: ONE})

    # -- linear structure ------------------------------------------------------

    def _check(self, other: "ExtElement"):
        if self.tag is not other.tag:
            raise TagMismatch(f"{self.tag.value} vs {other.tag.value}")
        if self.r != other.r:
            raise ValueError(f"degree mismatch: {self.r} vs {other.r}")

    def __add__(self, other: "ExtElement") -> "ExtElement":
        self._check(other)
        return ExtElement._of(self.r, self.tag, _sum_by_key(
            (mask, coeff, ONE)
            for mask, coeff in chain(self.terms.items(), other.terms.items())))

    def __neg__(self) -> "ExtElement":
        return ExtElement._of(self.r, self.tag,
                              {mask: -coeff for mask, coeff in self.terms.items()})

    def __sub__(self, other: "ExtElement") -> "ExtElement":
        return self + (-other)

    def scale(self, q) -> "ExtElement":
        return ExtElement._of(self.r, self.tag, {} if not q else {
            mask: coeff * q for mask, coeff in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtElement):
            return NotImplemented
        return (self.r == other.r and self.tag is other.tag
                and self.terms == other.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return f"ExtElement<{self.tag.value}, r={self.r}>(0)"
        bits = []
        for mask in sorted(self.terms, reverse=True):
            mono = "^".join(f"X{k}" for k in range(mask.bit_length() - 1, -1, -1)
                            if mask >> k & 1) or "1"
            bits.append(f"({self.terms[mask]})*{mono}")
        return f"ExtElement<{self.tag.value}>(" + " + ".join(bits) + ")"


def wedge(u: ExtElement, v: ExtElement) -> ExtElement:
    """Exterior product; degrees add, equal tags required.

    Two monomials sharing a factor give zero; otherwise the sign is the
    parity of the pairs (factor of u, factor of v) that sorting swaps, a
    bit of u below a bit of v."""
    if u.tag is not v.tag:
        raise TagMismatch(f"{u.tag.value} vs {v.tag.value}")
    products = []
    for ma, ca in u.terms.items():
        for mb, cb in v.terms.items():
            if ma & mb:
                continue
            swaps, rest = 0, mb
            while rest:
                top = rest.bit_length() - 1
                rest ^= 1 << top
                swaps += (ma & (1 << top) - 1).bit_count()
            products.append((ma | mb, ca, -cb if swaps & 1 else cb))
    return ExtElement._of(u.r + v.r, u.tag, _sum_by_key(products))


def unit_wedge(r: int, tag: BasisTag = BasisTag.PLAIN_X) -> ExtElement:
    """X^{r-1} ^ ... ^ X^1 ^ X^0; the same element in either basis."""
    return ExtElement.basis_monomial((1 << r) - 1, tag)


# -- basis conversion ---------------------------------------------------------

@memo
def xc_expand(j: int, n: int | None) -> tuple[MvPolynomial, ...]:
    """Coefficient vector of X^j(c) in the plain basis (entries for X^0..X^j).

    X^j(c) = X^j - c1 X^{j-1} + c2 X^{j-2} - ..., with c_i = 0 for i > n.
    """
    if j < 0:
        raise ValueError("exponent must be nonnegative")
    return tuple(reversed(c_series_coeffs(j, n)))


@memo
def x_in_xc(j: int, n: int | None) -> tuple[MvPolynomial, ...]:
    """Coefficient vector of X^j in the deformed basis: X^j = sum_k s_k X^{j-k}(c)."""
    if j < 0:
        raise ValueError("exponent must be nonnegative")
    return tuple(s_coefficient(j - m, n) for m in range(j + 1))


def convert_basis(u: ExtElement, tag: BasisTag, n: int | None) -> ExtElement:
    """Re-express an element in the other basis (triangular, unipotent)."""
    if u.tag is tag:
        return u
    expand = x_in_xc if tag is BasisTag.DEFORMED_XC else xc_expand
    # (factors still to convert, converted wedge) -> coefficient; the lowest
    # factor left is expanded and each of its terms X^m inserted in front of
    # the converted ones, past those above m; terms that reach the same key
    # are summed once
    partial = {(mask, 0): coeff for mask, coeff in u.terms.items()}
    for _ in range(u.r):
        products = []
        for (rest, done), pc in partial.items():
            low = rest & -rest
            for m, entry in enumerate(expand(low.bit_length() - 1, n)):
                if entry and not done >> m & 1:
                    products.append(((rest ^ low, done | 1 << m),
                                     -pc if (done >> m + 1).bit_count() & 1 else pc,
                                     entry))
        partial = _sum_by_key(products)
    return ExtElement._of(u.r, tag, {done: c for (_, done), c in partial.items()})


def reduce_mod_n(u: ExtElement, n: int) -> ExtElement:
    """Quotient by the span of X^m(c) for m >= n: drop those wedge factors.

    Valid in the deformed basis only, where X^m(c) = X^{m-n} * X^n(c) lies in
    the ideal generated by the generic monic polynomial.
    """
    if u.tag is not BasisTag.DEFORMED_XC:
        raise TagMismatch("reduction is defined on the deformed basis")
    kept = {mask: c for mask, c in u.terms.items() if not mask >> n}
    return ExtElement._of(u.r, u.tag, kept)


# -- linear forms and contraction ----------------------------------------------


class LinearForm:
    """A coordinate linear form on the module, evaluable in either basis."""

    def value(self, i: int, tag: BasisTag, n: int | None) -> MvPolynomial:
        raise NotImplementedError

    def slots(self, state: int, tag: BasisTag, n: int | None
              ) -> Sequence[tuple[int, int, MvPolynomial]]:
        """``(index, slot, value)`` for each factor X^index of the wedge whose
        Maya diagram is ``state`` on which the form is nonzero, in slot
        order."""
        return self._walk(state, 0, tag, n)

    def _walk(self, state: int, slot: int, tag: BasisTag, n: int | None
              ) -> list[tuple[int, int, MvPolynomial]]:
        """``slots`` over the set bits of ``state`` alone, the top one at
        ``slot``."""
        out = []
        while state:
            i = state.bit_length() - 1
            state ^= 1 << i
            val = self.value(i, tag, n)
            if val:
                out.append((i, slot, val))
            slot += 1
        return out


class _IndexForm(LinearForm):
    """A form named by one index j, 1 on the j-th vector of its own basis
    ``_own`` if it has one; forms of one class and j are equal."""

    __slots__ = ("j",)
    _own: BasisTag | None = None

    def __init__(self, j: int):
        if j < 0:
            raise ValueError("form index must be nonnegative")
        self.j = j

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.j == other.j

    def __hash__(self):
        return hash((self.__class__, self.j))

    def __repr__(self):
        return f"{self.__class__.__name__}({self.j})"

    def slots(self, state: int, tag: BasisTag, n: int | None
              ) -> Sequence[tuple[int, int, MvPolynomial]]:
        if tag is not self._own:
            return super().slots(state, tag, n)
        j = self.j   # bit j alone, valued 1
        return ((j, (state >> j + 1).bit_count(), ONE),) if state >> j & 1 else ()


class DeltaForm(_IndexForm):
    """The form reading off the coefficient of X^j (dual to the plain basis)."""

    __slots__ = ()
    _own = BasisTag.PLAIN_X

    def value(self, i: int, tag: BasisTag, n: int | None) -> MvPolynomial:
        if tag is BasisTag.PLAIN_X:
            return ONE if i == self.j else ZERO
        return xc_expand(i, n)[self.j] if self.j <= i else ZERO   # X^j in X^i(c)

    def slots(self, state: int, tag: BasisTag, n: int | None
              ) -> Sequence[tuple[int, int, MvPolynomial]]:
        if tag is self._own:
            return super().slots(state, tag, n)
        # X^b(c) has an X^j term only at j <= b <= j + n: c_k = 0 past k = n
        j = self.j
        top = state.bit_length() if n is None else j + n + 1
        return self._walk(state >> j << j & (1 << top) - 1,
                          (state >> top).bit_count(), tag, n)


class DualDeltaForm(_IndexForm):
    """The form dual to X^j(c): the coefficient of s(w) shifts the plain forms."""

    __slots__ = ()
    _own = BasisTag.DEFORMED_XC

    def value(self, i: int, tag: BasisTag, n: int | None) -> MvPolynomial:
        if tag is BasisTag.DEFORMED_XC:
            return ONE if i == self.j else ZERO
        return s_coefficient(i - self.j, n)   # ZERO below j


class _PositiveWForm(_IndexForm):
    """phi_k: X^m -> s_{m+k}(c), none of the forms del^j(s); X^i(c) (x) phi_k
    owns the coefficient at z^i w^k, k > 0, of the scaled generating form."""

    __slots__ = ()

    def value(self, i: int, tag: BasisTag, n: int | None) -> MvPolynomial:
        if tag is BasisTag.PLAIN_X:
            return s_coefficient(i + self.j, n)
        return _positive_w_value(i, self.j, n)


@memo
def _positive_w_value(l: int, k: int, n: int | None) -> MvPolynomial:
    """phi_k on X^l(c): sum_m xc_expand(l, n)[m] * s_{m+k}(c)."""
    return _sum_of_products((x, s_coefficient(m + k, n))
                            for m, x in enumerate(xc_expand(l, n)) if x)


def contract(form: LinearForm, u: ExtElement, n: int | None = None) -> ExtElement:
    """Interior product: alternating sum over slots, slot i signed (-1)^(i-1)."""
    if u.r < 1:
        raise DegreeZeroError("cannot contract a degree-zero element")
    return ExtElement._of(u.r - 1, u.tag, _sum_by_key(
        (mask ^ 1 << i, coeff, -val if slot % 2 else val)
        for mask, coeff in u.terms.items()
        for i, slot, val in form.slots(mask, u.tag, n)))


def w_value(j: int, n: int | None) -> BiLaurent:
    """All coordinate forms on X^j(c) at once: X^j(c) at X = 1/w.

    A Laurent polynomial w^-j - c1 w^(1-j) + ... with exponents in [-j, 0];
    its coefficient at w^-m is the value of ``DeltaForm(m)`` on X^j(c).
    """
    vec = xc_expand(j, n)
    return BiLaurent({(0, -m): p for m, p in enumerate(vec) if p},
                     (0, 0, -j, 0))


# -- residues -----------------------------------------------------------------


def residue(g: BiLaurent) -> MvPolynomial:
    """Coefficient of X^-1 in a Laurent expansion (the z-axis plays X)."""
    if not g.valid_at(-1, 0):
        raise WindowExcludesMinusOne(
            f"expansion window {g.window} does not cover exponent -1")
    return g.coeff(-1, 0)


def residue_tuple(gs: list[BiLaurent]) -> MvPolynomial:
    """Determinant of residues Res(X^k * g_t), rows k = 0..r-1.

    The columns are taken in the given order; callers follow the convention
    that the leading wedge factor comes first.
    """
    r = len(gs)
    if r == 0:
        raise ValueError("empty residue tuple")
    rows = []
    for k in range(r):
        rows.append([residue(g.shift(k, 0)) for g in gs])
    return exact_det(rows)


def expand_over_factor(f: list[MvPolynomial], r: int,
                       order: int | None = None) -> BiLaurent:
    """Expand f(X)/p_r(X) as a Laurent series in 1/X.

    1/p_r(X) = X^-r (1 + h1/X + h2/X^2 + ...) with the h's kept as free
    symbols; the series is truncated far enough down that every residue
    Res(X^k * result) for 0 <= k <= r-1 is exact.
    """
    deg = max((i for i, p in enumerate(f) if p), default=0)
    if order is None:
        order = deg + r + 1
    hs = h_symbol_series(order)
    low = deg - r - order  # below this the truncated sums are incomplete
    products = []
    for i, p in enumerate(f):
        if not p:
            continue
        for j, hj in enumerate(hs):
            zexp = i - r - j
            if zexp < low:
                break
            products.append(((zexp, 0), p, hj))
    return BiLaurent(_sum_by_key(products), (low, deg - r, 0, 0),
                     (False, True, True, True))


# -- Schur coordinates ----------------------------------------------------------


def wedge_coords(u: ExtElement, n: int | None) -> dict[Partition, MvPolynomial]:
    """Coordinates of u in the deformed wedge basis, keyed by partition.

    Converts to the deformed basis first when needed; the coefficients are
    polynomials in the c-variables only.
    """
    v = convert_basis(u, BasisTag.DEFORMED_XC, n)
    return {partition_of_mask(mask): coeff for mask, coeff in v.terms.items()}
