"""The star action on the decomposition algebra and its closed forms.

An operator f(X) (x) g(del) acts on a Schur basis element through the
exterior module: wedge f against the contraction of g with the corresponding
deformed wedge monomial, then read the result back through the rank-one
module isomorphism.  ``star_oracle`` does exactly that, slot by slot; it is
deliberately brute force and serves as the independent reference for the
closed forms below.

Every generating function is served from one walk over its operator
images in document order, ``_images``, each from the route that
``operator_image`` names.  The adapted operator X^i(c) (x) del^j(s) is the
matrix unit E_ij on the r-th exterior power of the deformed basis;
``_matrix_unit`` forms its image, a signed basis element or zero, by moving
one bit of the Maya diagram of lam.  On the quotient the basis is listed
once per (r, n), with its diagrams (``_basis``); the column maps of E_ij on
it (``_columns``) serve the matrices, and ``bracket_check`` checks the gl_n
law on them one column at a time.  The oracle serves the rest: the plain
operator X^i (x) del^j, a Z[c]-combination of matrix units, and X^i(c) (x)
phi_k, where phi_k values X^m at s_{m+k}(c), whose image is the coefficient
at z^i w^k, k > 0, of the adapted form; phi_k is none of the forms
del^j(s), and the image does not vanish under projection.

The closed forms package all operator images at once and check those
tables.  The kernel is an r x r determinant: first row the deformed
evaluations w^{-(r-j+lam_j)}(c), the remaining rows the two-term shifts
h_{lam_j-j+k}(c) - h_{...-1}(c)/z.  The series

    z^{r-1} * (sum_j h_j z^j) * det(...)

collects the images of X^i (x) del^j at z^i w^{-j}; scaling by c(z)/c(w)
switches to the adapted operators X^i(c) (x) del^j(s).  One builder,
``_closed_form``, makes every version of this product: the determinant's
w-exponents lie in [-(r-1+lam_1), 0], so carrying 1/c(w) to depth
r-1+lam_1+max(wmax, 0) makes every coefficient at w <= wmax exact.  The
quotient closed form ``_finite_closed_form`` is the adapted product cut at
w <= 0 and pushed through the rectangle normal form; a nonzero survivor
beyond z^{n-1}, checked up to an explicit margin, raises ``WindowViolation``.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from itertools import combinations, repeat
from operator import attrgetter
from types import MappingProxyType

from .bilaurent import BiLaurent
from .determinant import exact_det
from .errors import DegreeZeroError, WindowViolation
from .exterior import (BasisTag, DeltaForm, DualDeltaForm, LinearForm,
                       _PositiveWForm, w_value, x_in_xc)
from .module_iso import quotient_project, schur_map_of_poly, schur_map_to_poly
from .partitions import Partition, maya_mask, partition_of_mask
from .poly import MvPolynomial, ONE, ZERO, _sum_by_key, memo, series_mul
from .schubert import sigma_bar_minus_h
from .symfunc import (c_series_coeffs, generic_factor_poly,
                      generic_monic_coeffs, h_deformed, h_symbol_series,
                      s_coefficient)

_DEFORMED = BasisTag.DEFORMED_XC


class _Record:
    """A frozen record of the fields named in ``__slots__``.

    A subclass's ``__init__`` hands every slot's value, in slot order, to
    ``_set``.  A slot whose name starts with an underscore is derived from
    the others; the rest, in order, are the fields (``__match_args__``),
    which ``__init__`` takes positionally.  Records of one class are equal
    when their fields are; the hash is that of the field tuple, so a record
    holding a dict is unhashable.  Pickling rebuilds a record from its
    fields.  No slot can be reassigned or deleted.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls.__match_args__ = fields = tuple(
            name for name in cls.__slots__ if not name.startswith("_"))
        cls._values = property(attrgetter(*fields))   # the field tuple

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class StarOperator(_Record):
    """f(X) (x) g(del): a vector polynomial paired with a coordinate form.

    ``vector`` holds the coefficients of X^0, X^1, ... in the basis
    ``vector_tag``; ``_terms`` holds its nonzero (k, coefficient of X^k)
    pairs.
    """

    __slots__ = ("vector", "vector_tag", "form", "_terms")

    def __init__(self, vector: tuple[MvPolynomial, ...], vector_tag: BasisTag,
                 form: LinearForm):
        self._set(vector, vector_tag, form, tuple(
            (k, coeff) for k, coeff in enumerate(vector) if coeff))

    @staticmethod
    def plain(i: int, j: int) -> "StarOperator":
        vec = (ZERO,) * i + (ONE,)
        return StarOperator(vec, BasisTag.PLAIN_X, DeltaForm(j))

    @staticmethod
    def adapted(i: int, j: int) -> "StarOperator":
        vec = (ZERO,) * i + (ONE,)
        return StarOperator(vec, BasisTag.DEFORMED_XC, DualDeltaForm(j))


def star_oracle_coords(op: StarOperator, lam: Partition, r: int,
                       n: int | None = None, *, quotient: bool = True
                       ) -> dict[Partition, MvPolynomial]:
    """Schur coordinates of (f (x) g) acting on the basis element of lam.

    One pass over the Maya diagram of lam (``maya_mask``), an int whose set
    bits are the deformed wedge indices.  Each slot on which the form is
    nonzero clears its bit, with the sign (-1)^slot, slot being the number
    of bits set above it.  Each index k of the deformed vector is then
    wedged in: zero if bit k is set, else the bit is set with the sign of
    the bits above k.  The quotient drops every diagram with a bit at or
    above n, and ``partition_of_mask`` reads the survivors back.  The form
    names its nonzero slots from the diagram (``LinearForm.slots``), one
    at most for a form in its own basis.  When the vector coefficient
    and the form's value are both ``ONE``, as for every adapted operator
    X^i(c) (x) del^j(s), the image is a sign and is formed as a new constant
    1 or -1 without polynomial products; every coefficient returned is a
    new polynomial that belongs to the caller.

    With ``n`` set and ``quotient`` true, the computation happens in the rank
    n quotient module: wedge monomials with a factor of exponent >= n are
    dropped and the answer lives on rectangle partitions.  With ``quotient``
    false, n only bounds the c-variables.
    """
    if len(lam) > r:
        raise ValueError(f"partition {lam} longer than r={r}")
    if r < 1:
        raise DegreeZeroError("cannot contract a degree-zero element")
    state = maya_mask(lam, r)
    cut = n if n is not None and quotient else None
    picks = op.form.slots(state, _DEFORMED, n)
    # a plain vector is converted first, so its errors still surface
    if op.vector_tag is _DEFORMED:
        vector = op._terms
    elif len(op._terms) == 1 and op._terms[0][1] is ONE:   # a plain X^k
        vector = [(m, x) for m, x in enumerate(x_in_xc(op._terms[0][0], n)) if x]
    else:
        vector = tuple(_sum_by_key((m, a, x) for k, a in op._terms
                                   for m, x in enumerate(x_in_xc(k, n))).items())
    if not picks:
        return {}
    # summed inline, not through poly._sum_by_key: a request takes a few
    # microseconds, so one more call or generator per request would show
    coords: dict[Partition, MvPolynomial] = {}
    for k, a in vector:
        for i, slot, val in picks:
            rest = state ^ 1 << i
            if rest >> k & 1:
                continue
            merged = rest | 1 << k
            if cut is not None and merged >> cut:
                continue
            # contraction sign times insertion sign
            odd = slot + (rest >> k + 1).bit_count() & 1
            if a is ONE and val is ONE:
                coeff = MvPolynomial._of({0: -1 if odd else 1})
            else:
                coeff = -(a * val) if odd else a * val
            mu = partition_of_mask(merged)
            s = coords.get(mu)
            if s is None:
                coords[mu] = coeff
            else:
                s = s + coeff
                if s:
                    coords[mu] = s
                else:
                    del coords[mu]
    if cut is not None:
        for mu in coords:
            if mu and mu[0] > n - r:
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


class ActionResult(_Record):
    """A generating function of star-action images on one basis element.

    ``dual`` is "plain" or "adapted".  ``schur_form`` maps (z-exp, w-exp) to
    the Schur coordinates of that coefficient.  ``window`` is the asked
    (zmax, wmin, wmax): z in [0, zmax], w in [wmin, wmax], a wmin of None
    bounding nothing.  The finite form holds the ints 1 and -1, exact at
    every (i, j), and its ``window`` is None.  For the adapted form read
    with wmax > 0, the nonzero images of X^i(c) (x) phi_k at (i, k), k > 0,
    are kept in ``positive_w`` instead of ``schur_form``; it defaults to a
    new empty dict.  The fields cannot be reassigned; the maps in them are
    built per call and belong to the caller.
    """

    __slots__ = ("lam", "r", "n", "dual", "window", "schur_form", "positive_w")

    def __init__(
            self, lam: Partition, r: int, n: int | None, dual: str,
            window: tuple[int, int | None, int] | None,
            schur_form: Mapping[tuple[int, int],
                                Mapping[Partition, int | MvPolynomial]],
            positive_w: Mapping[tuple[int, int],
                                Mapping[Partition, MvPolynomial]] | None = None):
        self._set(lam, r, n, dual, window, schur_form,
                  {} if positive_w is None else positive_w)

    def coords_at(self, i: int, j: int) -> Mapping[Partition, int | MvPolynomial]:
        """Schur coordinates of the image under the (z^i, w^-j) operator.

        Operators are indexed by i, j >= 0; a negative index names none of
        them and raises ``ValueError``; one outside ``window`` raises
        ``WindowViolation``.
        """
        if i < 0 or j < 0:
            raise ValueError(f"operator indices must be nonnegative, got ({i}, {j})")
        if self.window is not None:
            zmax, wmin, wmax = self.window
            if i > zmax or -j > wmax or (wmin is not None and -j < wmin):
                raise WindowViolation(
                    f"(z^{i}, w^-{j}) outside computed window {self.window}")
        return self.schur_form.get((i, -j), {})

    def to_json(self) -> dict:
        """The lambda, r, n and dual, and one term per coefficient of
        ``schur_form`` in the order (-w, z), its coordinates sorted by
        partition; ``window`` and ``positive_w`` are left out.  The CLI
        writes the same document from ``_images`` (``cli._genfun_json``)."""
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


def operator_image(i: int, w: int, lam: Partition, r: int, n: int | None,
                   dual: str, *, quotient: bool
                   ) -> dict[Partition, int | MvPolynomial]:
    """Schur coordinates of lam's image under the operator at z^i w^w of the
    ``dual`` ("plain" or "adapted") form: the matrix unit E_ij at w = -j for
    "adapted", else the oracle's X^i (x) del^j or, at w = k > 0, X^i(c) (x)
    phi_k.  A matrix unit is the same in and out of the quotient."""
    if w <= 0 and dual == "adapted":
        image = _matrix_unit(i, -w, maya_mask(lam, r))
        return {} if image is None else dict([image])
    op = StarOperator.plain(i, -w) if w <= 0 else StarOperator(
        (ZERO,) * i + (ONE,), _DEFORMED, _PositiveWForm(w))
    return star_oracle_coords(op, lam, r, n, quotient=quotient)


def _images(lam: Partition, r: int, n: int | None, dual: str,
            window: tuple[int, int | None, int]
            ) -> Iterator[tuple[int, int, Sequence[tuple[Partition, int | MvPolynomial]]]]:
    """The nonzero images (``operator_image``, out of the quotient) of the
    operators in ``window``, as (i, w, its (partition, coefficient) pairs
    by partition), w from the top down, then i upwards: the order of the
    documents.  Every image below w^-(r-1+lam_1) is zero; a window that
    misses [-(r-1+lam_1), max(wmax, 0)] raises ``ValueError`` once iterated.

    The adapted operator at w = -j <= 0 is the matrix unit E_ij, which
    moves the particle at j, so ``_matrix_unit`` is asked only at the
    columns j that hold a particle of the Maya diagram of lam, computed
    once; w^-(r-1+lam_1) is the top one.  Every other operator is asked
    for at each (i, w) of the window."""
    zmax, wmin, wmax = window
    if zmax < 0:
        raise ValueError("zmax must be nonnegative")
    wlo = -(r - 1 + lam.part(1))
    asked = wlo if wmin is None else wmin
    if max(wlo, asked) > wmax:
        raise ValueError(f"wmin/wmax ask for the w-window [{asked}, {wmax}], which "
                         f"misses the product's w-range [{wlo}, {max(wmax, 0)}]")
    state = maya_mask(lam, r) if dual == "adapted" else None
    zs = range(zmax + 1)
    for w in range(wmax, max(wlo, asked) - 1, -1):
        if w > 0 or state is None:
            for i in zs:
                if coords := operator_image(i, w, lam, r, n, dual, quotient=False):
                    yield i, w, sorted(coords.items())
        elif state >> -w & 1:
            for i in zs:
                if image := _matrix_unit(i, -w, state):
                    yield i, w, (image,)


def _image_table(lam: Partition, r: int, n: int | None, dual: str,
                 window: tuple[int, int | None, int]) -> dict:
    """The images of ``_images`` keyed (i, w), in its order."""
    return {(i, w): dict(coords) for i, w, coords in _images(lam, r, n, dual, window)}


def generating_action(lam: Partition, r: int, zmax: int, wmin: int | None = None,
                      n: int | None = None) -> ActionResult:
    """Images of all X^i (x) del^j on one basis element, packaged at z^i w^-j.

    The result window is z in [0, zmax], w in [wmin, 0], and every image
    below w^-(r-1+lam_1) is zero; a ``wmin`` above 0 leaves no w-exponent and
    raises ``ValueError``.  ``n`` bounds the c-variables only; ``n=0``
    specialises every c to zero.
    """
    window = (zmax, wmin, 0)
    return ActionResult(lam, r, n, "plain", window,
                        _image_table(lam, r, n, "plain", window))


def generating_action_adapted(lam: Partition, r: int, n: int, zmax: int,
                              wmin: int | None = None, wmax: int = 0) -> ActionResult:
    """The scaled form c(z)/c(w) for the adapted operators X^i(c) (x) del^j(s).

    Every coefficient at w <= 0 is one matrix unit; with ``wmax`` > 0, those
    at w^k, k > 0, the images of X^i(c) (x) phi_k, go into ``positive_w``.  A
    window that misses the product's w-range raises ``ValueError``.
    """
    window = (zmax, wmin, wmax)
    table = _image_table(lam, r, n, "adapted", window)
    return ActionResult(lam, r, n, "adapted", window,
                        {key: v for key, v in table.items() if key[1] <= 0},
                        {key: v for key, v in table.items() if key[1] > 0})


def _finite_closed_form(lam: Partition, r: int, n: int, zero_c: bool = False
                        ) -> dict[tuple[int, int], dict[Partition, MvPolynomial]]:
    """The Schur form of ``generating_action_finite`` from the closed form.

    The adapted product is cut at w <= 0 and every coefficient projected to
    the r x (n-r) rectangle.  A survivor beyond z^{n-1} or below w^{-(n-1)}
    raises ``WindowViolation``; the vanishing beyond z^{n-1} is checked up
    to max(2, r) extra orders.
    """
    ambient = 0 if zero_c else n
    prod = _closed_form(lam, r, ambient, n - 1 + max(2, r), wmax=0)
    schur: dict[tuple[int, int], dict[Partition, MvPolynomial]] = {}
    for (z, w), coeff in sorted(prod.coeffs.items()):
        coords = {mu: v for mu, v in schur_map_of_poly(coeff, r, ambient).items()
                  if mu.part(1) <= n - r}
        if not coords:
            continue
        if z > n - 1 or w < -(n - 1):
            raise WindowViolation(
                f"nonzero projected coefficient at z^{z} w^{w}, outside z <= "
                f"{n - 1}, w >= {-(n - 1)}, for lambda={lam}, r={r}, n={n}")
        schur[(z, w)] = coords
    return schur


def generating_action_finite(lam: Partition, r: int, n: int) -> ActionResult:
    """The full quotient-module structure on one rectangle basis element.

    The coefficient at z^i w^-j is the image of X^i(c) (x) del^j(s), one
    matrix unit for every i, j in [0, n-1]; the Schur form equals the
    closed form ``_finite_closed_form``.  Every coefficient is an exact
    signed basis element, so the result has no window.
    """
    if not (1 <= r <= n):
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if not lam.fits_rectangle(r, n - r):
        raise ValueError(f"partition {lam} does not fit {r}x{n - r}")
    return ActionResult(lam, r, n, "adapted", None, _image_table(
        lam, r, n, "adapted", (n - 1, None, 0)))


# -- representation matrices -------------------------------------------------------


class RepMatrix(_Record):
    """The matrix of one adapted basis operator on the rectangle Schur basis.

    ``entries`` maps (row, column) partitions of ``basis`` to the int 1 or
    -1; missing entries are zero.  ``rep_matrix`` lists them column by
    column in basis order, the order of ``to_json``.
    """

    __slots__ = ("i", "j", "r", "n", "basis", "entries")

    def __init__(self, i: int, j: int, r: int, n: int,
                 basis: tuple[Partition, ...],
                 entries: Mapping[tuple[Partition, Partition], int]):
        self._set(i, j, r, n, basis, entries)

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


def _matrix_unit(i: int, j: int, state: int) -> tuple[Partition, int] | None:
    """E_ij on the basis wedge whose Maya diagram is ``state`` (``maya_mask``).

    In the fermionic reading of Date, Jimbo, Kashiwara and Miwa the set bits
    are the positions of r particles, and E_ij moves the particle at j to
    the hole at i: del^j(s) clears bit j and X^i(c) sets bit i.  The sign is
    (-1)^height, height being the number of particles strictly between i
    and j.  On partitions this adds (i > j) or removes (i < j) a border
    strip of |i - j| cells and that height.  The answer is (mu, 1),
    (mu, -1) or None, when bit j is clear or bit i is taken.
    """
    rest = state ^ 1 << j
    if not state >> j & 1 or rest >> i & 1:
        return None
    # bits i and j of rest are clear, so the counts above them differ by
    # the height
    odd = (rest >> i).bit_count() + (rest >> j).bit_count() & 1
    return partition_of_mask(rest | 1 << i), -1 if odd else 1


def quotient_action(i: int, j: int, lam: Partition, r: int, n: int
                    ) -> tuple[Partition, int] | None:
    """The image of X^i(c) (x) del^j(s) on the quotient basis element of lam,
    the matrix unit E_ij: (mu, 1), (mu, -1) or None."""
    _check_quotient(i, j, r, n)
    if not lam.fits_rectangle(r, n - r):
        raise ValueError(f"partition {lam} does not fit {r}x{n - r}")
    return _matrix_unit(i, j, maya_mask(lam, r))


def _check_quotient(i: int, j: int, r: int, n: int) -> None:
    if not (0 <= i <= n - 1 and 0 <= j <= n - 1):
        raise ValueError(f"operator indices must lie in [0, {n - 1}]")
    if not (1 <= r <= n):
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")


@memo
def _basis(r: int, n: int) -> tuple[tuple[Partition, int], ...]:
    """The quotient basis in the order of ``partitions_in_rectangle``: one
    pair (lam, ``maya_mask(lam, r)``) per r-subset of range(n).

    The bit positions of the diagram of lam sum to |lam| + r(r-1)/2, and
    among diagrams of one size the masks are ordered as the parts, so the
    pairs (sum, mask) sort in basis order.  Each lam is the partition
    ``partition_of_mask`` keeps for its diagram, the object every image of
    ``_matrix_unit`` holds.
    """
    states = sorted((sum(bits), sum([1 << b for b in bits]))
                    for bits in combinations(range(n), r))
    return tuple((partition_of_mask(state), state) for _, state in states)


@memo
def _columns(i: int, j: int, r: int, n: int
             ) -> Mapping[Partition, tuple[Partition, int] | None]:
    """The columns of E_ij on the quotient, in basis order (``_basis``):
    each basis element lam maps to its image (mu, 1), (mu, -1) or None
    (``_matrix_unit``).  The indices are checked as ``quotient_action``
    checks them, once for the whole basis.  An image's partition is a key
    of the map, the same object, so looking it up as a column compares no
    parts.  The map is read-only and its values are immutable, so ``memo``
    keeps it as it is.
    """
    _check_quotient(i, j, r, n)
    return MappingProxyType({lam: _matrix_unit(i, j, state)
                             for lam, state in _basis(r, n)})


def rep_matrix(i: int, j: int, r: int, n: int) -> RepMatrix:
    """Representation matrix of X^i(c) (x) del^j(s) on the quotient basis.

    The operator is a matrix unit, a signed partial permutation: each
    column holds one entry, 1 or -1, or none (``_columns``), so no
    polynomial arithmetic is done.  The entries are listed column by
    column in basis order.  The closed form and the oracle remain as
    cross-checks in the tests and suites.
    """
    columns = _columns(i, j, r, n)
    return RepMatrix(i, j, r, n, tuple(columns), {
        (image[0], lam): image[1]
        for lam, image in columns.items() if image is not None})


def bracket_check(a: int, b: int, c: int, d: int, r: int, n: int) -> bool:
    """Verify [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb on the quotient.

    A matrix unit is a signed partial permutation (``_columns``), so column
    lam of the product AB is B's entry in it moved on by A, and each side
    of the law has at most two signed entries in a column.  The law is
    checked one column at a time, in basis order, with no matrix built:
    the four entries of AB - BA - E_ad + E_cb must cancel.
    """
    A, B = _columns(a, b, r, n), _columns(c, d, r, n)
    AD = _columns(a, d, r, n).values() if b == c else repeat(None)
    CB = _columns(c, b, r, n).values() if d == a else repeat(None)
    for x, y, ad, cb in zip(A.values(), B.values(), AD, CB):
        if not (x or y or ad or cb):
            continue
        sums = {}   # AB - BA - E_ad + E_cb on this column
        if y and (ab := A[y[0]]):
            sums[ab[0]] = ab[1] * y[1]
        if x and (ba := B[x[0]]):
            sums[ba[0]] = sums.get(ba[0], 0) - ba[1] * x[1]
        if ad:
            sums[ad[0]] = sums.get(ad[0], 0) - ad[1]
        if cb:
            sums[cb[0]] = sums.get(cb[0], 0) + cb[1]
        if any(sums.values()):
            return False
    return True


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
