"""Exact sparse multivariate polynomial arithmetic over the rationals.

This is the coefficient ring for everything else in the package.  There are
three families of variables:

  c1, c2, ...   coefficients of the generic monic polynomial (scalars),
  e1, ..., er   elementary generators of the decomposition algebra,
  h1, h2, ...   complete generators, treated as an infinite free family.

A variable is a pair ``(family, index)`` with integer family codes
C(0) < E(1) < H(2); a monomial is a tuple of ``(variable, exponent)`` pairs
sorted by variable, and a polynomial maps monomials to nonzero rational
coefficients.  Inside, a monomial is one int of 16-bit fields: field 0
holds the degree, and each variable gets the next field on first use, so
multiplying monomials adds their ints.  A field's top bit is a guard: an
exponent or degree above 32767 raises ``ExponentOverflow`` and never
carries into the next field.  ``terms`` reads this packed dict with tuple
keys: a ``Mapping`` whose ``len`` is O(1) and whose one write is ``clear``.

The zero polynomial stores no terms.  Coefficients are exact rationals in
lowest terms: ``fractions.Fraction`` when the denominator is nontrivial and
plain ``int`` otherwise (ints are canonical denominator-1 rationals; they
expose the same ``numerator``/``denominator`` interface and compare and hash
consistently with ``Fraction``, while their arithmetic is an order of
magnitude faster on the all-integer computations that dominate here).
Every operation is a pure function and returns a new polynomial that
belongs to the caller.  Every cache of the package is a ``memo`` table,
which freezes the packed dicts of the values it hands out.

Canonical renderings (text and JSON) list terms in graded-lexicographic
order: higher total degree first, ties broken by comparing exponents on the
largest variable downwards (family order c < e < h, index ascending).  Both
renderings are deterministic byte-for-byte.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache, reduce, wraps
from itertools import repeat, starmap
from operator import itemgetter, or_
from struct import Struct
from types import MappingProxyType

from .errors import ExponentOverflow, NonUnitConstantTerm

FAM_C, FAM_E, FAM_H = 0, 1, 2
_FAM_NAMES = ("c", "e", "h")

Var = tuple[int, int]          # (family, index), index >= 1
Mono = tuple[tuple[Var, int], ...]  # ((var, exp), ...), var-sorted, exp > 0
Coeff = int | Fraction         # always in lowest terms; int when denominator 1

_FIELD = 16                          # bits per field, the "H" of _layout
_MAX_EXP = (1 << (_FIELD - 1)) - 1   # the top bit of a field is its guard
_SHIFTS: dict[Var, int] = {}         # variable -> bit offset of its field
_VARS: list[Var] = []                # the variable of field k + 1


def _ratio(q) -> Coeff:
    """Normalise a rational input: Fraction with denominator 1 becomes int."""
    if isinstance(q, int):
        return q
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def var_name(v: Var) -> str:
    return f"{_FAM_NAMES[v[0]]}{v[1]}"


def parse_var(name: str) -> Var:
    fam = name[0]
    if fam not in _FAM_NAMES or not name[1:].isdigit():
        raise ValueError(f"not a variable name: {name!r}")
    idx = int(name[1:])
    if idx < 1:
        raise ValueError(f"variable index must be positive: {name!r}")
    return (_FAM_NAMES.index(fam), idx)


def _layout() -> None:
    """Recompute the tables that read the fields of a packed monomial."""
    global _GUARDS, _FIELDS, _KEY, _ASC, _DESC
    n = len(_VARS) + 1                   # field 0 holds the degree
    _GUARDS = sum(1 << (_FIELD * k + _FIELD - 1) for k in range(n))
    _FIELDS = Struct(f"<{n}H")           # little-endian bytes -> fields
    _KEY = Struct(f">{n}H")              # fields -> big-endian bytes
    _ASC = sorted((v, k) for k, v in enumerate(_VARS, 1))
    # fields -> (degree, exponents by descending variable): graded-lex keys
    _DESC = itemgetter(0, *[k for _, k in reversed(_ASC)]) if _ASC else tuple


_layout()


def _shift(v: Var) -> int:
    """Bit offset of v's exponent field; the first use of v appends one."""
    s = _SHIFTS.get(v)
    if s is None:
        if v[0] not in (FAM_C, FAM_E, FAM_H) or v[1] < 1:
            raise ValueError(f"not a (family, positive index) variable: {v!r}")
        _VARS.append(v)
        s = _SHIFTS[v] = _FIELD * len(_VARS)
        _layout()
    return s


def _pack(mono) -> int:
    """The packed monomial of ``(var, exp)`` pairs given in any order."""
    m = 0
    for v, e in mono:
        if e < 0:
            raise ValueError(f"negative exponent in monomial {mono!r}")
        m += (e << _shift(v)) + e
        if e > _MAX_EXP or m & _GUARDS:
            raise ExponentOverflow(f"exponent or degree above {_MAX_EXP}")
    return m


def _unpack(m: int) -> Mono:
    """The canonical ``((var, exp), ...)`` tuple of a packed monomial."""
    f = _FIELDS.unpack(m.to_bytes(_FIELDS.size, "little"))
    return tuple([(v, f[k]) for v, k in _ASC if f[k]])


class _PerMonomial(dict):
    """``packed monomial -> tuple of f(var, exp)``, filled on first use."""

    def __init__(self, f):
        self.f = f

    def __missing__(self, m):
        value = self[m] = tuple(map(self.f, _unpack(m)))
        return value


_MONO_STR = _PerMonomial(lambda p: var_name(p[0]) if p[1] == 1
                          else f"{var_name(p[0])}^{p[1]}")


class _Terms(Mapping):
    """``MvPolynomial.terms``: the packed store read with ``Mono`` keys."""

    __slots__ = ("_t",)

    def __init__(self, packed):
        self._t = packed

    def __len__(self):
        return len(self._t)

    def __iter__(self):
        return map(_unpack, self._t)

    def __getitem__(self, mono):
        return self._t[_pack(mono)]

    def clear(self):   # the one write: it fails on a frozen polynomial
        self._t.clear()


class MvPolynomial:
    """A sparse exact-rational polynomial in the c/e/h variables."""

    __slots__ = ("_t",)   # packed monomial -> coefficient

    def __init__(self, terms: Mapping[Mono, Coeff] | None = None):
        out: dict[int, Coeff] = {}
        for mono, q in (terms or {}).items():   # equal monomials are summed
            m = _pack(mono)
            out[m] = out.get(m, 0) + _ratio(q)
        self._t = {m: _ratio(q) for m, q in out.items() if q}

    @property
    def terms(self) -> _Terms:
        """``Mono -> Coeff``: a view of the packed terms."""
        return _Terms(self._t)

    def __reduce__(self):   # packed ints mean nothing in another process
        return MvPolynomial, (dict(self.terms),)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _of(terms: dict) -> "MvPolynomial":
        """Trusted constructor: packed canonical ``terms``, kept as given."""
        p = MvPolynomial.__new__(MvPolynomial)
        p._t = terms
        return p

    def _freeze(self) -> None:
        """Make the packed store a read-only view of the same dict, in place."""
        if type(self._t) is dict:
            self._t = MappingProxyType(self._t)

    @staticmethod
    def zero() -> "MvPolynomial":
        return MvPolynomial._of({})

    @staticmethod
    def one() -> "MvPolynomial":
        return MvPolynomial._of({0: 1})

    @staticmethod
    def const(q) -> "MvPolynomial":
        q = _ratio(q)
        return MvPolynomial._of({0: q} if q else {})

    @staticmethod
    def variable(fam: int, idx: int) -> "MvPolynomial":
        return MvPolynomial._of({(1 << _shift((fam, idx))) + 1: 1})

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(other) -> "MvPolynomial":
        if isinstance(other, MvPolynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return MvPolynomial.const(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "MvPolynomial":
        other = MvPolynomial._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = self._t.copy()
        for m, q in other._t.items():
            s = out.get(m)
            if s is None:
                out[m] = q
            else:
                s = s + q
                if s:
                    out[m] = s
                else:
                    del out[m]
        return MvPolynomial._of(out)

    __radd__ = __add__

    def __neg__(self) -> "MvPolynomial":
        return MvPolynomial._of({m: -q for m, q in self._t.items()})

    def __sub__(self, other) -> "MvPolynomial":
        other = MvPolynomial._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MvPolynomial":
        return MvPolynomial._coerce(other) + (-self)

    def __mul__(self, other) -> "MvPolynomial":
        if isinstance(other, (int, Fraction)):
            if not other:
                return MvPolynomial()
            q0 = _ratio(other)
            return MvPolynomial._of({m: q * q0 for m, q in self._t.items()})
        if not isinstance(other, MvPolynomial):
            return NotImplemented
        out: dict[int, Coeff] = {}
        get = out.get
        b_items = other._t.items()
        for ma, qa in self._t.items():
            for mb, qb in b_items:
                m = ma + mb
                s = get(m)
                if s is None:
                    out[m] = qa * qb
                else:
                    s = s + qa * qb
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        if out and reduce(or_, out) & _GUARDS:   # fields <= 2 * _MAX_EXP
            raise ExponentOverflow(f"exponent or degree above {_MAX_EXP}")
        return MvPolynomial._of(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MvPolynomial":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = MvPolynomial.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self) -> bool:
        return bool(self._t)

    def __eq__(self, other) -> bool:
        other = MvPolynomial._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        return hash(frozenset(self._t.items()))

    def constant_term(self) -> Coeff:
        return self._t.get(0, 0)

    def variables(self) -> set[Var]:
        return {v for v, _ in _unpack(reduce(or_, self._t, 0))}

    # -- substitutions -------------------------------------------------------

    def specialize_family_zero(self, fam: int) -> "MvPolynomial":
        """Set every variable of the given family to zero."""
        mask = sum(((1 << _FIELD) - 1) << s for v, s in _SHIFTS.items()
                   if v[0] == fam)
        return MvPolynomial._of({m: q for m, q in self._t.items()
                                 if not m & mask})

    def substitute(self, images: Mapping[Var, "MvPolynomial"]) -> "MvPolynomial":
        """Replace each mapped variable by its image polynomial."""
        powers: dict[tuple[Var, int], MvPolynomial] = {}
        total = MvPolynomial.zero()
        for m, q in self._t.items():
            term = MvPolynomial.const(q)
            for v, e in _unpack(m):
                powed = powers.get((v, e))
                if powed is None:
                    img = images.get(v)
                    powed = powers[v, e] = (
                        MvPolynomial.variable(*v) if img is None else img) ** e
                term = term * powed
            total = total + term
        return total

    # -- canonical renderings ----------------------------------------------

    def _sorted(self) -> list[tuple[int, Coeff]]:
        """Packed terms in the canonical graded-lex order (leading first)."""
        # every key is built by C-level maps; distinct monomials never tie
        fields = map(_FIELDS.unpack, map(int.to_bytes, self._t,
                                         repeat(_FIELDS.size), repeat("little")))
        keys = starmap(_KEY.pack, map(_DESC, fields))
        return [t for _, t in sorted(zip(keys, self._t.items()), reverse=True)]

    def sorted_terms(self) -> list[tuple[Mono, Coeff]]:
        """Terms in the canonical graded-lex order (leading term first)."""
        return [(_unpack(m), q) for m, q in self._sorted()]

    def __str__(self) -> str:
        pieces = []
        for m, q in self._sorted():
            mono, a = "*".join(_MONO_STR[m]), abs(q)
            body = (mono if a == 1 else f"{a}*{mono}") if mono else str(a)
            pieces.append(("- " if q < 0 else "+ ") + body)
        text = " ".join(pieces)
        return "-" + text[2:] if text.startswith("-") else text[2:] or "0"

    def __repr__(self) -> str:
        return f"MvPolynomial({self})"

    def to_json(self) -> dict:
        return {"terms": [{"exps": {var_name(v): e for v, e in _unpack(m)},
                           "num": str(q.numerator), "den": str(q.denominator)}
                          for m, q in self._sorted()]}

    @staticmethod
    def from_json(doc: dict) -> "MvPolynomial":
        return MvPolynomial({
            tuple((parse_var(name), e) for name, e in t["exps"].items()):
            Fraction(int(t["num"]), int(t["den"])) for t in doc["terms"]})


_MEMO_TABLES: list = []


def _frozen(value):
    """``value`` made read-only: dicts become views and tuples stay tuples,
    of frozen items; ``_freeze`` runs in place; ints and partitions pass."""
    if isinstance(value, dict):
        return MappingProxyType({k: _frozen(v) for k, v in value.items()})
    if isinstance(value, tuple):
        return tuple(map(_frozen, value))
    if hasattr(value, "_freeze"):
        value._freeze()
    return value


def memo(fn):
    """Memoise ``fn`` without bound: each value is frozen once, as it enters
    the ``lru_cache`` returned, which ``clear_caches`` empties."""
    table = lru_cache(maxsize=None)(wraps(fn)(lambda *args: _frozen(fn(*args))))
    _MEMO_TABLES.append(table)
    return table


def clear_caches() -> None:
    """Empty every ``memo`` table of the package."""
    for table in _MEMO_TABLES:
        table.cache_clear()


ZERO = _frozen(MvPolynomial.zero())
ONE = _frozen(MvPolynomial.one())


def c_(i: int) -> MvPolynomial:
    return MvPolynomial.variable(FAM_C, i)


def e_(i: int) -> MvPolynomial:
    return MvPolynomial.variable(FAM_E, i)


def h_(i: int) -> MvPolynomial:
    return MvPolynomial.variable(FAM_H, i)


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
            if coeffs[k]:
                acc = acc + coeffs[k] * inv[m - k]
        inv.append(-acc)
    return inv


def series_mul(a: Iterable[MvPolynomial], b: Iterable[MvPolynomial],
               order: int) -> list[MvPolynomial]:
    """Product of two univariate series, truncated at ``z^order``."""
    a = list(a)
    b = list(b)
    out = [MvPolynomial.zero() for _ in range(order + 1)]
    for i, ai in enumerate(a):
        if i > order or not ai:
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out
