"""Exact sparse multivariate polynomial arithmetic over the rationals.

This is the coefficient ring for everything else in the package.  There are
three families of variables:

  c1, c2, ...   coefficients of the generic monic polynomial (scalars),
  e1, ..., er   elementary generators of the decomposition algebra,
  h1, h2, ...   complete generators, treated as an infinite free family.

A variable is a pair ``(family, index)`` with integer family codes
C(0) < E(1) < H(2); a monomial is a tuple of ``(variable, exponent)`` pairs
sorted by variable, and a polynomial maps monomials to nonzero rational
coefficients:

  h1*h2 - c1  ->  {(((2,1),1), ((2,2),1)): 1, (((0,1),1),): -1}

The zero polynomial stores no terms.  Coefficients are exact rationals in
lowest terms: ``fractions.Fraction`` when the denominator is nontrivial and
plain ``int`` otherwise (ints are canonical denominator-1 rationals; they
expose the same ``numerator``/``denominator`` interface and compare and hash
consistently with ``Fraction``, while their arithmetic is an order of
magnitude faster on the all-integer computations that dominate here).
Polynomial equality is plain structural equality of the term dictionaries.
Every operation is a pure function and returns a new polynomial whose
``terms`` dict belongs to the caller.  Every cache of the package is a
``memo`` table, which hands out values frozen to read-only views.

Canonical renderings (text and JSON) list terms in graded-lexicographic
order: higher total degree first, ties broken by comparing exponents on the
largest variable downwards (family order c < e < h, index ascending).  Both
renderings are deterministic byte-for-byte.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, wraps
from types import MappingProxyType
from typing import Iterable, Mapping

FAM_C, FAM_E, FAM_H = 0, 1, 2
_FAM_NAMES = ("c", "e", "h")

Var = tuple[int, int]          # (family, index), index >= 1
Mono = tuple[tuple[Var, int], ...]  # ((var, exp), ...), var-sorted, exp > 0
Coeff = int | Fraction         # always in lowest terms; int when denominator 1

_EMPTY_MONO: Mono = ()


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


def _mul_mono(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


class MvPolynomial:
    """A sparse exact-rational polynomial in the c/e/h variables."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Mono, Coeff] | None = None):
        if terms is None:
            self.terms: dict[Mono, Coeff] = {}
        else:
            self.terms = {m: _ratio(q) for m, q in terms.items() if q != 0}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _of(terms: dict) -> "MvPolynomial":
        """Trusted constructor: ``terms`` is already canonical and is kept."""
        p = MvPolynomial.__new__(MvPolynomial)
        p.terms = terms
        return p

    def _freeze(self) -> None:
        """Make ``terms`` a read-only view of the same dict, in place."""
        if type(self.terms) is dict:
            self.terms = MappingProxyType(self.terms)

    @staticmethod
    def zero() -> "MvPolynomial":
        return MvPolynomial()

    @staticmethod
    def one() -> "MvPolynomial":
        return MvPolynomial({_EMPTY_MONO: 1})

    @staticmethod
    def const(q) -> "MvPolynomial":
        q = _ratio(q)
        return MvPolynomial({_EMPTY_MONO: q}) if q else MvPolynomial()

    @staticmethod
    def variable(fam: int, idx: int) -> "MvPolynomial":
        if idx < 1:
            raise ValueError("variable index must be positive")
        return MvPolynomial({(((fam, idx), 1),): 1})

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
        out = self.terms.copy()
        for m, q in other.terms.items():
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
        return MvPolynomial._of({m: -q for m, q in self.terms.items()})

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
            return MvPolynomial._of({m: q * q0 for m, q in self.terms.items()})
        if not isinstance(other, MvPolynomial):
            return NotImplemented
        out: dict[Mono, Coeff] = {}
        get = out.get
        for ma, qa in self.terms.items():
            for mb, qb in other.terms.items():
                m = _mul_mono(ma, mb)
                s = get(m)
                if s is None:
                    out[m] = qa * qb
                else:
                    s = s + qa * qb
                    if s:
                        out[m] = s
                    else:
                        del out[m]
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
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        other = MvPolynomial._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def constant_term(self) -> Coeff:
        return self.terms.get(_EMPTY_MONO, 0)

    def variables(self) -> set[Var]:
        out: set[Var] = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    # -- substitutions -------------------------------------------------------

    def specialize_family_zero(self, fam: int) -> "MvPolynomial":
        """Set every variable of the given family to zero."""
        return MvPolynomial._of({m: q for m, q in self.terms.items()
                                 if all(v[0] != fam for v, _ in m)})

    def substitute(self, images: Mapping[Var, "MvPolynomial"]) -> "MvPolynomial":
        """Replace each mapped variable by its image polynomial."""
        pow_cache: dict[tuple[Var, int], MvPolynomial] = {}
        total = MvPolynomial.zero()
        for m, q in self.terms.items():
            kept = []
            factor = None
            for v, e in m:
                img = images.get(v)
                if img is None:
                    kept.append((v, e))
                    continue
                key = (v, e)
                powed = pow_cache.get(key)
                if powed is None:
                    powed = img ** e
                    pow_cache[key] = powed
                factor = powed if factor is None else factor * powed
            base = MvPolynomial({tuple(kept): q})
            total = total + (base if factor is None else base * factor)
        return total

    # -- canonical renderings ----------------------------------------------

    def sorted_terms(self) -> list[tuple[Mono, Coeff]]:
        """Terms in the canonical graded-lex order (leading term first)."""
        # Descending (degree, reversed monomial).  A monomial lists its
        # (var, exp) pairs by ascending variable, so reversals compare the
        # largest variable first (present beats absent, i.e. exponent 0),
        # then its exponent, and so on downwards: the graded-lex order of
        # the module docstring.  Distinct monomials never tie.
        return sorted(self.terms.items(),
                      key=lambda t: (_mono_degree(t[0]), t[0][::-1]),
                      reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for m, q in self.sorted_terms():
            mono = "*".join(
                var_name(v) if e == 1 else f"{var_name(v)}^{e}" for v, e in m
            )
            if not mono:
                body = str(abs(q))
            elif abs(q) == 1:
                body = mono
            else:
                body = f"{abs(q)}*{mono}"
            pieces.append(("- " if q < 0 else "+ ") + body)
        first = pieces[0]
        head = ("-" + first[2:]) if first.startswith("- ") else first[2:]
        return " ".join([head] + pieces[1:])

    def __repr__(self) -> str:
        return f"MvPolynomial({self})"

    def to_json(self) -> dict:
        terms = []
        for m, q in self.sorted_terms():
            terms.append({
                "exps": {var_name(v): e for v, e in m},
                "num": str(q.numerator),
                "den": str(q.denominator),
            })
        return {"terms": terms}

    @staticmethod
    def from_json(doc: dict) -> "MvPolynomial":
        out: dict[Mono, Coeff] = {}
        for t in doc["terms"]:
            mono = tuple(sorted((parse_var(name), e) for name, e in t["exps"].items()))
            out[mono] = _ratio(Fraction(int(t["num"]), int(t["den"])))
        return MvPolynomial(out)


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
    from .errors import NonUnitConstantTerm

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
