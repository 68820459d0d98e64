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
A product of two non-constant polynomials runs the one term loop,
``_sum_of_products``, which adds every term product of a whole sum of
products into a single dict; the Schur determinants are built with it.
Every coefficient map of the package (wedge elements, Laurent series,
Schur coordinates) is summed by ``_sum_by_key``, which runs that loop once
per key.  The one exception is the oracle, ``glaction.star_oracle_coords``:
a request takes a few microseconds, so it sums its few terms inline.

The zero polynomial stores no terms.  Coefficients are exact rationals in
lowest terms: ``fractions.Fraction`` when the denominator is nontrivial and
plain ``int`` otherwise (ints are canonical denominator-1 rationals; they
expose the same ``numerator``/``denominator`` interface and compare and hash
consistently with ``Fraction``, while their arithmetic is an order of
magnitude faster on the all-integer computations that dominate here).
Every operation is a pure function and returns a new polynomial that
belongs to the caller.  Every cache of the package is a ``memo`` table,
which freezes the packed dicts of the values it hands out, or one of the
three part tables of the renderings; ``clear_caches`` empties both kinds.

Canonical renderings (text and JSON) list terms in graded-lexicographic
order: higher total degree first, ties broken by comparing exponents on the
largest variable downwards (family order c < e < h, index ascending).  Both
renderings are deterministic byte-for-byte.  A term is read from its h-, e-
and c-parts (the monomial masked to one family's fields) in three part
tables.  Each distinct part is decoded once into its sort key and its
powers joined as fragments: as text (``c1^2*c3``) and as the JSON members
of a term's ``"exps"`` (``"c1": 2`` and ``"c3": 1`` on their own lines, at
the depth of a polynomial that is a top-level value), each once as the
first part of a term and once led by its separator (``*c1^2*c3``).  A
c-part's JSON fragments also open the ``"exps"`` and an h-part's close it.
A part's key is one key per power by descending variable: the family, the
index (a length byte and its big-endian bytes) and the exponent.
``_sorted`` makes one row per term: the degree in two bytes and the keys of
the h-, e- and c-parts, whose bytes compare as graded-lex order; the
entries of the c-, e- and h-parts; the coefficient; and the packed
monomial, which ``sorted_terms`` decodes.  It sorts the rows by key alone,
and the writers join each term's fragments, one concatenation per part.  A
key reads only the monomial's own powers, so no entry changes when another
variable gets a field.  Nothing is kept per monomial: a Schur determinant,
a sum of c-parts times h-parts, has far fewer parts than monomials, and a
document renders each of its monomials once.  One decoder, ``_powers``,
reads packed monomials, for the part tables and the tuple view alike; it
reads only the set fields, so it costs O(powers) however many variables
have fields.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache, reduce, wraps
from operator import itemgetter, or_
from types import MappingProxyType

from .errors import ExponentOverflow

FAM_C, FAM_E, FAM_H = 0, 1, 2
_FAM_NAMES = ("c", "e", "h")

Var = tuple[int, int]          # (family, index), index >= 1
Mono = tuple[tuple[Var, int], ...]  # ((var, exp), ...), var-sorted, exp > 0
Coeff = int | Fraction         # always in lowest terms; int when denominator 1

_FIELD = 16                          # bits per field, the "H" of _layout
_MAX_EXP = (1 << (_FIELD - 1)) - 1   # the top bit of a field is its guard
_FIELD_MASK = (1 << _FIELD) - 1
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


def _power_key(v: Var, e: int) -> bytes:
    """The sort key of v^e: the family byte, the index as a length byte and
    its big-endian bytes, then e in two bytes.  Two power keys compare as
    their variables do, then as their exponents, for any size of index."""
    fam, idx = v
    n = (idx.bit_length() + 7) // 8
    return bytes((fam, n)) + idx.to_bytes(n, "big") + e.to_bytes(2, "big")


# The JSON layout the part entries are written for: a polynomial that is the
# value of a top-level key of a ``json.dumps(..., indent=2)`` document.  A
# term's "exps" opens 8 spaces in and lists its members 10 spaces in; the c-
# entries carry its opening, and the h-entries its close and the start of
# the term's "num".
_EXPS_OPEN = '{\n        "exps": {\n          '
_MEMBER_SEP = ",\n          "
_EXPS_CLOSE = '\n        },\n        "num": "'

# what a part entry holds after its key: its powers joined as text
# ("c1^2*c3") and as JSON members, each once for the first non-empty part of
# a term and once led by the separator that follows another part
_TEXT, _TEXT_SEP, _JSON, _JSON_SEP = 1, 2, 3, 4


class _FamilyParts(dict):
    """``part -> (key, text, led text, members, led members)`` for one
    family, where a part is a packed monomial masked to the family's
    fields.  The key joins the power keys of its powers by descending
    variable.  The text and the JSON members join its powers by ascending
    variable, once as they start a term and once led by their separator
    ("*" or ``_MEMBER_SEP``); the empty part joins to "", led or not.
    The members are wrapped in the family's ``opening`` and ``closing``: a
    c-part always starts a term, so both its forms start with
    ``_EXPS_OPEN``, and an h-part always ends one, so both its forms end
    with ``_EXPS_CLOSE``, the empty parts' too.  All of an entry is read
    from the part's own powers, so it stays valid as the layout grows."""

    __slots__ = ("_opening", "_closing")

    def __init__(self, opening: str = "", closing: str = ""):
        self._opening = opening
        self._closing = closing

    def __missing__(self, part):
        powers = _powers(part)
        names = [var_name(v) for v, _ in powers]
        text = "*".join([name if e == 1 else f"{name}^{e}"
                         for name, (_, e) in zip(names, powers)])
        members = _MEMBER_SEP.join([f'"{name}": {e}'
                                    for name, (_, e) in zip(names, powers)])
        sep = self._opening or (_MEMBER_SEP if members else "")
        value = self[part] = (
            b"".join([_power_key(v, e) for v, e in reversed(powers)]),
            text, "*" + text if text else "",
            self._opening + members + self._closing,
            sep + members + self._closing)
        return value


_C_PARTS, _E_PARTS, _H_PARTS = _PARTS = (   # by family code
    _FamilyParts(opening=_EXPS_OPEN), _FamilyParts(),
    _FamilyParts(closing=_EXPS_CLOSE))

# The masks over the fields of a packed monomial; ``_layout`` grows them.
_GUARDS = 1 << _FIELD - 1            # the top bit of every field
_FAMILY_MASKS = [0, 0, 0]            # family code -> its variables' fields


def _layout(v: Var) -> int:
    """Give v the next field, with its guard bit and its family's mask, and
    return its bit offset.  No table is emptied: no rendering entry depends
    on the fields of other variables."""
    global _GUARDS
    _VARS.append(v)
    s = _SHIFTS[v] = _FIELD * len(_VARS)
    _GUARDS |= 1 << s + _FIELD - 1
    _FAMILY_MASKS[v[0]] |= _FIELD_MASK << s
    return s


def _powers(m: int) -> list[tuple[Var, int]]:
    """``(var, exp)`` for each power of the packed monomial m, by ascending
    variable: the one decoder of packed monomials.  It peels the
    set fields off, lowest first, and skips field 0, the degree, so it
    costs O(powers) however many fields the layout has."""
    powers = []
    rest = m & ~_FIELD_MASK
    while rest:
        k = ((rest & -rest).bit_length() - 1) // _FIELD
        e = rest >> _FIELD * k & _FIELD_MASK
        rest ^= e << _FIELD * k
        powers.append((_VARS[k - 1], e))
    powers.sort()
    return powers


def _shift(v: Var) -> int:
    """Bit offset of v's exponent field; the first use of v appends one."""
    s = _SHIFTS.get(v)
    if s is None:
        if v[0] not in (FAM_C, FAM_E, FAM_H) or v[1] < 1:
            raise ValueError(f"not a (family, positive index) variable: {v!r}")
        s = _layout(v)
    return s


def _known_shift(v: Var) -> int:
    """Bit offset of v's exponent field; ``KeyError`` if v has none yet."""
    s = _SHIFTS.get(v)
    if s is None:
        raise KeyError(v)
    return s


def _pack(mono, shift=_shift) -> int:
    """The packed monomial of ``(var, exp)`` pairs given in any order."""
    m = 0
    for v, e in mono:
        if e < 0:
            raise ValueError(f"negative exponent in monomial {mono!r}")
        m += (e << shift(v)) + e
        if e > _MAX_EXP or m & _GUARDS:
            raise ExponentOverflow(f"exponent or degree above {_MAX_EXP}")
    return m


def _unpack(m: int) -> Mono:
    """The canonical ``((var, exp), ...)`` tuple of a packed monomial."""
    return tuple(_powers(m))


class _Terms(Mapping):
    """``MvPolynomial.terms``: the packed store read with ``Mono`` keys."""

    __slots__ = ("_t",)

    def __init__(self, packed):
        self._t = packed

    def __len__(self):
        return len(self._t)

    def __iter__(self):
        return map(_unpack, self._t)

    def __getitem__(self, mono):   # a variable with no field is in no key
        return self._t[_pack(mono, _known_shift)]

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
        if Fraction in map(type, other._t.values()):   # 1/2 + 1/2 is 1
            _lowest(out)
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
        if type(other) is not MvPolynomial:
            other = MvPolynomial._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self._t, other._t
        if len(b) == 1 and 0 in b:   # a nonzero constant scales, in order
            q0 = b[0]
        elif len(a) == 1 and 0 in a:
            q0, a = a[0], b
        else:
            return _sum_of_products(((self, other),))
        out = {m: q * q0 for m, q in a.items()}
        if q0 != 1 and q0 != -1:   # 2 * 1/2 is 1
            _lowest(out)
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

    def _sorted(self) -> list[tuple[bytes, tuple, tuple, tuple, Coeff, int]]:
        """One row ``(key, c, e, h, coeff, m)`` per term ``m``, in the
        canonical graded-lex order (leading term first), where c, e and h
        are the entries of its c-, e- and h-parts: a writer joins their
        fragments in that order, the first non-empty one without its
        separator.  The key is the degree in two bytes and then the keys of
        the h-, e- and c-parts, the power keys by descending variable, so
        bytes compare as graded-lex order; no two monomials share one, so
        rows sort by key alone."""
        c_mask, e_mask, h_mask = _FAMILY_MASKS
        rows = []
        add = rows.append
        for m, q in self._t.items():
            h = _H_PARTS[m & h_mask]
            e = _E_PARTS[m & e_mask]
            c = _C_PARTS[m & c_mask]
            add(((m & _FIELD_MASK).to_bytes(2, "big") + h[0] + e[0] + c[0],
                 c, e, h, q, m))
        rows.sort(key=itemgetter(0), reverse=True)
        return rows

    def sorted_terms(self) -> list[tuple[Mono, Coeff]]:
        """Terms in the canonical graded-lex order (leading term first)."""
        return [(_unpack(m), q) for *_, q, m in self._sorted()]

    def __str__(self) -> str:
        rows = self._sorted()
        # the empty c- and e-parts' entries, None where no row has them
        c0, e0 = _C_PARTS.get(0), _E_PARTS.get(0)
        text = " ".join([
            ("- " if q < 0 else "+ ")
            + (f"{abs(q)}*{mono}" if mono and q != 1 and q != -1
               else mono or str(abs(q)))
            for _, c, e, h, q, _ in rows
            for mono in (c[_TEXT] + e[_TEXT_SEP] + h[_TEXT_SEP] if c is not c0
                         else e[_TEXT] + h[_TEXT_SEP] if e is not e0
                         else h[_TEXT],)])
        return "-" + text[2:] if text.startswith("-") else text[2:] or "0"

    def __repr__(self) -> str:
        return f"MvPolynomial({self})"

    def to_json(self) -> dict:
        return {"terms": [{"exps": {var_name(v): e for v, e in mono},
                           "num": str(q.numerator), "den": str(q.denominator)}
                          for mono, q in self.sorted_terms()]}

    @staticmethod
    def from_json(doc: dict) -> "MvPolynomial":
        return MvPolynomial({
            tuple((parse_var(name), e) for name, e in t["exps"].items()):
            Fraction(int(t["num"]), int(t["den"])) for t in doc["terms"]})


def _lowest(out: dict) -> dict:
    """``out`` with each denominator-1 ``Fraction`` made an int, in place;
    one C-level pass over the values when they are all ints already."""
    if Fraction in map(type, out.values()):
        for m, q in out.items():
            if type(q) is Fraction and q.denominator == 1:
                out[m] = q.numerator
    return out


def _sum_of_products(pairs: Iterable[tuple[MvPolynomial, MvPolynomial]]
                     ) -> MvPolynomial:
    """``sum(a * b for a, b in pairs)``, every term added into one new dict.

    This is the module's one pairwise term loop.  It makes no product
    polynomial and no copy of the running sum; the guard bits are checked
    on each monomial whose coefficient cancels and, at the end, on those
    left, so ``ExponentOverflow`` is raised exactly when some ``a * b``
    would raise it (a product's leading terms never cancel, so ``__mul__``
    raises on any overflowing term product).
    """
    out: dict[int, Coeff] = {}
    get = out.get
    cancelled = False
    for a, b in pairs:
        b_items = b._t.items()
        for ma, qa in a._t.items():
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
                        if m & _GUARDS:
                            raise ExponentOverflow(
                                f"exponent or degree above {_MAX_EXP}")
                        cancelled = True
    if out and reduce(or_, out) & _GUARDS:   # fields <= 2 * _MAX_EXP
        raise ExponentOverflow(f"exponent or degree above {_MAX_EXP}")
    # a dict keeps the room of its deleted entries; a copy gives it back
    return MvPolynomial._of(_lowest(dict(out) if cancelled else out))


def _sum_by_key(items: Iterable[tuple[object, MvPolynomial, MvPolynomial]]
                ) -> dict:
    """``{key: sum(a * b)}`` over the ``(key, a, b)`` triples, zeros dropped.

    The coefficient map of every other module (wedge elements, Laurent
    series, Schur coordinates) is summed here: the pairs of a key go
    through one ``_sum_of_products``, and a key with a single pair costs
    one ``a * b``.  Every value is a new polynomial.
    """
    groups: dict = {}
    for key, a, b in items:
        pairs = groups.get(key)
        if pairs is None:
            groups[key] = [(a, b)]
        else:
            pairs.append((a, b))
    out = {}
    for key, pairs in groups.items():
        s = pairs[0][0] * pairs[0][1] if len(pairs) == 1 else _sum_of_products(pairs)
        if s:
            out[key] = s
    return out


_MEMO_TABLES: list = []


def _frozen(value):
    """``value`` made read-only: dicts become views and tuples stay tuples,
    of frozen items; ``_freeze`` runs in place; ints and partitions pass
    (a ``Partition`` is a tuple subclass, so only exact tuples are rebuilt)."""
    if isinstance(value, dict):
        return MappingProxyType({k: _frozen(v) for k, v in value.items()})
    if type(value) is tuple:
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
    """Empty every ``memo`` table and the part tables of the renderings.

    The field layout (``_VARS``, ``_SHIFTS``) stays: the packed monomials
    of every live polynomial are read through it.
    """
    for table in _MEMO_TABLES:
        table.cache_clear()
    for parts in _PARTS:
        parts.clear()


ZERO = _frozen(MvPolynomial.zero())
ONE = _frozen(MvPolynomial.one())


def c_(i: int) -> MvPolynomial:
    return MvPolynomial.variable(FAM_C, i)


def e_(i: int) -> MvPolynomial:
    return MvPolynomial.variable(FAM_E, i)


def h_(i: int) -> MvPolynomial:
    return MvPolynomial.variable(FAM_H, i)


def series_mul(a: Iterable[MvPolynomial], b: Iterable[MvPolynomial],
               order: int) -> list[MvPolynomial]:
    """Product of two univariate series, truncated at ``z^order``."""
    a = list(a)
    b = list(b)
    return [_sum_of_products((a[i], b[d - i]) for i in
                             range(max(0, d - len(b) + 1), min(d, len(a) - 1) + 1))
            for d in range(order + 1)]
