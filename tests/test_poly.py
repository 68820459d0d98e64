import json
import random
from fractions import Fraction
from functools import reduce
from operator import add
from struct import Struct

import pytest
from hypothesis import example, given, settings, strategies as st

import uda.poly as poly
from uda import clear_caches
from uda.errors import ExponentOverflow, NonUnitConstantTerm
from uda.poly import (FAM_C, FAM_E, FAM_H, MvPolynomial, ONE, ZERO,
                      _sum_of_products, c_, e_, h_, series_inverse, series_mul)

# small random polynomials over the three variable families
_vars = st.tuples(st.integers(min_value=0, max_value=2),
                  st.integers(min_value=1, max_value=3))
_mono = st.dictionaries(_vars, st.integers(min_value=1, max_value=3), max_size=3)
_coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def polys(draw):
    terms = draw(st.lists(st.tuples(_mono, _coeff), max_size=4))
    acc = MvPolynomial.zero()
    for mono, q in terms:
        acc = acc + MvPolynomial({tuple(sorted(mono.items())): Fraction(q)})
    return acc


def test_variable_construction_and_basic_identities():
    assert c_(1) + (-c_(1)) == ZERO
    assert (ONE - c_(1)) * (ONE + c_(1)) == ONE - c_(1) ** 2
    assert c_(1) - c_(1) == ZERO
    assert h_(1) * h_(2) == h_(2) * h_(1)


def test_canonical_equality_is_construction_order_independent():
    a = h_(1) * h_(2) - h_(3) + c_(1) ** 2
    b = c_(1) ** 2 - h_(3) + h_(2) * h_(1)
    assert a == b
    assert a.terms == b.terms


def test_zero_coefficients_never_stored():
    p = h_(1) - h_(1) + c_(2) * 0
    assert p.terms == {}
    assert p.is_zero()
    q = (h_(1) + ONE) * (h_(1) - ONE) - h_(1) * h_(1)
    assert q == -ONE
    assert all(v != 0 for v in q.terms.values())


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == ZERO
    assert a * ONE == a
    assert a * ZERO == ZERO


def test_pow_matches_repeated_multiplication():
    p = h_(1) + c_(2)
    acc = ONE
    for k in range(5):
        assert p ** k == acc
        acc = acc * p


def test_rational_coefficients_stay_exact():
    p = MvPolynomial.const(Fraction(1, 3)) * h_(1)
    q = p + p + p
    assert q == h_(1)
    third = MvPolynomial.const(Fraction(2, 6))
    assert third.constant_term() == Fraction(1, 3)


def test_specialize_family_zero():
    p = h_(2) - c_(1) * h_(1) + c_(2)
    assert p.specialize_family_zero(FAM_C) == h_(2)
    assert p.specialize_family_zero(FAM_H) == c_(2)


def test_substitute():
    p = e_(2) + e_(1) * c_(1)
    image = p.substitute({(FAM_E, 2): h_(1) ** 2 - h_(2), (FAM_E, 1): h_(1)})
    assert image == h_(1) ** 2 - h_(2) + h_(1) * c_(1)


def test_text_rendering_golden():
    p = -c_(1) * (h_(1) * h_(2) - h_(3)) + c_(1) ** 2 * h_(2)
    assert str(p) == "-c1*h1*h2 + c1^2*h2 + c1*h3"
    assert str(ZERO) == "0"
    assert str(ONE - h_(1)) == "-h1 + 1"
    assert str(MvPolynomial.const(Fraction(3, 2)) * c_(1)) == "3/2*c1"


def test_json_round_trip_and_determinism():
    p = h_(1) * h_(2) - h_(3) + c_(1) ** 2 * MvPolynomial.const(Fraction(5, 3))
    doc = p.to_json()
    blob1 = json.dumps(doc)
    blob2 = json.dumps(MvPolynomial.from_json(json.loads(blob1)).to_json())
    assert blob1 == blob2
    assert MvPolynomial.from_json(doc) == p


def _universe_key_order(p):
    """The first rendering order: exponent vectors over every variable of p,
    largest variable first, sorted by (-degree, -exponents)."""
    universe = sorted(p.variables(), reverse=True)

    def key(item):
        exps = dict(item[0])
        return (-sum(exps.values()), tuple(-exps.get(v, 0) for v in universe))
    return sorted(p.terms.items(), key=key)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_mono, _coeff), max_size=12))
def test_sorted_terms_matches_universe_key(terms):
    p = MvPolynomial({tuple(sorted(mono.items())): q for mono, q in terms})
    assert p.sorted_terms() == _universe_key_order(p)


def test_series_inverse_geometric():
    # (1 - c1 z)^-1 = 1 + c1 z + c1^2 z^2 + c1^3 z^3
    inv = series_inverse([ONE, -c_(1)], 3)
    assert inv == [ONE, c_(1), c_(1) ** 2, c_(1) ** 3]


def test_series_inverse_elementary_golden():
    # 1/E_2 through z^3; frozen after checking E_2 * result == 1 mod z^4
    inv = series_inverse([ONE, -e_(1), e_(2)], 3)
    assert inv == [ONE, e_(1), e_(1) ** 2 - e_(2),
                   e_(1) ** 3 - 2 * e_(1) * e_(2)]
    back = series_mul([ONE, -e_(1), e_(2)], inv, 3)
    assert back == [ONE, ZERO, ZERO, ZERO]


def test_series_inverse_identity_and_error():
    assert series_inverse([ONE], 5) == [ONE] * 1 + [ZERO] * 5
    with pytest.raises(NonUnitConstantTerm):
        series_inverse([c_(1)], 2)
    with pytest.raises(NonUnitConstantTerm):
        series_inverse([], 2)


def test_series_inverse_random_multiply_back():
    rng = random.Random(7)
    for _ in range(10):
        coeffs = [ONE] + [MvPolynomial.const(rng.randrange(-3, 4)) * h_(rng.randrange(1, 4))
                          for _ in range(rng.randrange(1, 4))]
        order = 6
        inv = series_inverse(coeffs, order)
        prod = series_mul(coeffs, inv, order)
        assert prod[0] == ONE
        assert all(p.is_zero() for p in prod[1:])


def test_constructor_and_from_json_canonicalise_monomials():
    c1h1 = MvPolynomial({(((FAM_H, 1), 1), ((FAM_C, 1), 1)): 1})
    assert str(c1h1 + c_(1) * h_(1)) == "2*c1*h1"
    assert MvPolynomial({(((FAM_C, 1), 1), ((FAM_C, 1), 1)): 1}) == c_(1) ** 2
    assert MvPolynomial({(((FAM_C, 1), 0),): 3, (): -3}) == ZERO
    assert MvPolynomial.from_json({"terms": [
        {"exps": {"c1": 0}, "num": "1", "den": "1"}]}) == ONE
    with pytest.raises(ValueError):
        MvPolynomial({(((FAM_C, 1), -1),): 1})
    with pytest.raises(ValueError):
        MvPolynomial.from_json({"terms": [
            {"exps": {"c1": -1}, "num": "1", "den": "1"}]})
    for bad in ((FAM_C, 0), (3, 1), (-1, 2)):
        with pytest.raises(ValueError):
            MvPolynomial({((bad, 1),): 1})


# -- a tuple-monomial reference model ----------------------------------------
# A model polynomial is a dict {canonical monomial: nonzero Fraction}, with
# the merge-based monomial product the package used before packing.

def _mul_mono(a, b):
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        (va, ea), (vb, eb) = a[i], b[j]
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
    return tuple(out + list(a[i:]) + list(b[j:]))


def _m_add(a, b):
    out = dict(a)
    for m, q in b.items():
        out[m] = out.get(m, 0) + q
    return {m: q for m, q in out.items() if q}


def _m_mul(a, b):
    out = {}
    for ma, qa in a.items():
        for mb, qb in b.items():
            m = _mul_mono(ma, mb)
            out[m] = out.get(m, 0) + qa * qb
    return {m: q for m, q in out.items() if q}


def _m_pow(a, k):
    out = {(): Fraction(1)}
    for _ in range(k):
        out = _m_mul(out, a)
    return out


def _m_substitute(a, images):
    out = {}
    for m, q in a.items():
        term = {(): q}
        for v, e in m:
            term = _m_mul(term, _m_pow(images.get(v, {((v, 1),): 1}), e))
        out = _m_add(out, term)
    return out


def _m_sorted(a):
    return sorted(a.items(), key=lambda t: (sum(e for _, e in t[0]), t[0][::-1]),
                  reverse=True)


def _m_str(a):
    names = {0: "c", 1: "e", 2: "h"}
    pieces = []
    for m, q in _m_sorted(a):
        mono = "*".join(f"{names[f]}{i}" + (f"^{e}" if e > 1 else "")
                        for (f, i), e in m)
        body = (mono if abs(q) == 1 else f"{abs(q)}*{mono}") if mono else str(abs(q))
        pieces.append(("- " if q < 0 else "+ ") + body)
    if not pieces:
        return "0"
    return ("-" if pieces[0][0] == "-" else "") + " ".join(pieces)[2:]


def _model(p):
    return {m: Fraction(q) for m, q in p.terms.items()}


# high indices and every family, so that the draws create variables in no
# canonical order; the indices take one, two and five bytes in a sort key
_mvars = st.tuples(st.integers(0, 2),
                   st.sampled_from([1, 2, 3, 9, 40, 1000, 10**12]))


@st.composite
def model_polys(draw, max_terms=4):
    """(model, the same polynomial built from shuffled, split monomials)."""
    model, built = {}, MvPolynomial.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        exps = draw(st.dictionaries(_mvars, st.integers(1, 3), max_size=3))
        q = Fraction(draw(_coeff))
        mono = tuple(sorted(exps.items()))
        pairs = [(v, 1) for v, e in mono for _ in range(e)]   # repeated variables
        built = built + MvPolynomial({tuple(draw(st.permutations(pairs))): q})
        model = _m_add(model, {mono: q} if q else {})
    return model, built


@settings(max_examples=150, deadline=None)
@given(model_polys(), model_polys(), st.integers(0, 3), st.integers(0, 2),
       st.dictionaries(_mvars, model_polys(max_terms=2), max_size=2))
def test_packed_arithmetic_matches_the_tuple_model(ab, cd, k, fam, images):
    (a, pa), (b, pb) = ab, cd
    assert _model(pa) == a and len(pa.terms) == len(a)
    assert _model(pa + pb) == _m_add(a, b)
    assert _model(pa - pb) == _m_add(a, {m: -q for m, q in b.items()})
    assert _model(pa * pb) == _m_mul(a, b)
    assert _model(pa ** k) == _m_pow(a, k)
    assert _model(pa.specialize_family_zero(fam)) == {
        m: q for m, q in a.items() if all(v[0] != fam for v, _ in m)}
    image_polys = {v: p for v, (_, p) in images.items()}
    image_models = {v: m for v, (m, _) in images.items()}
    assert _model(pa.substitute(image_polys)) == _m_substitute(a, image_models)
    assert pa.sorted_terms() == _m_sorted(a)
    assert str(pa) == _m_str(a)
    doc = json.loads(json.dumps(pa.to_json()))
    assert doc["terms"] == [
        {"exps": {f"{'ceh'[f]}{i}": e for (f, i), e in m},
         "num": str(q.numerator), "den": str(q.denominator)}
        for m, q in _m_sorted(a)]
    assert MvPolynomial.from_json(doc) == pa


def test_exponent_past_its_field_raises_and_changes_nothing():
    top = MvPolynomial({(((FAM_C, 1), 32767),): 1})
    c2 = c_(2)
    for bad in (lambda: MvPolynomial({(((FAM_C, 1), 32768),): 1}),
                lambda: MvPolynomial({(((FAM_C, 1), 20000),
                                       ((FAM_C, 1), 20000)): 1}),
                lambda: top * c_(1),
                lambda: c_(1) ** 20000 * c_(1) ** 20000,
                lambda: c_(1) ** 20000 * c2 ** 20000,   # the degree overflows
                lambda: (c2 + ONE) * top,
                lambda: c2 ** 40000):
        with pytest.raises(ExponentOverflow, match="above 32767"):
            bad()
    # the fields next to the full one kept their values
    assert _model(top) == {(((FAM_C, 1), 32767),): 1}
    assert _model(c2) == {(((FAM_C, 2), 1),): 1}
    near = MvPolynomial({(((FAM_C, 1), 32766),): 1}) * (c2 + ONE)
    assert _model(near) == _m_mul({(((FAM_C, 1), 32766),): 1},
                                  {(((FAM_C, 2), 1),): 1, (): 1})
    assert str(near) == "c1^32766*c2 + c1^32766"
    assert issubclass(ExponentOverflow, ValueError)


def test_terms_is_a_read_only_tuple_keyed_view():
    p = h_(2) * c_(1) - 3
    view = p.terms
    assert len(view) == 2 and view.get(()) == -3
    assert view[(((FAM_C, 1), 1), ((FAM_H, 2), 1))] == 1
    assert view.get((((FAM_E, 7), 1),)) is None
    assert dict(view) == {(): -3, (((FAM_C, 1), 1), ((FAM_H, 2), 1)): 1}
    with pytest.raises(AttributeError):
        p.terms = {}
    with pytest.raises(TypeError):
        view[()] = 5
    assert p == h_(2) * c_(1) - 3


def test_a_lookup_gives_no_variable_a_field():
    fresh = (FAM_E, 9973)
    assert fresh not in poly._SHIFTS
    vars_before, shifts_before = list(poly._VARS), dict(poly._SHIFTS)
    key = ((fresh, 1),)
    assert ONE.terms.get(key) is None
    assert key not in ONE.terms
    assert ((fresh, 1), ((FAM_C, 1), 1)) not in (c_(1) + ONE).terms
    with pytest.raises(KeyError):
        ONE.terms[key]
    assert poly._VARS == vars_before and poly._SHIFTS == shifts_before
    # a known variable is still found
    assert (c_(1) + ONE).terms[(((FAM_C, 1), 1),)] == 1


@settings(max_examples=150, deadline=None)
@given(model_polys(), st.sampled_from([1, -1, 3, Fraction(2, 3), Fraction(-5, 2)]))
def test_a_constant_factor_scales_like_the_general_product(ab, q):
    a, pa = ab
    const = MvPolynomial.const(q)
    for prod in (pa * const, const * pa):
        assert _model(prod) == _m_mul(a, {(): Fraction(q)})
        assert list(prod.terms) == list(pa.terms)   # pa's order, as the loop
        assert prod._t is not pa._t and prod._t is not const._t


def test_a_product_with_a_constant_belongs_to_the_caller():
    p = c_(1) - 2 * h_(3)
    half = MvPolynomial.const(Fraction(1, 2))
    for a, b in ((ONE, ONE), (ONE, p), (p, ONE), (half, p), (p, half),
                 (ONE, half), (ZERO, ONE), (ONE, ZERO), (ZERO, p), (p, ZERO)):
        prod = a * b
        assert _model(prod) == _m_mul(_model(a), _model(b))
        prod.terms.clear()
    assert ONE.terms == {(): 1} and ZERO.terms == {}
    assert p == c_(1) - 2 * h_(3) and half.terms == {(): Fraction(1, 2)}


def test_denominator_one_results_are_ints():
    half = MvPolynomial.const(Fraction(1, 2))
    for p, want in ((MvPolynomial.const(Fraction(1, 2)) * 2, {0: 1}),
                    (half * MvPolynomial.const(2), {0: 1}),
                    (c_(1) * half + c_(1) * half, (c_(1))._t),
                    (_sum_of_products([(half, c_(1)), (c_(1), half)]), c_(1)._t),
                    ((half * c_(1) + half) * (c_(1) * 2), (c_(1) ** 2 + c_(1))._t)):
        assert p._t == want
        assert all(type(q) is int for q in p._t.values()), p._t
    assert (half * 3)._t == {0: Fraction(3, 2)}


def _with_consts(polys_):
    """``polys_`` with the constants ONE, ZERO, 1/2 and -3 mixed in."""
    return st.one_of(polys_, st.sampled_from([
        ONE, ZERO, MvPolynomial.const(Fraction(1, 2)), MvPolynomial.const(-3)]))


def _pair_lists(polys_):
    """Lists of (a, b) pairs, with an optional mirror of every pair so that
    the sum cancels to zero, and the constants mixed in."""
    poly_ = _with_consts(polys_)
    return st.tuples(st.lists(st.tuples(poly_, poly_), max_size=4), st.booleans())


_model_poly = model_polys().map(lambda ab: ab[1])


@settings(max_examples=200, deadline=None)
@given(_pair_lists(_model_poly))
def test_sum_of_products_matches_the_sum_of_products(drawn):
    pairs, mirror = drawn
    if mirror:
        pairs = pairs + [(-a, b) for a, b in pairs]
    models = [(_model(a), _model(b)) for a, b in pairs]
    want = reduce(add, (a * b for a, b in pairs), ZERO)
    got = _sum_of_products(iter(pairs))
    assert got == want
    assert _model(got) == reduce(_m_add, (_m_mul(a, b) for a, b in models), {})
    assert all(type(q) is int or q.denominator > 1 for q in got._t.values())
    if mirror:
        assert got == ZERO
    # the result is a new dict: clearing it changes no input
    assert all(got._t is not p._t for pair in pairs for p in pair)
    got.terms.clear()
    assert [(_model(a), _model(b)) for a, b in pairs] == models


_big = st.dictionaries(st.sampled_from([(FAM_C, 1), (FAM_C, 2), (FAM_H, 7)]),
                       st.sampled_from([1, 2, 16383, 16384, 20000]), max_size=2
                       ).filter(lambda m: sum(m.values()) <= 32767)


@st.composite
def _big_polys(draw):
    return MvPolynomial({tuple(sorted(m.items())): draw(st.sampled_from([1, -1, 2]))
                         for m in draw(st.lists(_big, max_size=3))})


@settings(max_examples=200, deadline=None)
@given(_pair_lists(_big_polys()))
def test_sum_of_products_overflows_where_the_products_do(drawn):
    pairs, mirror = drawn
    if mirror:
        pairs = pairs + [(-a, b) for a, b in pairs]
    try:
        want = reduce(add, (a * b for a, b in pairs), ZERO)
    except ExponentOverflow:
        with pytest.raises(ExponentOverflow, match="above 32767"):
            _sum_of_products(pairs)
    else:
        assert _sum_of_products(pairs) == want


def test_an_overflow_that_cancels_still_raises():
    big = c_(1) ** 20000
    for pairs in ([(big, big), (-big, big)],
                  [(big, big + ONE), (-big, big)],
                  [(c_(2) ** 20000, big), (-big, c_(2) ** 20000)]):   # degree
        with pytest.raises(ExponentOverflow):
            pairs[0][0] * pairs[0][1]
        with pytest.raises(ExponentOverflow, match="above 32767"):
            _sum_of_products(pairs)
    assert _sum_of_products([]) == ZERO


def _triple_lists(polys_):
    """Lists of (key, a, b) triples over a few keys, with an optional mirror
    of every triple so that each key's sum cancels to zero."""
    poly_ = _with_consts(polys_)
    triple = st.tuples(st.sampled_from(["k", (1, 2), 3]), poly_, poly_)
    return st.tuples(st.lists(triple, max_size=5), st.booleans())


def _per_key_sums(triples):
    """The reference: ``reduce(add, (a * b ...))`` for each key, zeros
    dropped."""
    sums = {key: reduce(add, (a * b for k, a, b in triples if k == key), ZERO)
            for key, _, _ in triples}
    return {key: s for key, s in sums.items() if s}


@settings(max_examples=100, deadline=None)
@given(_triple_lists(_model_poly), st.booleans())
def test_sum_by_key_matches_the_per_key_sums(drawn, freeze):
    triples, mirror = drawn
    if mirror:
        triples = triples + [(k, -a, b) for k, a, b in triples]
    if freeze:   # as a memo table hands them out
        triples = [(k, poly._frozen(a), poly._frozen(b)) for k, a, b in triples]
    models = [(_model(a), _model(b)) for _, a, b in triples]
    got = poly._sum_by_key(iter(triples))
    assert got == _per_key_sums(triples)
    assert all(type(q) is int or q.denominator > 1
               for p in got.values() for q in p._t.values())
    if mirror:
        assert got == {}
    # every value is a new dict: clearing it changes no input
    inputs = [p._t for _, a, b in triples for p in (a, b)]
    assert not any(p._t is t for p in got.values() for t in inputs)
    for p in got.values():
        p.terms.clear()
    assert [(_model(a), _model(b)) for _, a, b in triples] == models


@settings(max_examples=100, deadline=None)
@given(_triple_lists(_big_polys()))
def test_sum_by_key_overflows_where_the_products_do(drawn):
    triples, mirror = drawn
    if mirror:
        triples = triples + [(k, -a, b) for k, a, b in triples]
    try:
        want = _per_key_sums(triples)
    except ExponentOverflow:
        with pytest.raises(ExponentOverflow, match="above 32767"):
            poly._sum_by_key(triples)
    else:
        assert poly._sum_by_key(triples) == want


def test_sum_by_key_cases():
    half = MvPolynomial.const(Fraction(1, 2))
    assert poly._sum_by_key([]) == {}
    # halves that sum to an int coefficient come back as an int
    got = poly._sum_by_key([("k", half, c_(1)), ("k", c_(1), half)])
    assert got == {"k": c_(1)}
    assert [type(q) for q in got["k"]._t.values()] == [int]
    # a key with one pair is its product, in a new dict
    a, b = c_(1) + 2, h_(2) - c_(1)
    got = poly._sum_by_key([("x", a, b), ("y", a, ONE), ("z", ONE, b)])
    assert got == {"x": a * b, "y": a, "z": b}
    assert got["y"]._t is not a._t and got["z"]._t is not b._t
    # an overflow raises even when the key's sum cancels
    big = c_(1) ** 20000
    with pytest.raises(ExponentOverflow, match="above 32767"):
        poly._sum_by_key([(0, big, big), (0, -big, big)])


def test_sum_by_key_leaves_memo_values_alone():
    from uda.partitions import Partition
    from uda.symfunc import giambelli
    clear_caches()
    cached = giambelli(Partition((2, 1)), 2, None)
    before = _model(cached)
    got = poly._sum_by_key([(0, cached, ONE), (1, ONE, cached),
                            (2, cached, c_(1)), (2, ONE, cached)])
    for p in got.values():
        p.terms.clear()
    assert giambelli(Partition((2, 1)), 2, None) is cached
    assert _model(cached) == before and before


# exponents and degrees on both sides of one byte
_wide_exps = st.sampled_from([1, 2, 120, 254, 255, 300])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.dictionaries(_mvars, _wide_exps, max_size=2),
                          st.integers(-3, 3).filter(bool)), max_size=6))
def test_rendering_orders_terms_across_the_one_byte_key_limit(terms):
    from uda.cli import _json_doc
    p = MvPolynomial({tuple(sorted(m.items())): q for m, q in terms})
    a = _model(p)
    assert p.sorted_terms() == _m_sorted(a)
    assert str(p) == _m_str(a)
    assert _json_doc({"value": p}) == json.dumps(
        {"value": {"terms": [
            {"exps": {f"{'ceh'[f]}{i}": e for (f, i), e in m},
             "num": str(q.numerator), "den": str(q.denominator)}
            for m, q in _m_sorted(a)]}}, indent=2) + "\n"


def test_sort_keys_are_kept_when_a_variable_arrives_between_others():
    from uda.cli import _json_doc
    keyed = poly._PARTS
    var = lambda v: MvPolynomial.variable(*v)   # noqa: E731

    def check(*ps):
        for q in ps:
            a = _model(q)
            assert q.sorted_terms() == _m_sorted(a)
            assert str(q) == _m_str(a)
            doc = json.loads(_json_doc({"value": q}))["value"]
            assert [(tuple(sorted((poly.parse_var(n), e)
                                  for n, e in t["exps"].items())),
                     Fraction(int(t["num"]), int(t["den"])))
                     for t in doc["terms"]] == _m_sorted(a)

    for fam in (FAM_E, FAM_C):   # the parts of either family are kept
        low, mid, high = ((fam, 7001), (fam, 7002), (fam, 7003))
        assert mid not in poly._SHIFTS
        p = var(low) ** 2 + var(low) * var(high) + var(high) + 3
        check(p)   # fills the part tables
        # the part of low*high is the monomial without its degree field
        assert (poly._pack(((low, 1), (high, 1))) >> 16 << 16
                in poly._PARTS[fam])
        before = [dict(table) for table in keyed]
        rows = p._sorted()
        assert all(before)
        new = var(mid)   # sorts between low and high
        assert poly._VARS[-1] == mid
        assert [dict(table) for table in keyed] == before
        assert p._sorted() == rows
        # p * (new + 1) mixes monomials rendered before with ones that are not
        check(p, p * new, p * (new + ONE))
        assert all(table.items() >= old.items()
                   for table, old in zip(keyed, before))
        assert str(p * (new + ONE)) == (
            "e1*e2*e3 + e1^2*e2 + e2*e3 + e1*e3 + e1^2 + e3 + 3*e2 + 3"
            .replace("e1", poly.var_name(low)).replace("e2", poly.var_name(mid))
            .replace("e3", poly.var_name(high)))
        clear_caches()
        assert not any(keyed)
        assert p._sorted() == rows
        check(p, p * new, p * (new + ONE))


def _full_decode(m):
    """The degree of the packed monomial m and its ``(var, exp)`` powers by
    ascending variable, from one ``Struct`` decode of all its fields: a
    decode independent of the module's."""
    n = len(poly._VARS) + 1
    fields = Struct(f"<{n}H").unpack(m.to_bytes(2 * n, "little"))
    return fields[0], sorted((poly._VARS[k - 1], e)
                             for k, e in enumerate(fields) if k and e)


def _full_decode_entry(m):
    """What one decode of all the fields of the packed monomial m gives for
    its rendering: the graded-lex key (the degree in two bytes, then per
    power by descending variable the family byte, the index as a length
    byte and its big-endian bytes, and the exponent in two bytes), then its
    powers by ascending variable as texts and as JSON members.  The part
    tables must compose exactly this."""
    degree, powers = _full_decode(m)
    key = degree.to_bytes(2, "big")
    for (fam, idx), e in reversed(powers):
        idx = idx.to_bytes(32, "big").lstrip(b"\0")
        key += bytes((fam, len(idx))) + idx + e.to_bytes(2, "big")
    names = [f"{'ceh'[fam]}{idx}" for (fam, idx), _ in powers]
    return (key,
            tuple(name + (f"^{e}" if e > 1 else "")
                  for name, (_, e) in zip(names, powers)),
            tuple(json.dumps({name: e})[1:-1]
                  for name, (_, e) in zip(names, powers)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.dictionaries(_mvars, _wide_exps, max_size=4), max_size=6))
# every family, one variable each, and degrees 254, 255 and 300
@example([{(2, 1): 1, (1, 1): 1, (0, 1): 1}, {(1, 1): 255}, {(0, 1): 254},
          {(0, 1): 120, (2, 10**12): 180}, {(0, 1000): 300, (2, 1): 1}])
def test_part_decodes_compose_the_full_decode(monos):
    def part_entry(part):   # a part is keyed without a degree
        key, *rest = _full_decode_entry(part)
        return (key[2:], *rest)

    def rows(m):   # what _sorted makes of the one-term polynomial m
        return [(_full_decode_entry(m)[0],
                 *[part_entry(m & mask) for mask in poly._FAMILY_MASKS], 1, m)]

    clear_caches()
    packed = []
    for mono in [{}, *monos]:   # with the constant monomial
        m = poly._pack(mono.items())
        packed.append(m)
        # the tuple view reads the same one decoder as the part tables
        want = tuple(_full_decode(m)[1])
        assert poly._unpack(m) == want, mono
        assert list(MvPolynomial({tuple(mono.items()): 1}).terms) == [want]
        got = MvPolynomial._of({m: 1})._sorted()
        assert got == rows(m), mono
        # the c-, e- and h-parts' powers join to the monomial's
        c, e, h = got[0][1:4]
        assert [c[item] + e[item] + h[item] for item in (poly._TEXT, poly._JSON)
                ] == list(_full_decode_entry(m)[1:]), mono
        for fam, parts in enumerate(poly._PARTS):
            part = m & poly._FAMILY_MASKS[fam]
            assert parts[part] == part_entry(part)
    # every entry and row still matches, also one made before a later
    # monomial's variables got fields
    assert all(parts[part] == part_entry(part)
               for parts in poly._PARTS for part in list(parts))
    assert all(MvPolynomial._of({m: 1})._sorted() == rows(m) for m in packed)
    assert all(poly._unpack(m) == tuple(_full_decode(m)[1]) for m in packed)
