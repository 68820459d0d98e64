import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uda.errors import ExponentOverflow, NonUnitConstantTerm
from uda.poly import (FAM_C, FAM_E, FAM_H, MvPolynomial, ONE, ZERO, c_, e_,
                      h_, series_inverse, series_mul)

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
# canonical order
_mvars = st.tuples(st.integers(0, 2), st.sampled_from([1, 2, 3, 9, 40, 1000]))


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
