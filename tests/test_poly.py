import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uda.errors import NonUnitConstantTerm
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
