import random

from uda.exterior import BasisTag, ExtElement, wedge
from uda.module_iso import schur_map_of_poly
from uda.poly import ONE, c_, h_
from uda.schubert import sigma_bar_minus_h, sigma_coefficient
from uda.symfunc import h_deformed
from reference import poly_to_wedge, sigma_bar_plus, sigma_plus, wedge_to_poly

X = BasisTag.PLAIN_X


def mono(indices, tag=X, coeff=ONE):
    """The wedge of the factors X^i, i in ``indices``, keyed by its diagram."""
    return ExtElement(len(indices), tag, {sum(1 << i for i in indices): coeff})


def random_monomial(rng, r, top=8):
    idx = rng.sample(range(top), r)
    return mono(idx, coeff=c_(rng.randrange(1, 3)) + rng.randrange(-1, 2))


def test_sigma_on_vectors_is_monomial_multiplication():
    series = sigma_plus(ExtElement.vector(0, X), 4)
    assert series == [ExtElement.vector(i, X) for i in range(5)]


def test_sigma_coefficients_on_unit_wedge():
    u = mono((1, 0))
    assert sigma_coefficient(1, u) == mono((2, 0))
    # the (0,2) and (1,1) shifts cancel against each other, leaving one term;
    # anything else would break the single-row Schur expansion of X^3 ^ X^0
    assert sigma_coefficient(2, u) == mono((3, 0))
    assert sigma_coefficient(3, u) == mono((4, 0))
    # off the unit wedge both shifts survive
    assert sigma_coefficient(1, mono((2, 0))) == mono((3, 0)) + mono((2, 1))


def test_hs_property_cauchy_rule():
    # sigma_i(u ^ v) = sum_{a+b=i} sigma_a u ^ sigma_b v
    rng = random.Random(13)
    for _ in range(8):
        u = random_monomial(rng, rng.choice([1, 2]))
        v = random_monomial(rng, 1)
        order = 3
        su, sv = sigma_plus(u, order), sigma_plus(v, order)
        sw = sigma_plus(wedge(u, v), order)
        for i in range(order + 1):
            acc = ExtElement.zero(u.r + v.r, X)
            for a in range(i + 1):
                acc = acc + wedge(su[a], sv[i - a])
            assert acc == sw[i]


def test_sigma_bar_plus_on_vector():
    assert sigma_bar_plus(ExtElement.vector(3, X)) == [
        ExtElement.vector(3, X), -ExtElement.vector(4, X)]


def test_sigma_bar_plus_golden_two_slots():
    out = sigma_bar_plus(mono((1, 0)))
    assert out[0] == mono((1, 0))
    assert out[1] == -mono((2, 0))
    assert out[2] == mono((2, 1))


def test_sigma_bar_plus_inverts_sigma_plus():
    rng = random.Random(29)
    for _ in range(6):
        u = random_monomial(rng, rng.choice([1, 2, 3]))
        order = 4
        bar = sigma_bar_plus(u)
        # compose: coefficient of z^m in sigma_plus(z) sigma_bar_plus(z) u
        for m in range(order + 1):
            acc = ExtElement.zero(u.r, X)
            for k in range(min(m, u.r) + 1):
                acc = acc + sigma_coefficient(m - k, bar[k])
            assert acc == (u if m == 0 else ExtElement.zero(u.r, X))


def test_sigma_bar_minus_h_golden():
    assert sigma_bar_minus_h(0, 4).coeffs == {(0, 0): ONE}
    assert sigma_bar_minus_h(1, 4).coeffs == {(0, 0): h_(1) - c_(1), (-1, 0): -ONE}
    got = sigma_bar_minus_h(2, 4)
    assert got.coeffs[(0, 0)] == h_deformed(2, 4)
    assert got.coeffs[(-1, 0)] == -h_deformed(1, 4)
    assert got.window == (-1, 0, 0, 0)


def test_eigenvalue_property():
    # applying the shift series multiplies the module coordinate by the free
    # h series: coordinates of sigma_i(u) match those of h_i * coordinate(u)
    rng = random.Random(37)
    for _ in range(5):
        r = rng.choice([2, 3])
        u = random_monomial(rng, r)
        p = wedge_to_poly(u, None)
        for i in range(4):
            lhs = schur_map_of_poly(wedge_to_poly(sigma_coefficient(i, u), None),
                                    r, None)
            rhs = schur_map_of_poly((ONE if i == 0 else h_(i)) * p, r, None)
            assert lhs == rhs


def test_module_structure_consistency():
    # the action of h_i through the isomorphism is sigma_i
    rng = random.Random(43)
    for _ in range(6):
        r = rng.choice([1, 2, 3])
        p = ONE * rng.randrange(-2, 3)
        for _ in range(rng.randrange(1, 3)):
            p = p + h_(rng.randrange(1, 4)) * rng.randrange(-2, 3)
        for i in range(1, 4):
            lhs = poly_to_wedge(h_(i) * p, r, None)
            rhs = sigma_coefficient(i, poly_to_wedge(p, r, None))
            assert lhs == rhs
