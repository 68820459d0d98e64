import random

import pytest

from uda.determinant import exact_det
from uda.partitions import EMPTY, Partition, partitions_in_rectangle
from uda.poly import (FAM_C, MvPolynomial, ONE, ZERO, c_, e_, h_, series_inverse,
                      series_mul)
from uda.symfunc import (c_series_coeffs, e_series_coeffs, e_to_h_rewrite,
                         generic_factor_poly, generic_monic_coeffs, giambelli,
                         h_deformed, s_coefficient)
from uda.symfunc import _giambelli_cached


def test_deformed_complete_functions_golden():
    assert h_deformed(0, 4) == ONE
    assert h_deformed(-1, 4) == ZERO
    assert h_deformed(1, 4) == h_(1) - c_(1)
    assert h_deformed(2, 4) == h_(2) - c_(1) * h_(1) + c_(2)


def test_deformed_complete_respects_ambient_bound():
    # with n = 2 the c's stop at c2
    assert h_deformed(3, 2) == h_(3) - c_(1) * h_(2) + c_(2) * h_(1)
    assert h_deformed(3, None) == h_(3) - c_(1) * h_(2) + c_(2) * h_(1) - c_(3)
    assert h_deformed(3, 0) == h_(3)


def test_series_defining_identities():
    # E_r(z) * H_r(z) = 1 and c(z) * s(z) = 1, degreewise
    for r in (1, 2, 3):
        for order in (3, 5):
            E = e_series_coeffs(r, order)
            H = series_inverse(E, order)
            prod = series_mul(E, H, order)
            assert prod[0] == ONE and all(p.is_zero() for p in prod[1:])
    for n in (2, 4):
        order = 6
        C = c_series_coeffs(order, n)
        S = [s_coefficient(k, n) for k in range(order + 1)]
        prod = series_mul(C, S, order)
        assert prod[0] == ONE and all(p.is_zero() for p in prod[1:])


def test_hc_series_matches_product_identity():
    # sum h_j(c) z^j = c(z) * (free-symbol h series)
    n, order = 4, 6
    HC = [h_deformed(j, n) for j in range(order + 1)]
    C = c_series_coeffs(order, n)
    hfree = [ONE] + [h_(j) for j in range(1, order + 1)]
    prod = series_mul(C, hfree, order)
    assert HC == prod
    assert HC[0] == ONE
    assert h_deformed(-1, n) == ZERO


def test_specialising_c_to_zero():
    for j in range(5):
        assert h_deformed(j, 4).specialize_family_zero(FAM_C) == \
            (ONE if j == 0 else h_(j))
    assert s_coefficient(0, 4) == ONE
    for i in range(1, 5):
        assert s_coefficient(i, 4).specialize_family_zero(FAM_C) == ZERO
    assert s_coefficient(1, 4) == c_(1)
    assert s_coefficient(2, 4) == c_(1) ** 2 - c_(2)


def test_giambelli_golden():
    assert giambelli(EMPTY, 3, 4) == ONE
    # c = 0 specialisations of the worked examples
    assert giambelli(Partition((2, 1)), 2, 0) == h_(1) * h_(2) - h_(3)
    assert giambelli(Partition((3, 1)), 3, 0) == h_(1) * h_(3) - h_(4)
    # single-part partitions give the deformed complete functions back
    for m in range(1, 5):
        for r in (1, 2, 3):
            assert giambelli(Partition((m,)), r, 4) == h_deformed(m, 4)


def test_giambelli_deformed_expansion():
    val = giambelli(Partition((2, 1)), 2, 4)
    expanded = h_deformed(2, 4) * h_deformed(1, 4) - h_deformed(3, 4)
    assert val == expanded


def test_giambelli_padding_invariance():
    for r in (2, 3):
        lam = Partition((2, 1))
        padded = Partition(tuple(list(lam.parts) + [0] * (r - len(lam))))
        assert giambelli(lam, r, 4) == giambelli(padded, r, 4)


def _jacobi_trudi_det(lam, r, n):
    rows = [[h_deformed(lam.part(j) - j + k, n) for j in range(1, r + 1)]
            for k in range(1, r + 1)]
    return exact_det(rows)


def test_giambelli_recursion_matches_jacobi_trudi_determinant():
    # every lambda in the r x (n-r) rectangle up to (4,8), also asked for
    # with r beyond its length, and the stable case n = None
    cases = [(r, n, lam) for n in range(1, 9) for r in range(1, min(n, 4) + 1)
             for lam in partitions_in_rectangle(r, n - r)]
    cases += [(r, None, lam) for r in range(1, 5)
              for lam in partitions_in_rectangle(r, 3)]
    for r, n, lam in cases:
        for size in (r, r + 1, r + 2):
            assert _giambelli_cached(lam.parts, size, n) == \
                _jacobi_trudi_det(lam, size, n), (lam, size, n)


def test_giambelli_with_r_zero():
    for n in (None, 0, 4):
        assert _giambelli_cached((), 0, n) == ONE
        assert giambelli(EMPTY, 0, n) == ONE
        with pytest.raises(ValueError):
            _giambelli_cached((1,), 0, n)
        with pytest.raises(ValueError):
            giambelli(Partition((1,)), 0, n)


def test_e_to_h_rewrite_golden():
    assert e_to_h_rewrite(e_(1)) == h_(1)
    assert e_to_h_rewrite(e_(2)) == h_(1) ** 2 - h_(2)
    assert e_to_h_rewrite(ONE) == ONE
    assert e_to_h_rewrite(h_(2) + c_(1)) == h_(2) + c_(1)


def test_e_to_h_rewrite_is_ring_homomorphism():
    rng = random.Random(3)
    for _ in range(8):
        def rand_poly():
            acc = MvPolynomial.const(rng.randrange(-2, 3))
            for _ in range(rng.randrange(1, 3)):
                acc = acc + e_(rng.randrange(1, 4)) * rng.randrange(-2, 3)
            return acc
        a, b = rand_poly(), rand_poly()
        assert e_to_h_rewrite(a * b) == e_to_h_rewrite(a) * e_to_h_rewrite(b)
        assert e_to_h_rewrite(a + b) == e_to_h_rewrite(a) + e_to_h_rewrite(b)


def test_e_to_h_consistent_with_series_inverse():
    # rewriting the coefficients of E_r must invert the free h series
    for r in (1, 2, 3):
        order = 5
        rewritten = [e_to_h_rewrite(p) for p in e_series_coeffs(r, order)]
        hfree = [ONE] + [h_(j) for j in range(1, order + 1)]
        prod = series_mul(rewritten, hfree, r)
        assert prod[0] == ONE and all(p.is_zero() for p in prod[1:r + 1])


def test_generic_factor_poly():
    assert generic_factor_poly(1) == [-e_(1), ONE]
    assert generic_factor_poly(2) == [e_(2), -e_(1), ONE]
    assert generic_factor_poly(3) == [-e_(3), e_(2), -e_(1), ONE]


def test_generic_monic_coeffs():
    assert generic_monic_coeffs(2) == [c_(2), -c_(1), ONE]
