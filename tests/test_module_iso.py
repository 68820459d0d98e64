import random

from uda.exterior import BasisTag, ExtElement, convert_basis, unit_wedge
from uda.module_iso import (poly_to_wedge, quotient_project, schur_map_of_poly,
                            schur_map_to_poly, wedge_to_poly)
from uda.partitions import EMPTY, Partition
from uda.poly import MvPolynomial, ONE, c_, e_, h_
from uda.symfunc import giambelli, h_deformed

X = BasisTag.PLAIN_X
XC = BasisTag.DEFORMED_XC


def test_one_maps_to_unit_wedge():
    for r in (1, 2, 3):
        assert poly_to_wedge(ONE, r) == unit_wedge(r)


def test_schur_determinant_maps_to_deformed_monomial():
    # Delta_{(2,1)} in the deformed functions lands on X^3(c) ^ X^1(c)
    p = giambelli(Partition((2, 1)), 2, 4)
    got = poly_to_wedge(p, 2, 4)
    want = convert_basis(ExtElement(2, XC, {1 << 3 | 1 << 1: ONE}), X, 4)
    assert got == want


def test_giambelli_consistency_full_rectangle():
    # every Schur determinant acts on the unit wedge as its deformed monomial,
    # across the whole 3 x 4 rectangle
    from uda.partitions import maya_mask, partitions_in_rectangle
    r, n = 3, 7
    for lam in partitions_in_rectangle(r, 4):
        image = poly_to_wedge(giambelli(lam, r, n), r, n)
        want = convert_basis(
            ExtElement.basis_monomial(maya_mask(lam, r), XC), X, n)
        assert image == want, lam


def test_h2_maps_to_single_row_wedge():
    assert poly_to_wedge(h_(2), 2) == ExtElement(2, X, {1 << 3 | 1 << 0: ONE})


def test_e_variables_rewritten_before_acting():
    # e_2 = h1^2 - h2 acts as the column wedge X^2 ^ X^1
    assert poly_to_wedge(e_(2), 2) == ExtElement(2, X, {1 << 2 | 1 << 1: ONE})


def test_wedge_to_poly_golden():
    assert wedge_to_poly(unit_wedge(2, XC), 4) == ONE
    u = ExtElement(2, XC, {1 << 3 | 1 << 1: ONE})
    assert wedge_to_poly(u, 4) == giambelli(Partition((2, 1)), 2, 4)


def test_round_trip_random_small_polynomials():
    rng = random.Random(55)
    for _ in range(10):
        r = rng.choice([1, 2, 3])
        coords = {}
        for _ in range(rng.randrange(1, 4)):
            parts = sorted((rng.randrange(0, 4) for _ in range(rng.randrange(0, r + 1))),
                           reverse=True)
            lam = Partition(tuple(parts))
            coords[lam] = MvPolynomial.const(rng.randrange(-3, 4)) + \
                c_(rng.randrange(1, 4)) * rng.randrange(0, 2)
        p = schur_map_to_poly(coords, r, 4)
        # Schur normal forms are fixed points of the round trip
        assert wedge_to_poly(poly_to_wedge(p, r, 4), 4) == p


def test_round_trip_reduces_to_normal_form():
    # h1*h2 is not a normal form for r = 1; the round trip straightens it
    p = h_(1) * h_(2)
    assert wedge_to_poly(poly_to_wedge(p, 1, None), None) == h_(3)


def test_schur_map_of_poly_matches_wedge_route():
    rng = random.Random(66)
    for _ in range(6):
        r = rng.choice([2, 3])
        p = h_(rng.randrange(1, 5)) * h_(rng.randrange(1, 5)) + \
            c_(1) * h_(rng.randrange(1, 5)) + rng.randrange(-2, 3)
        from uda.exterior import wedge_coords
        assert schur_map_of_poly(p, r, 4) == wedge_coords(poly_to_wedge(p, r, 4), 4)


def test_quotient_project_golden():
    # the first ideal generator dies
    for (r, n) in ((2, 4), (3, 5), (1, 2)):
        gen = h_deformed(n - r + 1, n)
        assert quotient_project(gen, r, n) == {}
    assert quotient_project(ONE, 2, 4) == {EMPTY: ONE}
    # the top in-rectangle complete function survives untouched
    for (r, n) in ((2, 4), (3, 5)):
        assert quotient_project(h_deformed(n - r, n), r, n) == \
            {Partition((n - r,)): ONE}


def test_quotient_project_all_high_generators_die():
    # every h_m(c) with m > n - r lies in the ideal
    for (r, n) in ((2, 4), (3, 5)):
        for m in range(n - r + 1, n + 3):
            assert quotient_project(h_deformed(m, n), r, n) == {}


def test_quotient_project_respects_products():
    # normal form is multiplicative modulo the ideal: reduce(a*b) equals
    # reduce(reduce(a)*reduce(b))
    rng = random.Random(77)
    for _ in range(5):
        r, n = 2, 4
        a = h_deformed(rng.randrange(1, 4), n) + rng.randrange(-1, 2)
        b = h_deformed(rng.randrange(1, 4), n)
        direct = quotient_project(a * b, r, n)
        ra = schur_map_to_poly(quotient_project(a, r, n), r, n)
        rb = schur_map_to_poly(quotient_project(b, r, n), r, n)
        assert quotient_project(ra * rb, r, n) == direct
