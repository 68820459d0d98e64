import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import uda
from uda import symfunc
from uda.determinant import exact_det
from uda.partitions import EMPTY, Partition, partitions_in_rectangle
from uda.poly import (FAM_C, FAM_H, MvPolynomial, ONE, ZERO, c_, e_, h_,
                      series_mul)
from uda.symfunc import (c_series_coeffs, e_series_coeffs, e_to_h_rewrite,
                         generic_factor_poly, generic_monic_coeffs, giambelli,
                         giambelli_term_bound, h_deformed, s_coefficient)
from uda.symfunc import _boxed_partition_counts, _giambelli_cached
from reference import series_inverse, specialize_family_zero


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


def test_s_coefficients_are_computed_once_each():
    # a walk up to k computes s_0..s_k once each: a series per order would
    # repeat the work, and one of an order rounded up would compute the
    # coefficients above k, each dearer than the one before
    import uda
    from uda.exterior import x_in_xc

    uda.clear_caches()
    walked = [s_coefficient(k, 4) for k in range(41)]
    assert s_coefficient.cache_info().currsize == 41
    assert walked == list(series_inverse(c_series_coeffs(40, 4), 40))
    uda.clear_caches()
    x_in_xc(33, 12)
    assert s_coefficient.cache_info().currsize == 34
    # filled upwards, so a cold read far up recurses only a few levels
    assert s_coefficient(3000, 1) == c_(1) ** 3000
    assert s_coefficient(-1, 4) == ZERO


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
        assert specialize_family_zero(h_deformed(j, 4), FAM_C) == \
            (ONE if j == 0 else h_(j))
    assert s_coefficient(0, 4) == ONE
    for i in range(1, 5):
        assert specialize_family_zero(s_coefficient(i, 4), FAM_C) == ZERO
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


# shapes on both sides of the choice of Laplace row: columns, rectangles
# and staircases expand along row r, hooks along row 1, and their minors
# mix the two
_LONG_SHAPES = ([(1,) * k for k in range(1, 10)]
                + [(2,) * k for k in range(1, 8)]
                + [(3,) * k for k in range(1, 7)]
                + [(a,) + (1,) * b for a in range(2, 7) for b in range(1, 8)]
                + [(a, 2) + (1,) * b for a in range(2, 5) for b in range(1, 5)]
                + [(3, 3, 3) + (1,) * b for b in range(1, 6)]
                + [tuple(range(k, 0, -1)) for k in range(2, 7)])


def test_giambelli_recursion_matches_jacobi_trudi_determinant():
    # every lambda in the r x (n-r) rectangle up to (4,8), also asked for
    # with r beyond its length, the stable case n = None, and the longer
    # shapes above at n = None, 0 and 3.  About 1.3 s of CPU on a 2-vCPU
    # Xeon VM; the budget allows about eight times that
    cases = [(r, n, lam) for n in range(1, 9) for r in range(1, min(n, 4) + 1)
             for lam in partitions_in_rectangle(r, n - r)]
    cases += [(r, None, lam) for r in range(1, 5)
              for lam in partitions_in_rectangle(r, 3)]
    cases += [(len(parts), n, Partition(parts)) for n in (None, 0, 3)
              for parts in _LONG_SHAPES]
    start = time.process_time()
    for r, n, lam in cases:
        for size in (r, r + 1, r + 2):
            assert _giambelli_cached(lam.parts, size, n) == \
                _jacobi_trudi_det(lam, size, n), (lam, size, n)
    assert time.process_time() - start < 10.0


def _row_one_det(parts, r, n, cache):
    """The Schur determinant expanded along row 1 at every size: the
    reference for the products that the library's choice of row saves."""
    if r > len(parts):
        r = len(parts)
    if r == 0:
        return ONE
    if (parts, r) not in cache:
        pairs = []
        for j in range(r):
            entry = h_deformed(parts[j] - j, n)
            if entry:
                pairs.append((-entry if j & 1 else entry, _row_one_det(
                    tuple(p + 1 for p in parts[:j]) + parts[j + 1:], r - 1,
                    n, cache)))
        cache[parts, r] = symfunc._sum_of_products(pairs)
    return cache[parts, r]


def test_giambelli_forms_fewer_term_products_than_row_one(monkeypatch):
    # every term product a_i * b_j that _sum_of_products forms, counted for
    # the library's expansion and for the row-1 reference, from empty
    # caches with the entries h_k(c) made beforehand
    products = 0
    plain = symfunc._sum_of_products

    def counting(pairs):
        nonlocal products
        pairs = list(pairs)
        products += sum(len(a.terms) * len(b.terms) for a, b in pairs)
        return plain(pairs)

    def both(shapes, n):
        nonlocal products
        uda.clear_caches()
        for k in range(max(p[0] + len(p) for p in shapes)):
            h_deformed(k, n)
        monkeypatch.setattr(symfunc, "_sum_of_products", counting)
        products, cache = 0, {}
        ref = [_row_one_det(p, len(p), n, cache) for p in shapes]
        ref_products, products = products, 0
        got = [_giambelli_cached(p, len(p), n) for p in shapes]
        monkeypatch.setattr(symfunc, "_sum_of_products", plain)
        assert got == ref
        return ref_products, products

    # (shapes, n, the least saving in per cent): 27,078 -> 16,403 for 1^12,
    # 115,837 -> 66,259 for 2^8, 572,171 -> 276,607 for 4^6 and 129,561 ->
    # 116,358 over the lambda of the schur-det sweep at (4,9)
    for shapes, n, saving in [
            ([(1,) * 12], None, 30), ([(2,) * 8], 10, 30), ([(4,) * 6], 10, 40),
            ([lam.parts for lam in partitions_in_rectangle(4, 5) if lam], 9, 8)]:
        ref, got = both(shapes, n)
        assert 100 * got <= (100 - saving) * ref, (shapes, n, ref, got)
    # hooks, where row r would form up to 2.5 times the products of row 1
    for parts, n in [((11, 2) + (1,) * 7, None), ((3, 3, 3) + (1,) * 12, None),
                     ((7, 2, 2) + (1,) * 13, 4), ((3,) + (1,) * 19, None)]:
        ref, got = both([parts], n)
        assert got <= ref, (parts, n, ref, got)


def test_giambelli_caches_minors_and_builds_the_requested_determinant():
    # over the (4,9) box by ascending |lambda|, the schur-det sweep: the 70
    # determinants of four parts are built for their callers and kept out
    # of the memo, which no other determinant of four rows reads; a shorter
    # lambda is kept at its own length, the key under which it is a minor
    uda.clear_caches()
    box = list(partitions_in_rectangle(4, 5))
    got = [giambelli(lam, 4, 9) for lam in box]
    info = _giambelli_cached.cache_info()
    # 122 and 379 with the shorter ones also keyed by r = 4, and 192 and
    # 379 with the four-part ones kept too
    assert (info.currsize, info.hits) == (66, 379)
    for lam, p in zip(box, got):
        assert p == _giambelli_cached(lam.parts, 4, 9), lam
    full = [(lam, p) for lam, p in zip(box, got) if len(lam) == 4]
    assert len(full) == 70
    lam, p = full[-1]
    want = MvPolynomial(dict(p.terms))
    p.terms.clear()   # the caller's to change
    assert not p and giambelli(lam, 4, 9) == want
    short = Partition((2, 1))
    cached = giambelli(short, 4, 9)
    assert giambelli(short, 4, 9) is cached
    # the memo entry of the minor of two rows, which the caller's own
    # determinant of two rows equals
    assert _giambelli_cached((2, 1), 2, 9) is cached == giambelli(short, 2, 9)
    with pytest.raises((AttributeError, TypeError)):
        cached.terms.clear()


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


@pytest.mark.parametrize("n", [None, 0, 3, 9])
def test_term_bound_of_a_column_is_its_term_count(n):
    for k in range(13):
        lam = Partition((1,) * k)
        assert giambelli_term_bound(lam, n) == len(giambelli(lam, k, n).terms)


@pytest.mark.parametrize("n", [None, 0, 3, 9])
def test_term_bound_matches_the_two_call_formula(n):
    # when n >= lam_1 + len(lam) - 1 cuts no c, the bound reuses its h-counts
    # as its c-counts; the reference here computes both
    def two_calls(lam):
        rows, weight = len(lam.parts), sum(lam.parts)
        if not rows:
            return 1
        top = lam.parts[0] + rows - 1
        hs = _boxed_partition_counts(rows, top, weight)
        cs = _boxed_partition_counts(rows, top if n is None else min(top, n),
                                     weight)
        return sum(hs[a] * cs[weight - a] for a in range(weight + 1))

    for lam in partitions_in_rectangle(4, 5):
        assert giambelli_term_bound(lam, n) == two_calls(lam), lam


@pytest.mark.parametrize("n", [None, 2, 5])
def test_term_bound_bounds_every_determinant(n):
    for lam in partitions_in_rectangle(3, 4):
        assert giambelli_term_bound(lam, n) >= len(giambelli(lam, 3, n).terms)
    # a single part: h_m(c), one term per c_i with i <= min(m, n)
    assert giambelli_term_bound(Partition((30,)), n) == (31 if n is None else n + 1)


def test_every_series_reads_the_one_alternating_builder():
    # c(z) and E_r(z) are [1, -v1, v2, ...] cut at their bound; f(X), p(X)
    # and X^j(c) are their reversals; 1/c(w) and 1/H(-z) give s_k and e_m
    from uda.exterior import xc_expand
    from uda.symfunc import _e_in_h
    for n in (None, 0, 2, 5):
        for order in range(8):
            want = [ONE] + [(-1) ** i * c_(i) if n is None or i <= n else ZERO
                            for i in range(1, order + 1)]
            assert c_series_coeffs(order, n) == want
            assert list(xc_expand(order, n)) == want[::-1]
            assert [s_coefficient(k, n) for k in range(order + 1)] == \
                series_inverse(want, order)
        assert generic_monic_coeffs(order) == c_series_coeffs(order, None)[::-1]
    for r in range(1, 6):
        assert e_series_coeffs(r, r + 2) == [ONE] + [
            (-1) ** i * e_(i) for i in range(1, r + 1)] + [ZERO, ZERO]
        assert generic_factor_poly(r) == e_series_coeffs(r, r)[::-1]
    h_minus = [ONE] + [(-1) ** k * h_(k) for k in range(1, 8)]
    assert [_e_in_h(m) for m in range(8)] == [
        e_to_h_rewrite(e) for e in [ONE] + [e_(m) for m in range(1, 8)]]
    assert [_e_in_h(m) for m in range(8)] == series_inverse(h_minus, 7)


def test_series_make_no_variable_past_their_bound():
    # a fresh process's layout holds exactly the variables the calls name:
    # c(z) through min(j, n) and h_j .. h_{j-n}, never all h's through j, so
    # that every later packed monomial stays as narrow as before
    script = (
        "from uda import poly\n"
        "from uda.exterior import xc_expand\n"
        "from uda.symfunc import h_deformed, s_coefficient\n"
        "h_deformed(5000, 3)\n"
        "print(len(poly._VARS), sorted(poly._VARS))\n"
        "s_coefficient(3000, 1)\n"
        "xc_expand(40, 4)\n"
        "print(len(poly._VARS))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    want = [(FAM_C, 1), (FAM_C, 2), (FAM_C, 3)] + [(FAM_H, j)
                                                  for j in range(4997, 5001)]
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"7 {want}\n8\n"
