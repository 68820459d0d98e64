import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from uda.bilaurent import BiLaurent
from uda.errors import WindowViolation
from uda.glaction import (ActionResult, StarOperator, _finite_closed_form,
                          bracket_check, generating_action,
                          generating_action_adapted, generating_action_finite,
                          mixed_schur_det, quotient_action, rep_matrix,
                          star_oracle, star_oracle_coords,
                          universal_factorization)
from uda.module_iso import quotient_project, schur_map_of_poly
from uda.partitions import EMPTY, Partition, partitions_in_rectangle
from uda.poly import FAM_C, ONE, ZERO, c_, e_, h_
from uda.symfunc import e_series_coeffs, e_to_h_rewrite, h_deformed


# -- the brute-force star action ----------------------------------------------------


def test_star_golden_deformed_contraction():
    res = star_oracle(StarOperator.plain(3, 2), Partition((2, 1)), 2)
    assert res == -c_(1) * (h_(1) * h_(2) - h_(3)) + c_(1) ** 2 * h_(2)


def test_star_golden_rank_three():
    res = star_oracle(StarOperator.plain(5, 1), EMPTY, 3)
    assert res == h_(4) - h_(1) * h_(3)


def test_star_golden_quotient_case():
    coords = star_oracle_coords(StarOperator.adapted(2, 1), Partition((2, 1)), 2, 4)
    assert coords == {Partition((2, 2)): ONE}
    # the same class written as h_2(c)^2, reduced
    assert quotient_project(h_deformed(2, 4) ** 2, 2, 4) == coords


def test_star_is_linear_over_scalars():
    # acting on c1 * Delta equals c1 * acting on Delta
    op = StarOperator.plain(2, 1)
    base = star_oracle(op, Partition((1,)), 2)
    assert (c_(1) * base) == c_(1) * star_oracle(op, Partition((1,)), 2)


def test_star_operator_with_general_vector_part():
    # the action is linear in the vector polynomial f(X)
    from uda.exterior import BasisTag, DeltaForm
    f = (ZERO, c_(1), ONE + c_(2))            # f(X) = c1 X + (1 + c2) X^2
    op = StarOperator(f, BasisTag.PLAIN_X, DeltaForm(1))
    lam = Partition((2, 1))
    combined = star_oracle(op, lam, 2)
    parts = c_(1) * star_oracle(StarOperator.plain(1, 1), lam, 2) + \
        (ONE + c_(2)) * star_oracle(StarOperator.plain(2, 1), lam, 2)
    # both sides in Schur normal form
    assert schur_map_of_poly(combined, 2, None) == schur_map_of_poly(parts, 2, None)


def test_annihilating_contraction_gives_zero_column():
    # del^j(s) kills the basis monomial when j matches no wedge exponent
    coords = star_oracle_coords(StarOperator.adapted(0, 2), Partition((2, 1)), 2, 4)
    assert coords == {} or all(not v for v in coords.values())


# -- the determinant kernel ------------------------------------------------------------


def test_mixed_det_rank_one():
    det = mixed_schur_det(Partition((2,)), 1, 4)
    assert det.coeffs == {(0, -2): ONE, (0, -1): -c_(1), (0, 0): c_(2)}


def test_mixed_det_rank_two_expansion():
    det = mixed_schur_det(EMPTY, 2, 0)
    # det [[w^-1, 1], [h1 - 1/z, 1]] with c = 0
    assert det.coeff(0, -1) == ONE
    assert det.coeff(0, 0) == -h_(1)
    assert det.coeff(-1, 0) == ONE


def test_mixed_det_rank_two_quotient_case():
    # the 2x2 kernel for (2,1), r=2, n=4: top row w^-3(c), w^-1(c); second
    # row the shifts of h_3(c) and h_1(c)
    det = mixed_schur_det(Partition((2, 1)), 2, 4)
    h1c, h2c, h3c = (h_deformed(k, 4) for k in (1, 2, 3))
    wm3 = BiLaurent({(0, -3): ONE, (0, -2): -c_(1), (0, -1): c_(2), (0, 0): -c_(3)})
    wm1 = BiLaurent({(0, -1): ONE, (0, 0): -c_(1)})
    expected = wm3 * (BiLaurent.scalar(h1c) - BiLaurent.monomial(-1, 0)) - \
        wm1 * (BiLaurent.scalar(h3c) - BiLaurent.monomial(-1, 0) * h2c)
    assert det.coeffs == expected.coeffs


def test_mixed_det_rank_three_matches_worked_matrix():
    # the worked 3x3 case: rows (w^-2(c), w^-1(c), 1), (h1(c)-1/z, 1, 0),
    # (h2(c)-h1(c)/z, h1(c)-1/z, 1)
    det = mixed_schur_det(EMPTY, 3, 4)
    h1c, h2c = h_deformed(1, 4), h_deformed(2, 4)
    shift1 = BiLaurent.scalar(h1c) - BiLaurent.monomial(-1, 0)   # h1(c) - 1/z
    wm2 = BiLaurent({(0, -2): ONE, (0, -1): -c_(1), (0, 0): c_(2)})
    wm1 = BiLaurent({(0, -1): ONE, (0, 0): -c_(1)})
    expected = wm2 - wm1 * shift1 + shift1 * shift1 - \
        (BiLaurent.scalar(h2c) - BiLaurent.monomial(-1, 0) * h1c)
    assert det.coeffs == expected.coeffs


# -- generating functions ---------------------------------------------------------------


def test_generating_action_unit_rank_one():
    res = generating_action(EMPTY, 1, zmax=4)
    for i in range(5):
        assert res.series.coeff(i, 0) == (ONE if i == 0 else h_(i))


def test_generating_action_golden_coefficient():
    res = generating_action(EMPTY, 3, zmax=6)
    assert res.series.coeff(5, -1) == h_(4) - h_(1) * h_(3)
    assert res.series.coeff(0, 0) == ONE


def test_generating_action_times_elementary_series():
    # multiplying back by the degree-3 elementary polynomial leaves the
    # two-column triangle: E_2 + (z/w) E_1 + z^2/w^2
    res = generating_action(EMPTY, 3, zmax=6)
    e3 = BiLaurent.from_z_series([e_to_h_rewrite(p) for p in e_series_coeffs(3, 3)],
                                 3, truncated_above=False)
    prod = res.series * e3
    rhs = {}
    for i, p in enumerate(e_series_coeffs(2, 2)):
        rhs[(i, 0)] = e_to_h_rewrite(p)
    for i, p in enumerate(e_series_coeffs(1, 1)):
        rhs[(i + 1, -1)] = e_to_h_rewrite(p)
    rhs[(2, -2)] = ONE
    for key in sorted(set(prod.coeffs) | set(rhs)):
        z, w = key
        if not prod.valid_at(z, w):
            continue
        got, want = prod.coeff(z, w), rhs.get(key, ZERO)
        if z <= 3:
            assert got == want, key
        else:
            # beyond the elementary degree the identity holds in normal form
            assert schur_map_of_poly(got, 3, None) == \
                schur_map_of_poly(want, 3, None), key


def test_generating_action_matches_oracle_plain():
    rng = random.Random(8)
    for _ in range(4):
        r = rng.choice([1, 2])
        lam = rng.choice(partitions_in_rectangle(r, 2))
        res = generating_action(lam, r, zmax=3)
        for i in range(4):
            for j in range(5):
                if not res.series.valid_at(i, -j):
                    continue
                want = star_oracle_coords(StarOperator.plain(i, j), lam, r,
                                          None, quotient=False)
                assert res.coords_at(i, j) == want


def test_generating_action_adapted_matches_oracle():
    rng = random.Random(9)
    for lam in (EMPTY, Partition((1,)), Partition((2, 1))):
        res = generating_action_adapted(lam, 2, 4, zmax=3, wmax=1)
        for i in range(4):
            for j in range(6):
                if not res.series.valid_at(i, -j):
                    continue
                want = star_oracle_coords(StarOperator.adapted(i, j), lam, 2,
                                          4, quotient=False)
                assert res.schur_form.get((i, -j), {}) == want


def test_generating_action_adapted_specialises_to_plain():
    # with every c killed, the scaling factors collapse to 1
    lam = Partition((1, 1))
    plain = generating_action(lam, 2, zmax=3, n=0)
    adapted = generating_action_adapted(lam, 2, 0, zmax=3)
    for key, val in plain.series.coeffs.items():
        assert adapted.series.coeffs.get(key, ZERO) == val


def test_adapted_positive_w_terms_are_flagged_not_dropped():
    res = generating_action_adapted(Partition((2, 1)), 2, 4, zmax=2, wmax=2)
    assert res.positive_w
    assert all(w <= 0 for (_, w) in res.schur_form)
    assert all(w > 0 for (_, w) in res.positive_w)


def test_coords_at_rejects_negative_indices():
    # (0, -1) is inside the window, at w^1, where no operator of the family
    # lives; the coefficient there is nonzero, so {} would be a false zero
    res = generating_action_adapted(Partition((2, 1)), 2, 4, zmax=2, wmax=2)
    assert res.series.coeff(0, 1) and (0, 1) in res.positive_w
    fin = generating_action_finite(Partition((2, 1)), 2, 4)
    for result in (res, fin):
        for i, j in ((0, -1), (-1, 0), (-2, -3)):
            with pytest.raises(ValueError):
                result.coords_at(i, j)


def test_finite_action_golden_schur_form():
    res = generating_action_finite(Partition((2, 1)), 2, 4)
    assert res.schur_form == {
        (0, -1): {Partition((2,)): ONE},
        (1, -1): {Partition((2, 1)): ONE},
        (2, -1): {Partition((2, 2)): ONE},
        (0, -3): {EMPTY: -ONE},
        (2, -3): {Partition((1, 1)): ONE},
        (3, -3): {Partition((2, 1)): ONE},
    }
    assert res.series is None
    assert all(0 <= z <= 3 and -3 <= w <= 0 for z, w in res.schur_form)


def test_finite_action_golden_h_form():
    # the same six coefficients written in the deformed complete functions
    h1c, h2c = h_deformed(1, 4), h_deformed(2, 4)
    display = {
        (0, -1): h2c,
        (1, -1): h1c * h2c,
        (2, -1): h2c * h2c,
        (0, -3): -ONE,
        (2, -3): h1c * h1c - h2c,
        (3, -3): h1c * h2c,
    }
    res = generating_action_finite(Partition((2, 1)), 2, 4)
    projected = {key: quotient_project(p, 2, 4) for key, p in display.items()}
    assert projected == res.schur_form


def test_finite_action_window_and_validity():
    # the finite result is exact everywhere, so it carries no window
    res = generating_action_finite(Partition((1,)), 2, 4)
    assert res.series is None
    assert all(0 <= z <= 3 and -3 <= w <= 0 for z, w in res.schur_form)
    with pytest.raises(WindowViolation):
        # outside any computed window claim
        ActionResult(EMPTY, 1, None, "plain",
                     BiLaurent.from_z_series([ONE], 0), {}).coords_at(5, 0)


def test_finite_action_does_no_polynomial_work(monkeypatch):
    # the finite result is read off by index substitution alone: it fills
    # no Schur determinant or h_j(c) cache and builds no Laurent series
    import uda
    import uda.symfunc as sf

    def no_series(*args, **kwargs):
        raise AssertionError("BiLaurent built")

    uda.clear_caches()
    monkeypatch.setattr(BiLaurent, "__init__", no_series)
    res = generating_action_finite(Partition((2, 1)), 2, 4)
    assert sf._giambelli_cached.cache_info().currsize == 0
    assert sf.h_deformed.cache_info().currsize == 0
    assert res.series is None
    # exact everywhere: beyond the operator range the coordinates are zero
    assert res.coords_at(6, 6) == {}
    assert res.coords_at(2, 1) == {Partition((2, 2)): 1}


def test_finite_action_is_adapted_form_cut_at_w_nonpositive():
    for (r, n) in ((2, 4), (3, 5)):
        for lam in partitions_in_rectangle(r, n - r):
            adapted = generating_action_adapted(lam, r, n, zmax=n - 1, wmax=0)
            want = {}
            for (z, w), coords in adapted.schur_form.items():
                rect = {mu: v for mu, v in coords.items()
                        if mu.part(1) <= n - r}
                if rect and w >= -(n - 1):
                    want[(z, w)] = rect
            assert _finite_closed_form(lam, r, n) == want, (r, n, lam)
            res = generating_action_finite(lam, r, n)
            assert res.schur_form == want, (r, n, lam)
            assert not res.positive_w


def test_finite_action_oracle_equivalence_small():
    for lam in partitions_in_rectangle(2, 2):
        res = generating_action_finite(lam, 2, 4)
        for i in range(4):
            for j in range(4):
                want = star_oracle_coords(StarOperator.adapted(i, j), lam, 2, 4)
                assert res.coords_at(i, j) == want, (lam, i, j)


def test_window_guard_fires_on_corrupted_series(monkeypatch):
    # the vanishing of projected coefficients beyond z^{n-1} rests on the
    # series factors (the determinant never enters it); corrupting one sign
    # of the c(z) factor must trip the margin check
    import uda.glaction as gl
    from uda import clear_caches
    real = gl.c_series_coeffs

    def corrupted(order, n):
        out = real(order, n)
        return out[:-1] + [-out[-1]] if len(out) > 1 else out

    monkeypatch.setattr(gl, "c_series_coeffs", corrupted)
    clear_caches()
    try:
        with pytest.raises(WindowViolation):
            _finite_closed_form(Partition((2, 1)), 2, 4)
    finally:
        monkeypatch.undo()
        clear_caches()


def test_finite_action_identity_component():
    # the (z^0, w^0) coefficient on the empty partition is 1 in every rank
    for (r, n) in ((1, 2), (2, 3), (3, 4)):
        res = generating_action_finite(EMPTY, r, n)
        assert res.coords_at(0, 0) == {EMPTY: ONE}


def test_finite_action_rejects_bad_partition():
    with pytest.raises(ValueError):
        generating_action_finite(Partition((3,)), 2, 4)
    with pytest.raises(ValueError):
        generating_action_finite(EMPTY, 3, 2)


def test_ideal_generators_die():
    for (r, n) in ((2, 4), (3, 5)):
        for k in range(1, r + 1):
            gen = Partition((n - r + k,))
            for i in range(n):
                for j in range(n):
                    coords = star_oracle_coords(StarOperator.adapted(i, j),
                                                gen, r, n)
                    assert coords == {}, (r, n, k, i, j)


def test_specialization_matches_zero_c_pipeline():
    for lam in partitions_in_rectangle(2, 2):
        full = _finite_closed_form(lam, 2, 4)
        zc = _finite_closed_form(lam, 2, 4, zero_c=True)
        for key in set(full) | set(zc):
            reduced = {}
            for mu, p in full.get(key, {}).items():
                q = p.specialize_family_zero(FAM_C)
                if q:
                    reduced[mu] = q
            assert reduced == zc.get(key, {}), (lam, key)


# -- representation matrices -----------------------------------------------------------


def test_rep_matrix_golden_column():
    mat = rep_matrix(2, 1, 2, 4)
    assert mat.dimension == 6
    col = {mu: coeff for (mu, lam), coeff in mat.entries.items()
           if lam == Partition((2, 1))}
    assert col == {Partition((2, 2)): ONE}


def test_rep_matrix_zero_column():
    # del^j(s) with no matching slot annihilates the monomial
    mat = rep_matrix(0, 2, 2, 4)
    col = [mu for (mu, lam) in mat.entries if lam == Partition((2, 1))]
    assert col == []


def test_bracket_trivial_and_nonzero_cases():
    assert bracket_check(0, 0, 0, 0, 2, 4)
    # delta_bc = 1 with a nonzero right-hand side
    assert bracket_check(1, 2, 2, 0, 2, 4)
    rhs = rep_matrix(1, 0, 2, 4)
    assert rhs.entries  # the right-hand side really is nonzero


def test_bracket_random_quadruples():
    rng = random.Random(14)
    for _ in range(12):
        quad = tuple(rng.randrange(4) for _ in range(4))
        assert bracket_check(*quad, 2, 4), quad


def test_bracket_rank_one():
    for a in range(3):
        for b in range(3):
            assert bracket_check(a, b, (a + 1) % 3, (b + 1) % 3, 1, 3)


def test_rep_matrix_zero_c_is_specialised_symbolic_matrix():
    # the index-substitution entries are c-free, so they equal the matrix
    # read from the closed form with every c specialised to zero
    basis = partitions_in_rectangle(2, 2)
    zc = {lam: _finite_closed_form(lam, 2, 4, zero_c=True) for lam in basis}
    for i in range(4):
        for j in range(4):
            want = {(mu, lam): coeff for lam in basis
                    for mu, coeff in zc[lam].get((i, -j), {}).items()}
            assert rep_matrix(i, j, 2, 4).entries == want, (i, j)


@st.composite
def rectangle_cases(draw):
    n = draw(st.integers(1, 12))
    r = draw(st.integers(1, min(n, 6)))
    parts = sorted(draw(st.lists(st.integers(0, n - r), min_size=r, max_size=r)),
                   reverse=True)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    return i, j, Partition(parts), r, n


@settings(max_examples=300, deadline=None)
@given(rectangle_cases())
def test_quotient_action_matches_oracle(case):
    i, j, lam, r, n = case
    image = quotient_action(i, j, lam, r, n)
    got = {} if image is None else dict([image])
    assert got == star_oracle_coords(StarOperator.adapted(i, j), lam, r, n)


def test_quotient_action_rejects_bad_input():
    for args in ((4, 0, EMPTY, 2, 4), (0, -1, EMPTY, 2, 4),
                 (0, 0, Partition((3,)), 2, 4), (0, 0, Partition((1, 1, 1)), 2, 4),
                 (0, 0, EMPTY, 3, 2)):
        with pytest.raises(ValueError):
            quotient_action(*args)


def test_quotient_signs_are_plain_ints():
    # the substitution, the matrices and the finite Schur form carry the
    # signs as the ints 1 and -1, and the sign tables are the matrices' own
    import uda.glaction as gl
    for r, n in ((2, 4), (3, 5)):
        basis = partitions_in_rectangle(r, n - r)
        for lam in basis:
            for i in range(n):
                for j in range(n):
                    image = quotient_action(i, j, lam, r, n)
                    if image is not None:
                        assert type(image[1]) is int and image[1] in (1, -1)
            for coords in generating_action_finite(lam, r, n).schur_form.values():
                assert all(type(v) is int for v in coords.values())
        for i in range(n):
            for j in range(n):
                entries = rep_matrix(i, j, r, n).entries
                assert all(type(v) is int for v in entries.values())
                assert gl._signs(i, j, r, n) == entries


def test_cached_results_are_read_only():
    # the finite result is built fresh on every call, so clearing its maps
    # cannot reach a later call; its fields cannot be reassigned
    import uda.glaction as gl
    res = generating_action_finite(Partition((1,)), 2, 4)
    for clobber in (lambda: setattr(res, "schur_form", {}),
                    lambda: setattr(res, "positive_w", {}),
                    lambda: setattr(res, "series", BiLaurent.zero())):
        with pytest.raises(AttributeError):
            clobber()
    res.schur_form[(0, 0)].clear()
    res.schur_form.clear()
    res.positive_w[(9, 9)] = {}
    again = generating_action_finite(Partition((1,)), 2, 4)
    assert sorted(again.schur_form) == [(0, 0), (1, -2), (1, 0), (2, -2),
                                        (3, -2), (3, 0)]
    assert again.schur_form[(0, 0)] == {Partition((1,)): ONE}
    assert not again.positive_w
    # the sign tables behind bracket_check are cached and shared
    assert bracket_check(1, 0, 0, 1, 2, 4)
    signs = gl._signs(1, 0, 2, 4)
    for clobber in (lambda: signs.clear(),
                    lambda: signs.__setitem__((EMPTY, EMPTY), 1)):
        with pytest.raises((TypeError, AttributeError)):
            clobber()
    assert gl._signs(1, 0, 2, 4) == rep_matrix(1, 0, 2, 4).entries


@st.composite
def finite_cases(draw):
    n = draw(st.integers(1, 6))
    r = draw(st.integers(1, min(n, 3)))
    parts = sorted(draw(st.lists(st.integers(0, n - r), min_size=r, max_size=r)),
                   reverse=True)
    return Partition(parts), r, n


@settings(max_examples=40, deadline=None)
@given(finite_cases())
def test_finite_action_matches_closed_form(case):
    lam, r, n = case
    res = generating_action_finite(lam, r, n)
    closed = _finite_closed_form(lam, r, n)
    assert res.schur_form == closed


# -- universal factorisation ---------------------------------------------------------


def test_universal_factorization_boundary():
    p, q, ok = universal_factorization(2, 2)
    assert q == [ONE]
    assert ok


def test_universal_factorization_small_golden():
    p, q, ok = universal_factorization(1, 2)
    assert p == [-e_(1), ONE]
    assert q == [h_deformed(1, 2), ONE]
    assert ok


def test_universal_factorization_sweep():
    for n in range(1, 6):
        for r in range(1, n + 1):
            _, _, ok = universal_factorization(r, n)
            assert ok, (r, n)


def test_universal_factorization_detects_wrong_product():
    # sanity: the checker is not a tautology; a broken complement fails
    from uda.poly import series_mul
    from uda.symfunc import generic_factor_poly, generic_monic_coeffs
    r, n = 2, 4
    p = generic_factor_poly(r)
    bad_q = [h_deformed(n - r - m, n) + ONE for m in range(n - r)] + [ONE]
    diff = series_mul(p, bad_q, n)
    target = generic_monic_coeffs(n)
    assert any(quotient_project(diff[m] - target[m], r, n) for m in range(n + 1))


# -- documents -------------------------------------------------------------------------


def test_action_result_json_deterministic_and_faithful():
    res = generating_action_finite(Partition((2, 1)), 2, 4)
    doc1 = json.dumps(res.to_json())
    doc2 = json.dumps(generating_action_finite(Partition((2, 1)), 2, 4).to_json())
    assert doc1 == doc2
    payload = json.loads(doc1)
    assert payload["lambda"] == [2, 1]
    assert len(payload["terms"]) == 6
    first = payload["terms"][0]
    assert (first["z"], first["w"]) == (0, -1)
    assert first["schur"] == [{"partition": [2], "coeff": "1"}]
