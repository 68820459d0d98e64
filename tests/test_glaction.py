import json
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import uda
import uda.cli as cli
import uda.glaction as gl
import uda.partitions
import uda.schubert
from uda.bilaurent import BiLaurent
from uda.errors import DegreeZeroError, WindowViolation
from uda.exterior import (BasisTag, DeltaForm, DualDeltaForm, ExtElement,
                          _PositiveWForm, contract, convert_basis,
                          reduce_mod_n, unit_wedge, wedge, wedge_coords)
from uda.glaction import (RepMatrix, StarOperator, _closed_form,
                          _finite_closed_form, _matrix_unit, bracket_check,
                          generating_action_finite, mixed_schur_det,
                          quotient_action, rep_matrix,
                          star_oracle, star_oracle_coords,
                          universal_factorization)
from uda.module_iso import quotient_project, schur_map_of_poly
from uda.partitions import (EMPTY, Partition, maya_mask, partition_of_mask,
                            partitions_in_rectangle)
from uda.poly import FAM_C, MvPolynomial, ONE, ZERO, c_, e_, h_
from uda.symfunc import e_series_coeffs, e_to_h_rewrite, h_deformed
from reference import (genfun_json, image_table, sigma_bar_plus,
                       specialize_family_zero)


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
    series = _closed_form(EMPTY, 1, None, 4)
    for i in range(5):
        assert series.coeff(i, 0) == (ONE if i == 0 else h_(i))


def test_generating_action_golden_coefficient():
    series = _closed_form(EMPTY, 3, None, 6)
    assert series.coeff(5, -1) == h_(4) - h_(1) * h_(3)
    assert series.coeff(0, 0) == ONE


def test_generating_action_times_elementary_series():
    # multiplying back by the degree-3 elementary polynomial leaves the
    # two-column triangle: E_2 + (z/w) E_1 + z^2/w^2
    e3 = BiLaurent.from_z_series([e_to_h_rewrite(p) for p in e_series_coeffs(3, 3)],
                                 3, truncated_above=False)
    prod = _closed_form(EMPTY, 3, None, 6) * e3
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


def test_generating_action_matches_closed_form_plain():
    rng = random.Random(8)
    for _ in range(4):
        r = rng.choice([1, 2])
        lam = rng.choice(partitions_in_rectangle(r, 2))
        res = image_table(lam, r, None, "plain", (3, None, 0))
        closed = _closed_form(lam, r, None, 3)
        for i in range(4):
            for j in range(5):
                if not closed.valid_at(i, -j):
                    continue
                want = schur_map_of_poly(closed.coeff(i, -j), r, None)
                assert res.get((i, -j), {}) == want


def test_generating_action_adapted_matches_closed_form_and_oracle():
    for lam in (EMPTY, Partition((1,)), Partition((2, 1))):
        res = image_table(lam, 2, 4, "adapted", (3, None, 1))
        closed = _closed_form(lam, 2, 4, 3, wmax=1)
        for i in range(4):
            for j in range(6):
                if not closed.valid_at(i, -j):
                    continue
                want = star_oracle_coords(StarOperator.adapted(i, j), lam, 2,
                                          4, quotient=False)
                assert res.get((i, -j), {}) == want == \
                    schur_map_of_poly(closed.coeff(i, -j), 2, 4)


def test_generating_action_adapted_specialises_to_plain():
    # with every c killed, the scaling factors collapse to 1
    lam = Partition((1, 1))
    plain = _closed_form(lam, 2, 0, 3)
    adapted = _closed_form(lam, 2, 0, 3, wmax=0)
    for key, val in plain.coeffs.items():
        assert adapted.coeffs.get(key, ZERO) == val
    assert image_table(lam, 2, 0, "plain", (3, None, 0)) == \
        image_table(lam, 2, 0, "adapted", (3, None, 0))


def test_adapted_positive_w_terms_are_flagged_not_dropped():
    # a window above w^0 keeps the images of the X^i(c) (x) phi_k at their
    # positive powers of w, beside those of the X^i(c) (x) del^j(s); the
    # one at z^0 w^1 is nonzero
    res = image_table(Partition((2, 1)), 2, 4, "adapted", (2, None, 2))
    assert _closed_form(Partition((2, 1)), 2, 4, 2, wmax=2).coeff(0, 1)
    assert (0, 1) in res
    assert any(w <= 0 for (_, w) in res) and any(w > 0 for (_, w) in res)


def test_finite_action_golden_schur_form():
    res = generating_action_finite(Partition((2, 1)), 2, 4)
    assert res == {
        (0, -1): {Partition((2,)): ONE},
        (1, -1): {Partition((2, 1)): ONE},
        (2, -1): {Partition((2, 2)): ONE},
        (0, -3): {EMPTY: -ONE},
        (2, -3): {Partition((1, 1)): ONE},
        (3, -3): {Partition((2, 1)): ONE},
    }
    assert all(0 <= z <= 3 and -3 <= w <= 0 for z, w in res)


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
    assert projected == res


def test_finite_action_window_and_validity():
    # the finite table is exact everywhere: it holds every nonzero image of
    # the operators X^i(c) (x) del^j(s), i, j in [0, n-1], and nothing else
    res = generating_action_finite(Partition((1,)), 2, 4)
    assert type(res) is dict
    assert all(0 <= z <= 3 and -3 <= w <= 0 for z, w in res)
    assert res == {(i, -j): dict([image]) for j in range(4) for i in range(4)
                   if (image := quotient_action(i, j, Partition((1,)), 2, 4))}


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
    # exact everywhere: beyond the operator range the coordinates are zero
    assert (6, -6) not in res
    assert res[(2, -1)] == {Partition((2, 2)): 1}


def test_adapted_oracle_does_no_polynomial_arithmetic(monkeypatch):
    # an adapted image is a sign: the oracle forms it as a new constant
    # without multiplying, negating or adding polynomials
    modes = ((6, True), (6, False), (None, True))
    cases = [(StarOperator.adapted(i, j), lam, ambient, quotient)
             for i in range(7) for j in range(7)
             for lam in partitions_in_rectangle(3, 4)
             for ambient, quotient in modes]
    want = [star_oracle_coords(op, lam, 3, ambient, quotient=quotient)
            for op, lam, ambient, quotient in cases]
    assert any(v == -1 for coords in want for v in coords.values())

    def refuse(*args):
        raise AssertionError("polynomial arithmetic in the adapted oracle")

    for name in ("__add__", "__radd__", "__sub__", "__neg__", "__mul__",
                 "__rmul__"):
        monkeypatch.setattr(MvPolynomial, name, refuse)
    assert [star_oracle_coords(op, lam, 3, ambient, quotient=quotient)
            for op, lam, ambient, quotient in cases] == want


def test_finite_action_is_adapted_form_cut_at_w_nonpositive():
    for (r, n) in ((2, 4), (3, 5)):
        for lam in partitions_in_rectangle(r, n - r):
            adapted = image_table(lam, r, n, "adapted", (n - 1, None, 0))
            want = {}
            for (z, w), coords in adapted.items():
                rect = {mu: v for mu, v in coords.items()
                        if mu.part(1) <= n - r}
                if rect and w >= -(n - 1):
                    want[(z, w)] = rect
            assert _finite_closed_form(lam, r, n) == want, (r, n, lam)
            res = generating_action_finite(lam, r, n)
            assert res == want, (r, n, lam)


def test_finite_action_oracle_equivalence_small():
    for lam in partitions_in_rectangle(2, 2):
        res = generating_action_finite(lam, 2, 4)
        for i in range(4):
            for j in range(4):
                want = star_oracle_coords(StarOperator.adapted(i, j), lam, 2, 4)
                assert res.get((i, -j), {}) == want, (lam, i, j)


def test_window_guard_fires_on_corrupted_series(monkeypatch):
    # the vanishing of projected coefficients beyond z^{n-1} rests on the
    # series factors (the determinant never enters it); corrupting one sign
    # of the c(z) factor must trip the margin check
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
        assert res[(0, 0)] == {EMPTY: ONE}


def test_finite_action_rejects_bad_partition():
    with pytest.raises(ValueError):
        generating_action_finite(Partition((3,)), 2, 4)
    with pytest.raises(ValueError):
        generating_action_finite(EMPTY, 3, 2)


def test_specialization_matches_zero_c_pipeline():
    for lam in partitions_in_rectangle(2, 2):
        full = _finite_closed_form(lam, 2, 4)
        zc = _finite_closed_form(lam, 2, 4, zero_c=True)
        for key in set(full) | set(zc):
            reduced = {}
            for mu, p in full.get(key, {}).items():
                q = specialize_family_zero(p, FAM_C)
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


def test_bracket_rank_one():
    for a in range(3):
        for b in range(3):
            assert bracket_check(a, b, (a + 1) % 3, (b + 1) % 3, 1, 3)


# -- the column maps behind rep_matrix and bracket_check -------------------------


def _mat_mul(a: dict, b: dict) -> dict:
    """The product of two dict matrices {(row, column): int}, the reference
    for the composition of column maps."""
    by_col: dict[Partition, list[tuple[Partition, int]]] = {}
    for (mu, nu), x in a.items():
        by_col.setdefault(nu, []).append((mu, x))
    out: dict[tuple[Partition, Partition], int] = {}
    for (nu, lam), y in b.items():
        for mu, x in by_col.get(nu, ()):  # a(mu,nu) * b(nu,lam)
            out[(mu, lam)] = out.get((mu, lam), 0) + x * y
    return {key: v for key, v in out.items() if v}


def _mat_diff(x: dict, y: dict) -> dict:
    out = dict(x)
    for key, v in y.items():
        out[key] = out.get(key, 0) - v
    return {key: v for key, v in out.items() if v}


@pytest.mark.parametrize("r, n", [(2, 4), (3, 6), (4, 8)])
def test_bracket_check_agrees_with_dict_matrix_products(r, n):
    # every quadruple of the bracket suite's sweep: the law holds by the
    # dict products, bracket_check says so, and each composition of column
    # maps is the dict product of the matrices
    top = min(n, 4)
    mats = {(i, j): rep_matrix(i, j, r, n).entries
            for i in range(top) for j in range(top)}
    for (a, b), A in mats.items():
        for (c, d), B in mats.items():
            lhs = _mat_diff(_mat_mul(A, B), _mat_mul(B, A))
            rhs = {}
            if b == c:
                rhs = mats[a, d]
            if d == a:
                rhs = _mat_diff(rhs, mats[c, b])
            assert lhs == rhs and bracket_check(a, b, c, d, r, n), (a, b, c, d)
            # column lam of AB is B's entry in it moved on by A
            by_col: dict[Partition, dict[Partition, int]] = {}
            for (mu, lam), v in _mat_mul(A, B).items():
                by_col.setdefault(lam, {})[mu] = v
            A_cols = gl._columns(a, b, r, n)
            for lam, y in gl._columns(c, d, r, n).items():
                image = y and A_cols[y[0]]
                assert by_col.get(lam, {}) == (
                    {image[0]: image[1] * y[1]} if image else {}), (a, b, c, d, lam)


def test_a_flipped_sign_breaks_the_law(monkeypatch):
    # [E_ab, E_ba] = E_aa - E_bb fails once any one entry of E_ab changes sign
    r, n = 2, 4
    columns = gl._columns
    flips = 0
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            for lam, image in columns(a, b, r, n).items():
                if image is None:
                    continue
                flipped = dict(columns(a, b, r, n))
                flipped[lam] = image[0], -image[1]
                monkeypatch.setattr(gl, "_columns", lambda *key: (
                    flipped if key == (a, b, r, n) else columns(*key)))
                assert not bracket_check(a, b, b, a, r, n), (a, b, lam)
                flips += 1
                monkeypatch.setattr(gl, "_columns", columns)
                assert bracket_check(a, b, b, a, r, n)
    assert flips == 12 * 2   # each E_ab, a != b, moves 2 of the 6 diagrams


def test_basis_lists_the_rectangle_with_its_maya_diagrams():
    # every (r, n) with 1 <= r <= n <= 8: the partitions of the r x (n-r)
    # rectangle in order, each the object partition_of_mask keeps for its
    # diagram, and each with its Maya mask
    for n in range(1, 9):
        for r in range(1, n + 1):
            basis = gl._basis(r, n)
            assert [lam for lam, _ in basis] == partitions_in_rectangle(r, n - r)
            for lam, state in basis:
                assert state == maya_mask(lam, r), (r, n, lam)
                assert lam is partition_of_mask(state)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_columns_are_the_quotient_action(r):
    # every (i, j) and every basis element of (r, r) .. (r, 2r): the column
    # map lists the basis in order, each key the partition partition_of_mask
    # keeps, and each column is quotient_action's image
    for n in range(r, 2 * r + 1):
        basis = partitions_in_rectangle(r, n - r)
        for i in range(n):
            for j in range(n):
                columns = gl._columns(i, j, r, n)
                assert list(columns) == basis
                for lam, image in columns.items():
                    assert lam is partition_of_mask(maya_mask(lam, r))
                    assert image == quotient_action(i, j, lam, r, n), (i, j, lam)


def test_columns_refuse_what_quotient_action_refuses():
    for i, j, r, n in ((4, 0, 2, 4), (0, -1, 2, 4), (0, 0, 3, 2), (0, 0, 0, 1)):
        with pytest.raises(ValueError) as want:
            quotient_action(i, j, EMPTY, r, n)
        for call in (gl._columns, rep_matrix):
            with pytest.raises(ValueError) as got:
                call(i, j, r, n)
            assert str(got.value) == str(want.value)


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


def _border_strip_height(outer, inner, r):
    """Rows minus one of the skew shape outer/inner in r rows when it is a
    border strip (nonempty, edge-connected, no 2x2 square), else None."""
    if any(inner.part(k) > outer.part(k) for k in range(1, r + 1)):
        return None
    cells = {(row, col) for row in range(1, r + 1)
             for col in range(inner.part(row), outer.part(row))}
    if not cells or any({(a + 1, b), (a, b + 1), (a + 1, b + 1)} <= cells
                        for a, b in cells):
        return None
    seen, todo = set(), [min(cells)]
    while todo:
        a, b = cell = todo.pop()
        if cell not in seen:
            seen.add(cell)
            todo += [c for c in ((a - 1, b), (a + 1, b), (a, b - 1), (a, b + 1))
                     if c in cells]
    return len({a for a, _ in cells}) - 1 if seen == cells else None


def wedge_indices(lam, r):
    """The wedge indices r - j + lam_j of lam, read off the parts: the
    reference that the Maya diagram's moves are checked against."""
    return tuple(r - j + lam.part(j) for j in range(1, r + 1))


@st.composite
def _matrix_unit_cases(draw):
    """(r, parts, i, j) with r <= 4, on diagrams up to bit 9 or bit 74 (past
    a word); j is drawn from the particles half of the time."""
    r, top = draw(st.integers(1, 4)), draw(st.sampled_from([5, 70]))
    parts = draw(st.lists(st.integers(0, top), min_size=r, max_size=r))
    idx = wedge_indices(Partition(sorted(parts, reverse=True)), r)
    index = st.integers(0, top + 4)
    return r, parts, draw(index), draw(st.sampled_from(idx) | index)


@settings(max_examples=400, deadline=None)
@given(_matrix_unit_cases())
def test_matrix_unit_moves_a_border_strip(case):
    # the particle at j jumps to the hole at i: lam gains (i > j) or loses
    # (i < j) a border strip of |i - j| cells, one row per particle jumped
    # over plus one, and the sign is (-1)^height
    r, parts, i, j = case
    lam = Partition(sorted(parts, reverse=True))
    idx = wedge_indices(lam, r)
    image = _matrix_unit(i, j, maya_mask(lam, r))
    assert (image is None) == (j not in idx or (i != j and i in idx))
    if image is None:
        return
    mu, sign = image
    if i == j:
        assert (mu, sign) == (lam, 1)
        return
    height = sum(min(i, j) < k < max(i, j) for k in idx)
    outer, inner = (mu, lam) if i > j else (lam, mu)
    assert outer.size() - inner.size() == abs(i - j)
    assert _border_strip_height(outer, inner, r) == height
    assert sign == (-1) ** height


def test_quotient_action_rejects_bad_input():
    for args in ((4, 0, EMPTY, 2, 4), (0, -1, EMPTY, 2, 4),
                 (0, 0, Partition((3,)), 2, 4), (0, 0, Partition((1, 1, 1)), 2, 4),
                 (0, 0, EMPTY, 3, 2)):
        with pytest.raises(ValueError):
            quotient_action(*args)


def test_quotient_signs_are_plain_ints():
    # the substitution, the matrices and the finite Schur form carry the
    # signs as the ints 1 and -1, and the column maps hold the matrices'
    # own entries
    for r, n in ((2, 4), (3, 5)):
        basis = partitions_in_rectangle(r, n - r)
        for lam in basis:
            for i in range(n):
                for j in range(n):
                    image = quotient_action(i, j, lam, r, n)
                    if image is not None:
                        assert type(image[1]) is int and image[1] in (1, -1)
            for coords in generating_action_finite(lam, r, n).values():
                assert all(type(v) is int for v in coords.values())
        for i in range(n):
            for j in range(n):
                entries = rep_matrix(i, j, r, n).entries
                assert all(type(v) is int for v in entries.values())
                columns = gl._columns(i, j, r, n)
                assert all(type(image[1]) is int for image in columns.values()
                           if image is not None)
                assert {(image[0], lam): image[1]
                        for lam, image in columns.items()
                        if image is not None} == entries


def test_cached_results_are_read_only():
    # the finite table is built fresh on every call, so clearing it or its
    # maps cannot reach a later call
    res = generating_action_finite(Partition((1,)), 2, 4)
    res[(0, 0)].clear()
    res.clear()
    again = generating_action_finite(Partition((1,)), 2, 4)
    assert sorted(again) == [(0, 0), (1, -2), (1, 0), (2, -2), (3, -2), (3, 0)]
    assert again[(0, 0)] == {Partition((1,)): ONE}
    # the column maps behind rep_matrix and bracket_check are cached and
    # shared: the map refuses writes, each column is a tuple, and a
    # matrix's entries are its own dict
    assert bracket_check(1, 0, 0, 1, 2, 4)
    columns = gl._columns(1, 0, 2, 4)
    for clobber in (lambda: columns.clear(),
                    lambda: columns.__setitem__(EMPTY, None),
                    lambda: columns.__setitem__(Partition((1,)), (EMPTY, -1))):
        with pytest.raises((TypeError, AttributeError)):
            clobber()
    assert all(image is None or type(image) is tuple
               for image in columns.values())
    mat = rep_matrix(1, 0, 2, 4)
    mat.entries.clear()
    assert gl._columns(1, 0, 2, 4) is columns
    assert columns[Partition((1,))] == (Partition((1, 1)), 1)
    assert rep_matrix(1, 0, 2, 4).entries == {
        (Partition((1, 1)), Partition((1,))): 1,
        (Partition((2, 1)), Partition((2,))): 1}


def test_oracle_result_belongs_to_the_caller():
    # clearing a returned coefficient or the returned map reaches neither a
    # second call nor ONE nor the memoised index maps
    lam = Partition((2, 1))
    assert star_oracle_coords(StarOperator.adapted(0, 3), lam, 2, 4) \
        == {EMPTY: -ONE}
    for op in (StarOperator.adapted(2, 1), StarOperator.adapted(2, 3),
               StarOperator.adapted(0, 3), StarOperator.plain(3, 1),
               StarOperator(_CONSTANTS, BasisTag.DEFORMED_XC, DualDeltaForm(1))):
        first = star_oracle_coords(op, lam, 2, 4)
        expected = {mu: MvPolynomial(dict(p.terms)) for mu, p in first.items()}
        assert first
        for coeff in first.values():
            coeff.terms.clear()
        first.clear()
        assert star_oracle_coords(op, lam, 2, 4) == expected
    assert ONE == MvPolynomial.const(1)
    assert maya_mask(lam, 2) == 1 << 3 | 1 << 1
    assert partition_of_mask(1 << 3 | 1 << 1) == lam


_CONSTANTS = (MvPolynomial.const(2), MvPolynomial.const(Fraction(-1, 2)), ZERO,
              c_(1) + 3, ONE)


def _layered_coords(op, lam, r, n, quotient):
    """The oracle step by step through the exterior layer's public API."""
    vec = convert_basis(ExtElement(1, op.vector_tag, dict(
        (1 << k, coeff) for k, coeff in enumerate(op.vector))),
        BasisTag.DEFORMED_XC, n)
    u = ExtElement.basis_monomial(maya_mask(lam, r), BasisTag.DEFORMED_XC)
    w = wedge(vec, contract(op.form, u, n))
    if n is not None and quotient:
        w = reduce_mod_n(w, n)
    return wedge_coords(w, n)


def test_one_pass_oracle_matches_the_exterior_layer():
    # every i, j <= n on every lambda up to one column past the rectangle,
    # for r <= 3 and n <= 6: unreduced with n and projected; stable once
    for n in range(1, 7):
        for r in range(1, min(n, 3) + 1):
            cases = ((n, False), (n, True)) + (((None, True),) if n == 6 else ())
            for lam in partitions_in_rectangle(r, n - r + 1):
                for i in range(n + 1):
                    for j in range(n + 1):
                        for op in (StarOperator.adapted(i, j),
                                   StarOperator.plain(i, j)):
                            for ambient, quotient in cases:
                                want = _layered_coords(op, lam, r, ambient,
                                                       quotient)
                                got = star_oracle_coords(op, lam, r, ambient,
                                                         quotient=quotient)
                                assert got == want, (op, lam, r, ambient,
                                                     quotient)


def test_one_pass_oracle_with_a_general_vector():
    f = (c_(2), ZERO, ONE + c_(1), -c_(1) * c_(3))
    ops = [StarOperator(f, tag, form) for tag, form in (
        (BasisTag.PLAIN_X, DeltaForm(1)), (BasisTag.DEFORMED_XC, DualDeltaForm(1)),
        (BasisTag.PLAIN_X, DualDeltaForm(0)))]
    # constants other than ONE take the product path, beside ONE itself
    ops += [StarOperator(_CONSTANTS, tag, form) for tag in BasisTag
            for form in (DeltaForm(1), DualDeltaForm(1))]
    for op in ops:
        for lam in partitions_in_rectangle(3, 3):
            for n, quotient in ((None, True), (6, False), (6, True)):
                assert star_oracle_coords(op, lam, 3, n, quotient=quotient) \
                    == _layered_coords(op, lam, 3, n, quotient)


def test_oracle_on_diagrams_wider_than_a_word():
    # a plain X^k with k >= 64 sets a bit past the machine word; with n it
    # is converted through s_m(c) in c1..cn, m <= k.  Stable, that has p(k)
    # terms, so the stable mode takes a deformed X^k(c) and a lambda whose
    # own indices pass bit 64
    for n, k in ((2, 65), (3, 64)):
        for r in range(1, n + 1):
            for lam in partitions_in_rectangle(r, n - r + 1):
                for j in range(n + 1):
                    op = StarOperator.plain(k, j)
                    for quotient in (True, False):
                        assert star_oracle_coords(
                            op, lam, r, n, quotient=quotient) \
                            == _layered_coords(op, lam, r, n, quotient)
    wide = [Partition((66,)), Partition((70, 2)), Partition((64, 64, 1))]
    for lam in wide:
        r = len(lam) + 1
        for i, j in ((0, 0), (1, 0), (65, 1), (80, r - 1), (3, 64 + r - 1)):
            for op in (StarOperator.adapted(i, j), StarOperator.plain(3, j)):
                for ambient, quotient in ((70, True), (70, False), (None, True)):
                    assert star_oracle_coords(op, lam, r, ambient,
                                              quotient=quotient) \
                        == _layered_coords(op, lam, r, ambient, quotient)


def test_oracle_with_a_positive_w_form():
    vectors = ((ZERO,) * 2 + (ONE,), _CONSTANTS)
    for r, n in ((1, 3), (2, 4), (3, 5)):
        for lam in partitions_in_rectangle(r, n - r + 1):
            for w in (1, 2):
                for vec in vectors:
                    op = StarOperator(vec, BasisTag.DEFORMED_XC,
                                      _PositiveWForm(w))
                    for ambient, quotient in ((n, True), (n, False),
                                              (None, True)):
                        assert star_oracle_coords(op, lam, r, ambient,
                                                  quotient=quotient) \
                            == _layered_coords(op, lam, r, ambient, quotient)


def test_oracle_at_the_cut_edge():
    # lambda_1 = n - r puts the top wedge index at n - 1, the last bit the
    # quotient keeps; X^(n-1) and X^n land on either side of the cut
    for n in range(2, 7):
        for r in range(1, min(n, 3) + 1):
            for lam in partitions_in_rectangle(r, n - r):
                if lam.part(1) != n - r:
                    continue
                assert maya_mask(lam, r).bit_length() == n
                for i in range(n + 1):
                    for j in range(n + 1):
                        for op in (StarOperator.adapted(i, j),
                                   StarOperator.plain(i, j)):
                            for ambient, quotient in ((n, True), (n, False),
                                                      (None, True)):
                                assert star_oracle_coords(
                                    op, lam, r, ambient, quotient=quotient) \
                                    == _layered_coords(op, lam, r, ambient,
                                                       quotient)


@st.composite
def oracle_cases(draw):
    r = draw(st.integers(1, 6))
    n = draw(st.integers(r, 12))
    parts = sorted(draw(st.lists(st.integers(0, n - r + 1), min_size=r,
                                 max_size=r)), reverse=True)
    i, j = draw(st.integers(0, n)), draw(st.integers(0, n))
    return i, j, Partition(parts), r, n


@settings(max_examples=100, deadline=None)
@given(oracle_cases())
def test_one_pass_oracle_matches_the_exterior_layer_up_to_rank_six(case):
    # the benchmark's rank: r <= 6 and n <= 12, one column past the rectangle
    i, j, lam, r, n = case
    for op in (StarOperator.adapted(i, j), StarOperator.plain(i, j)):
        for ambient, quotient in ((n, True), (n, False), (None, True)):
            assert star_oracle_coords(op, lam, r, ambient, quotient=quotient) \
                == _layered_coords(op, lam, r, ambient, quotient)


def test_oracle_keeps_the_exceptions_of_the_exterior_layer(monkeypatch):
    op = StarOperator.adapted(0, 0)
    for n in (None, 4):
        with pytest.raises(DegreeZeroError):
            star_oracle_coords(op, EMPTY, 0, n)
    with pytest.raises(ValueError, match="longer than r=1"):
        star_oracle_coords(op, Partition((1, 1)), 1, 4)
    with pytest.raises(ValueError, match="longer than r=0"):
        star_oracle_coords(op, Partition((1,)), 0)
    # diagrams below bit n always read back inside the rectangle; the check
    # stands guard over the read-off
    gl.partition_of_mask.cache_clear()
    monkeypatch.setattr(gl, "partition_of_mask", lambda mask: Partition((9,)))
    adapted = StarOperator.adapted(2, 1)
    with pytest.raises(WindowViolation, match="outside the 2x2 rectangle"):
        star_oracle_coords(adapted, Partition((2, 1)), 2, 4)
    assert star_oracle_coords(adapted, Partition((2, 1)), 2, 4,
                              quotient=False) == {Partition((9,)): ONE}


def test_a_form_with_no_slots_still_converts_the_vector(monkeypatch):
    op = StarOperator.plain(1, 9)   # del^9 is zero on every factor of (1, 0)
    assert star_oracle_coords(op, EMPTY, 2, 4) == {}

    def broken(*args):
        raise ArithmeticError("conversion failed")

    monkeypatch.setattr(gl, "x_in_xc", broken)
    with pytest.raises(ArithmeticError, match="conversion failed"):
        star_oracle_coords(op, EMPTY, 2, 4)


def test_the_oracle_uses_no_other_route(monkeypatch):
    ops = [StarOperator.adapted(i, j) for i in range(4) for j in range(4)]
    ops.append(StarOperator.plain(3, 1))
    lams = partitions_in_rectangle(2, 2)
    want = [star_oracle_coords(op, lam, 2, 4) for op in ops for lam in lams]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called another route")

    for name in ("quotient_action", "rep_matrix", "_basis", "_columns",
                 "bracket_check", "_closed_form",
                 "_finite_closed_form", "generating_action_finite",
                 "_images", "_matrix_unit", "operator_image"):
        monkeypatch.setattr(gl, name, refuse)
    for module, name in ((uda.partitions, "horizontal_strips"),   # the strip moves
                         (uda.partitions, "vertical_strips"),
                         (uda.schubert, "horizontal_strips")):
        monkeypatch.setattr(module, name, refuse)
    assert [star_oracle_coords(op, lam, 2, 4)
            for op in ops for lam in lams] == want


def test_operator_images_are_formed_on_maya_diagrams_alone(capsys):
    # every wedge element formed on a route, served or checked, is keyed by
    # its Maya diagram, an int with one bit per factor: the watch reads the
    # keys of every element the exterior layer assembles.  The factorize
    # check, the closed form and the verify suites form such elements, so
    # the watch sees some; every cache starts empty, so that nothing reached
    # is hidden behind a memoised value
    assemble = ExtElement._of.__code__
    keys = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code is assemble:
            r = frame.f_locals["r"]
            keys.extend((key, r) for key in frame.f_locals["terms"])

    uda.clear_caches()
    lam = Partition((2, 1))
    sys.setprofile(watch)
    try:
        rep_matrix(2, 0, 2, 4)
        assert bracket_check(1, 0, 0, 1, 2, 4)
        quotient_action(3, 1, lam, 2, 4)
        image_table(lam, 2, 4, "plain", (3, None, 0))
        image_table(lam, 2, 4, "adapted", (3, None, 0))
        image_table(lam, 2, 4, "adapted", (3, None, 1))
        generating_action_finite(Partition((1,)), 2, 4)
        for op in (StarOperator.adapted(3, 1), StarOperator.plain(3, 2),
                   StarOperator((ZERO, ONE), BasisTag.DEFORMED_XC,
                                _PositiveWForm(1))):
            star_oracle_coords(op, lam, 2, 4)
            star_oracle_coords(op, lam, 2, 4, quotient=False)
            star_oracle_coords(op, lam, 2)
        for argv in (["matrix", "--r", "2", "--n", "4", "--i", "2", "--j", "0"],
                     ["genfun", "--r", "2", "--n", "4", "--lambda", "1"],
                     ["genfun", "--r", "2", "--n", "4", "--lambda", "2,1",
                      "--no-project", "--zmax", "3", "--wmax", "1"],
                     ["genfun", "--r", "2", "--lambda", "2,1", "--dual", "none",
                      "--no-project", "--zmax", "3"],
                     ["act", "--r", "2", "--lambda", "2,1", "--i", "3", "--j",
                      "1", "--dual", "s", "--output", "json"],
                     ["act", "--r", "2", "--n", "4", "--lambda", "2,1", "--i",
                      "3", "--j", "2"],
                     ["factorize", "--r", "2", "--n", "4"],
                     ["verify", "--suite", "all", "--r", "2", "--n", "4"]):
            assert cli.main(argv) == 0, argv
        sigma_bar_plus(unit_wedge(3))
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert keys
    bad = [(key, r) for key, r in keys
           if type(key) is not int or key < 0 or key.bit_count() != r]
    assert bad == []


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
    assert res == closed


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
    lam = Partition((2, 1))
    doc1 = json.dumps(genfun_json(lam, 2, 4, "adapted",
                                  generating_action_finite(lam, 2, 4)))
    doc2 = json.dumps(genfun_json(lam, 2, 4, "adapted",
                                  generating_action_finite(lam, 2, 4)))
    assert doc1 == doc2
    payload = json.loads(doc1)
    assert payload["lambda"] == [2, 1]
    assert len(payload["terms"]) == 6
    first = payload["terms"][0]
    assert (first["z"], first["w"]) == (0, -1)
    assert first["schur"] == [{"partition": [2], "coeff": "1"}]


# -- the unprojected tables against the closed form ----------------------------


def _closed_coords(series, r, n, i, j):
    return schur_map_of_poly(series.coeff(i, -j), r, n)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_unprojected_tables_match_the_closed_form(r):
    # every coefficient of each window, and one w-exponent below the
    # product's range, where both sides are zero
    zmax = 6
    for n in (None, 0, *range(r, 7)):
        for lam in partitions_in_rectangle(r, 2):
            top = r + lam.part(1)
            plain = image_table(lam, r, n, "plain", (zmax, None, 0))
            closed = _closed_form(lam, r, n, zmax)
            for i in range(zmax + 1):
                for j in range(top + 1):
                    assert plain.get((i, -j), {}) == \
                        _closed_coords(closed, r, n, i, j), (r, n, lam, i, j)
            if n is None:
                continue
            # the window up to w^2 holds the one up to w^1
            adapted = image_table(lam, r, n, "adapted", (zmax, None, 2))
            closed = _closed_form(lam, r, n, zmax, 2)
            for i in range(zmax + 1):
                for j in range(top + 1):
                    assert adapted.get((i, -j), {}) == \
                        _closed_coords(closed, r, n, i, j), (r, n, lam, i, j)
            positive = {}
            for w in (1, 2):
                for i in range(zmax + 1):
                    coords = _closed_coords(closed, r, n, i, -w)
                    if coords:
                        positive[(i, w)] = coords
            assert _positive(adapted) == positive, (r, n, lam)
            assert _positive(image_table(lam, r, n, "adapted", (zmax, None, 1))) \
                == {key: v for key, v in positive.items() if key[1] == 1}


def _positive(table):
    # the images of a table at w > 0, those of the X^i(c) (x) phi_k
    return {key: v for key, v in table.items() if key[1] > 0}


def _closed_positive_w(lam, r, n, zmax, wmin, wmax):
    # the nonzero coefficients of the closed form at w in [wmin, wmax], w > 0
    closed = _closed_form(lam, r, n, zmax, wmax)
    return {(i, w): coords for w in range(wmin or 1, wmax + 1)
            for i in range(zmax + 1)
            if (coords := _closed_coords(closed, r, n, i, -w))}


def test_windows_above_w0_match_the_closed_form():
    # a window with wmin > 0 holds no image of an X^i(c) (x) del^j(s), and
    # its images are the closed form's, coefficient by coefficient
    for r, n in ((1, 3), (2, 4), (2, 5), (3, 6)):
        for lam in partitions_in_rectangle(r, n - r):
            for wmin, wmax in ((1, 2), (2, 2), (2, 3)):
                res = image_table(lam, r, n, "adapted", (4, wmin, wmax))
                want = _closed_positive_w(lam, r, n, 4, wmin, wmax)
                assert want and res == want, (r, n, lam, wmin, wmax)


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 8), st.data())
def test_positive_w_matches_the_closed_form_at_rank_four(n, data):
    parts = sorted(data.draw(st.lists(st.integers(0, n - 4), min_size=4,
                                      max_size=4)), reverse=True)
    lam, zmax = Partition(parts), data.draw(st.integers(0, 3))
    wmax = data.draw(st.integers(1, 3))
    wmin = data.draw(st.sampled_from([None, *range(1, wmax + 1)]))
    res = image_table(lam, 4, n, "adapted", (zmax, wmin, wmax))
    assert _positive(res) == _closed_positive_w(lam, 4, n, zmax, wmin, wmax)


def _scanned_table(lam, r, n, dual, window):
    # every operator of the window, asked for one by one
    zmax, wmin, wmax = window
    wlo = -(r - 1 + lam.part(1))
    lo = max(wlo, wlo if wmin is None else wmin)
    return {(i, w): coords for i in range(zmax + 1)
            for w in range(wmax, lo - 1, -1)
            if (coords := gl.operator_image(i, w, lam, r, n, dual,
                                            quotient=False))}


def test_image_tables_ask_only_for_the_particles_moves(monkeypatch):
    # the table equals a scan of the whole window, for both duals; an
    # adapted operator at w <= 0 is asked of _matrix_unit only at a
    # particle's column of lam's diagram, so the quotient asks r*n times and
    # holds r*(n-r+1) images: a particle moves to one of the n-r holes or
    # stays
    asked = []
    unit = gl._matrix_unit

    def counted(i, j, state):
        asked.append((j, state))
        return unit(i, j, state)

    monkeypatch.setattr(gl, "_matrix_unit", counted)
    for r, n in ((2, 4), (3, 6), (4, 8)):
        for lam in partitions_in_rectangle(r, n - r):
            state = maya_mask(lam, r)
            for dual, window in (("adapted", (n - 1, None, 0)),
                                 ("adapted", (n + 1, -2, 0)),
                                 ("adapted", (3, None, 2)),
                                 ("adapted", (2, -(r + 1), -1)),
                                 ("plain", (2, None, 0))):
                asked.clear()
                table = image_table(lam, r, n, dual, window)
                assert all(at == state and state >> j & 1 for j, at in asked)
                assert table == _scanned_table(lam, r, n, dual, window), (
                    r, n, lam, dual, window)
            asked.clear()
            table = generating_action_finite(lam, r, n)
            assert (len(asked), len(table)) == (r * n, r * (n - r + 1))


def test_image_tables_iterate_in_document_order():
    # every table lists its terms as the documents do, w from the top down,
    # then z upwards, and each image's coordinates by partition
    def in_order(table):
        return (list(table) == sorted(table, key=lambda k: (-k[1], k[0]))
                and all(list(coords) == sorted(coords) for coords in table.values()))

    positive = 0
    for r, n in ((1, 3), (2, 4), (3, 5)):
        for lam in partitions_in_rectangle(r, n - r):
            adapted = image_table(lam, r, n, "adapted", (n, -2, 2))
            positive += len(_positive(adapted))
            for table in (generating_action_finite(lam, r, n), adapted,
                          image_table(lam, r, n, "plain", (3, None, 0)),
                          image_table(lam, r, None, "plain", (2, -1, 0))):
                assert in_order(table), (r, n, lam)
    assert positive


def test_images_refuse_a_window_that_misses_the_product():
    lam = Partition((2, 1))   # the product's w-range is [-3, 0]
    # with no wmin the window has no lower w bound: below the product's
    # range every image is zero
    assert image_table(lam, 2, None, "plain", (3, None, 0)) == \
        image_table(lam, 2, None, "plain", (3, -9, 0))
    assert image_table(lam, 2, 4, "adapted", (2, -3, -1))[(0, -1)] == \
        {Partition((2,)): 1}
    # a window that misses the product's w-range, or has no z-exponent, is
    # refused once the walk starts
    with pytest.raises(ValueError, match=r"w-window \[1, 0\].*w-range \[-3, 0\]"):
        list(gl._images(lam, 2, None, "plain", (3, 1, 0)))
    with pytest.raises(ValueError, match=r"w-window \[-3, -4\].*w-range \[-3, 0\]"):
        list(gl._images(lam, 2, 4, "adapted", (3, None, -4)))
    for dual in ("plain", "adapted"):
        with pytest.raises(ValueError, match="zmax must be nonnegative"):
            list(gl._images(lam, 2, 4, dual, (-1, None, 0)))


# -- the frozen records ------------------------------------------------------------


def test_equal_operators_are_equal_and_hash_equal():
    for make in (StarOperator.adapted, StarOperator.plain):
        a, b = make(1, 2), make(1, 2)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != make(1, 3) and a != make(2, 2)
    assert StarOperator.adapted(1, 2) != StarOperator.plain(1, 2)
    for form in (DeltaForm, DualDeltaForm):
        assert form(2) == form(2) and hash(form(2)) == hash(form(2))
        assert form(2) != form(3)
    assert DeltaForm(2) != DualDeltaForm(2)
    assert len({DeltaForm(2), DeltaForm(2), DualDeltaForm(2)}) == 2


def _records():
    one = Partition((1,))
    return (
        StarOperator.adapted(1, 2),
        StarOperator.plain(0, 3),
        RepMatrix(1, 0, 2, 4, (EMPTY, one), {(one, EMPTY): 1}),
    )


def test_record_reprs_match_the_dataclass_text():
    assert [repr(rec) for rec in _records()] == [
        "StarOperator(vector=(MvPolynomial(0), MvPolynomial(1)), "
        "vector_tag=<BasisTag.DEFORMED_XC: 'Xc'>, form=DualDeltaForm(2))",
        "StarOperator(vector=(MvPolynomial(1),), "
        "vector_tag=<BasisTag.PLAIN_X: 'X'>, form=DeltaForm(3))",
        "RepMatrix(i=1, j=0, r=2, n=4, basis=(Partition(), Partition(1,)), "
        "entries={(Partition(1,), Partition()): 1})",
    ]


def test_records_take_keywords():
    m = RepMatrix(i=1, j=0, r=2, n=4, basis=(EMPTY,), entries={})
    assert (m.i, m.j, m.r, m.n, m.dimension) == (1, 0, 2, 4, 1)
    op = StarOperator(vector=(ZERO, c_(1)), vector_tag=BasisTag.PLAIN_X,
                      form=DeltaForm(0))
    assert op._terms == ((1, c_(1)),)
    assert op == StarOperator((ZERO, c_(1)), BasisTag.PLAIN_X, DeltaForm(0))


def test_records_refuse_setattr_and_delattr():
    for rec in _records():
        for name in (rec.__match_args__[0], "_terms", "other"):
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
            with pytest.raises(AttributeError):
                delattr(rec, name)


def test_records_compare_by_value_and_dict_records_are_unhashable():
    for a, b in zip(_records(), _records()):
        assert a is not b and a == b
        assert pickle.loads(pickle.dumps(a)) == a
    op, _, mat = _records()
    assert hash(op) == hash(StarOperator.adapted(1, 2))
    assert pickle.loads(pickle.dumps(op))._terms == op._terms
    assert mat != RepMatrix(1, 0, 2, 4, mat.basis, {})
    assert op != mat and op != (op.vector, op.vector_tag, op.form)
    with pytest.raises(TypeError):
        hash(mat)
