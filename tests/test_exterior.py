import random
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from uda.bilaurent import BiLaurent
from uda.errors import (DegreeZeroError, TagMismatch, WindowExcludesMinusOne)
from uda.exterior import (BasisTag, DeltaForm, DualDeltaForm, ExtElement,
                          LinearForm, _PositiveWForm, contract, convert_basis,
                          expand_over_factor, reduce_mod_n, residue,
                          residue_tuple, unit_wedge, w_value, wedge,
                          wedge_coords, x_in_xc, xc_expand)
from uda.partitions import Partition
from uda.poly import MvPolynomial, ONE, ZERO, c_, h_
from uda.symfunc import giambelli, s_coefficient

X = BasisTag.PLAIN_X
XC = BasisTag.DEFORMED_XC


def diagram(indices):
    """The Maya diagram of the wedge of the factors X^i, i in ``indices``."""
    return sum(1 << i for i in indices)


def mono(indices, tag=X, coeff=ONE):
    return ExtElement(len(indices), tag, {diagram(indices): coeff})


# -- construction ----------------------------------------------------------


def test_public_constructors_validate_terms():
    for bad in ({1 << 1: ONE},          # wrong degree
                {0b111: ONE},           # wrong degree
                {(2, 1): ONE},          # an index tuple
                {-0b11: c_(1)},         # negative, though two bits are set
                {2.0: ONE}):            # not an int
        with pytest.raises(ValueError):
            ExtElement(2, X, bad)
    with pytest.raises(ValueError):
        ExtElement.basis_monomial(-0b110, XC)
    with pytest.raises(ValueError):
        ExtElement.vector(-1, X)
    u = ExtElement(2, X, {diagram((3, 1)): ZERO, diagram((2, 0)): c_(1),
                          diagram((4, 3)): c_(1) - c_(1)})
    assert u.terms == {diagram((2, 0)): c_(1)}
    assert ExtElement(1, XC, {1: ZERO}) == ExtElement.zero(1, XC)
    assert ExtElement.basis_monomial(0b1010, XC) == mono((3, 1), XC)
    assert repr(mono((3, 1), XC, c_(1))) == "ExtElement<Xc>((c1)*X3^X1)"
    assert repr(unit_wedge(0)) == "ExtElement<X>((1)*1)"


# -- wedge ------------------------------------------------------------------


def test_sort_and_merge_signs():
    one = ExtElement.basis_monomial(0b1, X)
    assert wedge(ExtElement.vector(1, X), mono((3, 0))) == -mono((3, 1, 0))
    assert wedge(mono((3, 1)), one).terms == {0b1011: ONE}
    assert wedge(ExtElement.vector(2, X), ExtElement.vector(2, X)).is_zero()
    assert wedge(mono((3, 1)), ExtElement.vector(2, X)).terms == {0b1110: -ONE}
    assert wedge(mono((3, 1)), ExtElement.vector(1, X)).is_zero()
    assert wedge(unit_wedge(0), ExtElement.vector(5, X)) == ExtElement.vector(5, X)


def parity(seq):
    """(-1) to the number of inversions of ``seq``, by brute force."""
    return (-1) ** sum(a < b for k, a in enumerate(seq) for b in seq[k + 1:])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 14), st.sets(st.integers(0, 12), max_size=6))
def test_inserting_one_index_matches_the_merge(k, pool):
    # X^k wedged in front of the rest: zero on a collision, else the sign of
    # the permutation that sorts (k, rest)
    rest = tuple(sorted(pool, reverse=True))
    got = wedge(ExtElement.vector(k, X), ExtElement.basis_monomial(diagram(rest), X))
    if k in rest:
        assert got.is_zero()
    else:
        assert got.terms == {diagram(rest) | 1 << k: ONE * parity((k,) + rest)}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 70), unique=True, max_size=6),
       st.lists(st.integers(0, 70), unique=True, max_size=6))
def test_wedge_sign_is_the_permutation_parity(a, b):
    # u ^ v for the wedges of the factors a and b as listed: the sign sorts
    # the concatenation, whose parity is counted pair by pair
    u = ExtElement.basis_monomial(diagram(a), X).scale(ONE * parity(a))
    v = ExtElement.basis_monomial(diagram(b), X).scale(ONE * parity(b))
    got = wedge(u, v)
    assert got.r == len(a) + len(b)
    if set(a) & set(b):
        assert got.is_zero()
    else:
        assert got.terms == {diagram(a + b): ONE * parity(a + b)}


def test_wedge_alternating():
    v = ExtElement.vector(1, X)
    assert wedge(v, v).is_zero()
    a, b = ExtElement.vector(0, X), ExtElement.vector(2, X)
    assert wedge(a, b) == -wedge(b, a)


def test_wedge_sorted_sign():
    u = mono((3, 1))
    res = wedge(u, ExtElement.vector(0, X))
    assert res == mono((3, 1, 0))


def test_wedge_tag_mismatch():
    with pytest.raises(TagMismatch):
        wedge(ExtElement.vector(1, X), ExtElement.vector(1, XC))


def test_unit_wedge_same_in_both_bases():
    for r in (1, 2, 3):
        u = unit_wedge(r)
        assert convert_basis(u, XC, 4) == unit_wedge(r, XC)
        assert convert_basis(unit_wedge(r, XC), X, 4) == u


# -- basis conversion ----------------------------------------------------------


def test_xc_expand_golden():
    assert xc_expand(0, 4) == (ONE,)
    assert xc_expand(2, 4) == (c_(2), -c_(1), ONE)
    # ambient bound: c5 never appears with n = 4
    vec = xc_expand(5, 4)
    assert vec[0] == ZERO and vec[1] == c_(4)


def test_basis_round_trip_vectors():
    for n in (4, None):
        for j in range(11):
            down = xc_expand(j, n)
            back = [ZERO] * (j + 1)
            for m, coeff in enumerate(down):
                if not coeff:
                    continue
                up = x_in_xc(m, n)
                for i, q in enumerate(up):
                    back[i] = back[i] + coeff * q
            assert back[j] == ONE
            assert all(back[i].is_zero() for i in range(j))


def test_convert_round_trip_random_elements():
    rng = random.Random(11)
    for _ in range(8):
        r = rng.choice([1, 2, 3])
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            terms[diagram(rng.sample(range(8), r))] = \
                c_(rng.randrange(1, 4)) + rng.randrange(-1, 2)
        u = ExtElement(r, X, terms)
        v = convert_basis(u, XC, 4)
        assert convert_basis(v, X, 4) == u


# -- contraction ------------------------------------------------------------------


def test_contract_golden_deformed():
    # del^2 against X^3(c) ^ X^1(c): top row (-c1, 0)
    u = mono((3, 1), XC)
    res = contract(DeltaForm(2), u, None)
    assert res == ExtElement(1, XC, {1 << 1: -c_(1)})


def test_contract_golden_plain_three_slots():
    # del^1 against X^2 ^ X^1 ^ X^0 removes the middle slot with a minus
    u = mono((2, 1, 0))
    res = contract(DeltaForm(1), u, None)
    assert res == ExtElement(2, X, {1 << 2 | 1 << 0: -ONE})


def test_contract_absent_index_is_zero():
    assert contract(DeltaForm(9), mono((2, 1, 0)), None).is_zero()


def test_contract_degree_zero_rejected():
    scalar = ExtElement(0, X, {0: ONE})
    with pytest.raises(DegreeZeroError):
        contract(DeltaForm(0), scalar, None)


def test_contract_is_antiderivation_on_disjoint_monomials():
    # del_j (u ^ v) = (del_j u) ^ v + (-1)^deg(u) u ^ (del_j v)
    rng = random.Random(23)
    for _ in range(10):
        pool = rng.sample(range(9), 5)
        cut = rng.choice([1, 2])
        u, v = mono(pool[:cut]), mono(pool[cut:cut + 2])   # sorted monomials
        j = rng.randrange(9)
        form = DeltaForm(j)
        lhs = contract(form, wedge(u, v), None)
        sign = -1 if u.r % 2 else 1
        rhs = wedge(contract(form, u, None), v) + wedge(u, contract(form, v, None)).scale(sign)
        assert lhs == rhs


@st.composite
def _slot_cases(draw):
    """(j, pool, n): a narrow wedge (indices up to 12, any n) or one up to bit
    130, past a word, where n <= 2 keeps the s_k(c) read in the plain basis
    small."""
    top, ns = draw(st.sampled_from([(12, [None, *range(1, 9)]), (130, [1, 2])]))
    pool = draw(st.sets(st.integers(0, top), max_size=5))
    return draw(st.integers(0, top)), pool, draw(st.sampled_from(ns))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([DeltaForm, DualDeltaForm]), _slot_cases(),
       st.sampled_from([X, XC]))
def test_slots_overrides_match_the_generic_value_loop(kind, case, tag):
    # slot s of the wedge holds the index idx[s]; on its Maya diagram both
    # the own-basis shortcut and the generic loop list the nonzero values of
    # the value loop over the index tuple
    j, pool, n = case
    form, idx = kind(j), tuple(sorted(pool, reverse=True))
    state = sum(1 << i for i in idx)
    want = [(i, s, form.value(i, tag, n)) for s, i in enumerate(idx)
            if form.value(i, tag, n)]
    assert list(form.slots(state, tag, n)) == want
    assert LinearForm.slots(form, state, tag, n) == want


def test_delta_slots_on_the_deformed_basis_walk_only_bits_j_to_j_plus_n():
    # X^b(c) has an X^j term only at j <= b <= j + n, so the deformed walk
    # of del^j skips every other particle; it lists what the generic loop
    # over all of them lists, on every diagram of at most 6 particles in 12
    # positions
    states = [diagram(bits) for k in range(7) for bits in combinations(range(12), k)]
    for j in range(13):
        form = DeltaForm(j)
        for n in (None, 0, 1, 2, 4):
            for state in states:
                assert form.slots(state, XC, n) == LinearForm.slots(
                    form, state, XC, n), (j, n, bin(state))


def test_duality_of_adapted_forms():
    # del^j(s) evaluated through the plain basis is dual to X^i(c)
    for i in range(9):
        u = convert_basis(ExtElement.vector(i, XC), X, None)
        for j in range(9):
            val = contract(DualDeltaForm(j), u, None).terms.get(0, ZERO)
            assert val == (ONE if i == j else ZERO)


def test_positive_w_form_reads_the_same_in_both_bases():
    # phi_k values X^m at s_{m+k}(c); on X^l(c) its memoised deformed value
    # is the sum over the plain expansion of X^l(c)
    for n in (None, 0, 2, 4):
        for l in range(7):
            u = convert_basis(ExtElement.vector(l, XC), X, n)
            for k in range(1, 4):
                form = _PositiveWForm(k)
                assert contract(form, u, n).terms.get(0, ZERO) == \
                    form.value(l, XC, n), (n, l, k)
                assert form.value(l, X, n) == s_coefficient(l + k, n)


# -- the generating form -----------------------------------------------------------


def test_w_value_golden():
    assert w_value(0, 4).coeffs == {(0, 0): ONE}
    assert w_value(1, 4).coeffs == {(0, -1): ONE, (0, 0): -c_(1)}
    assert w_value(3, 0).coeffs == {(0, -3): ONE}


def test_w_value_collects_the_coordinate_forms():
    # the coefficient of w^-m is DeltaForm(m) evaluated on X^j(c)
    for n in (None, 0, 2, 4):
        for j in range(6):
            got = w_value(j, n)
            for m in range(8):
                want = DeltaForm(m).value(j, XC, n)
                assert got.coeff(0, -m) == want, (n, j, m)


def formal_contraction(values, vectors):
    """sum_t (-1)^(t) values[t] * wedge(vectors except t); the two-row array."""
    acc = None
    for t, val in enumerate(values):
        rest = vectors[:t] + vectors[t + 1:]
        if rest:
            piece = reduce(wedge, rest)
        else:
            piece = ExtElement(0, vectors[t].tag, {0: ONE})
        term = piece.scale(val if t % 2 == 0 else -val)
        acc = term if acc is None else acc + term
    return acc


def test_wedge_append_identity():
    # appending the unit wedge of degree k to a contracted two-row array equals
    # the bordered array with k zero values and columns X^{k-1}, ..., X^0, up
    # to the block-commutation sign (-1)^(k(r-1)): each removed slot leaves
    # r-1 factors for the k-block to move past
    rng = random.Random(41)
    for _ in range(12):
        r = rng.choice([1, 2, 3])
        k = rng.choice([1, 2])
        vectors = []
        for _ in range(r):
            terms = {1 << i: MvPolynomial.const(rng.randrange(-2, 3)) + c_(1) * rng.randrange(2)
                     for i in rng.sample(range(k, 9), 2)}
            vectors.append(ExtElement(1, X, terms))
        values = [c_(rng.randrange(1, 5)) + rng.randrange(-1, 2) for _ in range(r)]
        lhs = wedge(unit_wedge(k), formal_contraction(values, vectors))
        appended = vectors + [ExtElement.vector(i, X) for i in range(k - 1, -1, -1)]
        rhs = formal_contraction(values + [ZERO] * k, appended)
        sign = 1 if (k * (r - 1)) % 2 == 0 else -1
        assert lhs == rhs.scale(sign)


# -- residues ---------------------------------------------------------------------


def test_residue_golden():
    assert residue(BiLaurent.monomial(-1, 0)) == ONE
    poly = BiLaurent({(0, 0): c_(1), (3, 0): ONE})
    assert residue(poly) == ZERO
    # X^2 * (1 + h1/X + h2/X^2 + ...) has residue h3
    series = expand_over_factor([ZERO, ZERO, ONE], 0, order=5)
    assert residue(series) == h_(3)


def test_residue_window_guard():
    trunc = BiLaurent({(0, 0): ONE}, (0, 3, 0, 0), (False, True, True, True))
    with pytest.raises(WindowExcludesMinusOne):
        residue(trunc)


def test_residue_tuple_base_case():
    g = expand_over_factor([c_(2), ONE], 1)
    assert residue_tuple([g]) == residue(g)


def test_residue_tuple_unit_wedge_is_one():
    for r in (1, 2, 3):
        gs = [expand_over_factor([ZERO] * j + [ONE], r) for j in range(r - 1, -1, -1)]
        assert residue_tuple(gs) == ONE


def test_residue_tuple_matches_giambelli():
    # columns X^{r-1+l1}(c)/p_r, ..., X^{lr}(c)/p_r give the Schur determinant
    for (r, lam) in ((2, Partition((2, 1))), (2, Partition((2,))), (3, Partition((1, 1)))):
        gs = []
        for j in range(1, r + 1):
            vec = list(xc_expand(r - j + lam.part(j), None))
            gs.append(expand_over_factor(vec, r))
        assert residue_tuple(gs) == giambelli(lam, r, None)


# -- quotient reduction and coordinates ----------------------------------------------


def test_reduce_mod_n():
    assert reduce_mod_n(mono((4, 1), XC), 4).is_zero()
    u = mono((3, 1), XC)
    assert reduce_mod_n(u, 4) == u
    mixed = mono((4, 1), XC) + mono((2, 0), XC)
    assert reduce_mod_n(mixed, 4) == mono((2, 0), XC)
    with pytest.raises(TagMismatch):
        reduce_mod_n(mono((1, 0), X), 4)


def test_wedge_coords_golden():
    u = mono((3, 1), XC)
    assert wedge_coords(u, 4) == {Partition((2, 1)): ONE}
    assert wedge_coords(ExtElement.zero(2, XC), 4) == {}
    coords = wedge_coords(mono((3, 1), X), 4)
    assert coords[Partition((2, 1))] == ONE
    assert all(lam.size() < 3 for lam in coords if lam != Partition((2, 1)))
