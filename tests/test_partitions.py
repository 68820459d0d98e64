import copy
import pickle
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from uda.exterior import BasisTag, DualDeltaForm
from uda.partitions import (EMPTY, Partition, horizontal_strips, maya_mask,
                            partition_of_mask, partitions_in_rectangle,
                            vertical_strips)
from uda.poly import ONE, _frozen


def test_trailing_zeros_normalised():
    assert Partition((2, 1, 0, 0)) == Partition((2, 1))
    assert Partition((0, 0)) == EMPTY
    assert len(Partition((3, 3, 1))) == 3


def test_rejects_non_partitions():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_part_lookup_and_size():
    lam = Partition((3, 1))
    assert [lam.part(j) for j in (1, 2, 3)] == [3, 1, 0]
    assert lam.size() == 4


def test_fits_rectangle():
    assert Partition((2, 2)).fits_rectangle(2, 2)
    assert not Partition((3,)).fits_rectangle(2, 2)
    assert not Partition((1, 1, 1)).fits_rectangle(2, 5)
    assert EMPTY.fits_rectangle(1, 0)


def test_rectangle_enumeration_counts():
    # the number of partitions in an r x c box is binomial(r + c, r)
    for r in range(1, 4):
        for c in range(0, 4):
            assert len(partitions_in_rectangle(r, c)) == comb(r + c, r)


def _recursive_rectangle(rows, cols):
    """The reference: one recursive call per row, then sorted."""
    out = []

    def rec(prefix, maxpart, depth):
        out.append(Partition(tuple(prefix)))
        if depth == rows:
            return
        for p in range(maxpart, 0, -1):
            rec(prefix + [p], p, depth + 1)

    rec([], cols, 0)
    return sorted(out)


def test_rectangle_enumeration_matches_the_recursive_reference():
    for rows in range(7):
        for cols in range(7):
            got = partitions_in_rectangle(rows, cols)
            assert got == _recursive_rectangle(rows, cols), (rows, cols)
            assert all(type(lam) is Partition for lam in got)
            # the sort key gives the order of Partition.__lt__
            assert got == sorted(got[::-1]), (rows, cols)


def test_rectangle_enumeration_takes_no_recursion():
    # far more rows than the interpreter's recursion limit allows frames
    got = partitions_in_rectangle(3000, 1)
    assert got == [Partition((1,) * k) for k in range(3001)]


def test_rectangle_enumeration_sorted_unique():
    ps = partitions_in_rectangle(2, 2)
    assert len(set(ps)) == len(ps)
    assert ps == sorted(ps)
    assert ps[0] == EMPTY


def wedge_indices(lam, r):
    """The reference wedge indices of lam at rank r: r - j + lam_j."""
    return tuple(r - j + lam.part(j) for j in range(1, r + 1))


def partition_of_indices(idx):
    """The reference partition of strictly decreasing wedge indices."""
    return Partition(i - (len(idx) - 1 - k) for k, i in enumerate(idx))


def sort_with_sign(seq):
    """``seq`` sorted decreasing and (-1) to its inversions, None on a
    repeat: the reference for moving wedge factors into place."""
    if len(set(seq)) < len(seq):
        return None
    inversions = sum(a < b for k, a in enumerate(seq) for b in seq[k + 1:])
    return tuple(sorted(seq, reverse=True)), -1 if inversions % 2 else 1


def test_wedge_indices_round_trip():
    for r in range(1, 4):
        for lam in partitions_in_rectangle(r, 3):
            mask = maya_mask(lam, r)
            assert mask == sum(1 << i for i in wedge_indices(lam, r))
            assert partition_of_mask(mask) == lam
    assert maya_mask(Partition((2, 1)), 2) == 1 << 3 | 1 << 1
    assert maya_mask(EMPTY, 3) == 0b111


def test_index_map_failures_are_not_memoised():
    size = maya_mask.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError):
            maya_mask(Partition((1, 1, 1)), 2)
    assert size == maya_mask.cache_info().currsize


def test_json():
    lam = Partition((2, 1))
    assert lam.to_json() == [2, 1]
    assert Partition.from_json([2, 1]) == lam
    assert Partition.from_json([]) == EMPTY


def test_hash_is_taken_once_and_ignores_trailing_zeros():
    assert hash(Partition((2, 1, 0))) == hash(Partition((2, 1)))
    assert hash(EMPTY) == hash(Partition((0,))) == hash(())


def test_copies_and_pickles_rebuild_the_partition():
    lam = Partition((3, 1, 1))
    for copied in (copy.copy(lam), copy.deepcopy(lam),
                   pickle.loads(pickle.dumps(lam))):
        assert copied == lam and hash(copied) == hash(lam)
        assert type(copied) is Partition and type(copied.parts) is tuple
        assert copied.parts == (3, 1, 1)
        with pytest.raises(AttributeError):
            copied._hash = 0
        with pytest.raises(AttributeError):
            copied.parts = ()
    table = {(lam, EMPTY): 1}
    assert copy.deepcopy(table) == table


def test_memoised_partitions_stay_partitions():
    lam = Partition((2, 1))
    assert type(partition_of_mask(0b1010)) is Partition
    assert partition_of_mask(0b1010) == lam
    # the memo tables freeze their values: a Partition must not come back
    # as the plain tuple of its parts
    assert type(_frozen(lam)) is Partition
    assert type(_frozen((lam, (1, 2)))[0]) is Partition
    assert type(_frozen({lam: lam})[lam]) is Partition


def test_every_small_diagram_reads_back_an_exact_partition():
    # every diagram of at most 6 particles in 12 positions: the k-th
    # particle from the top, at bit i, gives the part i - (r - 1 - k); the
    # trusted constructor must leave no zero part and no other type
    for mask in range(1 << 12):
        r = mask.bit_count()
        if r > 6:
            continue
        bits = [i for i in range(12) if mask >> i & 1][::-1]
        want = Partition([i - (r - 1 - k) for k, i in enumerate(bits)])
        lam = partition_of_mask(mask)
        assert type(lam) is Partition and tuple(lam) == tuple(want), mask
        assert lam == want and 0 not in lam
        assert maya_mask(lam, r) == mask


def test_a_partition_equals_only_partitions():
    lam = Partition((2, 1))
    assert lam != (2, 1) and (2, 1) != lam
    assert not lam == (2, 1) and not (2, 1) == lam
    assert lam == Partition([2, 1, 0]) and not lam != Partition((2, 1))
    assert hash(lam) == hash((2, 1))
    table = {lam: 1, EMPTY: 0}
    assert (2, 1) not in table and () not in table
    assert table.get((2, 1)) is None and table[Partition((2, 1))] == 1
    assert {(2, 1): 1}.get(lam) is None


def test_repr_and_str():
    assert repr(Partition((2, 1))) == "Partition(2, 1)"
    assert repr(EMPTY) == "Partition()"
    assert str(Partition((2, 1))) == "(2,1)"
    assert str(EMPTY) == "()"


def test_order_is_size_then_parts():
    for rows in range(5):
        for cols in range(5):
            ps = partitions_in_rectangle(rows, cols)
            want = sorted(ps, key=lambda p: (sum(p), tuple(p)))
            assert sorted(ps) == want
            assert sorted(reversed(ps)) == want
            for a, b in zip(want, want[1:]):
                assert a < b and b > a and a <= b and b >= a
                assert not (b < a or a > b or b <= a or a >= b)
    assert Partition((3,)) > Partition((1, 1)) and EMPTY <= EMPTY >= EMPTY


@st.composite
def decreasing_indices(draw):
    """Strictly decreasing indices, r <= 8, up to 200: wider than a word."""
    return tuple(sorted(draw(st.sets(st.integers(0, 200), max_size=8)),
                        reverse=True))


@settings(max_examples=200, deadline=None)
@given(decreasing_indices(), st.integers(0, 202))
def test_maya_diagrams_match_the_index_tuples(idx, k):
    r = len(idx)
    mask = sum(1 << i for i in idx)
    lam = partition_of_indices(idx)
    assert partition_of_mask(mask) == lam
    assert maya_mask(lam, r) == mask
    # contracting slot s: X^idx[s] moved to the front of the rest, with the
    # sign of the bits set above it, which is (-1)^s
    for s, i in enumerate(idx):
        rest = mask ^ 1 << i
        assert (rest >> i + 1).bit_count() == s
        assert sort_with_sign((i,) + idx[:s] + idx[s + 1:]) \
            == (idx, -1 if s % 2 else 1)
        assert DualDeltaForm(i).slots(mask, BasisTag.DEFORMED_XC, None) \
            == ((i, s, ONE),)
    # wedging X^k: zero if bit k is set, else the sign of the bits above k
    merged = sort_with_sign((k,) + idx)
    if mask >> k & 1:
        assert merged is None
    else:
        assert DualDeltaForm(k).slots(mask, BasisTag.DEFORMED_XC, None) == ()
        above = (mask >> k + 1).bit_count()
        assert merged == (tuple(sorted(idx + (k,), reverse=True)),
                          -1 if above % 2 else 1)
        assert partition_of_mask(mask | 1 << k) == partition_of_indices(
            merged[0])


def _small_diagrams():
    """Every diagram of at most 6 particles in 12 positions, as (mask, its
    particles from the top down)."""
    for mask in range(1 << 12):
        if mask.bit_count() <= 6:
            yield mask, tuple(i for i in range(11, -1, -1) if mask >> i & 1)


def _signed_sum(shifted):
    """The wedges of the shifted index sequences, sorted and summed: the
    diagrams left with their coefficients, zeros dropped."""
    total = Counter()
    for seq in shifted:
        merged = sort_with_sign(seq)
        if merged is not None:
            total[sum(1 << i for i in merged[0])] += merged[1]
    return {mask: c for mask, c in total.items() if c}


def _compositions(k, slots):
    """The weak compositions of k into ``slots`` parts (stars and bars)."""
    for bars in combinations(range(k + slots - 1), slots - 1):
        edges = (-1, *bars, k + slots - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def test_horizontal_strips_match_the_sorted_compositions():
    # every way of moving the particles up k places in all, each sequence
    # sorted with its sign: the survivors are the horizontal strips, each
    # once with coefficient 1 (Pieri's rule)
    for mask, idx in _small_diagrams():
        for k in range(5 if len(idx) > 4 else 7):
            got = horizontal_strips(mask, k)
            want = _signed_sum(tuple(a + d for a, d in zip(idx, comp))
                               for comp in _compositions(k, len(idx))) \
                if idx else ({} if k else {0: 1})
            assert Counter(got) == want, (mask, k)


def test_vertical_strips_match_the_subset_bumps():
    # every k-subset of the particles moved up one place, sorted with its
    # sign: the survivors are the vertical strips, each once with sign +1
    for mask, idx in _small_diagrams():
        for k in range(len(idx) + 2):
            got = vertical_strips(mask, k)
            want = _signed_sum(tuple(a + (slot in subset) for slot, a in enumerate(idx))
                               for subset in combinations(range(len(idx)), k))
            assert Counter(got) == want, (mask, k)


def test_strips_are_partitions_grown_by_strips():
    # read back as partitions of at most 3 rows, (3,1) grows by two cells in
    # distinct columns (horizontal) or in distinct rows (vertical)
    mask = maya_mask(Partition((3, 1)), 3)
    assert sorted(map(partition_of_mask, horizontal_strips(mask, 2))) == sorted(
        Partition(p) for p in ((5, 1), (4, 2), (4, 1, 1), (3, 3), (3, 2, 1)))
    assert sorted(map(partition_of_mask, vertical_strips(mask, 2))) == sorted(
        Partition(p) for p in ((4, 2), (4, 1, 1), (3, 2, 1)))
    assert horizontal_strips(0, 0) == [0] and horizontal_strips(0, 1) == []
    assert vertical_strips(mask, 4) == [] and vertical_strips(0, 0) == [0]
