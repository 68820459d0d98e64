import copy
import pickle
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from uda.exterior import BasisTag, DualDeltaForm, sort_indices
from uda.partitions import (EMPTY, Partition, maya_mask, partition_of_indices,
                            partition_of_mask, partitions_in_rectangle,
                            wedge_indices)
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


def test_wedge_indices_round_trip():
    for r in range(1, 4):
        for lam in partitions_in_rectangle(r, 3):
            idx = wedge_indices(lam, r)
            assert all(idx[k] > idx[k + 1] for k in range(r - 1))
            assert partition_of_indices(idx) == lam
    assert wedge_indices(Partition((2, 1)), 2) == (3, 1)
    assert wedge_indices(EMPTY, 3) == (2, 1, 0)


def test_index_map_failures_are_not_memoised():
    sizes = (partition_of_indices.cache_info().currsize,
             wedge_indices.cache_info().currsize)
    for _ in range(3):
        with pytest.raises(ValueError):
            partition_of_indices((1, 2))
        with pytest.raises(ValueError):
            wedge_indices(Partition((1, 1, 1)), 2)
    assert sizes == (partition_of_indices.cache_info().currsize,
                     wedge_indices.cache_info().currsize)


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
    assert type(partition_of_indices((3, 1))) is Partition
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
        assert sort_indices((i,) + idx[:s] + idx[s + 1:]) \
            == (idx, -1 if s % 2 else 1)
        assert DualDeltaForm(i).slots(mask, BasisTag.DEFORMED_XC, None) \
            == ((i, s, ONE),)
    # wedging X^k: zero if bit k is set, else the sign of the bits above k
    merged = sort_indices((k,) + idx)
    if mask >> k & 1:
        assert merged is None
    else:
        assert DualDeltaForm(k).slots(mask, BasisTag.DEFORMED_XC, None) == ()
        above = (mask >> k + 1).bit_count()
        assert merged == (tuple(sorted(idx + (k,), reverse=True)),
                          -1 if above % 2 else 1)
        assert partition_of_mask(mask | 1 << k) == partition_of_indices(
            merged[0])
