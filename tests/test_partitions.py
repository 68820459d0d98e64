import copy
import pickle
from math import comb

import pytest

from uda.partitions import (EMPTY, Partition, partition_of_indices,
                            partitions_in_rectangle, wedge_indices)


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
        assert copied.parts == (3, 1, 1)
        with pytest.raises(AttributeError):
            copied._hash = 0
        with pytest.raises(AttributeError):
            copied.parts = ()
    table = {(lam, EMPTY): 1}
    assert copy.deepcopy(table) == table
