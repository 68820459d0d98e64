import random
from fractions import Fraction
from itertools import permutations

from uda.bilaurent import BiLaurent
from uda.determinant import exact_det
from uda.poly import MvPolynomial, ONE, ZERO, h_


def leibniz_det(rows):
    """Permutation-sum oracle, independent of the cofactor route."""
    n = len(rows)
    acc = None
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        if sign < 0:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def test_identity_matrix():
    eye = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
    assert exact_det(eye) == ONE


def test_two_by_two_golden():
    m = [[h_(2), ONE], [h_(3), h_(1)]]
    assert exact_det(m) == h_(1) * h_(2) - h_(3)


def test_random_rational_matrix_vs_cofactor_oracle():
    rng = random.Random(99)
    for _ in range(5):
        rows = [[MvPolynomial.const(Fraction(rng.randrange(-6, 7),
                                             rng.randrange(1, 4)))
                 for _ in range(4)] for _ in range(4)]
        assert exact_det(rows) == leibniz_det(rows)


def test_alternating_in_columns():
    rng = random.Random(5)
    for _ in range(5):
        n = rng.choice([2, 3])
        rows = [[h_(rng.randrange(1, 4)) * rng.randrange(-2, 3) + rng.randrange(-1, 2)
                 for _ in range(n)] for _ in range(n)]
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            b = (a + 1) % n
        swapped = [[row[b] if j == a else row[a] if j == b else row[j]
                    for j in range(n)] for row in rows]
        assert exact_det(swapped) == -exact_det(rows)


def test_polynomial_entries_vs_oracle():
    rng = random.Random(17)
    for _ in range(4):
        rows = [[h_(rng.randrange(1, 5)) + rng.randrange(-2, 3)
                 for _ in range(3)] for _ in range(3)]
        assert exact_det(rows) == leibniz_det(rows)


def test_truncated_zero_entry_keeps_its_window():
    # a series known to be zero only through z^2 is not the ring zero: the
    # determinant must not claim validity beyond that truncation
    t = BiLaurent({}, (0, 2, 0, 0), (True, False, True, True))
    one = BiLaurent.scalar(ONE)
    direct = t * one - one * one
    det = exact_det([[t, one], [one, one]])
    assert not direct.valid_at(10, 0)
    assert det.valid_at(10, 0) == direct.valid_at(10, 0)
    assert det == direct


def test_exactly_zero_laurent_entries_are_skipped():
    zero = BiLaurent({}, (-1, 0, 0, 0))
    one = BiLaurent.scalar(ONE)
    assert exact_det([[zero, one], [one, one]]) == -one
