"""Each suite of ``uda verify`` fails when one of the routes it compares is
broken, so no exit criterion that runs it can pass vacuously."""

import pytest

import uda.exterior as ext
import uda.glaction as gl
import uda.verify as verify
from uda import clear_caches
from uda.poly import ONE


@pytest.fixture
def fresh_caches():
    # a broken route must not fill, or read, a memo table another test uses
    clear_caches()
    yield
    clear_caches()


def _failures(suite: str, r: int, n: int) -> list[str]:
    return [label for passed, label in verify.SUITES[suite](r, n) if not passed]


def _flip_one_sign(monkeypatch, i: int, j: int):
    """E_ij with the sign of every image flipped: the matrix unit route."""
    matrix_unit = gl._matrix_unit

    def flipped(a, b, state):
        image = matrix_unit(a, b, state)
        if (a, b) != (i, j) or image is None:
            return image
        return image[0], -image[1]

    monkeypatch.setattr(gl, "_matrix_unit", flipped)


def test_a_flipped_matrix_unit_fails_the_oracle_suite(monkeypatch, fresh_caches):
    _flip_one_sign(monkeypatch, 2, 0)
    assert _failures("oracle", 2, 4)


def test_a_flipped_matrix_unit_fails_the_bracket_suite(monkeypatch, fresh_caches):
    _flip_one_sign(monkeypatch, 1, 0)
    assert _failures("bracket", 2, 4)


def test_a_wrong_complement_fails_the_factorize_suite(monkeypatch, fresh_caches):
    h_deformed = gl.h_deformed
    monkeypatch.setattr(gl, "h_deformed", lambda k, n: h_deformed(k, n) + ONE)
    assert _failures("factorize", 2, 4)


def test_a_wrong_deformed_basis_fails_the_duality_suite(monkeypatch, fresh_caches):
    # X^j(c) with the sign of c1 flipped: X^j + c1 X^(j-1) - c2 X^(j-2) ...
    xc_expand = ext.xc_expand
    monkeypatch.setattr(ext, "xc_expand", lambda j, n: tuple(
        -x if m == j - 1 else x for m, x in enumerate(xc_expand(j, n))))
    assert _failures("duality", 2, 4)


def test_an_oracle_without_the_quotient_fails_the_ideal_suite(monkeypatch,
                                                              fresh_caches):
    oracle = verify.star_oracle_coords
    monkeypatch.setattr(verify, "star_oracle_coords", lambda op, lam, r, n:
                        oracle(op, lam, r, n, quotient=False))
    assert _failures("ideal", 2, 4)
