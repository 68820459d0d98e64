"""The built-in verification suites behind ``uda verify``.

Each suite checks one family of identities from the paper and yields one
``(passed, label)`` pair per check: the golden values, the duality of
X^i(c) and del^j(s), the ideal generators h_{n-r+k}(c) acting as zero, the
universal factorization, the agreement of the closed form, the oracle and
the matrix unit, and the gl_n commutator law [E_ab, E_cd] on the
quotient.  Every suite takes ``(r, n)``; the ones with fixed inputs ignore
them.  ``SUITES`` holds them in the order ``--suite all`` runs them.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from .exterior import BasisTag, DualDeltaForm, ExtElement, contract, convert_basis
from .glaction import (StarOperator, _closed_form, _finite_closed_form,
                       bracket_check, generating_action_finite, quotient_action,
                       star_oracle, star_oracle_coords, universal_factorization)
from .partitions import Partition, partitions_in_rectangle
from .poly import ONE, ZERO, c_, h_

Checks = Iterator[tuple[bool, str]]


def golden(r: int, n: int) -> Checks:
    res = star_oracle(StarOperator.plain(3, 2), Partition((2, 1)), 2)
    want = -c_(1) * (h_(1) * h_(2) - h_(3)) + c_(1) ** 2 * h_(2)
    yield res == want, "star action of X^3 (x) del^2 on (2,1), r=2"

    series = _closed_form(Partition(()), 3, None, 6)
    yield (series.coeff(5, -1) == h_(4) - h_(1) * h_(3),
           "z^5 w^-1 coefficient of the r=3 generating action")

    fin = generating_action_finite(Partition((2, 1)), 2, 4)
    want_terms = {
        (0, -1): {Partition((2,)): ONE},
        (1, -1): {Partition((2, 1)): ONE},
        (2, -1): {Partition((2, 2)): ONE},
        (0, -3): {Partition(()): -ONE},
        (2, -3): {Partition((1, 1)): ONE},
        (3, -3): {Partition((2, 1)): ONE},
    }
    yield (fin == want_terms,
           "six-term Schur form of the (2,1) quotient action, r=2 n=4")


def duality(r: int, n: int) -> Checks:
    for i in range(9):
        u = convert_basis(ExtElement.vector(i, BasisTag.DEFORMED_XC),
                          BasisTag.PLAIN_X, None)
        for j in range(9):
            val = contract(DualDeltaForm(j), u, None).terms.get(0, ZERO)
            yield val == (ONE if i == j else ZERO), f"dual form del^{j}(s) on X^{i}(c)"


def ideal(r: int, n: int) -> Checks:
    for (rr, nn) in ((2, 4), (3, 5)):
        for k in range(1, rr + 1):
            gen = Partition((nn - rr + k,))
            dead = all(
                not star_oracle_coords(StarOperator.adapted(i, j), gen, rr, nn)
                for i in range(nn) for j in range(nn))
            yield dead, f"ideal generator index {nn - rr + k} dies, r={rr} n={nn}"


def factorize(r: int, n: int) -> Checks:
    for nn in range(1, n + 1):
        for rr in range(1, nn + 1):
            yield (universal_factorization(rr, nn)[2],
                   f"universal factorization r={rr} n={nn}")


def oracle(r: int, n: int) -> Checks:
    """The closed form, the oracle and the matrix unit agree."""
    for lam in partitions_in_rectangle(r, n - r):
        closed = _finite_closed_form(lam, r, n)
        for i in range(n):
            for j in range(n):
                image = quotient_action(i, j, lam, r, n)
                combinatorial = {} if image is None else dict([image])
                same = closed.get((i, -j), {}) == star_oracle_coords(
                    StarOperator.adapted(i, j), lam, r, n) == combinatorial
                yield same, f"lambda={lam} (i,j)=({i},{j})"


def bracket(r: int, n: int) -> Checks:
    top = min(n, 4)  # full quadruple sweep over [0, top-1]^4
    for a in range(top):
        for b in range(top):
            for c in range(top):
                for d in range(top):
                    yield bracket_check(a, b, c, d, r, n), f"bracket ({a},{b};{c},{d})"


SUITES: dict[str, Callable[[int, int], Checks]] = {
    "golden": golden,
    "duality": duality,
    "ideal": ideal,
    "factorize": factorize,
    "oracle": oracle,
    "bracket": bracket,
}
