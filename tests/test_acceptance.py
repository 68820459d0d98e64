"""Acceptance suite: the nine exit criteria, one pass/fail line each.

All arithmetic is exact, so every comparison is structural equality of
canonical forms; the stated runtime bounds are asserted with a monotonic
clock.  Criteria 4, 6, 7 and 8 run the suites that ``uda verify`` ships
(``uda.verify.SUITES``) and count their checks; the others check worked
examples and routes that no suite runs.  Run with ``pytest -v
tests/test_acceptance.py`` (add ``-s`` to see the per-criterion lines as
they pass).
"""

import random
import time
from functools import reduce

from uda import clear_caches
from uda.bilaurent import BiLaurent
from uda.exterior import (BasisTag, ExtElement, expand_over_factor,
                          residue_tuple, wedge)
from uda.glaction import (StarOperator, _closed_form, _finite_closed_form,
                          generating_action_finite, star_oracle)
from uda.module_iso import quotient_project, schur_map_of_poly
from uda.partitions import (EMPTY, Partition, partition_of_mask,
                            partitions_in_rectangle)
from uda.poly import FAM_C, MvPolynomial, ONE, ZERO, c_, h_
from uda.symfunc import e_series_coeffs, e_to_h_rewrite, giambelli, h_deformed
from uda.verify import SUITES
from reference import image_table, specialize_family_zero, wedge_to_poly


def _report(num: int, label: str, started: float, budget: float):
    elapsed = time.monotonic() - started
    print(f"PASS criterion {num}: {label} ({elapsed:.2f}s < {budget:g}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def _run_suite(name: str, cases) -> int:
    """Run the shipped ``uda verify`` suite ``name`` at each (r, n) of
    ``cases``; assert every check passes and return how many ran."""
    checked = 0
    for r, n in cases:
        for passed, label in SUITES[name](r, n):
            assert passed, (name, r, n, label)
            checked += 1
    return checked


def test_criterion_1_golden_quotient_action():
    clear_caches()
    t0 = time.monotonic()
    res = generating_action_finite(Partition((2, 1)), 2, 4)
    want_schur = {
        (0, -1): {Partition((2,)): ONE},
        (1, -1): {Partition((2, 1)): ONE},
        (2, -1): {Partition((2, 2)): ONE},
        (0, -3): {EMPTY: -ONE},
        (2, -3): {Partition((1, 1)): ONE},
        (3, -3): {Partition((2, 1)): ONE},
    }
    assert res == want_schur  # six terms, nothing else
    h1c, h2c = h_deformed(1, 4), h_deformed(2, 4)
    display_h = {
        (0, -1): h2c,
        (1, -1): h1c * h2c,
        (2, -1): h2c * h2c,
        (0, -3): -ONE,
        (2, -3): h1c * h1c - h2c,
        (3, -3): h1c * h2c,
    }
    assert {k: quotient_project(p, 2, 4) for k, p in display_h.items()} == res
    # every coefficient is an exact signed basis element: no series, and
    # the operators live on z in [0, n-1], w in [-(n-1), 0]
    assert all(0 <= z <= 3 and -3 <= w <= 0 for z, w in res)
    _report(1, "quotient generating function on (2,1), r=2, n=4 "
               "matches both displays exactly", t0, 1.0)


def test_criterion_2_golden_stable_action():
    clear_caches()
    t0 = time.monotonic()
    series = _closed_form(EMPTY, 3, None, 6)
    e3 = BiLaurent.from_z_series(
        [e_to_h_rewrite(p) for p in e_series_coeffs(3, 3)], 3,
        truncated_above=False)
    prod = series * e3
    rhs = {(i, 0): e_to_h_rewrite(p) for i, p in enumerate(e_series_coeffs(2, 2))}
    rhs.update({(i + 1, -1): e_to_h_rewrite(p)
                for i, p in enumerate(e_series_coeffs(1, 1))})
    rhs[(2, -2)] = ONE
    for key in sorted(set(prod.coeffs) | set(rhs)):
        z, w = key
        if not prod.valid_at(z, w):
            continue
        got, want = prod.coeff(z, w), rhs.get(key, ZERO)
        if z <= 3:
            assert got == want, key
        else:
            assert schur_map_of_poly(got, 3, None) == \
                schur_map_of_poly(want, 3, None), key
    assert series.coeff(5, -1) == h_(4) - h_(1) * h_(3)
    _report(2, "stable generating function on r=3: triangle identity and "
               "the z^5 w^-1 coefficient", t0, 1.0)


def test_criterion_3_golden_single_action():
    clear_caches()
    t0 = time.monotonic()
    res = star_oracle(StarOperator.plain(3, 2), Partition((2, 1)), 2)
    assert res == -c_(1) * (h_(1) * h_(2) - h_(3)) + c_(1) ** 2 * h_(2)
    _report(3, "brute-force star action of X^3 (x) del^2 on (2,1)", t0, 1.0)


def test_criterion_4_oracle_equivalence_sweep():
    t0 = time.monotonic()
    checked = _run_suite("oracle", [(r, n) for r in (1, 2, 3)
                                    for n in range(r, 6)])
    assert checked == 925
    _report(4, f"closed form, oracle and index substitution agree on all "
               f"{checked} cases (r<=3, n<=5)", t0, 300.0)


def test_criterion_5_residue_triangle():
    t0 = time.monotonic()
    rng = random.Random(2024)

    def random_xpoly(deg):
        out = []
        for _ in range(deg + 1):
            kind = rng.randrange(4)
            if kind == 0:
                out.append(ZERO)
            elif kind == 1:
                out.append(MvPolynomial.const(rng.randrange(-3, 4)))
            elif kind == 2:
                out.append(c_(rng.randrange(1, 5)) * rng.randrange(-2, 3))
            else:
                out.append(MvPolynomial.const(rng.randrange(-2, 3)) +
                           c_(rng.randrange(1, 5)))
        if not any(out):
            out[-1] = ONE
        return out

    for trial in range(50):
        r = rng.choice([1, 2, 3])
        fs = [random_xpoly(rng.randrange(0, 7)) for _ in range(r)]
        vecs = [ExtElement(1, BasisTag.PLAIN_X,
                           {1 << k: q for k, q in enumerate(f) if q}) for f in fs]
        u = reduce(wedge, vecs)
        # route 1: plain wedge-sort expansion with undeformed determinants
        route1 = ZERO
        for mask, coeff in u.terms.items():
            route1 = route1 + coeff * giambelli(partition_of_mask(mask), r, 0)
        # route 2: the residue determinant
        route2 = residue_tuple([expand_over_factor(f, r) for f in fs])
        # route 3: deformed-basis expansion with deformed determinants
        route3 = wedge_to_poly(u, None)
        assert route1 == route2 == route3, trial
    _report(5, "wedge expansion, residue determinant and Schur "
               "reconstruction agree on 50 random tuples", t0, 300.0)


def test_criterion_6_representation_law():
    clear_caches()
    t0 = time.monotonic()
    assert _run_suite("bracket", [(2, 4)]) == 256
    _report(6, "commutator law on all 256 operator quadruples at r=2, n=4",
            t0, 600.0)


def test_criterion_7_universal_factorization():
    t0 = time.monotonic()
    assert _run_suite("factorize", [(1, 5)]) == 15
    _report(7, "universal factorization verifies for all 1 <= r <= n <= 5",
            t0, 300.0)


def test_criterion_8_duality_and_ideal_preservation():
    t0 = time.monotonic()
    assert _run_suite("duality", [(2, 4)]) == 81
    assert _run_suite("ideal", [(2, 4)]) == 5
    _report(8, "dual-basis pairing is Kronecker and the ideal generators die",
            t0, 300.0)


def test_criterion_9_specialization_recovers_undeformed_case():
    t0 = time.monotonic()
    for r in (1, 2, 3):
        for n in range(r, 6):
            for lam in partitions_in_rectangle(r, n - r):
                full = _finite_closed_form(lam, r, n)
                plain_pipe = _finite_closed_form(lam, r, n, zero_c=True)
                # substituting c -> 0 in the deformed output recovers the
                # undeformed pipeline
                for key in set(full) | set(plain_pipe):
                    reduced = {}
                    for mu, p in full.get(key, {}).items():
                        q = specialize_family_zero(p, FAM_C)
                        if q:
                            reduced[mu] = q
                    assert reduced == plain_pipe.get(key, {}), \
                        (r, n, lam, key)
                # and the stable generating function, projected to the
                # rectangle, gives the same answer
                stable = image_table(lam, r, 0, "plain", (n - 1, None, 0))
                projected = {}
                for key, coords in stable.items():
                    cut = {mu: v for mu, v in coords.items()
                           if mu.part(1) <= n - r}
                    if cut:
                        projected[key] = cut
                assert projected == plain_pipe, (r, n, lam)
    _report(9, "killing the deformation reproduces the undeformed formula "
               "across the full sweep", t0, 300.0)
