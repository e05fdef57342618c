"""Acceptance criteria, one test per criterion.

Every check is an exact identity in a finite field or F_p(u): tolerances
are zero everywhere.  Each test prints a single pass/fail line; the stated
wall-clock budgets are asserted where the criterion gives one.
"""

import time

import pytest

from charp_autos.suites import run_suite


def _criterion(number, description, suite, budget=None, **params):
    start = time.monotonic()
    result = run_suite(suite, **params)
    elapsed = time.monotonic() - start
    status = "PASS" if result.all_passed else "FAIL"
    print("ACCEPTANCE %02d %s (%.1fs): %s" % (number, status, elapsed,
                                              description))
    if not result.all_passed:
        failing = [c for c in result.cases if not c.ok]
        detail = "\n".join("  %s: %s" % (c.name, c.detail) for c in failing)
        pytest.fail("criterion %d failed:\n%s" % (number, detail))
    if budget is not None:
        assert elapsed < budget, "criterion %d exceeded %ds" % (number, budget)
    return result


def test_criterion_01_axiom_suite():
    result = _criterion(
        1, "every constructed action satisfies (A1)/(A2); corrupted ones fail",
        "axioms", budget=60)
    assert any("corrupted" in c.name for c in result.cases)


def test_criterion_02_theorem_n2():
    result = _criterion(
        2, "50 seeded instances per p in {2,3,5}: E_1 = sigma over F_p[u], "
           "theta round-trips", "thm15-n2", budget=120, count=50, seed=7)
    assert len(result.cases) == 150


def test_criterion_03_maubach_conjugator():
    result = _criterion(
        3, "seeded strict-triangular order-p inputs conjugate back exactly",
        "maubach", count=12, seed=7)
    assert len(result.cases) >= 30


def test_criterion_04_triangular_example():
    _criterion(
        4, "triangular example: E(x2), E(x3) residual integral; E_1 "
           "restricts with order p; E does not restrict", "ex-triangular")


def test_criterion_05_nonexp_family():
    _criterion(
        5, "family over F_p[u]: star congruences, sigma restricts, E does "
           "not, certificate says NotExponentialOverR", "nonexp-family",
        budget=120)


def test_criterion_06_rank3():
    _criterion(
        6, "xi = g*x2; classification over (l,m) in {0,1,2}^2 matches "
           "l,m >= 1 or (1,0)-for-E1-only", "rank3", budget=180)


def test_criterion_07_rank_r():
    _criterion(
        7, "rank-r actions: condition-(c) cosets, E_1 is the translation, "
           "invariant generators, rank certificate = r", "rank-r")


def test_criterion_08_jvdk():
    result = _criterion(
        8, "100 seeded tame words per p in {2,3} factor and recompose "
           "exactly; non-automorphisms rejected", "jvdk", count=100, seed=7)
    assert len(result.cases) == 202


def test_criterion_09_centralizer():
    result = _criterion(
        9, "50 seeded H(t)H0 words decompose and recompose exactly; 20 "
           "non-members rejected; generators commute with eps",
        "centralizer", count=50, bad_count=20, seed=7)
    assert len(result.cases) == 2 * (50 + 20 + 1)


def test_criterion_10_F_family():
    _criterion(
        10, "F restricts with the displayed F(x2); 10 seeded F_h match the "
            "formula and centralize eps; n=4 commutator identity exact",
        "f-and-fh", count=10, seed=7)


def test_criterion_11_gauss():
    _criterion(
        11, "200 seeded primitive pairs: f(g(T)) primitive; content "
            "multiplicative on 200 pairs", "gauss", count=200, seed=7)


def test_criterion_12_fixed_point():
    result = _criterion(
        12, "20 commuting tuples accepted, 20 violators rejected; fixed "
            "point free witness checker reports correct verdicts",
        "fixed-point", count=20, seed=7)
    assert len(result.cases) == 41
