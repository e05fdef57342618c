"""Acceptance criteria, one test per criterion.

Every check is an exact identity in a finite field or F_p(u): tolerances
are zero everywhere.  Each test prints a single pass/fail line; the stated
wall-clock budgets are asserted where the criterion gives one.

Every criterion runs its suite at seed 7 and the suite's default parameters.
That is the run tests/test_golden.py pins, so both share it through the
`suite_run` fixture, and a budget is checked against the wall time of that
one run.
"""

import functools

import pytest


@pytest.fixture
def criterion(suite_run):
    return functools.partial(_criterion, suite_run)


def _criterion(run, number, description, suite, budget=None):
    result, elapsed = run(suite, seed=7)
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


def test_criterion_01_axiom_suite(criterion):
    result = criterion(
        1, "every constructed action satisfies (A1)/(A2); corrupted ones fail",
        "axioms", budget=60)
    assert any("corrupted" in c.name for c in result.cases)


def test_criterion_02_theorem_n2(criterion):
    result = criterion(
        2, "50 seeded instances per p in {2,3,5}: E_1 = sigma over F_p[u], "
           "theta round-trips", "thm15-n2", budget=120)
    assert len(result.cases) == 150


def test_criterion_03_maubach_conjugator(criterion):
    result = criterion(
        3, "seeded strict-triangular order-p inputs conjugate back exactly",
        "maubach")
    assert len(result.cases) >= 30


def test_criterion_04_triangular_example(criterion):
    criterion(
        4, "triangular example: E(x2), E(x3) residual integral; E_1 "
           "restricts with order p; E does not restrict", "ex-triangular")


def test_criterion_05_nonexp_family(criterion):
    criterion(
        5, "family over F_p[u]: star congruences, sigma restricts, E does "
           "not, certificate says NotExponentialOverR", "nonexp-family",
        budget=120)


def test_criterion_06_rank3(criterion):
    criterion(
        6, "xi = g*x2; classification over (l,m) in {0,1,2}^2 matches "
           "l,m >= 1 or (1,0)-for-E1-only", "rank3", budget=180)


def test_criterion_07_rank_r(criterion):
    criterion(
        7, "rank-r actions: condition-(c) cosets, E_1 is the translation, "
           "invariant generators, rank certificate = r", "rank-r")


def test_criterion_08_jvdk(criterion):
    result = criterion(
        8, "100 seeded tame words per p in {2,3} factor and recompose "
           "exactly; non-automorphisms rejected", "jvdk")
    assert len(result.cases) == 202


def test_criterion_09_centralizer(criterion):
    result = criterion(
        9, "50 seeded H(t)H0 words decompose and recompose exactly; 20 "
           "non-members rejected; generators commute with eps",
        "centralizer")
    assert len(result.cases) == 2 * (50 + 20 + 1)


def test_criterion_10_F_family(criterion):
    criterion(
        10, "F restricts with the displayed F(x2); 10 seeded F_h match the "
            "formula and centralize eps; n=4 commutator identity exact",
        "f-and-fh")


def test_criterion_11_gauss(criterion):
    criterion(
        11, "200 seeded primitive pairs: f(g(T)) primitive; content "
            "multiplicative on 200 pairs", "gauss")


def test_criterion_12_fixed_point(criterion):
    result = criterion(
        12, "20 commuting tuples accepted, 20 violators rejected; fixed "
            "point free witness checker reports correct verdicts",
        "fixed-point")
    assert len(result.cases) == 41
