import os
import subprocess
import sys

import pytest

from charp_autos.cli import main
from charp_autos.poly import MultiPoly

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_suite_list(capsys):
    code, out, _ = run(capsys, "suite", "list")
    assert code == 0
    assert "thm15-n2" in out and "jvdk" in out


def test_unknown_suite_is_usage_error(capsys):
    code, _, err = run(capsys, "suite", "run", "nope")
    assert code == 2
    assert "UnknownSuite" in err


def test_suite_run_deterministic(capsys):
    code1, out1, _ = run(capsys, "suite", "run", "ex-triangular", "--seed", "7")
    code2, out2, _ = run(capsys, "suite", "run", "ex-triangular", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3, _ = run(capsys, "suite", "run", "ex-triangular", "--seed", "7",
                         "--json")
    assert code3 == 0 and out3.startswith('{"')


def test_suite_run_scoped_p(capsys):
    code, out, _ = run(capsys, "suite", "run", "maubach", "--p", "2",
                       "--count", "4", "--seed", "3")
    assert code == 0
    assert "pass" in out and "FAIL" not in out


def test_parse_subcommand(capsys):
    code, out, _ = run(capsys, "parse", "poly", "x1 + x1", "--p", "3",
                       "--vars", "x1,x2")
    assert code == 0 and out.strip() == "2*x1"
    code, out, _ = run(capsys, "parse", "map", "(x2, x1)")
    assert code == 0 and out.strip() == "(x2, x1)"
    code, _, err = run(capsys, "parse", "poly", "x1^^2")
    assert code == 2


def test_plane_subcommands(capsys):
    code, out, _ = run(capsys, "plane", "factor", "(x1+x2^2, x2)", "--p", "2")
    assert code == 0 and "tri" in out
    code, out, _ = run(capsys, "plane", "centralize", "(x1+x2^3, x2)",
                       "--p", "3", "--t", "1")
    assert code == 0 and out.strip().startswith("[E1: x2^3]")
    code, _, err = run(capsys, "plane", "centralize", "(x2, x1)", "--p", "2",
                       "--t", "1")
    assert code == 1


def test_expo_subcommand(capsys):
    """For n = 2 with sigma(x1) != x1 the library has asserted E_1 = sigma
    and the restriction to R, so the report holds theta_of's round trip
    alone."""
    code, out, _ = run(capsys, "expo", "(x1+u, x2+x1^2+u*x1+u^2)", "--p", "2")
    assert code == 0
    assert "theta      x1^3" in out
    assert out.splitlines()[-1] == '{"theta_round_trip": true}'


def test_expo_reports_a_failed_theta_round_trip(capsys, monkeypatch):
    from charp_autos import expo
    from charp_autos.errors import InternalIntegralityFailure

    def broken(sigma, result):
        raise InternalIntegralityFailure("theta does not reproduce sigma")
    monkeypatch.setattr(expo, "theta_of", broken)
    code, out, err = run(capsys, "expo", "(x1+u, x2+x1^2+u*x1+u^2)", "--p", "2")
    assert code == 1
    assert out.splitlines()[-1] == '{"theta_round_trip": false}'
    assert "theta does not reproduce sigma" in err


@pytest.mark.parametrize("sigma,coeff", [
    ("(x1+1/u, x2)", "1/u"),
    ("(x1+u, x2+1/(u+1))", "1/(u+1)")])
def test_expo_rejects_sigma_outside_R_as_bad_input(capsys, sigma, coeff):
    """For sigma(x1) != x1 the library asserts the restriction to R, which
    holds only for sigma over R: other input is refused before that."""
    code, out, err = run(capsys, "expo", sigma)
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "NonIntegralCoefficient: coefficient %s of sigma is not in F_p[u]"
        % coeff]


def test_expo_reports_the_restriction_the_library_leaves_open(capsys):
    """sigma(x1) = x1 for n = 2, and the n = 3 path with sigma(x1) != x1:
    the library does not assert the restriction to R there.  For n = 2 with
    sigma(x1) = x1 there is no theta and no conjugator, so only the action
    is printed before the report."""
    code, out, _ = run(capsys, "expo", "(x1, x2+x1/u)", "--p", "2")
    assert code == 1
    assert out.splitlines() == ["action     (x1, (1/u)*x1*T + x2)",
                                '{"restricts_to_R": false}']
    code, out, _ = run(capsys, "expo", "(x1, x2+x1^2)", "--p", "2")
    assert code == 0
    assert out.splitlines() == ["action     (x1, x1^2*T + x2)",
                                '{"restricts_to_R": true}']
    code, out, _ = run(capsys, "expo", "(x1+1, x2+x1^2+x1, x3)", "--p", "2",
                       "--base", "Fp")
    assert code == 0
    assert out.splitlines()[-1] == '{"restricts_to_R": true}'


def test_expo_over_fp_prints_the_action_and_the_report_only(capsys):
    """For n = 3 the result holds no theta on sigma's table, so neither a
    conjugator nor a theta line is printed; sigma(x1) = x1 with x1 in
    sigma(x2) - x2 exponentializes (its conjugator is not over F_p[x1])."""
    for argv, action in (
            (("(x1+1, x2+x1^2+x1, x3)", "--p", "2"),
             "(x1 + T, x1^2*T + x1*T^2 + T^3 + x2 + T, x3)"),
            (("(x1, x2+x1, x3+x2^2+x1*x2)", "--p", "2"),
             "(x1, x1*T + x2, x1^2*T^3 + x1*x2*T^2 + x1^2*T + x2^2*T + x3)"),
            (("(x1, x2+x1, x3+x2^3-x1^2*x2)", "--p", "3"),
             "(x1, x1*T + x2, x1^3*T^4 + x1^2*x2*T^3 + 2*x1^3*T^2"
             " + x1^2*x2*T + x2^3*T + x3)")):
        code, out, err = run(capsys, "expo", *argv, "--base", "Fp")
        assert (code, err) == (0, "")
        assert out.splitlines() == ["action     " + action,
                                    '{"restricts_to_R": true}']


def test_criteria_certify(capsys):
    code, out, _ = run(capsys, "criteria", "certify", "--p", "2", "--d", "3",
                       "--l", "1")
    assert code == 0
    assert '"verdict": "NotExponentialOverR"' in out


@pytest.mark.parametrize("argv,check", [
    (("--l", "1", "--g", "y"), '"stability_unknown": false'),
    (("--l", "0", "--g", "1"), '"stability_notstable": false')])
def test_criteria_certify_reports_a_failed_stability(capsys, argv, check):
    """stability_<kind> reports false for every kind but Stable: with
    g = y, f misses z1 of A = k[y, z1], so no pattern applies; with l = 0
    and g = 1, f is a constant of k[y], which is not f-stable."""
    code, out, err = run(capsys, "criteria", "certify", *argv)
    assert (code, err) == (1, "")
    assert check in out and '"verdict": "Inconclusive"' in out


def test_nonexp_with_a_constant_g_reports_star4(capsys):
    """With g = 1 the nonintegral part of E(x) - x is d u^-1 y^c (T - T^p),
    as for the default g: E(x) - x has ((u^2 + 1)/u) y^8 T^2, whose
    integral part u y^8 T^2 the shift leaves out."""
    code, out, _ = run(capsys, "gallery", "nonexp", "--g", "1")
    assert code == 0
    assert '"star4_E_x_coset": true' in out


def test_gallery_subcommand(capsys):
    code, out, _ = run(capsys, "gallery", "rank3", "--p", "2", "--l", "1",
                       "--m", "0")
    assert code == 0 and "OnlyE1Restricts" in out


def test_suite_run_rejects_unused_parameters(capsys):
    """No suite reads --d --l --m --n --r, so `suite run` does not accept
    them rather than echo values it never used."""
    code, out, err = run(capsys, "suite", "run", "rank-r", "--n", "5")
    assert code == 2 and out == ""
    assert "--n" in err


@pytest.mark.parametrize("argv", [
    ("gallery", "triangular", "--d", "7"),
    ("gallery", "eps-invariants", "--l", "1"),
    ("gallery", "F", "--m", "2"),
    ("parse", "poly", "x1", "--t", "2"),
    ("parse", "coeff", "3", "--vars", "a,b"),
])
def test_gallery_and_parse_refuse_a_flag_they_do_not_read(capsys, argv):
    """Each construction and each entity takes only the flags it reads, so
    a flag it would drop is a usage error rather than ignored."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        "charp-autos: error: unrecognized arguments: %s %s" % argv[-2:])


def test_timings_go_to_stderr_per_case(capsys):
    argv = ("suite", "run", "maubach", "--p", "2", "--count", "4")
    code1, out1, err1 = run(capsys, *argv)
    code2, out2, err2 = run(capsys, *argv, "--timings")
    assert code1 == code2 == 0
    assert out1 == out2 and err1 == ""
    ids = [line.split(":")[0] for line in out1.splitlines()[1:-1]]
    lines = err2.splitlines()
    assert len(ids) == 4 and len(lines) == len(ids) + 1
    assert [line.split()[0] for line in lines] == ids + ["total"]
    assert all(line.split()[1].endswith("s") for line in lines)


def test_closed_stdout_exits_quietly():
    """As in `suite run gauss --seed 7 | head -1`, the reader of stdout is
    gone before the report is written: exit 141 with nothing on stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "charp_autos.cli", "suite", "run", "gauss",
         "--seed", "7"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""


@pytest.mark.parametrize("argv", [
    ("parse", "coeff", "3", "--p", "11"),
    ("expo", "(x1+1, x2+x1^2)", "--p", "11"),
    ("plane", "factor", "(x1+x2^2, x2)", "--p", "11"),
    ("criteria", "certify", "--p", "11"),
    ("gallery", "eps-invariants", "--p", "11"),
    ("suite", "run", "thm15-n2", "--p", "11"),
])
def test_unsupported_p_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "UnsupportedP: characteristic must be one of (2, 3, 5, 7), got 11"]


@pytest.mark.parametrize("argv,message", [
    (("gallery", "rank3", "--p", "5"),
     "BadParameters: need p in {2, 3} and 0 <= l, m <= 4"),
    (("gallery", "F", "--n", "2"), "BadParameters: need n >= 3"),
    (("gallery", "eps-invariants", "--n", "0"), "BadParameters: need n >= 1"),
    (("criteria", "certify", "--d", "4"),
     "BadParameters: need d >= 2 prime to p and l >= 0"),
    (("parse", "word", "[H0: a]"), "ParseError: bad field 'a' in a [H0] block"),
    (("parse", "word", "[tri: a=1]"),
     "ParseError: a [tri] block needs a, b, c, q"),
    (("parse", "word", "[H0: b=1]"),
     "ParseError: bad field 'b=1' in a [H0] block"),
    (("parse", "poly", "x1", "--vars", "x1,x1"),
     "ParseError: --vars: duplicate variable names"),
    (("parse", "poly", "x1", "--vars", "T"),
     "ParseError: --vars: 'T' is reserved for the action parameter"),
    (("plane", "centralize", "(x1+x2^2, x2)", "--t", "0"),
     "BadParameters: t must lie in k*, got 0"),
    (("parse", "word", "[E1: x2^2]", "--t", "0"),
     "BadParameters: t must lie in k*, got 0"),
    (("parse", "word", "[H0: a=0]"),
     "BadParameters: the H0 factor a must lie in k*, got 0"),
    (("parse", "word", "[tri: a=0,b=1,c=0,q=x1]"),
     "BadParameters: a and b must lie in k*, got a=0, b=1"),
    (("parse", "poly", "u*x1", "--vars", "u,x1"),
     "ParseError: --vars: 'u' is reserved for the coefficient parameter"),
    (("parse", "word", "[aff:1,2,2,1,0,0]", "--p", "3"),
     "BadParameters: affine factor [aff: 1,2,2,1,0,0] is singular"),
    (("gallery", "rank3", "--l", "5"),
     "BadParameters: need p in {2, 3} and 0 <= l, m <= 4"),
    (("gallery", "rank3", "--m", "-1"),
     "BadParameters: need p in {2, 3} and 0 <= l, m <= 4"),
    (("parse", "word", "[tri: a=1,b=1,c=0,q=x2^2]"),
     "BadParameters: [tri: a=1,b=1,c=0,q=x2^2]: q must be univariate in x1"),
    (("parse", "word", "[tri: a=1,b=1,c=0,q=x1*T]"),
     "BadParameters: [tri: a=1,b=1,c=0,q=x1*T]: q must be univariate in x1"),
    (("parse", "word", "[E1: x1^2]"),
     "BadParameters: [E1: x1^2]: g must be univariate in x2"),
    (("parse", "word", "[E2: x2]"),
     "BadParameters: [E2: x2]: g must be univariate in x1"),
    (("parse", "word", "[E1: x2*T]"),
     "BadParameters: [E1: x2*T]: g must be univariate in x2"),
    (("parse", "word", "[E1: x2+1]"), "BadParameters: [E1: x2+1]: g(0) must be 0"),
    (("parse", "word", "[H0: u2=1][E1: x2^2]"),
     "ParseError: an [H0] block must come last (at position 0)"),
    (("parse", "word", "[E1: x2^2][H0: a=2][H0: u2=1]", "--p", "3"),
     "ParseError: an [H0] block must come last (at position 10)"),
    (("parse", "word", "[aff: 1,0,0,1,0,0]", "--vars", "x1,x2,x3"),
     "ParseError: a word needs two variables, got 3"),
    (("parse", "word", "[E1: x2^2]", "--vars", "x1"),
     "ParseError: a word needs two variables, got 1"),
    (("expo", "(x1+T, x2)"), "ParseError: map images may not involve T"),
    (("plane", "factor", "(x1+T, x2)"),
     "ParseError: map images may not involve T"),
    (("parse", "map", "(x1+T, x2)"),
     "ParseError: map images may not involve T"),
    (("parse", "poly", "x1 = 2"),
     "ParseError: unexpected character '=' (at position 3)"),
    (("parse", "poly", "x1[2]"),
     "ParseError: unexpected character '[' (at position 2)"),
])
def test_construction_parameters_out_of_range_are_usage_errors(capsys, argv,
                                                               message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines() == [message]


@pytest.mark.parametrize("argv,message", [
    (("suite", "run", "nonexp-family", "--p", "5"),
     "suite nonexp-family does not read p"),
    (("suite", "run", "ex-triangular", "--count", "3"),
     "suite ex-triangular does not read count"),
    (("suite", "run", "rank3", "--p", "5"),
     "suite rank3 runs at p in (2, 3), not 5"),
    (("suite", "run", "thm15-n2", "--count", "0"),
     "count must be at least 1"),
])
def test_suite_rejects_parameters_it_does_not_use(capsys, monkeypatch, argv,
                                                   message):
    """Before any case runs: no case thunk is even built."""
    from charp_autos import suites
    name = argv[2]
    build = suites.SUITES[name]
    built = []

    def spy(params):
        cases = build(params)
        built.extend(cases)
        return cases
    monkeypatch.setitem(suites.SUITES, name, spy)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines() == ["BadParameters: " + message]
    assert built == []


def test_suite_count_is_the_number_of_cases(capsys):
    """maubach runs count cases per p, the odd one at n = 2; gauss runs
    count pairs in all, the remainder one each to the first primes, and no
    case at a prime that gets no pair."""
    code, out, _ = run(capsys, "suite", "run", "maubach", "--count", "1",
                       "--p", "2")
    assert (code, out.splitlines()) == (0, [
        "suite maubach  count=1 p=2", "p2-n2-00: pass", "1/1 passed"])
    code, out, _ = run(capsys, "suite", "run", "maubach", "--count", "3",
                       "--p", "5")
    assert code == 0 and [line.split(":")[0] for line in out.splitlines()[
        1:-1]] == ["p5-n2-00", "p5-n2-01", "p5-n3-00"]
    code, out, _ = run(capsys, "suite", "run", "gauss", "--count", "3")
    assert (code, out.splitlines()) == (0, [
        "suite gauss  count=3",
        "p2-composition: pass  [2 pairs]",
        "p2-content-multiplicative: pass  [2 pairs]",
        "p3-composition: pass  [1 pairs]",
        "p3-content-multiplicative: pass  [1 pairs]",
        "4/4 passed"])
    code, out, _ = run(capsys, "suite", "run", "gauss", "--count", "1")
    assert (code, out.splitlines()[1:]) == (0, [
        "p2-composition: pass  [1 pairs]",
        "p2-content-multiplicative: pass  [1 pairs]",
        "2/2 passed"])


@pytest.mark.parametrize("text,position", [
    ("x1^-1", 4), ("1/x1", 1), ("x2*(x1+1)^-2", 11)])
def test_ring_variables_are_not_inverted(capsys, text, position):
    code, out, err = run(capsys, "parse", "poly", text)
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "ParseError: cannot invert a non-unit polynomial (at position %d)"
        % position]


def test_coefficients_are_inverted(capsys):
    code, out, _ = run(capsys, "parse", "poly", "x1*u^-2 + x2/(u+1)")
    assert (code, out) == (0, "(1/u^2)*x1 + (1/(u+1))*x2\n")


def test_a_moved_invariant_generator_is_one_line(capsys, monkeypatch):
    # a substitution that adds 1 to its result moves every generator
    real = MultiPoly.substitute
    monkeypatch.setattr(MultiPoly, "substitute",
                        lambda f, assignment: real(f, assignment) + 1)
    code, out, err = run(capsys, "gallery", "eps-invariants", "--n", "2")
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "NotInvariantGenerator: generator x1^2 + x1 is not invariant"]

