import pytest

from charp_autos.coeffs import Coeff
from charp_autos import gallery
from charp_autos.errors import (BadH, BadParameters,
                                InternalIntegralityFailure, UnsupportedP)
from charp_autos.criteria import non_exponentiality_certificate
from charp_autos.endo import PolyMap, compose, order_up_to
from charp_autos.gallery import (StarReport, build_example_triangular,
                                 build_F_and_Fh, build_nonexp_family,
                                 build_rank3_family, build_rank_r_action,
                                 epsilon_invariants)
from charp_autos.poly import VarTable, is_polynomial_over
from charp_autos.suites import SUITES, run_suite


def test_star_report_outcome_names_the_failed_checks():
    rep = StarReport()
    rep.add("a", True)
    assert rep.outcome() == (True, "")
    rep.add("b", 0, "residual u")
    rep.add("c", False)
    assert rep.outcome() == (False, "failed: b,c")
    assert [c.ok for c in rep.checks] == [True, False, False]
    assert not rep.all_ok()
    assert rep.to_text(verdict="X") == \
        '{"a": true, "b": false, "c": false, "verdict": "X"}'


@pytest.mark.parametrize("p", [2, 3, 5])
def test_triangular_example_reports(p):
    ex = build_example_triangular(p)
    assert ex.report.all_ok(), ex.report.to_text()
    t = ex.action.table
    u = Coeff.u(p)
    # frozen shape of E(x2): x2 - x1^p T - u^(p-1) x1 T^p - u^p T^(p+1)
    expected = (t.var("x2") - t.monomial(1, x1=p, T=1)
                - t.monomial(u ** (p - 1), x1=1, T=p)
                - t.monomial(u ** p, T=p + 1))
    assert ex.action.images[1] == expected
    assert order_up_to(ex.action.evaluate(1), p) == p


def test_triangular_example_rejects_bad_p():
    with pytest.raises(UnsupportedP):
        build_example_triangular(7)


def test_nonexp_wrong_inverse_raises(monkeypatch):
    """The coordinate-inverse check raises a library error, so it also runs
    under python -O.  The second compose call builds the inverse; shifting
    its x image makes it wrong."""
    calls = []

    def compose_breaking_inverse(phi, psi):
        out = compose(phi, psi)
        calls.append(out)
        if len(calls) == 2:
            out = PolyMap(out.table, [out.images[0] + out.table.one()]
                          + list(out.images[1:]))
        return out

    monkeypatch.setattr(gallery, "compose", compose_breaking_inverse)
    with pytest.raises(InternalIntegralityFailure):
        build_nonexp_family(2, 3, 1)


def test_nonexp_constants():
    fam = build_nonexp_family(2, 3, 1)
    assert (fam.a, fam.b, fam.c) == (2, 7, 8)
    fam = build_nonexp_family(3, 2, 1)
    assert (fam.a, fam.b, fam.c) == (5, 5, 21)
    fam = build_nonexp_family(3, 4, 2)
    assert (fam.a, fam.b, fam.c) == (13, 13, 57)
    with pytest.raises(BadParameters):
        build_nonexp_family(2, 4, 1)    # p | d
    with pytest.raises(BadParameters):
        build_nonexp_family(3, 1, 0)    # d < 2


@pytest.mark.parametrize("p,d,l", [(2, 3, 1), (3, 2, 1), (3, 4, 2)])
def test_nonexp_star_reports(p, d, l):
    fam = build_nonexp_family(p, d, l)
    assert fam.report.all_ok(), fam.report.to_text()
    assert fam.slice_axioms() == {"A1": True, "A2": True, "witness": None}


def test_nonexp_suite_cases_build_their_own_member(monkeypatch):
    built = []

    def spy(p, d, l, *rest):
        built.append((p, d, l))
        return build_nonexp_family(p, d, l, *rest)
    monkeypatch.setattr(gallery, "build_nonexp_family", spy)
    result = run_suite("nonexp-family")
    assert result.all_passed
    assert sorted(built) == sorted(((2, 3, 1), (3, 2, 1), (3, 4, 2)) * 2)


def test_nonexp_dual_route_small_parameters():
    # at (2,3,1) the action is materializable: the truncated-arithmetic
    # verdicts must agree with the explicit images
    fam = build_nonexp_family(2, 3, 1)
    action = fam.materialize_action()
    names = list(action.table.names)
    assert action.images[names.index("y")] == fam.e_y()
    assert action.images[names.index("z1")] == action.table.var("z1")
    e_x = action.images[names.index("x")]
    nonintegral = action.table.zero()
    for exps, coeff in e_x.terms.items():
        if not coeff.is_integral():
            from charp_autos.poly import MultiPoly
            nonintegral = nonintegral + MultiPoly(action.table, {exps: coeff})
    shift = fam.nonintegral_shift()
    assert nonintegral == shift
    ok, witness = action.restricts_to()
    assert not ok and witness[0] == "x"
    # sigma restricts: evaluate at 1 and check every image
    sigma = action.evaluate(1)
    assert all(is_polynomial_over(g, "R")[0] for g in sigma.images)


def test_nonexp_certificate_round_trip():
    for (p, d, l) in [(2, 3, 1), (3, 2, 1)]:
        fam = build_nonexp_family(p, d, l)
        cert = non_exponentiality_certificate(
            fam.data(), restriction=(False, fam.restriction_witness()))
        assert cert.verdict == "NotExponentialOverR"
        assert cert.stability.pattern == "every-variable-monomial"
    # direct route at the small parameters agrees
    fam = build_nonexp_family(2, 3, 1)
    cert = non_exponentiality_certificate(fam.data())
    assert cert.verdict == "NotExponentialOverR"


def test_nonexp_sigma_is_order_p_structurally():
    fam = build_nonexp_family(2, 3, 1)
    action = fam.materialize_action()
    sigma = action.evaluate(1)
    # sigma moves xt by the nonzero translation, so sigma != id; order
    # divides p because sigma = E_1 of an action
    assert sigma.apply(fam.xt) == fam.xt + fam.translation
    assert not fam.translation.is_zero()


def test_refuses_materializing_large_family():
    fam = build_nonexp_family(3, 4, 2)
    with pytest.raises(BadParameters):
        fam.materialize_action()


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n,r", [(3, 2), (4, 2), (4, 3)])
def test_rank_r_reports(n, r, p):
    built = build_rank_r_action(n, r, p)
    assert built.report.all_ok(), built.report.to_text()
    # generator at xn = 0: sum of x_j^p plus x_r^(p^2)
    t = built.table
    img = (t.var(t.names[-1]) * built.fs[1]).substitute(
        {t.names[-1]: t.const(0)})
    expected = t.var(t.names[r - 1], p * p)
    assert img == expected


def test_rank_r_reports_a_non_invariant_generator(monkeypatch):
    # x3 -> x3 + T keeps an action, since no other image involves x3, but
    # moves x3, one of the claimed invariant generators; rank_certificate
    # does not test invariance, so the reported check alone catches it
    real = gallery.GaAction

    def moved(table, images):
        images = list(images)
        images[2] = images[2] + table.var("T")
        return real(table, images)

    monkeypatch.setattr(gallery, "GaAction", moved)
    checks = {c.name: c.ok for c in build_rank_r_action(4, 2, 2).report.checks}
    assert not checks["invariant_generators"]
    assert checks["rank_certificate"]


def test_rank_r_bad_parameters():
    with pytest.raises(BadParameters):
        build_rank_r_action(3, 3, 2)
    with pytest.raises(BadParameters):
        build_rank_r_action(4, 2, 5)


def test_rank3_certified_identities_char2():
    p = 2
    fam = build_rank3_family(p, 1, 1)
    t = fam.table
    # xi = g x2 exactly
    assert fam.xi == fam.g * t.var("x2")
    # slice relation on the computable images
    lam = fam.f * fam.g * t.var("T")
    assert fam.f * fam.e1 + fam.e2 == fam.r_elt + lam
    # rescale consistency: (l,m) images are the (1,1) images at scaled T
    fam22 = build_rank3_family(p, 2, 2)
    scale = fam.f * fam.g
    scaled_T = {"T": scale * t.var("T")}
    assert fam22.e2 == fam.e2.substitute(scaled_T)
    assert fam22.e1 == fam.e1.substitute(scaled_T)


def test_rank3_xi_cases_check_xi_without_building_a_member(monkeypatch):
    """Each xi-p* case runs the one check xi = g*x2 itself: with exact_div
    returning its dividend the check fails, so both cases FAIL, and neither
    builds an (l, m) member of the family."""
    built = []
    monkeypatch.setattr(gallery, "build_rank3_family",
                        lambda *args: built.append(args))
    monkeypatch.setattr(gallery, "exact_div", lambda f, g: f)
    cases = dict(SUITES["rank3"]({}))
    assert [cases["xi-p2"](), cases["xi-p3"]()] == [(False, ""), (False, "")]
    assert built == []


def test_F_family_and_commutator():
    for p in (2, 3):
        t = VarTable(p, ("x1", "x2", "x3", "x4"))
        hs = [t.zero(), t.var("x4"), t.var("x1"),
              t.var("x3") * t.var("x1") + t.one()]
        fam = build_F_and_Fh(4, p, hs)
        assert fam.report.all_ok(), fam.report.to_text()
        # F_0 is the identity and F_1 has order p
        assert fam.action.evaluate(fam.table.zero()).is_identity()
        assert order_up_to(fam.action.evaluate(1), p) == p
        # F_{x4} matches the displayed formula
        f_x4 = fam.action.evaluate(fam.table.var("x4"))
        t2 = fam.table
        formula = PolyMap(t2, [
            t2.var("x1") + t2.var("x3") * t2.var("x4"),
            t2.var("x2") - t2.var("x4")
            + t2.monomial(1, x3=p - 1) * t2.var("x4") ** p,
            t2.var("x3"), t2.var("x4")])
        assert f_x4 == formula


def test_F_family_rejects_bad_h():
    t = VarTable(2, ("x1", "x2", "x3"))
    with pytest.raises(BadH):
        build_F_and_Fh(3, 2, [t.var("x2")])
    with pytest.raises(BadParameters):
        build_F_and_Fh(2, 2)


def test_epsilon_invariants_and_c0():
    table, gens = epsilon_invariants(2, 2)
    assert gens[0] == table.parse("x1^2 + x1")
    assert gens[1] == table.var("x2")
    shift = {"x1": table.parse("x1 + 1")}
    assert table.var("x1").substitute(shift) != table.var("x1")
    # generators of C0(eps): a*x_i + g, g in the invariants without x_i
    t, (w, x2, x3) = epsilon_invariants(3, 3)
    eps = PolyMap(t, [t.parse("x1+1"), x2, x3])
    for gmap in (PolyMap(t, [t.var("x1") + x2 ** 2 * x3 + t.one(), x2, x3]),
                 PolyMap(t, [t.var("x1"), x2.scale(2) + w * x3 + w ** 2, x3]),
                 PolyMap(t, [t.var("x1"), x2, x3 + w ** 4 * x2])):
        assert compose(gmap, eps) == compose(eps, gmap)
