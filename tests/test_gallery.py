from unittest import mock

import pytest

from charp_autos.coeffs import Coeff
from charp_autos import gallery, poly
from charp_autos.errors import (BadH, BadParameters,
                                InternalIntegralityFailure, NotDivisible,
                                UnsupportedP)
from charp_autos.criteria import non_exponentiality_certificate
from charp_autos.endo import PolyMap, compose, order_up_to
from charp_autos.gaction import GaAction, slice_action, slice_image
from charp_autos.gallery import (StarReport, build_example_triangular,
                                 build_F_and_Fh, build_nonexp_family,
                                 build_rank3_family, build_rank_r_action,
                                 epsilon_invariants, rank3_base)
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


def _evaluate_at(value):
    """GaAction.evaluate at value(p) instead of the parameter asked for."""
    def corrupt(evaluate):
        return lambda action, alpha: evaluate(action, value(action.table.p))
    return corrupt


def _fails_when_using(var, not_using=None):
    """is_polynomial_over reporting (False, None) for an argument that
    involves var (and not not_using), and the truth otherwise."""
    def corrupt(is_polynomial_over):
        def check(f):
            if f.uses_var(var) and not (not_using and f.uses_var(not_using)):
                return False, None
            return is_polynomial_over(f)
        return check
    return corrupt


_TRIANGULAR_CHECKS = ["mu_good_form", "E_x2_integral",
                      "E_x3_residual_integral", "E1_restricts", "E1_order_p",
                      "E_not_restricts"]


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("owner,attr,corrupt,check", [
    (gallery, "order_up_to", lambda real: lambda sigma, bound=None: None,
     "E1_order_p"),
    # E_0 is the identity, of order 1, and restricts
    (GaAction, "evaluate", _evaluate_at(lambda p: 0), "E1_order_p"),
    # E_(1/u) has order p, but u^(p-1) x1 T^p in E(x2) gives it a 1/u
    (GaAction, "evaluate", _evaluate_at(lambda p: Coeff.u(p, -1)),
     "E1_restricts"),
    # gallery's own binding reads only E(x2) and the E(x3) residual, and
    # of these only the residual involves x3
    (gallery, "is_polynomial_over", _fails_when_using("x3"),
     "E_x3_residual_integral"),
    (gallery, "is_polynomial_over", _fails_when_using("x2", not_using="x3"),
     "E_x2_integral"),
    (PolyMap, "restricts_to", lambda real: lambda pmap: (True, None),
     "E_not_restricts")],
    ids=["order-none", "at-0", "at-1/u", "residual-x3", "image-x2",
         "restricts"])
def test_triangular_corruption_fails_only_its_check(monkeypatch, p, owner,
                                                    attr, corrupt, check):
    """Each of build_example_triangular's checks but mu_good_form computes
    something that can fail: a corrupted library step makes that check,
    and only that one, report false."""
    checks = build_example_triangular(p).report.checks
    assert [c.name for c in checks] == _TRIANGULAR_CHECKS
    assert all(c.ok for c in checks)
    monkeypatch.setattr(owner, attr, corrupt(getattr(owner, attr)))
    report = build_example_triangular(p).report
    assert [c.name for c in report.checks if not c.ok] == [check]


def test_nonexp_wrong_inverse_raises(monkeypatch):
    """The builder writes the coordinates (xt, yt, z) and their inverse
    down without a compose call and does not prove the inverse:
    gaction._slice_images proves it before any image is read through it.
    With its x image shifted, slice_image raises InternalIntegralityFailure,
    and of the axioms cases only the 231-image case, the one that reads an
    image, fails."""
    calls = []

    def counted(phi, psi):
        calls.append((phi, psi))
        return compose(phi, psi)

    monkeypatch.setattr(gallery, "compose", counted)
    fam = build_nonexp_family(2, 3, 1)
    assert calls == []
    assert compose(fam.coords_inverse, fam.coords).is_identity()
    assert compose(fam.coords, fam.coords_inverse).is_identity()
    real = gallery.build_nonexp_family

    def wrong_inverse(*args):
        fam = real(*args)
        inv = fam.coords_inverse
        fam.coords_inverse = PolyMap(
            inv.table, (inv.images[0] + inv.table.one(),) + inv.images[1:])
        return fam

    with pytest.raises(InternalIntegralityFailure, match="does not invert"):
        slice_image(wrong_inverse(2, 3, 1).data(), "y")
    monkeypatch.setattr(gallery, "build_nonexp_family", wrong_inverse)
    result = run_suite("axioms")
    assert [(c.name, c.detail) for c in result.cases if not c.ok] == [
        ("gallery-nonexp-231-image", "InternalIntegralityFailure: supplied "
         "inverse does not invert the coordinates")]


_NONEXP_CHECKS = ["star1_u_xt", "star1_u_xt_power", "star2_wt_in_Rxy",
                  "star3_E_y_integral", "star4_E_x_coset", "sigma_restricts"]


def _nonzero_shift_at_one(nonintegral_shift):
    # the shift of sigma = E_1 moved off zero; that of E itself kept
    def shift(family, t_value=None):
        out = nonintegral_shift(family, t_value)
        return out + family.table.one() if t_value == 1 else out
    return shift


@pytest.mark.parametrize("p,d,l", [(2, 3, 1), (3, 2, 1)])
@pytest.mark.parametrize("owner,attr,corrupt,check", [
    # of gallery's own is_polynomial_over calls only star3's xi involves T
    (gallery, "is_polynomial_over", _fails_when_using("T"),
     "star3_E_y_integral"),
    (gallery.NonExpFamily, "nonintegral_shift", _nonzero_shift_at_one,
     "sigma_restricts")],
    ids=["xi", "shift-at-1"])
def test_nonexp_corruption_fails_only_its_check(monkeypatch, p, d, l, owner,
                                                attr, corrupt, check):
    """star3_E_y_integral and sigma_restricts each compute something that
    can fail alone: sigma_restricts tests sigma(y) - y = xi at T = 1
    itself and does not read star3's verdict."""
    checks = build_nonexp_family(p, d, l).report.checks
    assert [c.name for c in checks] == _NONEXP_CHECKS
    assert all(c.ok for c in checks)
    monkeypatch.setattr(owner, attr, corrupt(getattr(owner, attr)))
    report = build_nonexp_family(p, d, l).report
    assert [c.name for c in report.checks if not c.ok] == [check]


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
    assert fam.slice_axioms() == (True, None)


def test_nonexp_suite_cases_build_their_own_member(monkeypatch):
    built = []

    def spy(p, d, l, *rest):
        built.append((p, d, l))
        return build_nonexp_family(p, d, l, *rest)
    monkeypatch.setattr(gallery, "build_nonexp_family", spy)
    result = run_suite("nonexp-family")
    assert result.all_passed
    # each (p, d, l) once: its stars and certificate cases share the member
    assert sorted(built) == [(2, 3, 1), (3, 2, 1), (3, 4, 2)]


def test_perturbed_translation_fails_only_the_slice_generators_case(
        monkeypatch):
    """slice_axioms proves the certificate's f_expr and also ties it to the
    translation the stars are built from: a member whose translation no
    longer matches reports (A2) false, and of the axioms cases only
    gallery-nonexp-slice-generators fails.  The suite builds each member
    once, (2,3,1) for both of its nonexp cases."""
    real = gallery.build_nonexp_family
    built = []

    def perturbed(*args):
        built.append(args)
        fam = real(*args)
        fam.translation = fam.translation + fam.table.one()
        return fam
    assert perturbed(2, 3, 1).slice_axioms() == (
        False, ("A2", "f_expr differs from the translation"))
    monkeypatch.setattr(gallery, "build_nonexp_family", perturbed)
    result = run_suite("axioms")
    assert [c.name for c in result.cases if not c.ok] == [
        "gallery-nonexp-slice-generators"]
    assert built == [(2, 3, 1), (2, 3, 1), (3, 2, 1)]


@pytest.mark.parametrize("p,d,l", [(2, 3, 1), (2, 3, 0), (3, 2, 0),
                                   (3, 2, 1), (2, 3, 3), (5, 2, 0)])
def test_nonexp_canonical_image_of_y_and_z(p, d, l):
    """slice_image builds E(y) and each E(z) alone: E(y) = y + xi, the
    closed form the stars use, and E(z) = z.  At (5,2,0) the whole canonical
    action does not finish in minutes, but these images are small."""
    fam = build_nonexp_family(p, d, l)
    data = fam.data()
    assert slice_image(data, "y") == fam.e_y()
    assert all(slice_image(data, z) == fam.table.var(z)
               for z in fam.table.names[2:])


def test_perturbed_xi_fails_only_the_231_image_case(monkeypatch):
    """The 231-image case compares the canonical E(y) with y + xi: a member
    whose xi is off by u y T reports false there, and no other axioms case
    reads xi."""
    real = gallery.build_nonexp_family

    def perturbed(*args):
        fam = real(*args)
        fam.xi = fam.xi + fam.table.monomial(Coeff.u(fam.p), y=1, T=1)
        return fam
    monkeypatch.setattr(gallery, "build_nonexp_family", perturbed)
    result = run_suite("axioms")
    assert [c.name for c in result.cases if not c.ok] == [
        "gallery-nonexp-231-image"]


def test_nonexp_231_image_case_does_not_build_e_x():
    """The 231-image case builds E(y), 98 terms, and not the 6,006-term
    E(x): no packed substitution it runs yields 6,006 terms, though the
    whole canonical action's does."""
    real = poly._packed_substitute
    sizes = []

    def spy(p, terms, images):
        out = real(p, terms, images)
        sizes.append(len(out))
        return out
    thunk = dict(SUITES["axioms"]({"p": 2}))["gallery-nonexp-231-image"]
    with mock.patch.object(poly, "_packed_substitute", spy):
        assert thunk() == (True, "")
        assert max(sizes) < 6006
        slice_action(build_nonexp_family(2, 3, 1).data())
    assert 6006 in sizes


@pytest.mark.parametrize("p,d,l", [(2, 3, 1), (2, 3, 0), (3, 2, 0)])
def test_nonexp_dual_route_small_parameters(p, d, l):
    """The canonical action with explicit images agrees with the closed
    form of nonintegral_shift modulo R[x, y, z, T], R = F_p[u]:
    E(x) - x - shift has every coefficient in R.  The non-integral terms of
    E(x) need not sum to the shift itself: at (2,3,0) E(x) has the term
    ((u^30 + 1)/u) y^8 T^2, whose integral part u^29 y^8 T^2 the shift
    leaves out."""
    fam = build_nonexp_family(p, d, l)
    action = slice_action(fam.data())
    table = action.table
    names = list(table.names)
    assert action.images[names.index("y")] == fam.e_y()
    assert all(action.images[names.index(z)] == table.var(z)
               for z in names[2:])
    shift = fam.nonintegral_shift()
    assert not shift.is_zero()
    e_x = action.images[names.index("x")]
    assert is_polynomial_over(e_x - table.var("x") - shift) == (True, None)
    ok, witness = action.restricts_to()
    assert not ok and witness[0] == "x"
    # sigma restricts: evaluate at 1 and check every image
    sigma = action.evaluate(1)
    assert all(is_polynomial_over(g)[0] for g in sigma.images)


def _pow_mod_u(f, e, bound):
    """f**e modulo u^bound by the base-p digits of e, each product reduced:
    exact, as f has no negative power of u."""
    p = f.table.p
    out = f.table.one()
    base = f.truncate_u(bound)
    k = 0
    while e:
        e, digit = divmod(e, p)
        piece = base.frob(k).truncate_u(bound)
        for _ in range(digit):
            out = (out * piece).truncate_u(bound)
        k += 1
    return out


def _shift_by_powers_mod_u(fam, t_value):
    """The nonintegral part of E(x) - x as -(q1 / u^(p+1) + q2 / u^2), with
    q1 = (y + xi)^(p(p-1)) - y^(p(p-1)) taken modulo u^(p+1) and
    q2 = (y + xi)^(pa+1) - y^(pa+1) modulo u^2 by reduced powers."""
    p = fam.p
    table = fam.table
    xi = fam.xi if t_value is None else fam.xi.subs_T(table.const(t_value))
    y = table.var("y")
    q1, q2 = ((_pow_mod_u(y + xi, e, bound) - _pow_mod_u(y, e, bound))
              .truncate_u(bound)
              for e, bound in ((p * (p - 1), p + 1), (p * fam.a + 1, 2)))
    u = Coeff.u(p)
    return -(q1.scale(u ** -(p + 1)) + q2.scale(u ** -2)).truncate_u(0)


@pytest.mark.parametrize("p,d,l", [(2, 3, 0), (2, 3, 1), (2, 3, 3),
                                   (3, 2, 0), (3, 2, 1), (3, 4, 2),
                                   (2, 5, 1), (5, 2, 0), (7, 2, 0)])
def test_nonexp_shift_closed_form_matches_powers_mod_u(p, d, l):
    """nonintegral_shift, at T and at T = 1, equals the shift built from
    the powers of y + xi themselves modulo u^(p+1) and u^2, for the default
    g and for g = 1, y + 1, u y + 1; every report is all-ok."""
    names = ("x", "y") + tuple("z%d" % (i + 1) for i in range(l))
    for g_text in (None, "1", "y+1", "u*y+1"):
        g = None if g_text is None else VarTable(p, names).parse(g_text)
        fam = build_nonexp_family(p, d, l, g)
        assert fam.report.all_ok(), (g_text, fam.report.to_text())
        for t_value in (None, 1):
            assert fam.nonintegral_shift(t_value) \
                == _shift_by_powers_mod_u(fam, t_value), (g_text, t_value)


def test_nonexp_shift_refuses_an_xi_outside_u_R():
    """The closed form holds only for xi in u R[x, y, z, T]; an xi with a
    term prime to u raises instead of yielding a shift."""
    fam = build_nonexp_family(2, 3, 1)
    fam.xi = fam.xi + fam.table.var("y")
    with pytest.raises(InternalIntegralityFailure):
        fam.nonintegral_shift()


def test_nonexp_certificate_round_trip():
    for (p, d, l) in [(2, 3, 1), (3, 2, 1)]:
        fam = build_nonexp_family(p, d, l)
        cert = non_exponentiality_certificate(
            fam.data(), restriction=fam.restriction())
        assert cert.verdict == "NotExponentialOverR"
        assert cert.stability.pattern == "every-variable-monomial"
    # direct route at the small parameters agrees
    fam = build_nonexp_family(2, 3, 1)
    cert = non_exponentiality_certificate(fam.data())
    assert cert.verdict == "NotExponentialOverR"


def test_nonexp_certificate_reads_A_from_the_slice_table():
    """At (2,3,1) A = k[y, z1].  With g = y, f = u^7 + u^17 y misses z1,
    so no stability pattern applies: Inconclusive, with the precomputed
    restriction and with the action materialized.  The univariate pattern
    would hold in k[y] alone, but the record names no other A."""
    g = VarTable(2, ("x", "y", "z1")).var("y")
    fam = build_nonexp_family(2, 3, 1, g_expr=g)
    for restriction in (fam.restriction(), None):
        cert = non_exponentiality_certificate(fam.data(), restriction)
        assert (cert.verdict, cert.reason) == ("Inconclusive",
                                               "stability unknown")
        assert cert.stability.kind == "Unknown"


@pytest.mark.parametrize("p,d", [(2, 3), (3, 2)])
def test_nonexp_restriction_agrees_with_the_materialized_action(p, d):
    """restriction() gives restricts_to's verdict on the materialized
    action, names the same generator, and reads (True, None) once the
    shift vanishes."""
    fam = build_nonexp_family(p, d, 0)
    ok, (name, (_, coeff)) = fam.restriction()
    real_ok, (real_name, _) = slice_action(fam.data()).restricts_to()
    assert (ok, name) == (real_ok, real_name) == (False, "x")
    assert not coeff.is_integral()
    fam.nonintegral_shift = lambda: fam.table.zero()
    assert fam.restriction() == (True, None)


@pytest.mark.parametrize("p,d", [(2, 3), (3, 2)])
def test_nonexp_materialized_certificate_at_l_zero(p, d):
    """At l = 0 the certificate, given no precomputed restriction,
    materializes the canonical action: NotExponentialOverR with the
    univariate pattern, and its witness term of E(x) is the shift's term
    there modulo R, which cross-checks restriction()'s source."""
    fam = build_nonexp_family(p, d, 0)
    cert = non_exponentiality_certificate(fam.data())
    assert cert.verdict == "NotExponentialOverR"
    assert cert.stability.pattern == "univariate"
    name, (exps, coeff) = cert.witness
    shift = fam.nonintegral_shift()
    assert name == "x" and not coeff.is_integral()
    assert (coeff - shift.terms.get(exps, Coeff.from_int(p, 0))).is_integral()


def test_nonexp_materialization_takes_the_packed_substitution():
    """At (2,3,1) the substitution that builds E(x), 6,006 terms over
    F_2[u, 1/u], takes poly._packed_substitute, and all three images equal
    those of the Coeff loop, run with the size test forced shut."""
    fam = build_nonexp_family(2, 3, 1)
    real = poly._packed_substitute
    sizes = []

    def spy(p, terms, images):
        out = real(p, terms, images)
        sizes.append(len(out))
        return out
    with mock.patch.object(poly, "_packed_substitute", spy):
        packed = slice_action(fam.data())
    with mock.patch.object(poly, "_PACK_MIN_SUBSTITUTION", float("inf")), \
            mock.patch.object(poly, "_packed_substitute") as kernel:
        looped = slice_action(fam.data())
    assert not kernel.called
    assert 6006 in sizes
    assert [len(g.terms) for g in packed.images] == [6006, 98, 1]
    assert packed.images == looped.images


def test_nonexp_sigma_is_order_p_structurally():
    fam = build_nonexp_family(2, 3, 1)
    action = slice_action(fam.data())
    sigma = action.evaluate(1)
    # sigma moves xt by the nonzero translation, so sigma != id; order
    # divides p because sigma = E_1 of an action
    xt = fam.coords.images[0]
    assert sigma.apply(xt) == xt + fam.translation
    assert not fam.translation.is_zero()


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n,r", [(3, 2), (4, 2), (4, 3)])
def test_rank_r_reports(n, r, p):
    built = build_rank_r_action(n, r, p)
    assert built.report.all_ok(), built.report.to_text()
    # generator at xn = 0: sum of x_j^p plus x_r^(p^2)
    t = built.table
    img = built.gs[1].substitute({t.names[-1]: t.const(0)})
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


def test_rank_r_reports_a_delta_outside_the_coset(monkeypatch):
    # exact_div finds no quotient by xn (T^p - T): the builder still returns,
    # and only condition_c_cosets reports false; the divisions by xn in the
    # recursion on deltas run as before
    real = gallery.exact_div

    def no_coset(f, g):
        t = g.table
        tpow = t.var("T", t.p) - t.var("T")
        if g == t.var(t.names[-1]) * tpow:
            raise NotDivisible("planted")
        return real(f, g)

    monkeypatch.setattr(gallery, "exact_div", no_coset)
    checks = {c.name: c.ok for c in build_rank_r_action(4, 3, 2).report.checks}
    assert not checks.pop("condition_c_cosets")
    assert all(checks.values()), checks


def _frobenius_parameter(ga_action):
    """GaAction with T sent to T^p in every image: still an action (T^p is
    additive), with the same invariants and, as 1^p = 1, the same E_1, but
    it moves g1 = xn x1 + xr^p by xn T^p instead of xn T."""
    def corrupt(table, images):
        t_to_tp = {"T": table.var("T", table.p)}
        return ga_action(table, [g.substitute(t_to_tp) for g in images])
    return corrupt


def _g1_power_plus_one(power):
    """MultiPoly.__pow__ with 1 added to the powers of g1 = xn x1 + xr^p,
    the one two-term base with the term xn x1: the chain g1^p - xn^(p-1) g1
    and so every g_i, i >= 2, gain the invariant constant 1, which moves
    their images at xn = 0 and no linear part."""
    def corrupt(f, e):
        out = power(f, e)
        last = f.table.names[-1]
        if len(f.terms) == 2 and f.coeff_of(x1=1, **{last: 1}) == 1:
            out = out + 1
        return out
    return corrupt


_RANK_R_CHECKS = ["fixes_chain", "condition_c_cosets", "E1_is_translation",
                  "invariant_generators", "xn_zero_images",
                  "rank_certificate"]


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("n,r", [(3, 2), (4, 3)])
@pytest.mark.parametrize("owner,attr,corrupt,check", [
    (gallery, "GaAction", _frobenius_parameter, "fixes_chain"),
    # E_0 is the identity, not the translation by 1
    (GaAction, "evaluate", _evaluate_at(lambda p: 0), "E1_is_translation"),
    (poly.MultiPoly, "__pow__", _g1_power_plus_one, "xn_zero_images")],
    ids=["T-to-Tp", "at-0", "g1-power-plus-1"])
def test_rank_r_corruption_fails_only_its_check(monkeypatch, p, n, r, owner,
                                                attr, corrupt, check):
    """Each of these checks of build_rank_r_action computes something that
    can fail: a perturbed action or a corrupted library step makes that
    check, and only that one, report false.  g1 ** p goes through the
    memo of powers of the builder's table, and each build makes its own
    table, so no power of the honest build reaches the corrupted one."""
    checks = build_rank_r_action(n, r, p).report.checks
    assert [c.name for c in checks] == _RANK_R_CHECKS
    assert all(c.ok for c in checks)
    monkeypatch.setattr(owner, attr, corrupt(getattr(owner, attr)))
    report = build_rank_r_action(n, r, p).report
    assert [c.name for c in report.checks if not c.ok] == [check]


def test_rank_r_bad_parameters():
    with pytest.raises(BadParameters):
        build_rank_r_action(3, 3, 2)
    with pytest.raises(BadParameters):
        build_rank_r_action(4, 2, 5)


def _ring_map(poly, images, table):
    """The image of a polynomial over the generic symbols under the ring map
    sending each named symbol to images[name] in table, and T to T."""
    names = poly.table.names
    powers = {}
    out = table.zero()
    for exp, c in poly.terms.items():
        term = table.var("T", exp[-1]).scale(c)
        for nm, e in zip(names, exp):
            if e:
                if (nm, e) not in powers:
                    powers[nm, e] = images[nm] ** e
                term = term * powers[nm, e]
        out = out + term
    return out


def _rank3_closed_forms(fam):
    """The images (e1, e2) of x1, x2 at (l, m) >= (1, 1): the closed forms
    for (1, 1) with T rescaled to f^(l-1) g^(m-1) T."""
    base = fam.base
    t, f, g, p2 = base.table, base.f, base.g, base.p ** 2
    scale = f ** (fam.l - 1) * g ** (fam.m - 1)
    block = (g ** (p2 - 1) * scale ** p2 * t.var("T", p2)
             - g ** (base.p - 1) * scale ** base.p * t.var("T", base.p))
    e1 = t.var("x1") + g * scale * t.var("T") + f ** (p2 - 1) * block
    e2 = t.var("x2") - f ** p2 * block
    return e1, e2


def test_rank3_certified_identities_char2():
    """The generic e1, e2 map to the closed forms of every member, at p = 2
    for (l, m) in {1, 2}^2 and at p = 3 for (1, 1): the ring map F -> f,
    Xi -> xi, S -> f^(l-1) g^(m-1) carries the generic identities to the
    concrete images."""
    for p, l, m in ((2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2), (3, 1, 1)):
        base = rank3_base(p)
        fam = build_rank3_family(base, l, m)
        t, f, g = base.table, base.f, base.g
        # xi = g x2 exactly
        assert base.xi == g * t.var("x2")
        e1, e2 = _rank3_closed_forms(fam)
        gen_e1, gen_e2, slice_ok, x3_ok = gallery._rank3_generic(p)
        assert slice_ok and x3_ok
        images = gallery._rank3_ring_map(f, g, l, m)
        assert _ring_map(gen_e1, images, t) == e1
        assert _ring_map(gen_e2, images, t) == e2
        # slice relation on the concrete images
        lam = f ** l * g ** m * t.var("T")
        assert f * e1 + e2 == base.r_elt + lam
        # rescale consistency: (l,m) images are the (1,1) images at scaled T
        unit = build_rank3_family(base, 1, 1)
        scaled_T = {"T": f ** (l - 1) * g ** (m - 1) * t.var("T")}
        assert [e.substitute(scaled_T) for e in _rank3_closed_forms(unit)] \
            == [e1, e2]


def _rank3_x3_sides(p):
    """(numerator, expanded, frobenius) over the generic symbols: the
    numerator N = X2 X3 - a^(p^2) + a^p of E(x3), the x3 certificate with
    its binomial differences expanded, and its Frobenius form."""
    table, _, block = gallery._rank3_symbols(p)
    e1, e2, _, _ = gallery._rank3_generic(p)
    p2 = p * p
    f, x2, x3 = table.var("F"), table.var("X2"), table.var("X3")
    a = e1 - table.var("X1")
    y = table.var("F", p2) * block
    numerator = x2 * x3 - a ** p2 + a ** p
    expanded = (x3 * e2 + block * (x2 ** (p2 - 1) - y ** (p2 - 1))
                - f ** (p2 - p) * block * (x2 ** (p - 1) - y ** (p - 1)))
    frobenius = (x3 * e2 + block * x2 ** (p2 - 1)
                 - f ** (p2 * (p2 - 1)) * block ** p2
                 - f ** (p2 - p) * block * x2 ** (p - 1)
                 + f ** (p ** 3 - p) * block ** p)
    return numerator, expanded, frobenius


@pytest.mark.parametrize("p", (2, 3))
def test_rank3_x3_certificate_matches_its_expanded_form(p):
    """The x3 certificate in Frobenius powers of B is the expanded one,
    B (X2^(p^2-1) - Y^(p^2-1)) with Y = F^(p^2) B and so on, and both equal
    the numerator of E(x3), which _rank3_generic checks."""
    numerator, expanded, frobenius = _rank3_x3_sides(p)
    assert expanded == frobenius == numerator
    assert gallery._rank3_generic(p)[3]


def _rank3_expanded_numerator(fam):
    """(projection, kept variable, n) for a member with l = 0 or m = 0: the
    numerator of its blocking argument, expanded before it is projected."""
    p, f, g, t = fam.base.p, fam.base.f, fam.base.g, fam.base.table
    p2 = p * p
    x1, x2 = t.var("x1"), t.var("x2")
    l, m = fam.l, fam.m
    if (l, m) == (1, 0):
        return "pi1", "x1", g * x2 - f ** p2 * (t.var("T", p2)
                                               - t.var("T", p))
    if l >= 2:
        return "pi1", "x1", g * x2 - f ** p2 * (
            f ** ((l - 1) * p2) - f ** ((l - 1) * p))
    return "pi2", "x2", (f * g * x1 + g ** (m + 1) + g ** (m * p2)
                         - f ** (p2 - p) * g ** (m * p))


@pytest.mark.parametrize("p", (2, 3))
def test_rank3_projection_first_matches_the_expanded_numerator(p):
    """Each blocked member projects f, g and the variables before forming
    the residual; projecting the expanded numerator gives the same one."""
    for l, m in ((0, 0), (0, 1), (0, 2), (1, 0), (2, 0)):
        fam = build_rank3_family(rank3_base(p), l, m)
        name, keep, n = _rank3_expanded_numerator(fam)
        residual = gallery._pi_map(n, keep)
        blocking = fam.report.checks[-1]
        assert blocking.ok
        assert blocking.detail == "%s residual %s" % (name, residual)


def _drop_g_term(symbols):
    # G without its term F^(p^2-p) X2^(p-1)
    def patched(p):
        table, g, block = symbols(p)
        return (table, g - table.var("F", p * p - p) * table.var("X2", p - 1),
                block)
    return patched


def _scale_block_term(symbols):
    # B with its second term G^(p-1) (ST)^p multiplied by X1
    def patched(p):
        table, g, block = symbols(p)
        second = g ** (p - 1) * (table.var("S") * table.var("T")).frob()
        return table, g, block + second - table.var("X1") * second
    return patched


def _wrong_scale(ring_map):
    # S sent to x1 f^(l-1) g^(m-1)
    def patched(f, g, l, m):
        images = ring_map(f, g, l, m)
        images["S"] = images["S"] * images["X1"]
        return images
    return patched


def _zero_projection(pi_map):
    # every variable sent to 0, the kept one too
    return lambda f, keep: f.table.zero()


def _quotient_plus_one(exact_div):
    # every quotient off by 1
    return lambda f, g: exact_div(f, g) + g.table.one()


# the checks each corrupted member reports, in order
_RANK3_CHECKS = {
    (2, 1): ["xi_equals_g_x2", "slice_consistency", "x3_image_polynomial"],
    (1, 0): ["xi_equals_g_x2", "E1_equals_eps", "action_blocked_pi1"],
    (2, 0): ["xi_equals_g_x2", "E1_blocked_pi1"],
    (0, 1): ["xi_equals_g_x2", "E1_blocked_pi2"],
}


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("attr,corrupt,member,check,base_first", [
    ("_rank3_symbols", _drop_g_term, (2, 1), "x3_image_polynomial", False),
    ("_rank3_symbols", _scale_block_term, (2, 1), "x3_image_polynomial",
     False),
    ("_rank3_ring_map", _wrong_scale, (2, 1), "slice_consistency", False),
    ("_pi_map", _zero_projection, (1, 0), "action_blocked_pi1", False),
    ("_pi_map", _zero_projection, (2, 0), "E1_blocked_pi1", False),
    ("_pi_map", _zero_projection, (0, 1), "E1_blocked_pi2", False),
    # the base has divided xi by g before the corruption
    ("exact_div", _quotient_plus_one, (1, 0), "E1_equals_eps", True)],
    ids=["G", "B", "scale", "pi1-l1", "pi1-l2", "pi2", "E1-quotient"])
def test_rank3_corruption_fails_only_its_check(monkeypatch, p, attr, corrupt,
                                               member, check, base_first):
    """Each check of a member computes something that can fail: a
    corrupted input or library step makes that check, and only that one,
    report false.  rank3_base proves the per-p facts, so a row whose step
    the base also takes builds the base before the corruption."""
    base = rank3_base(p)
    checks = build_rank3_family(base, *member).report.checks
    assert [c.name for c in checks] == _RANK3_CHECKS[member]
    assert all(c.ok for c in checks)
    monkeypatch.setattr(gallery, attr, corrupt(getattr(gallery, attr)))
    report = build_rank3_family(base if base_first else rank3_base(p),
                                *member).report
    assert [c.name for c in report.checks if not c.ok] == [check]


def _bound_products(monkeypatch, bound):
    """Record |a| |b| for each product of two MultiPolys, and raise as soon
    as one passes bound, before it is formed."""
    sizes = []
    mul = poly.MultiPoly.__mul__

    def bounded(a, b):
        if isinstance(b, poly.MultiPoly):
            sizes.append(len(a.terms) * len(b.terms))
            assert sizes[-1] <= bound, "a product of %d terms" % sizes[-1]
        return mul(a, b)
    monkeypatch.setattr(poly.MultiPoly, "__mul__", bounded)
    return sizes


@pytest.mark.parametrize("p,bound", ((3, 100), (5, 500)))
def test_rank3_generic_forms_only_small_products(monkeypatch, p, bound):
    """The generic check never expands Y^(p^2-1): its largest product has
    46 term products at p = 3 and 244 at p = 5, against 31,038 and about
    4.9 million when the x3 certificate was expanded in powers of Y."""
    sizes = _bound_products(monkeypatch, bound)
    assert gallery._rank3_generic(p)[2:] == (True, True)
    assert 0 < max(sizes) <= bound


@pytest.mark.parametrize("p,bound", ((5, 500), (7, 1700)))
def test_rank3_generic_identities_beyond_p3(monkeypatch, p, bound):
    """The generic identities hold at p = 5 and 7, where no member is
    built yet, and each corruption of G or B still fails the x3 check.
    Products are bounded at about twice the largest one measured (244 at
    p = 5, 816 at p = 7), so a certificate that expands Y^(p^2-1) fails
    here at once instead of growing without bound."""
    _bound_products(monkeypatch, bound)
    _, _, slice_ok, x3_ok = gallery._rank3_generic(p)
    assert slice_ok and x3_ok
    symbols = gallery._rank3_symbols
    for corrupt in (_drop_g_term, _scale_block_term):
        monkeypatch.setattr(gallery, "_rank3_symbols", corrupt(symbols))
        assert not gallery._rank3_generic(p)[3]


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


@pytest.mark.parametrize("p", (2, 3))
def test_rank3_member_reads_p_and_its_table_from_its_base(p):
    """A member has one p, its base's: for every kind of member it keeps
    its base and reads p, the table, f, g, r and xi there, with no copy of
    its own."""
    base = rank3_base(p)
    for l, m in ((1, 1), (1, 0), (2, 0), (0, 1)):
        fam = build_rank3_family(base, l, m)
        assert fam.base is base and base.table.p == p
        assert sorted(vars(fam)) == ["base", "classification", "l", "m",
                                     "report"]
        assert fam.report.all_ok()


def _record_calls(monkeypatch, *names):
    """Replace each named one-argument gallery function by one that logs
    its argument p and calls the original; return the logs by name."""
    calls = {name: [] for name in names}
    for name in names:
        def spy(p, fn=getattr(gallery, name), log=calls[name]):
            log.append(p)
            return fn(p)
        monkeypatch.setattr(gallery, name, spy)
    return calls


def test_rank3_suite_proves_each_per_p_fact_once(monkeypatch):
    """A suite run makes one Rank3Base per p, which its xi case and its
    nine members share, and proves the generic identities once per p;
    two members built on two bases each prove them on their own."""
    calls = _record_calls(monkeypatch, "rank3_base", "_rank3_generic")
    result = run_suite("rank3")
    assert len(result.cases) == 20 and result.all_passed, result.to_text()
    assert calls == {"rank3_base": [2, 3], "_rank3_generic": [2, 3]}
    calls["rank3_base"].clear()
    calls["_rank3_generic"].clear()
    assert build_rank3_family(gallery.rank3_base(3), 2, 2).report.all_ok()
    assert build_rank3_family(gallery.rank3_base(3), 2, 2).report.all_ok()
    assert calls == {"rank3_base": [3, 3], "_rank3_generic": [3, 3]}


_RANK3_RESTRICTING = ["p%d-l%d-m%d" % (p, l, m)
                      for p in (2, 3) for l in (1, 2) for m in (1, 2)]


def test_rank3_suite_shared_facts_can_fail(monkeypatch):
    """A shared fact that fails fails every case that reads it: with
    exact_div returning its dividend all 20 cases FAIL, and with G missing
    a term exactly the eight members with l, m >= 1 FAIL, on
    x3_image_polynomial."""
    monkeypatch.setattr(gallery, "exact_div", lambda f, g: f)
    result = run_suite("rank3")
    assert len(result.cases) == 20
    assert not any(c.ok for c in result.cases), result.to_text()
    monkeypatch.undo()
    monkeypatch.setattr(gallery, "_rank3_symbols",
                        _drop_g_term(gallery._rank3_symbols))
    failed = {c.name: c.detail for c in run_suite("rank3").cases if not c.ok}
    assert failed == dict.fromkeys(_RANK3_RESTRICTING,
                                   "failed: x3_image_polynomial")


def test_rank3_suite_retries_a_base_that_raised(monkeypatch):
    """The first case of a p to run makes its Rank3Base; if that raises,
    the case fails with the exception as its witness and the next case
    makes the base again."""
    build = gallery.rank3_base
    calls = []

    def flaky(p):
        calls.append(p)
        if len(calls) == 1:
            raise NotDivisible("planted")
        return build(p)
    monkeypatch.setattr(gallery, "rank3_base", flaky)
    result = run_suite("rank3", p=2)
    failed = {c.name: c.detail for c in result.cases if not c.ok}
    assert failed == {"xi-p2": "NotDivisible: planted"}
    assert calls == [2, 2]


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


_F_CHECKS = ["F_x2_divisibility", "F_restricts", "F_f_invariant",
             "F_h_formula_and_centralizing", "commutator_identity"]


def _eps_plus_x3(eps_map):
    """eps_map with x3 added to the image of x1: not a translation."""
    def corrupt(table, c):
        eps = eps_map(table, c)
        return PolyMap(table, [eps.images[0] + table.var("x3")]
                       + list(eps.images[1:]))
    return corrupt


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("n,with_h,owner,attr,corrupt,check", [
    (4, True, gallery, "exact_div", _quotient_plus_one, "F_x2_divisibility"),
    (4, True, GaAction, "restricts_to",
     lambda real: lambda action: (False, None), "F_restricts"),
    # evaluate asks is_invariant of its parameter, so this row evaluates
    # nothing: n = 3, which has no commutator, and no h
    (3, False, GaAction, "is_invariant",
     lambda real: lambda action, h: False, "F_f_invariant"),
    # F_f does not commute with (x1 + 1 + x3, x2, ..): f moves by x3 - x3^p
    (4, True, gallery, "eps_map", _eps_plus_x3,
     "F_h_formula_and_centralizing"),
    # with no h, compose runs only in the commutator's right-hand side
    (4, False, gallery, "compose", lambda real: lambda phi, psi: phi,
     "commutator_identity")],
    ids=["quotient-plus-1", "no-restriction", "nothing-invariant",
         "eps-not-translation", "compose-drops-psi"])
def test_F_corruption_fails_only_its_check(monkeypatch, p, n, with_h, owner,
                                           attr, corrupt, check):
    """Each of build_F_and_Fh's checks computes something that can fail: a
    corrupted library step makes that check, and only that one, report
    false.  The h list holds 0, f (written x1) and x4."""
    table = VarTable(p, tuple("x%d" % (i + 1) for i in range(n)))
    hs = [table.zero(), table.var("x1"), table.var("x4")] if with_h else []
    checks = build_F_and_Fh(n, p, hs).report.checks
    assert [c.name for c in checks] == _F_CHECKS[:5 if n == 4 else 4]
    assert all(c.ok for c in checks)
    monkeypatch.setattr(owner, attr, corrupt(getattr(owner, attr)))
    report = build_F_and_Fh(n, p, hs).report
    assert [c.name for c in report.checks if not c.ok] == [check]


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
