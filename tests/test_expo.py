import sys

import pytest
from hypothesis import given, settings, strategies as st

from charp_autos import endo, expo
from charp_autos.coeffs import Coeff
from charp_autos.errors import (BadThetaSupport, InternalIntegralityFailure,
                                NonUnitTranslation, NotOrderP, NotStructured,
                                NotTriangular, UnsupportedField)
from charp_autos.endo import PolyMap, compose, conjugate, eps_map, order_up_to
from charp_autos.expo import (exponentialize_field_n3,
                              exponentialize_triangular_n2,
                              maubach_conjugator, sigma_from_theta, theta_of)
from charp_autos.gaction import GaAction
from charp_autos.poly import VarTable, is_polynomial_over
from charp_autos.seeds import Lcg
from charp_autos.suites import SUITES, run_suite
from charp_autos.textio import parse_map


def t2(p):
    return VarTable(p, ("x1", "x2"))


def test_maubach_already_elementary():
    t = t2(3)
    sigma = PolyMap(t, [t.parse("x1+1"), t.var("x2")])
    assert maubach_conjugator(sigma).is_identity()


def test_maubach_worked_example():
    t = t2(2)
    sigma = PolyMap(t, [t.parse("x1+1"), t.parse("x2+x1^2+x1+1")])
    phi = maubach_conjugator(sigma)
    assert phi == PolyMap(t, [t.var("x1"), t.parse("x2+x1^3+1")])
    # f2 is fixed by sigma
    assert sigma.apply(phi.images[1]) == phi.images[1]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_maubach_randomized(p):
    t = VarTable(p, ("x1", "x2", "x3"))
    lcg = Lcg(100 + p)
    for _ in range(6):
        imgs = [t.var("x1")]
        for i in range(1, 3):
            extra = t.zero()
            for _ in range(1 + lcg.draw(2)):
                mono = {t.names[j]: lcg.draw(3) for j in range(i)}
                extra = extra + t.monomial(lcg.draw_nonzero(p), **mono)
            imgs.append(t.var(t.names[i]) + extra)
        psi = PolyMap(t, imgs)
        a = Coeff.from_int(p, 1 + lcg.draw(p - 1))
        translation = PolyMap(t, [t.var("x1") + t.const(a),
                                  t.var("x2"), t.var("x3")])
        sigma = conjugate(translation, psi)
        phi = maubach_conjugator(sigma)
        assert conjugate(translation, phi) == sigma
        # averaging invariance: the images are sigma-fixed and x_i + lower
        for i in (1, 2):
            f_i = phi.images[i]
            assert sigma.apply(f_i) == f_i
            diff = f_i - t.var(t.names[i])
            for name in t.names[i:]:
                assert not diff.uses_var(name)


def test_maubach_unit_discipline():
    t = t2(2)
    u = Coeff.u(2)
    sigma = sigma_from_theta(u, t.parse("x1^3"))
    with pytest.raises(NonUnitTranslation):
        maubach_conjugator(sigma)          # u is not a unit of F_2[u]


def test_exponentialize_worked_example():
    p = 2
    t = t2(p)
    u = Coeff.u(p)
    sigma = sigma_from_theta(u, t.parse("x1^3"))
    assert sigma == PolyMap(t, [t.parse("x1+u"),
                                t.parse("x2+x1^2+u*x1+u^2")])
    res = exponentialize_triangular_n2(sigma)
    assert res.action.images[0] == t.parse("x1 + u*T")
    assert res.action.images[1] == t.parse("x2 + x1^2*T + u*x1*T^2 + u^2*T^3")
    assert res.action.evaluate(1) == sigma
    assert res.action.restricts_to()[0]
    assert res.a == u


def test_exponentialize_one_variable_delegation():
    t = t2(3)
    sigma = PolyMap(t, [t.var("x1"), t.parse("x2 + x1^2 + 1")])
    res = exponentialize_triangular_n2(sigma)
    assert res.action.images[1] == t.parse("x2 + (x1^2 + 1)*T")
    assert res.action.evaluate(1) == sigma
    # no conjugator data on this path, so theta_of has nothing to read
    assert (res.conjugator, res.reduced_f, res.a) == (None, None, None)
    with pytest.raises(NonUnitTranslation):
        theta_of(sigma, res)


def test_exponentialize_errors():
    t = t2(2)
    with pytest.raises(NotOrderP):
        exponentialize_triangular_n2(PolyMap.identity(t))
    with pytest.raises(NotTriangular):
        exponentialize_triangular_n2(PolyMap(t, [t.var("x2"), t.var("x1")]))


def test_entry_points_reject_maps_not_of_order_p():
    # (x1+1, x2+x1) has order 4 over F_2; (x1+1, x2+x1^2) order 9 over F_3
    t = t2(2)
    order4 = PolyMap(t, [t.parse("x1+1"), t.parse("x2+x1")])
    assert order_up_to(order4, 4) == 4
    t3 = t2(3)
    order9 = PolyMap(t3, [t3.parse("x1+1"), t3.parse("x2+x1^2")])
    assert order_up_to(order9, 9) == 9
    n3 = VarTable(2, ("x1", "x2", "x3"))
    order4_n3 = PolyMap(n3, [n3.parse("x1+1"), n3.parse("x2+x1"),
                             n3.var("x3")])
    # triangular but not strict: a leading unit 2 has order 2, not 3
    scaled = PolyMap(t3, [t3.var("x1"), t3.parse("2*x2+x1")])
    n3p3 = VarTable(3, ("x1", "x2", "x3"))
    scaled_n3 = PolyMap(n3p3, [n3p3.var("x1"), n3p3.parse("2*x2"),
                               n3p3.parse("x3+x1")])
    cases = [(maubach_conjugator, order4), (maubach_conjugator, order9),
             (maubach_conjugator, PolyMap.identity(t)),
             (exponentialize_triangular_n2, order4),
             (exponentialize_triangular_n2, order9),
             (exponentialize_triangular_n2, PolyMap.identity(t)),
             (exponentialize_triangular_n2, scaled),
             (exponentialize_field_n3, order4_n3),
             (exponentialize_field_n3, PolyMap.identity(n3)),
             (exponentialize_field_n3, scaled_n3)]
    for entry, sigma in cases:
        with pytest.raises(NotOrderP):
            entry(sigma)


def test_maubach_rejects_triangular_maps_that_are_not_strict():
    t = t2(3)
    with pytest.raises(NotTriangular):
        maubach_conjugator(PolyMap(t, [t.parse("x1+1"), t.parse("2*x2")]))
    with pytest.raises(NotTriangular):
        maubach_conjugator(PolyMap(t, [t.parse("x1+1"),
                                       t.parse("2*x2+x1^2")]))


def test_sigma_from_theta_validation():
    p = 3
    t = t2(p)
    u = Coeff.u(p)
    assert sigma_from_theta(u, t.zero()) == PolyMap(
        t, [t.parse("x1+u"), t.var("x2")])
    with pytest.raises(BadThetaSupport):
        sigma_from_theta(u, t.var("x1", p))
    with pytest.raises(BadThetaSupport):
        sigma_from_theta(u, t.var("x1").scale(u.inv()))
    sig = sigma_from_theta(u, t.var("x1"))
    assert sig.images[1] == t.parse("x2 - 1")
    assert order_up_to(sig, p) == p


def test_theta_round_trip():
    for p in (2, 3):
        t = t2(p)
        u = Coeff.u(p)
        lcg = Lcg(600 + p)
        for _ in range(25):
            theta = t.zero()
            for i in range(1, 9):
                if i % p and lcg.draw(2):
                    theta = theta + t.monomial(
                        Coeff.from_u_coeffs(p, [lcg.draw(p) for _ in range(3)]),
                        x1=i)
            if theta.is_zero():
                theta = t.var("x1")
            a = (u, u * u, u + 1)[lcg.draw(3)]
            sigma = sigma_from_theta(a, theta)
            a2, theta2 = theta_of(sigma, exponentialize_triangular_n2(sigma))
            assert a2 == a and theta2 == theta


def test_theta_of_rejects_the_result_of_another_map():
    t = t2(3)
    u = Coeff.u(3)
    sigma = sigma_from_theta(u, t.parse("x1^2 + x1"))
    other = sigma_from_theta(u, t.parse("x1^4"))
    with pytest.raises(InternalIntegralityFailure):
        theta_of(sigma, exponentialize_triangular_n2(other))
    # a result whose translation differs is rejected as well
    shifted = sigma_from_theta(u + 1, t.parse("x1^2 + x1"))
    with pytest.raises(InternalIntegralityFailure):
        theta_of(sigma, exponentialize_triangular_n2(shifted))


def _count_calls(monkeypatch, owner, name):
    """Wrap every charp_autos binding of owner.name; returns the list of
    argument tuples, one per call."""
    original = getattr(owner, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, wrapper)
        return calls
    for modname, module in list(sys.modules.items()):
        if (modname.startswith("charp_autos")
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("p", [2, 3, 5])
def test_thm15_case_establishes_each_fact_once(monkeypatch, p):
    built = _count_calls(monkeypatch, expo, "sigma_from_theta")
    expos = _count_calls(monkeypatch, expo, "exponentialize_triangular_n2")
    orders = _count_calls(monkeypatch, endo, "order_up_to")
    shapes = _count_calls(monkeypatch, endo, "classify")
    composes = _count_calls(monkeypatch, endo, "compose")
    evaluations = _count_calls(monkeypatch, GaAction, "evaluate")
    restrictions = _count_calls(monkeypatch, GaAction, "restricts_to")
    (_, thunk), = SUITES["thm15-n2"]({"p": p, "count": 1})
    assert thunk() == (True, "")
    assert len(expos) == 1
    sigma, = expos[0]
    assert sum(args[0] == sigma for args in orders) <= 1
    assert sum(args[0] == sigma for args in shapes) == 1
    # one list of powers: sigma^2, .., sigma^p, each composed once; the
    # conjugator is certified by E_1 = sigma, not composed with eps
    made = list(composes)
    powers = expo._order_p_powers(sigma)
    assert [args[1] for args in made if args[0] == sigma] == powers[1:]
    eps = eps_map(sigma.table, sigma.images[0].constant_term())
    assert not any(args[1] == eps for args in made)
    assert len(evaluations) == 1 and len(restrictions) == 1
    # the suite builds sigma once and theta_of rebuilds it for its check
    assert len(built) == 2


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fixed_x1_paths_make_no_compositions(monkeypatch, p):
    """sigma = (x1, x2 + b(x1)) has order p exactly when b != 0, so neither
    n = 2 nor n = 3 with x1 and x2 fixed composes anything.  Nor does
    either test the restriction of its action: the elementary action's b
    is sigma's own, and at n = 3 it lies over F_p[u] by renaming."""
    composes = _count_calls(monkeypatch, endo, "compose")
    restrictions = _count_calls(monkeypatch, GaAction, "restricts_to")
    t = t2(p)
    exponentialize_triangular_n2(PolyMap(t, [t.var("x1"),
                                             t.parse("x2 + x1^2 + u")]))
    t3 = VarTable(p, ("x1", "x2", "x3"))
    exponentialize_field_n3(PolyMap(t3, [t3.var("x1"), t3.var("x2"),
                                         t3.parse("x3 + x1*x2 + 1")]))
    assert composes == [] and restrictions == []


@pytest.mark.parametrize("p", [2, 3, 5])
def test_field_n3_delegated_path_tests_order_once(monkeypatch, p):
    """The order test runs once, on the renamed map inside n = 2: p - 1
    compositions for the powers, none of them on sigma itself, and none
    for an intertwining check.  The delegated action's restriction is
    tested once, by the n = 2 construction."""
    t = VarTable(p, ("x1", "x2", "x3"))
    sigma = parse_map(t, "(x1, x2+x1, x3+x2^%d-x1^%d*x2)" % (p, p - 1))
    orders = _count_calls(monkeypatch, expo, "_order_p_powers")
    composes = _count_calls(monkeypatch, endo, "compose")
    restrictions = _count_calls(monkeypatch, GaAction, "restricts_to")
    exponentialize_field_n3(sigma)
    (renamed,), = orders
    assert sum(args[0] == sigma for args in composes) == 0
    assert sum(args[0] == renamed for args in composes) == p - 1
    (action,), = restrictions
    assert action.table == renamed.table


def test_field_n3_delegated_path_classifies_sigma_once(monkeypatch):
    """The shape guard runs on sigma only: the renamed map goes to the n = 2
    construction past its guard.  The other two classifications are the
    conjugator's triangularity check and invert_structured's, on the slice
    coordinates only."""
    t = VarTable(5, ("x1", "x2", "x3"))
    sigma = parse_map(t, "(x1, x2+x1, x3+x2^5-x1^4*x2)")
    orders = _count_calls(monkeypatch, expo, "_order_p_powers")
    shapes = _count_calls(monkeypatch, endo, "classify")
    inversions = _count_calls(monkeypatch, endo, "invert_structured")
    exponentialize_field_n3(sigma)
    (renamed,), = orders
    assert [args[0] == sigma for args in shapes] == [True, False, False]
    assert not any(args[0] == renamed for args in shapes)
    (coords,), = inversions
    assert [args[0] for args in shapes[2:]] == [coords]
    assert shapes[1][0].table == renamed.table


def test_thm15_case_fails_when_a_library_check_fails(monkeypatch):
    monkeypatch.setattr(GaAction, "restricts_to",
                        lambda self, *args, **kwargs: (False, ("x2", None)))
    result = run_suite("thm15-n2", p=2, count=2)
    assert [c.ok for c in result.cases] == [False, False]
    assert all(c.detail.startswith("InternalIntegralityFailure")
               for c in result.cases)
    assert "p2-00: FAIL" in result.to_text()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_conjugator_with_one_coefficient_changed_is_rejected(monkeypatch, p):
    """Raising the coefficient of the top x1-power of f2 by one breaks
    phi*eps = sigma*phi: a nonconstant polynomial in x1 alone is never fixed
    by x1 -> x1 + a as a single monomial.  maubach_conjugator, which
    returns phi, rejects it by that intertwining check; the n = 2
    exponentializer, which does not, by its E_1 = sigma."""
    t = t2(p)
    theta = t.parse("x1^%d + x1" % (p + 1))
    original = expo._average

    def changed(*args):
        phi = original(*args)
        k = max(e[0] for e in phi.images[1].terms)
        return PolyMap(t, [phi.images[0], phi.images[1] + t.var("x1", k)])

    monkeypatch.setattr(expo, "_average", changed)
    with pytest.raises(InternalIntegralityFailure, match="bad conjugator"):
        maubach_conjugator(sigma_from_theta(Coeff.from_int(p, 1), theta))
    with pytest.raises(InternalIntegralityFailure,
                       match="E_1 differs from sigma"):
        exponentialize_triangular_n2(sigma_from_theta(Coeff.u(p) + 1, theta))


def test_degenerate_conjugator_fails_only_the_shape_check(monkeypatch):
    """phi = (x1, 0) meets phi*eps = sigma*phi for every sigma with
    sigma(x1) = x1 + a; only the triangularity check, which every entry
    point runs, stops it."""
    def degenerate_of(m, *args):
        t = m.table
        return PolyMap(t, [t.var("x1")] + [t.zero()] * (t.nvars - 1))

    t = t2(3)
    sigma = sigma_from_theta(Coeff.from_int(3, 1), t.parse("x1^4 + x1^2"))
    degenerate = degenerate_of(sigma)
    assert compose(degenerate, eps_map(t, 1)) == compose(sigma, degenerate)
    monkeypatch.setattr(expo, "_average", degenerate_of)
    with pytest.raises(InternalIntegralityFailure, match="bad conjugator"):
        maubach_conjugator(sigma)
    with pytest.raises(InternalIntegralityFailure, match="bad conjugator"):
        exponentialize_triangular_n2(sigma)
    t3 = VarTable(3, ("x1", "x2", "x3"))
    with pytest.raises(InternalIntegralityFailure, match="bad conjugator"):
        exponentialize_field_n3(parse_map(t3, "(x1+1, x2, x3+x2^2)"))
    monkeypatch.setattr(expo, "classify",
                        lambda m: endo.classify(m) | {"triangular"})
    assert maubach_conjugator(sigma) == degenerate


@pytest.mark.parametrize("theta, inverter", [
    ("x1^4 + x1", "_invert_triangular"),
    ("x1", "_invert_triangular")])
def test_wrong_structured_inverse_is_rejected(monkeypatch, theta, inverter):
    """The one-sided check sigma*inv = id of invert_structured still catches
    a wrong inverse of the slice coordinates, also when they are affine."""
    t = t2(3)
    sigma = sigma_from_theta(Coeff.u(3), t.parse(theta))
    original = getattr(endo, inverter)
    calls = []

    def wrong(m):
        calls.append(m)
        inv = original(m)
        return PolyMap(m.table, [inv.images[0], inv.images[1] + t.var("x1")])

    monkeypatch.setattr(endo, inverter, wrong)
    with pytest.raises(NotStructured):
        exponentialize_triangular_n2(sigma)
    assert len(calls) == 1


@st.composite
def _conjugated_translations(draw, p, n):
    """(sigma, a) with sigma = psi*eps*psi^-1, eps = (x1 + a, x2, ..) and
    psi strict triangular over R = F_p[u]: a in F_p*, or in {u, u^2, u+1}
    when n = 2."""
    t = VarTable(p, ("x1", "x2", "x3")[:n])
    u = Coeff.u(p)
    a = draw(st.sampled_from([Coeff.from_int(p, c) for c in range(1, p)]
                             + ([u, u * u, u + 1] if n == 2 else [])))
    residues = st.integers(0, p - 1)

    def element():
        return Coeff.from_u_coeffs(p, [draw(residues), draw(residues)])

    images = [t.var("x1") + t.const(element())]
    for i in range(1, n):
        extra = t.zero()
        for _ in range(draw(st.integers(1, 2))):
            powers = {name: draw(st.integers(0, 2)) for name in t.names[:i]}
            extra = extra + t.monomial(element(), **powers)
        images.append(t.var(t.names[i]) + extra)
    return conjugate(eps_map(t, a), PolyMap(t, images)), a


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_intertwining_check_agrees_with_conjugation(p, n, data):
    """The conjugator accepted by maubach_conjugator's intertwining check
    phi*eps = sigma*phi also passes the inverse-based check
    phi*eps*phi^-1 = sigma.  For a non-unit a, which maubach_conjugator
    refuses, the averaged phi, whose callers certify it by E_1 = sigma
    instead, passes it as well."""
    sigma, a = data.draw(_conjugated_translations(p, n))
    if a.is_constant():
        phi = maubach_conjugator(sigma)
    else:
        phi = expo._averaged_conjugator(sigma, a, expo._order_p_powers(sigma))
    assert conjugate(eps_map(sigma.table, a), phi) == sigma


def test_proof_step_coefficient_integrality():
    # in the reduced f every coefficient times a lands in R
    p = 3
    t = t2(p)
    u = Coeff.u(p)
    sigma = sigma_from_theta(u * u, t.parse("x1^4 + u*x1^2 + x1"))
    res = exponentialize_triangular_n2(sigma)
    for coeff in res.reduced_f.terms.values():
        assert (coeff * res.a).is_integral()
    # the invariant coordinate is genuinely invariant
    inv = t.var("x2") + res.reduced_f
    assert res.action.is_invariant(inv)


def test_field_n3_direct_case():
    t = VarTable(2, ("x1", "x2", "x3"))
    sigma = PolyMap(t, [t.parse("x1+1"), t.var("x2"), t.parse("x3+x2^2")])
    action = exponentialize_field_n3(sigma)
    assert isinstance(action, GaAction)
    assert action.evaluate(1) == sigma
    assert action.restricts_to()[0]


def test_field_n3_delegated_case():
    # sigma fixing x1 delegates through F_p[x1] with x1 renamed to u
    t = VarTable(5, ("x1", "x2", "x3"))
    sigma = PolyMap(t, [t.var("x1"), t.parse("x2+1"),
                        t.parse("x3+x2^2*(x1^2+1)")])
    assert order_up_to(sigma, 5) == 5
    action = exponentialize_field_n3(sigma)
    assert isinstance(action, GaAction)
    assert action.evaluate(1) == sigma
    assert action.restricts_to()[0]
    for img in action.images:
        assert is_polynomial_over(img)[0]


@pytest.mark.parametrize("p, text", [
    (2, "(x1, x2+x1, x3+x2^2+x1*x2)"),
    (3, "(x1, x2+x1, x3+x2^3-x1^2*x2)")])
def test_field_n3_delegated_case_with_x1_in_the_translation(p, text):
    """sigma(x2) - x2 = x1 gives a = u after renaming: the n = 2 conjugator
    lives over F_p[u][1/u], and the integral action is renamed back."""
    t = VarTable(p, ("x1", "x2", "x3"))
    sigma = parse_map(t, text)
    action = exponentialize_field_n3(sigma)
    assert action.table == t
    assert action.evaluate(1) == sigma
    assert action.restricts_to() == (True, None)


def test_field_n3_both_fixed_case():
    t = VarTable(2, ("x1", "x2", "x3"))
    sigma = PolyMap(t, [t.var("x1"), t.var("x2"),
                        t.parse("x3 + x1*x2 + 1")])
    action = exponentialize_field_n3(sigma)
    assert isinstance(action, GaAction)
    assert action.evaluate(1) == sigma


def test_field_n3_rejects_parameters():
    t = VarTable(2, ("x1", "x2", "x3"))
    sigma = PolyMap(t, [t.var("x1"), t.var("x2"),
                        t.var("x3") + t.const(Coeff.u(2))])
    with pytest.raises(UnsupportedField):
        exponentialize_field_n3(sigma)
    with pytest.raises(NotTriangular):
        exponentialize_field_n3(PolyMap(
            t, [t.var("x2"), t.var("x1"), t.var("x3")]))
