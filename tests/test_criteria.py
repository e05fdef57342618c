import pytest

from charp_autos.coeffs import Coeff
from charp_autos.errors import (AxiomViolation, NotInvariantParameter,
                                PreconditionViolated)
from charp_autos.criteria import (a_rigid_counter_action, f_stability,
                                  gauss_check, modify_action,
                                  non_exponentiality_certificate)
from charp_autos.endo import PolyMap
from charp_autos.gaction import SliceData, slice_action
from charp_autos.poly import VarTable
from charp_autos.seeds import Lcg


def test_stability_every_variable_monomial():
    p = 2
    t = VarTable(p, ("x", "y", "z1", "z2"))
    u = Coeff.u(p)
    f = t.one() + (t.var("y") * t.var("z1") * t.var("z2")).scale(u ** 10)
    verdict = f_stability(f)
    assert verdict.is_stable() and verdict.pattern == "every-variable-monomial"
    # a variable of A missing from the monomial spoils the pattern
    g = t.one() + (t.var("y") * t.var("z1")).scale(u)
    assert f_stability(g).kind == "Unknown"


def test_stability_univariate():
    t = VarTable(3, ("x", "y"))
    verdict = f_stability(t.parse("y^3 + 1"))
    assert verdict.is_stable() and verdict.pattern == "univariate"


def test_stability_constant_not_stable():
    t = VarTable(3, ("x", "y"))
    verdict = f_stability(t.const(Coeff.u(3)))
    assert verdict.kind == "NotStable"
    assert verdict.pattern == "constant-translation"


def test_stability_unknown_and_validation():
    t = VarTable(2, ("x", "y", "z1"))
    assert f_stability(t.parse("y + z1")).kind == "Unknown"
    with pytest.raises(ValueError):
        f_stability(t.zero())
    with pytest.raises(ValueError):
        f_stability(t.parse("x + y"))


def test_a_rigid_counter_action():
    p = 3
    t = VarTable(p, ("x", "y"))
    f = Coeff.u(p)
    action, gen = a_rigid_counter_action(t, f)
    # E_1 is the plain translation by f
    assert action.evaluate(1) == PolyMap(t, [t.var("x") + t.const(f),
                                             t.var("y")])
    assert action.is_invariant(gen)
    # the invariant generator genuinely escapes k[y]
    assert gen.uses_var("x")
    assert gen == t.parse("y + x^3 - u^2*x")


def _translation_by(coords, f):
    """The SliceData of the canonical action: lam = f T."""
    return SliceData(coords, f * f.table.var("T"), coords)


def test_canonical_action_trivial_coords():
    p = 2
    t = VarTable(p, ("x", "y"))
    ident = PolyMap.identity(t)
    action = slice_action(_translation_by(ident, t.var("y") + t.one()))
    assert action.images[0] == t.parse("x + (y+1)*T")
    assert action.images[1] == t.var("y")
    assert action.evaluate(1) == PolyMap(t, [t.parse("x + y + 1"), t.var("y")])


def test_certificate_paths():
    p = 2
    t = VarTable(p, ("x", "y"))
    ident = PolyMap.identity(t)
    u = Coeff.u(p)
    # restricting canonical action: inconclusive with reason "restricts"
    cert = non_exponentiality_certificate(
        _translation_by(ident, t.var("y") + t.one()))
    assert cert.verdict == "Inconclusive" and cert.reason == "restricts"
    # non-integral translation, stable pattern: certificate fires
    cert2 = non_exponentiality_certificate(
        _translation_by(ident, t.var("y").scale(u.inv())))
    assert cert2.verdict == "NotExponentialOverR"
    assert cert2.witness is not None
    # unknown stability is inconclusive regardless of restriction
    t3 = VarTable(p, ("x", "y", "z1"))
    id3 = PolyMap.identity(t3)
    cert3 = non_exponentiality_certificate(
        _translation_by(id3, (t3.var("y") + t3.var("z1")).scale(u.inv())))
    assert cert3.verdict == "Inconclusive"
    assert cert3.reason == "stability unknown"


def test_generic_data_invariants():
    """A zero f, or one involving y1, is refused where the data is used: by
    the certificate's f_stability and by slice_action's slice proof."""
    t = VarTable(2, ("x", "y"))
    ident = PolyMap.identity(t)
    for f in (t.zero(), t.var("x")):
        with pytest.raises(ValueError):
            non_exponentiality_certificate(_translation_by(ident, f))
    with pytest.raises(AxiomViolation):
        slice_action(_translation_by(ident, t.var("x")))
    data = _translation_by(ident, t.var("y"))
    assert slice_action(data).images[0] == t.parse("x + y*T")


@pytest.mark.parametrize("p,lam", [(2, "y*T^2"), (2, "y*T^2 + y*T"),
                                   (3, "y*T^3 + T"), (3, "y*T^2")])
def test_certificate_refuses_a_lam_that_is_not_f_T(p, lam):
    """The certificate reads f as lam(1) and speaks of the action that
    translates by f T.  A lam of another form is refused before any
    verdict: the first three are additive, so their slice actions exist,
    and the last is not."""
    t = VarTable(p, ("x", "y"))
    ident = PolyMap.identity(t)
    with pytest.raises(PreconditionViolated):
        non_exponentiality_certificate(SliceData(ident, t.parse(lam), ident))


def test_certificate_accepts_precomputed_restriction():
    p = 2
    t = VarTable(p, ("x", "y"))
    ident = PolyMap.identity(t)
    cert = non_exponentiality_certificate(
        _translation_by(ident, t.var("y")),
        restriction=(False, ("x", ((0, 0, 0), Coeff.u(p).inv()))))
    assert cert.verdict == "NotExponentialOverR"


def test_modify_action_alpha_one():
    p = 2
    t = VarTable(p, ("x1", "x2"))
    u = Coeff.u(p)
    sd = SliceData(PolyMap.identity(t), t.var("T").scale(u))
    E = slice_action(sd)
    modified = modify_action(sd, 1)
    assert modified.evaluate(1) == E.evaluate(1)
    assert modified.images[0] == t.parse("x1 + u*T")


def test_modify_action_rank_one_extension_restricts():
    # translation lengths evaluated at invariants stay in R[x]
    p = 3
    t = VarTable(p, ("x1", "x2"))
    u = Coeff.u(p)
    coords = PolyMap(t, [t.var("x1"), t.var("x2")])
    sd = SliceData(coords, t.var("T").scale(u))
    E = slice_action(sd)
    for alpha in (t.var("x2"), t.parse("x2^2 + 1"), t.parse("u*x2")):
        modified = modify_action(sd, alpha)
        assert modified.restricts_to()[0]
        assert modified.evaluate(1) == E.evaluate(alpha)
    with pytest.raises(NotInvariantParameter):
        modify_action(sd, t.var("x1"))


def test_modify_action_in_slice_coordinates():
    """On (x1, x2 + x1^2) alpha and lam are written in the slice
    coordinates, where x2 stands for p2 = x2 + x1^2 and x1 for p1."""
    p = 3
    t = VarTable(p, ("x1", "x2"))
    coords = PolyMap(t, [t.var("x1"), t.parse("x2 + x1^2")])
    sd = SliceData(coords, t.var("T").scale(Coeff.u(p)))
    E = slice_action(sd)
    alpha = t.var("x2")
    modified = modify_action(sd, alpha)
    assert modified.evaluate(1) == E.evaluate(coords.apply(alpha))
    with pytest.raises(NotInvariantParameter):
        modify_action(sd, t.var("x1"))
    # a lam that moves with p2: E(p1) - p1 is lam read in x
    sd = SliceData(coords, t.parse("x2*T"))
    E = slice_action(sd)
    assert modify_action(sd, 1).evaluate(1) == E.evaluate(1)


def test_gauss_check_examples():
    p = 2
    t = VarTable(p, ())
    u = Coeff.u(p)
    f = t.var("T") ** 2 + t.const(u)
    g = t.var("T") ** 2 + t.var("T").scale(u)
    composed = f.substitute({"T": g})
    assert composed == t.parse("T^4 + u^2*T^2 + u")
    assert gauss_check(f, g)
    assert gauss_check(t.var("T"), g)
    with pytest.raises(PreconditionViolated):
        gauss_check(f, g + t.one())              # g(0) != 0
    with pytest.raises(PreconditionViolated):
        gauss_check(f.scale(u), g)               # not primitive
    with pytest.raises(PreconditionViolated):
        gauss_check(t.zero(), g)


def test_gauss_random_harness():
    p = 3
    t = VarTable(p, ())
    lcg = Lcg(314)
    from charp_autos.poly import content_primitive
    for _ in range(200):
        def sample(zero_const):
            f = t.zero()
            for e in range(1 if zero_const else 0, 6):
                if lcg.draw(2):
                    f = f + t.monomial(
                        Coeff.from_u_coeffs(p, [lcg.draw(p) for _ in range(3)]),
                        T=e)
            if f.is_zero():
                f = t.var("T")
            return content_primitive(f)[1]
        assert gauss_check(sample(False), sample(True))
