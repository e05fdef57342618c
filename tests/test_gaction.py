import pytest
from hypothesis import given, settings, strategies as st

from charp_autos.coeffs import Coeff
from charp_autos.errors import (AxiomViolation, InternalIntegralityFailure,
                                NotInvariantGenerator, NotInvariantParameter)
from charp_autos.endo import PolyMap, compose, invert_structured
from charp_autos.gaction import (GaAction, SliceData, additivity_check,
                                 check_axioms, rank_certificate, slice_action,
                                 slice_axioms_report, slice_image)
from charp_autos.gallery import build_rank_r_action
from charp_autos.poly import VarTable


def t2(p=2):
    return VarTable(p, ("x1", "x2"))


def test_check_axioms_examples():
    t = t2(2)
    assert check_axioms(t, [t.parse("x1+T"), t.var("x2")]) == (True, None)
    assert check_axioms(t, [t.parse("x1+x2*T"), t.var("x2")]) == (True, None)
    assert check_axioms(t, [t.parse("x1+x1*T"), t.var("x2")]) == (
        False, ("A2", "x1"))
    # an (A1) failure reports no (A2) verdict
    assert check_axioms(t, [t.parse("x1+T+1"), t.var("x2")]) == (
        False, ("A1", "x1"))



def test_check_axioms_answers_by_axiom_name():
    """The pair also answers verdict["A1"] and verdict["A2"], which
    perfbench/probes.py reads on the rank-r (4, 3) action at p = 3; an
    (A2) that was never checked reads None."""
    action = build_rank_r_action(4, 3, 3).action
    verdict = check_axioms(action.table, action.images)
    assert verdict == (True, None)
    assert verdict["A1"] is True and verdict["A2"] is True
    t = t2(2)
    a2 = check_axioms(t, [t.parse("x1+x1*T"), t.var("x2")])
    assert (a2["A1"], a2["A2"], a2[1], a2[:1]) == (
        True, False, ("A2", "x1"), (False,))
    a1 = check_axioms(t, [t.parse("x1+T+1"), t.var("x2")])
    assert (a1["A1"], a1["A2"]) == (False, None)
    ok, witness = a1
    assert (ok, witness) == (False, ("A1", "x1"))
    with pytest.raises(TypeError):
        a1["witness"]

def test_construction_enforces_axioms():
    """An int image is the constant it stands for, which fails (A1)."""
    t = t2(3)
    with pytest.raises(AxiomViolation,
                       match="^axiom A2 fails at generator x1$"):
        GaAction(t, [t.parse("x1+x1*T"), t.var("x2")])
    with pytest.raises(AxiomViolation,
                       match="^axiom A1 fails at generator x1$"):
        GaAction(t, [t.parse("x1+T+1"), t.var("x2")])
    with pytest.raises(AxiomViolation,
                       match="^axiom A1 fails at generator x2$"):
        GaAction(t, [t.parse("x1+T"), 1])
    GaAction(t, [t.parse("x1+T"), t.var("x2")])  # fine


def test_construction_checks_images_like_polymap():
    """GaAction builds through PolyMap.__init__, which refuses images from
    another table before the axioms are checked."""
    t = t2(3)
    other = VarTable(3, ("y1", "y2"))
    with pytest.raises(ValueError, match="^image from a different table$"):
        GaAction(t, [other.parse("y1+T"), t.var("x2")])
    with pytest.raises(ValueError, match="^expected 2 images, got 1$"):
        GaAction(t, [t.parse("x1+T")])


def test_evaluate():
    p = 3
    t = VarTable(p, ("x",))
    a = Coeff.u(p)
    E = GaAction(t, [t.var("x") + t.var("T").scale(a)])
    assert E.evaluate(0).is_identity()
    b = Coeff.u(p) + 2
    assert E.evaluate(b) == PolyMap(t, [t.var("x") + t.const(a * b)])
    with pytest.raises(NotInvariantParameter):
        E.evaluate(t.var("x"))


def test_evaluation_is_additive_and_order_p():
    t = t2(2)
    E = slice_action(SliceData(
        PolyMap(t, [t.var("x1"), t.parse("x2+x1^3")]),
        t.var("T").scale(Coeff.u(2))))
    inv = t.parse("x2 + x1^3")
    alpha, beta = inv ** 2, inv + t.one()
    assert E.evaluate(alpha + beta) == compose(E.evaluate(alpha),
                                               E.evaluate(beta))
    from charp_autos.endo import order_up_to
    assert order_up_to(E.evaluate(alpha), 2) == 2


def test_invariance_action_vs_induced_automorphism():
    # x^2+x is fixed by the order-2 automorphism E_1 but not by the action:
    # the invariant ring of (x -> x+T) is R alone
    t = VarTable(2, ("x",))
    E = GaAction(t, [t.parse("x+T")])
    h = t.parse("x^2 + x")
    assert not E.is_invariant(h)
    assert E.apply(h) == h + t.parse("T^2 + T")
    assert E.evaluate(1).apply(h) == h
    assert E.is_invariant(t.const(Coeff.u(2)))


def test_invariance_closure_and_E1_fixedness():
    t = t2(3)
    E = GaAction(t, [t.parse("x1 + x2*T"), t.var("x2")])
    h = t.parse("x2^2 + 1")
    hp = t.var("x2")
    assert E.is_invariant(h) and E.is_invariant(hp)
    assert E.is_invariant(h * hp)
    assert not E.is_invariant(t.var("x1"))
    sigma = E.evaluate(1)
    assert sigma.apply(h) == h


def test_restricts_to():
    p = 3
    t = t2(p)
    u = Coeff.u(p)
    E = GaAction(t, [t.parse("x1 + u*T"), t.var("x2")])
    assert E.restricts_to() == (True, None)
    E2 = GaAction(t, [t.var("x1") + t.var("T").scale(u.inv()), t.var("x2")])
    ok, witness = E2.restricts_to()
    assert not ok and witness[0] == "x1" and witness[1][1] == u.inv()


def test_slice_action_examples():
    p = 2
    t = t2(p)
    a = Coeff.u(p)
    # identity coordinates: plain translation
    E = slice_action(SliceData(PolyMap.identity(t), t.var("T").scale(a)))
    assert E.images[0] == t.parse("x1 + u*T") and E.images[1] == t.var("x2")
    # shifted second coordinate: E(x2) = x2 + f(x1) - f(x1 + aT)
    f = t.parse("x1^3")
    E = slice_action(SliceData(
        PolyMap(t, [t.var("x1"), t.var("x2") + f]), t.var("T").scale(a)))
    shifted = f.substitute({"x1": t.parse("x1 + u*T")})
    assert E.images[1] == t.var("x2") + f - shifted


def test_slice_rejects_non_additive():
    t = t2(3)
    with pytest.raises(AxiomViolation):
        slice_action(SliceData(PolyMap.identity(t), t.parse("T^2")))
    # T + T^p is additive
    slice_action(SliceData(PolyMap.identity(t), t.parse("T + T^3")))


def test_slice_axioms_report_can_fail_either_way():
    """A non-additive lam and a lam involving p1 each make (A2) false, with
    its own witness; lam(0) != 0 makes (A1) false and reports no (A2)
    verdict.  slice_action raises AxiomViolation with that witness and lam
    in each case."""
    t = t2(3)
    coords = PolyMap(t, [t.var("x1"), t.parse("x2 + x1^2")])

    def report(lam):
        return slice_axioms_report(SliceData(coords, t.parse(lam)))
    assert report("x2*T + u*T^3") == (True, None)
    assert report("T^2") == (False, ("A2", "lam is not additive"))
    assert report("x1*T") == (False, ("A2", "lam involves p1"))
    assert report("T + 1") == (False, ("A1", "lam(0) is not 0"))
    for lam, message in (
            ("T^2", r"^A2 fails: lam is not additive, lam = T\^2$"),
            ("T + 1", r"^A1 fails: lam\(0\) is not 0, lam = T \+ 1$"),
            ("x1*T", r"^A2 fails: lam involves p1, lam = x1\*T$")):
        with pytest.raises(AxiomViolation, match=message):
            slice_action(SliceData(coords, t.parse(lam)))


def _verdicts(coords, lam):
    """(slice_action accepts, check_axioms reports A1 and A2) for the slice
    data (coords, lam), lam written in the slice coordinates; the images for
    check_axioms are built here, as the inverse coordinates at
    p1 + coords.apply(lam), p2, .., pn."""
    try:
        slice_action(SliceData(coords, lam))
        accepted = True
    except AxiomViolation:
        accepted = False
    t = coords.table
    target = coords.assignment()
    target[t.names[0]] = target[t.names[0]] + coords.apply(lam)
    images = [q.substitute(target) for q in invert_structured(coords).images]
    return accepted, check_axioms(t, images)[0]


@st.composite
def _slice_data(draw):
    """Strict triangular coordinates and lam = sum of c_k T^(p^k), k = 0, 1,
    in the slice coordinates: each c_k a constant of F_p(u), a polynomial
    in the slot of p2 (invariant) or one in the slot of p1 (not
    invariant)."""
    p = draw(st.sampled_from((2, 3)))
    t = VarTable(p, ("x1", "x2", "x3")[:draw(st.sampled_from((2, 3)))])
    xs = [t.var(name) for name in t.names]
    u = Coeff.u(p)

    def poly_in(gens, lowest):
        """A combination of g^e, g in gens, lowest <= e <= 2, in which the
        last of them occurs."""
        terms = [g ** e for g in gens for e in range(lowest, 3)]
        out = terms.pop().scale(draw(st.integers(1, p - 1)))
        for term in terms:
            out = out + term.scale(draw(st.integers(0, p - 1)))
        return out

    coords = PolyMap(t, [xs[0] + t.const(draw(st.integers(0, p - 1)))]
                     + [x + poly_in(xs[:i], 1) for i, x in enumerate(xs)
                        if i])
    lam = t.zero()
    for k in range(2):
        kind = draw(st.sampled_from(("constant", "invariant", "moving")))
        if kind == "constant":
            c = t.const(draw(st.sampled_from((Coeff.from_int(p, 1), u,
                                              u.inv(), u + 1))))
        elif kind == "invariant":
            c = poly_in([xs[1]], 0)
        else:
            c = poly_in([xs[0]], 1)
        lam = lam + c * t.var("T", p ** k)
    return coords, lam


def test_slice_action_proof_agrees_with_check_axioms():
    """slice_action proves (A1)/(A2) on the slice generators; check_axioms
    on the x-generators must give the same verdict, and both occur."""
    seen = set()

    @given(_slice_data())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def agree(data):
        accepted, axioms = _verdicts(*data)
        assert accepted == axioms
        seen.add(accepted)

    agree()
    assert seen == {True, False}


def test_slice_image_is_the_slice_action_image():
    """slice_image(data, name) equals slice_action(data)'s image of name for
    every generator, with the inverse built or supplied; where the slice
    proof fails, both raise."""
    seen = set()

    @given(_slice_data(), st.booleans())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def agree(data, supplied):
        coords, lam = data
        inverse = invert_structured(coords) if supplied else None
        sd = SliceData(coords, lam, inverse)
        names = coords.table.names
        try:
            images = slice_action(sd).images
        except AxiomViolation:
            for name in names:
                with pytest.raises(AxiomViolation):
                    slice_image(sd, name)
            seen.add((False, supplied))
            return
        assert tuple(slice_image(sd, name) for name in names) == images
        seen.add((True, supplied))

    agree()
    assert seen == {(accepted, supplied) for accepted in (True, False)
                    for supplied in (True, False)}


def test_slice_rejects_a_supplied_map_that_is_not_the_inverse():
    """A supplied coords_inverse is proved by compose(inverse, coords) = id;
    the coordinates themselves, or the inverse of other coordinates, fail
    it, in slice_action and in slice_image alike, with the
    InternalIntegralityFailure of a library fault."""
    t = t2(3)
    coords = PolyMap(t, [t.var("x1"), t.parse("x2 + x1^2")])
    other = invert_structured(PolyMap(t, [t.var("x1"), t.parse("x2 + x1^3")]))
    lam = t.parse("x2*T")
    for wrong in (coords, other):
        sd = SliceData(coords, lam, wrong)
        with pytest.raises(InternalIntegralityFailure,
                           match="does not invert"):
            slice_action(sd)
        with pytest.raises(InternalIntegralityFailure,
                           match="does not invert"):
            slice_image(sd, "x2")
    right = SliceData(coords, lam, invert_structured(coords))
    assert slice_action(right) == slice_action(SliceData(coords, lam))


@pytest.mark.parametrize("lam,accepted", [
    ("x1*T", False), ("(x2 - x1^2)*T", False), ("x1*T^3", False),
    ("x2*T", True), ("x2*T^3 + u*T", True)])
def test_slice_action_proof_examples(lam, accepted):
    """lam in the slice coordinates of (x1, x2 + x1^2): x2*T is (x2 + x1^2)*T
    on the x-generators, and (x2 - x1^2)*T is x2*T there."""
    t = t2(3)
    coords = PolyMap(t, [t.var("x1"), t.parse("x2 + x1^2")])
    assert _verdicts(coords, t.parse(lam)) == (accepted, accepted)


def test_additivity_check():
    t = t2(3)
    u = Coeff.u(3)
    assert additivity_check(t.var("T").scale(u))
    assert additivity_check(t.parse("T") + t.monomial(u, T=3))
    assert not additivity_check(t.parse("T^2"))
    assert not additivity_check(t.parse("T + 1"))


def test_lambda_of_slice_is_additive():
    t = t2(2)
    coords = PolyMap(t, [t.var("x1"), t.parse("x2 + x1^2")])
    lam = t.parse("T + u*T^2")
    E = slice_action(SliceData(coords, lam))
    extracted = E.apply(coords.images[0]) - coords.images[0]
    assert extracted == lam
    assert additivity_check(extracted)


def test_rank_certificate():
    # the invariants of (x1 + T, x2, x3)
    p = 2
    t = VarTable(p, ("x1", "x2", "x3"))
    cert = rank_certificate([t.var("x2"), t.var("x3")],
                            [t.var("x2"), t.var("x3")])
    assert cert == {"rank_lower": 1, "rank_upper": 1}
    with pytest.raises(NotInvariantGenerator):
        rank_certificate([t.var("x2")], [t.parse("x2 + x3")])
    # interval when bounds disagree
    cert = rank_certificate([t.var("x2"), t.var("x3")], [t.var("x3")])
    assert cert == {"rank_lower": 1, "rank_upper": 2}


def test_rank_certificate_rank3_lower_bound():
    # claimed generators with no linear part give lower bound n
    p = 2
    t = VarTable(p, ("x1", "x2", "x3"))
    p2 = p * p
    f = t.var("x1", p2) - t.var("x1", p) + t.var("x2") * t.var("x3")
    g = f ** p2 * t.var("x3") - t.var("x2", p2 - 1) \
        + f ** (p2 - p) * t.var("x2", p - 1)
    cert = rank_certificate([f, g], [])
    assert cert["rank_lower"] == 3


def _axiom_cases(names):
    """(images, verdict) pairs for check_axioms on VarTable(3, names), with
    a failure's witness given as (axiom, generator index)."""
    t = VarTable(3, names)
    a, b = (t.var(n) for n in names)
    T = t.var("T")
    return t, [
        ([a + T, b], None),
        ([a + b * T, b], None),
        ([a + T + t.var("T", 3), b + a.scale(Coeff.u(3))], ("A1", 1)),
        ([a + a * T, b], ("A2", 0)),
        ([a + T + t.one(), b], ("A1", 0)),
        ([a + T, b + a * T], ("A2", 1)),
        ([a + T + t.var("T", 3), b], None),
    ]


def _additivity_cases(t):
    """(lam, additive?) pairs on t, coefficients from t's variables."""
    b = t.var(t.names[1])
    T = t.var("T")
    return [(T, True), (b * T + b * b * t.var("T", 3), True),
            (T * T, False), (b * T + t.one(), False), (b * T * T, False)]


def test_axiom_verdicts_do_not_depend_on_variable_names():
    """check_axioms and additivity_check work in a table lifted by one
    variable S, named apart from the caller's: tables naming S, or the name
    chosen for S on another table, give the same verdicts."""
    from charp_autos.gaction import _lifted
    chosen = _lifted(VarTable(3, ("x1", "x2")))[1]
    for names in (("x1", "x2"), ("S", "x2"), ("x1", "S"), ("S", "S_"),
                  ("x1", chosen), (chosen, chosen + "_")):
        t, cases = _axiom_cases(names)
        for images, failure in cases:
            assert check_axioms(t, images) == (
                (True, None) if failure is None
                else (False, (failure[0], names[failure[1]])))
        for lam, additive in _additivity_cases(t):
            assert additivity_check(lam) == additive
