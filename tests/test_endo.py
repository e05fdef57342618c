import pytest
from hypothesis import given, settings, strategies as st

from charp_autos.coeffs import Coeff
from charp_autos.errors import NotStructured
from charp_autos.endo import (PolyMap, classify, compose, conjugate,
                              invert_structured, order_up_to)
from charp_autos.poly import MultiPoly, VarTable
from charp_autos.seeds import Lcg


def t2(p=2):
    return VarTable(p, ("x1", "x2"))


def test_compose_identity_and_swap():
    t = t2()
    phi = PolyMap(t, [t.parse("x1+1"), t.parse("x2+x1^3")])
    assert compose(PolyMap.identity(t), phi) == phi
    assert compose(phi, PolyMap.identity(t)) == phi
    swap = PolyMap(t, [t.var("x2"), t.var("x1")])
    assert compose(swap, swap).is_identity()


def test_compose_worked_example():
    t = t2(2)
    lhs = compose(PolyMap(t, [t.parse("x1+1"), t.var("x2")]),
                  PolyMap(t, [t.var("x1"), t.parse("x2+x1^2")]))
    assert lhs == PolyMap(t, [t.parse("x1+1"), t.parse("x2+x1^2+1")])


def test_compose_associative():
    t = t2(3)
    lcg = Lcg(5)

    def rand_map():
        imgs = []
        for name in t.names:
            g = t.var(name)
            for _ in range(lcg.draw(3)):
                g = g + t.monomial(lcg.draw_nonzero(3),
                                   x1=lcg.draw(3), x2=lcg.draw(2))
            imgs.append(g)
        return PolyMap(t, imgs)

    for _ in range(20):
        a, b, c = rand_map(), rand_map(), rand_map()
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_order_examples():
    t = t2(2)
    assert order_up_to(PolyMap(t, [t.parse("x1+1"), t.var("x2")]), 4) == 2
    assert order_up_to(PolyMap(t, [t.parse("x1+1"),
                                   t.parse("x2+x1^2+x1+1")]), 4) == 2
    assert order_up_to(PolyMap(t, [t.parse("x1+1"), t.parse("x2+x1")]),
                       4) == 4
    # square really is (x1, x2+1)
    sq = compose(PolyMap(t, [t.parse("x1+1"), t.parse("x2+x1")]),
                 PolyMap(t, [t.parse("x1+1"), t.parse("x2+x1")]))
    assert sq == PolyMap(t, [t.var("x1"), t.parse("x2+1")])
    assert order_up_to(PolyMap(t, [t.parse("x1+x2"), t.var("x2")]), 1) is None


def test_classify_shapes():
    t = t2(3)
    assert classify(PolyMap(t, [t.parse("x1+x2^2"), t.var("x2")])) == set()
    assert classify(PolyMap(t, [t.parse("x1+1"), t.parse("x2+x1^3")])) \
        == {"triangular", "strict_triangular"}
    assert classify(PolyMap(t, [t.var("x2"), t.var("x1")])) == set()
    assert classify(PolyMap(t, [t.parse("2*x1+1"), t.parse("x2+x1^2")])) \
        == {"triangular"}
    assert classify(PolyMap(t, [t.parse("x1^2"), t.var("x2")])) == set()


def test_invert_triangular():
    for p in (2, 3):
        t = t2(p)
        phi = PolyMap(t, [t.parse("x1+1"), t.parse("x2+x1^3")])
        inv = invert_structured(phi)
        assert inv == PolyMap(t, [t.parse("x1-1"), t.parse("x2-(x1-1)^3")])
        assert compose(phi, inv).is_identity()
        assert compose(inv, phi).is_identity()


def test_invert_affine_and_errors():
    """Only triangular maps are inverted: an affine map that is not
    triangular raises like any other shape."""
    t = t2(3)
    for images in (("x2", "x1"), ("x1+2*x2+1", "x1+x2"), ("x1^2", "x2")):
        with pytest.raises(NotStructured):
            invert_structured(PolyMap(t, [t.parse(g) for g in images]))


def test_conjugate():
    t = t2(2)
    sigma = PolyMap(t, [t.parse("x1+1"), t.parse("x2+x1^2")])
    assert conjugate(sigma, PolyMap.identity(t)) == sigma
    psi = PolyMap(t, [t.var("x1"), t.parse("x2+x1^3")])
    back = conjugate(conjugate(sigma, psi), invert_structured(psi))
    assert back == sigma


def test_conjugate_translation_shape():
    # (x1+a, x2, x3)^phi fixes the images of x2, x3 and shifts phi(x1) by a
    t = VarTable(3, ("x1", "x2", "x3"))
    phi = PolyMap(t, [t.var("x1"), t.parse("x2+x1^2"),
                      t.parse("x3+x1*x2")])
    translation = PolyMap(t, [t.parse("x1+2"), t.var("x2"), t.var("x3")])
    sigma = conjugate(translation, phi)
    assert sigma.apply(phi.images[1]) == phi.images[1]
    assert sigma.apply(phi.images[2]) == phi.images[2]
    assert sigma.apply(phi.images[0]) == phi.images[0] + t.const(2)
    assert "triangular" in classify(sigma)
    assert order_up_to(sigma, 3) == 3


def test_order_p_triangular_is_strict():
    # triangular of order p forces leading units 1
    for p in (2, 3):
        t = VarTable(p, ("x1", "x2", "x3"))
        lcg = Lcg(60 + p)
        for _ in range(15):
            imgs = [t.var("x1") + t.const(lcg.draw_nonzero(p))]
            for i, name in enumerate(t.names[1:], start=1):
                extra = t.zero()
                for _ in range(lcg.draw(3)):
                    mono = {t.names[j]: lcg.draw(3) for j in range(i)}
                    extra = extra + t.monomial(lcg.draw_nonzero(p), **mono)
                imgs.append(t.var(name) + extra)
            sigma = PolyMap(t, imgs)
            if order_up_to(sigma, p) == p:
                assert "strict_triangular" in classify(sigma)


def test_chain_preservation_membership():
    # tau of order p preserving k[f1..fi] moves each f_i by lower terms only
    p = 3
    t = VarTable(p, ("x1", "x2", "x3"))
    psi = PolyMap(t, [t.var("x1"), t.parse("x2+x1^2"),
                      t.parse("x3+x1*x2+x2^2")])
    translation = PolyMap(t, [t.parse("x1+1"), t.var("x2"), t.var("x3")])
    tau = conjugate(translation, psi)
    chi = invert_structured(psi)
    for i, f_i in enumerate(psi.images):
        moved = tau.apply(f_i) - f_i
        rewritten = chi.apply(moved)
        for name in t.names[i:]:
            assert not rewritten.uses_var(name)


def _old_is_identity(sigma):
    """PolyMap.is_identity as first written: each image equals its
    variable."""
    t = sigma.table
    return all(g == t.var(n) for n, g in zip(t.names, sigma.images))


def _old_classify(sigma):
    """endo.classify as first written: image i minus c*xi, c its
    coefficient of xi, uses none of xi..xn."""
    t = sigma.table
    flags = set()
    strict = True
    for i, name in enumerate(t.names):
        g = sigma.images[i]
        c = g.coeff_of(**{name: 1})
        rest = g - t.var(name).scale(c)
        if c.is_zero() or any(
                e[t.index[n]] for n in t.names[i:] for e in rest.terms):
            return flags
        if not c.is_one():
            strict = False
    flags.add("triangular")
    if strict:
        flags.add("strict_triangular")
    return flags


@st.composite
def _maps(draw):
    """A map on n = 1..4 variables, p in {2, 3, 5}.  Image i has a
    diagonal coefficient of xi that is 0, the shared 1, a separately built
    1, another constant or u, plus up to three terms that use only the
    earlier variables, or any of them."""
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, 4))
    t = VarTable(p, ["x%d" % (i + 1) for i in range(n)])
    images = []
    for i in range(n):
        terms = {}
        span = i if draw(st.booleans()) else n
        for _ in range(draw(st.integers(0, 3))):
            e = [0] * (n + 1)
            for j in range(span):
                e[j] = draw(st.integers(0, 2))
            terms[tuple(e)] = Coeff(p, (draw(st.integers(1, p - 1)),))
        diagonal = draw(st.sampled_from(
            (None, Coeff.from_int(p, 1), Coeff(p, (1,)),
             Coeff.from_int(p, p - 1), Coeff.u(p))))
        unit = tuple(int(j == i) for j in range(n + 1))
        if diagonal is None:
            terms.pop(unit, None)
        else:
            terms[unit] = diagonal
        images.append(MultiPoly(t, terms))
    return PolyMap(t, images)


@given(_maps())
@settings(max_examples=150, deadline=None)
def test_classify_and_is_identity_keep_their_definitions(sigma):
    assert classify(sigma) == _old_classify(sigma)
    assert sigma.is_identity() == _old_is_identity(sigma)
    bare = PolyMap(sigma.table, [
        MultiPoly(sigma.table, {e: c for e, c in g.terms.items()
                                if sum(e[:-1]) == 1 and e[i]})
        for i, g in enumerate(sigma.images)])
    assert bare.is_identity() == _old_is_identity(bare)
    assert classify(bare) == _old_classify(bare)


def test_compose_reads_the_assignment_once_and_builds_no_variable(
        monkeypatch):
    """compose substitutes into every image of psi with one assignment of
    phi's images, and tells an image equal to its variable without
    building that variable."""
    t = VarTable(3, ("x1", "x2", "x3"))
    phi = PolyMap(t, [t.parse("x1+1"), t.var("x2"), t.parse("x3+x1^2")])
    psi = PolyMap(t, [t.parse("x1+x2"), t.parse("2*x2"), t.var("x3")])
    expected = PolyMap(t, [t.parse("x1+x2+1"), t.parse("2*x2"),
                           t.parse("x3+x1^2")])
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(VarTable, "var", counted("var", VarTable.var))
    monkeypatch.setattr(PolyMap, "assignment",
                        counted("assignment", PolyMap.assignment))
    assert compose(phi, psi) == expected
    assert calls == ["assignment"]


def test_compose_shares_one_image_power_cache(monkeypatch):
    """compose raises each image of phi to each power once for all of
    psi's images: here phi(x1)^3, a three-term base that no memo holds, is
    computed once though both images of psi use x1^3."""
    t = t2(3)
    phi = PolyMap(t, [t.parse("x1+x2+1"), t.var("x2")])
    psi = PolyMap(t, [t.parse("x1^3"), t.parse("x2+x1^3")])
    expected = PolyMap(t, [g.substitute(phi.assignment())
                           for g in psi.images])
    powers = []
    pow_ = MultiPoly.__pow__

    def counted(self, e):
        powers.append(e)
        return pow_(self, e)

    monkeypatch.setattr(MultiPoly, "__pow__", counted)
    assert compose(phi, psi) == expected
    assert powers == [3]


def test_compose_refuses_actions_involving_T_and_mixed_tables():
    """An operand whose images involve T, a GaAction, raises ValueError on
    either side, as do operands of different tables; a map and an action
    whose images are free of T still compose.  The operands are checked,
    not the result: in characteristic 2 the action below composed with
    itself has images free of T, (x1 + 2*x2*T, x2), and still raises."""
    from charp_autos.gaction import GaAction
    for p in (3, 2):
        t = t2(p)
        action = GaAction(t, [t.parse("x1+x2*T"), t.var("x2")])
        sigma = PolyMap(t, [t.parse("x1+1"), t.parse("x2+x1^2")])
        for phi, psi in ((action, sigma), (sigma, action), (action, action)):
            with pytest.raises(ValueError, match="may not involve T"):
                compose(phi, psi)
        trivial = GaAction(t, [t.var("x1"), t.var("x2")])
        assert compose(trivial, sigma) == sigma == compose(sigma, trivial)
        others = (t2(5 - p), VarTable(p, ("x2", "x1")),
                  VarTable(p, ("a", "b")))
        for other in others:
            with pytest.raises(ValueError, match="mixed variable tables"):
                compose(sigma, PolyMap.identity(other))
            with pytest.raises(ValueError, match="mixed variable tables"):
                compose(PolyMap.identity(other), sigma)
        twin = PolyMap(t2(p), [t2(p).parse("x1"), t2(p).parse("x2+x1")])
        assert compose(sigma, twin) == PolyMap(t, [t.parse("x1+1"),
                                                   t.parse("x2+x1^2+x1+1")])


_RINGS = ("F_p", "F_p[u]", "F_p(u)")


@st.composite
def _ring_coeffs(draw, p, ring, nonzero=False):
    """A Coeff of F_p, of F_p[u] (degree up to 2) or of F_p(u) (such a
    numerator over u, u + 1 or u^2 + 1); zero unless nonzero."""
    num = draw(st.lists(st.integers(0, p - 1), min_size=1,
                        max_size=1 if ring == "F_p" else 3)
               .filter(lambda n: any(n) or not nonzero))
    c = Coeff(p, tuple(num))
    if ring == "F_p(u)":
        c = c / Coeff(p, draw(st.sampled_from(((0, 1), (1, 1), (1, 0, 1)))))
    return c


@st.composite
def _plane_factors(draw):
    """(table, ring, [AffineFactor or TriangularFactor, ..]): three factors
    over x1, x2, p in {2, 3, 5}, coefficients in one of F_p, F_p[u] and
    F_p(u), zeros included wherever the constructors allow them."""
    from charp_autos.plane import AffineFactor, TriangularFactor
    p = draw(st.sampled_from((2, 3, 5)))
    ring = draw(st.sampled_from(_RINGS))
    t = t2(p)
    coeff = _ring_coeffs(p, ring)
    factors = []
    for _ in range(3):
        if draw(st.booleans()):
            factors.append(AffineFactor(
                t, [draw(coeff) for _ in range(4)],
                [draw(coeff) for _ in range(2)]))
        else:
            q = MultiPoly(t, {(k, 0, 0): c for k, c in draw(st.dictionaries(
                st.integers(0, 3), _ring_coeffs(p, ring, True),
                max_size=3)).items()})
            factors.append(TriangularFactor(
                t, draw(_ring_coeffs(p, ring, True)),
                draw(_ring_coeffs(p, ring, True)), draw(coeff), q))
    return t, ring, factors


@given(_plane_factors())
@settings(max_examples=120, deadline=None)
def test_compose_is_substituting_phi_into_each_image_of_psi(case):
    """compose(phi, psi) is the PolyMap of psi's images under phi's
    assignment, built and checked by PolyMap.__init__, for affine and
    triangular maps and their products."""
    t, _, factors = case
    maps = factors + [compose(factors[0], factors[1])]
    for phi in maps:
        for psi in maps:
            got = compose(phi, psi)
            want = PolyMap(t, [g.substitute(phi.assignment())
                               for g in psi.images])
            assert type(got) is PolyMap
            assert got == want
            assert all(not c.is_zero() for g in got.images
                       for c in g.terms.values())


def _old_invert_triangular(sigma):
    """_invert_triangular as it was built from var, scale, - and +."""
    table = sigma.table
    inv_images = []
    for i, name in enumerate(table.names):
        g = sigma.images[i]
        c = g.coeff_of(**{name: 1})
        rest = g - table.var(name).scale(c)
        moved = rest.substitute(dict(zip(table.names[:i], inv_images)))
        inv_images.append((table.var(name) - moved).scale(c.inv()))
    return PolyMap(table, inv_images)


@given(_maps())
@settings(max_examples=150, deadline=None)
def test_triangular_inverse_keeps_its_old_images(sigma):
    from charp_autos.endo import _invert_triangular
    if "triangular" not in classify(sigma):
        return
    got = _invert_triangular(sigma)
    assert got == _old_invert_triangular(sigma)
    assert compose(sigma, got).is_identity()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_identity_and_translation_keep_their_old_images(p):
    """PolyMap.identity and eps_map equal the maps built from var and
    const, for every constant t, 0 included, and for t = u."""
    from charp_autos.endo import eps_map
    for names in (("x1",), ("x1", "x2"), ("a", "b", "c")):
        t = VarTable(p, names)
        ident = PolyMap.identity(t)
        assert ident == PolyMap(t, [t.var(n) for n in names])
        assert ident.is_identity()
        for shift in list(range(p)) + [Coeff.u(p)]:
            assert eps_map(t, shift) == PolyMap(
                t, [t.var(names[0]) + t.const(shift)]
                + [t.var(n) for n in names[1:]])
