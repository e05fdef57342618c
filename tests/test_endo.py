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
