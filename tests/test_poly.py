import pytest
from hypothesis import given, settings, strategies as st

from charp_autos import poly
from charp_autos.coeffs import Coeff
from charp_autos.errors import (NegativeExponent, NonIntegralCoefficient,
                                NotDivisible, ZeroPolynomial)
from charp_autos.endo import PolyMap
from charp_autos.gaction import GaAction
from charp_autos.poly import (_PACK_MIN_PRODUCTS, _POW_MEMO_MAX, MultiPoly,
                              VarTable, content, content_primitive, exact_div,
                              express_in_invariant, is_polynomial_over,
                              linear_span_dim)
from charp_autos.seeds import Lcg


def table2(p=2, names=("x", "y")):
    return VarTable(p, names)


def test_frobenius_square():
    t = table2(2)
    assert (t.var("x") + t.var("y")) ** 2 == t.parse("x^2 + y^2")


def test_difference_of_cubes():
    t = table2(3)
    lhs = (t.var("x") - t.var("y")) * t.parse("x^2 + x*y + y^2")
    assert lhs == t.parse("x^3 - y^3")


def test_power_zero():
    t = table2(3)
    assert t.parse("x^2+y") ** 0 == t.one()


def test_substitute_translation():
    t = table2(5)
    a = Coeff.u(5)
    img = (t.var("x") ** 2).substitute({"x": t.var("x") + t.var("T").scale(a)})
    assert img == t.parse("x^2 + 2*u*x*T + u^2*T^2")


def test_substitute_identity_and_char2_cube():
    t = table2(2)
    f = t.parse("x^3 + x*y")
    assert f.substitute({}) == f
    assert (t.var("x") ** 3).substitute({"x": t.var("x") + t.one()}) \
        == t.parse("x^3 + x^2 + x + 1")


def test_substitute_is_ring_homomorphism():
    t = table2(3)
    lcg = Lcg(31)

    def rand_poly():
        f = t.zero()
        for _ in range(1 + lcg.draw(4)):
            f = f + t.monomial(lcg.draw_nonzero(3), x=lcg.draw(3), y=lcg.draw(3))
        return f

    for _ in range(40):
        f, g, image = rand_poly(), rand_poly(), rand_poly()
        sub = {"x": image, "y": rand_poly()}
        assert (f + g).substitute(sub) == f.substitute(sub) + g.substitute(sub)
        assert (f * g).substitute(sub) == f.substitute(sub) * g.substitute(sub)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_packed_substitution_of_powers_past_p(monkeypatch, p):
    """14 terms under a 5-term image make 70 term pairs, past the packing
    threshold of 64, so the substitution is packed; every power of the
    image is p + 1 or more, so each is put together from Frobenius powers.
    It must equal the sum of repeated products of the image."""
    calls = []
    real = poly._packed_substitute

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(poly, "_packed_substitute", spy)
    t = table2(p)
    y = t.var("y")
    image = t.parse("x + u*y + y^2 + x*y + 1")
    f = t.zero()
    for i in range(14):
        f = f + t.monomial(1, x=p + 1 + i, y=i)
    power = t.one()
    for _ in range(p):
        power = power * image
    expected = t.zero()
    for i in range(14):
        power = power * image
        expected = expected + power * y ** i
    assert f.substitute({"x": image}) == expected
    assert len(calls) == 1


def test_exact_div_basic():
    t = table2(3)
    q = exact_div(t.parse("x^2 - y^2"), t.parse("x - y"))
    assert q == t.parse("x + y")
    with pytest.raises(NotDivisible):
        exact_div(t.var("x"), t.var("y"))


def test_exact_div_round_trip_and_sampled_nondivisibility():
    t = table2(3)
    lcg = Lcg(77)

    def rand_poly(nonzero=False):
        f = t.zero()
        for _ in range(1 + lcg.draw(3)):
            f = f + t.monomial(lcg.draw_nonzero(3), x=lcg.draw(3), y=lcg.draw(3))
        if nonzero and f.is_zero():
            f = t.one()
        return f

    for _ in range(120):
        q0, g = rand_poly(), rand_poly(nonzero=True)
        f = q0 * g
        if f.is_zero():
            continue
        q = exact_div(f, g)
        assert q * g == f
    # random pairs never contradict the verdict
    for _ in range(60):
        f, g = rand_poly(nonzero=True), rand_poly(nonzero=True)
        try:
            q = exact_div(f, g)
        except NotDivisible:
            pass
        else:
            assert q * g == f


def test_exact_div_failures_have_evaluation_witness():
    # for these pairs non-divisibility is certified by an F_p point where
    # the divisor vanishes but the dividend does not
    t = table2(3)
    pairs = [("x", "y"), ("x^2 + y", "x"), ("x*y + 1", "y"),
             ("x^2 + x + 1", "x + y")]
    for ftext, gtext in pairs:
        f, g = t.parse(ftext), t.parse(gtext)
        with pytest.raises(NotDivisible):
            exact_div(f, g)
        witnessed = False
        for xv in range(3):
            for yv in range(3):
                point = {"x": t.const(xv), "y": t.const(yv)}
                if g.substitute(point).is_zero() \
                        and not f.substitute(point).is_zero():
                    witnessed = True
        assert witnessed


def test_content_primitive():
    t = table2(2)
    u = Coeff.u(2)
    content, primitive = content_primitive(t.var("x").scale(u) + t.const(u * u))
    assert content == u
    assert primitive == t.var("x") + t.const(u)
    assert content_primitive(t.parse("x + 1")) == (Coeff.from_int(2, 1),
                                                   t.parse("x + 1"))
    with pytest.raises(ZeroPolynomial):
        content_primitive(t.zero())
    with pytest.raises(NonIntegralCoefficient):
        content_primitive(t.var("x").scale(u.inv()))


def test_content_multiplicative():
    t = table2(3)
    lcg = Lcg(4242)
    for _ in range(200):
        def rand_integral():
            f = t.zero()
            for _ in range(1 + lcg.draw(3)):
                cf = Coeff.from_u_coeffs(3, [lcg.draw(3) for _ in range(3)])
                f = f + t.monomial(cf, x=lcg.draw(3), y=lcg.draw(3))
            return f if not f.is_zero() else t.const(Coeff.u(3))
        f, g = rand_integral(), rand_integral()
        cf, pf = content_primitive(f)
        cg, pg = content_primitive(g)
        cfg, _ = content_primitive(f * g)
        assert cfg == cf * cg
        assert content_primitive(pf)[0].is_one()


def test_is_polynomial_over_paper_terms():
    p = 3
    t = VarTable(p, ("x1", "x2"))
    u = Coeff.u(p)
    # E(x2) from the triangular example: integral over R
    e2 = t.parse("x2") - t.monomial(1, x1=p, T=1) \
        - t.monomial(u ** (p - 1), x1=1, T=p) - t.monomial(u ** p, T=p + 1)
    ok, witness = is_polynomial_over(e2)
    assert ok and witness is None
    # the u^-1 x1^(1+p+p^2) T term is rejected with itself as witness
    bad = e2 + t.monomial(u.inv(), x1=1 + p + p * p, T=1)
    ok, witness = is_polynomial_over(bad)
    assert not ok and witness[1] == u.inv()


def test_is_polynomial_over_witness_is_grlex_least():
    """Three offenders, inserted greatest, least, middle: the witness is the
    graded-lex least, neither the first, the last nor the greatest."""
    p = 3
    t = VarTable(p, ("x1", "x2"))
    u_inv = Coeff.u(p).inv()
    one = Coeff.from_int(p, 1)
    terms = {}
    for x1, x2, c in ((3, 1, u_inv), (0, 1, u_inv), (2, 0, one),
                      (1, 1, u_inv)):
        terms[(x1, x2, 0)] = c
    ok, witness = is_polynomial_over(MultiPoly(t, terms))
    assert not ok and witness == ((0, 1, 0), u_inv)


def test_express_in_invariant_char2():
    t = VarTable(2, ("x",))
    one = Coeff.from_int(2, 1)
    q1, rem = express_in_invariant(t.parse("x^2"), "x", one)
    assert q1 == t.var("x") and rem == t.var("x")
    q1, rem = express_in_invariant(t.parse("x^4"), "x", one)
    assert q1 == t.parse("x^2 + x") and rem == t.var("x")
    q1, rem = express_in_invariant(t.const(5), "x", one)
    assert q1 == t.const(5) and rem.is_zero()


def test_express_in_invariant_reconstruction_and_member_mode():
    p = 3
    t = VarTable(p, ("x",))
    a = Coeff.u(p)
    w = t.var("x", p) - t.var("x").scale(a ** (p - 1))
    lcg = Lcg(12)
    for _ in range(40):
        q = t.zero()
        for e in range(7):
            cc = lcg.draw(p)
            if cc:
                q = q + t.monomial(cc, x=e)
        if q.is_zero():
            continue
        q1, rem = express_in_invariant(q, "x", a)
        assert q1.substitute({"x": w}) + rem == q
        assert all(e[0] % p for e in rem.terms)
    # membership in R[w] is a zero rem
    q1, rem = express_in_invariant(t.parse("x"), "x", a)
    assert q1.is_zero() and rem == t.parse("x")
    q1, rem = express_in_invariant(w ** 2 + t.one(), "x", a)
    assert rem.is_zero() and q1 == t.parse("x^2 + 1")
    # degree 39: every exponent below the top one is visited on the way down
    q = t.zero()
    for e in range(40):
        cc = lcg.draw(p)
        if cc or e == 39:
            q = q + t.monomial(cc or 1, x=e)
    q1, rem = express_in_invariant(q, "x", a)
    assert q1.total_degree() == 39 // p
    assert q == q1.substitute({"x": w}) + rem
    assert all(e[0] % p for e in rem.terms)


def test_linear_span_dim():
    p = 2
    t = VarTable(p, ("x1", "x2", "x3"))
    assert linear_span_dim([t.var("x1"), t.var("x2")]) == 2
    # the rank-three pair: both generators have no linear part
    p2 = p * p
    f = t.var("x1", p2) - t.var("x1", p) + t.var("x2") * t.var("x3")
    g = f ** p2 * t.var("x3") - t.var("x2", p2 - 1) \
        + f ** (p2 - p) * t.var("x2", p - 1)
    assert linear_span_dim([f, g]) == 0
    # translated generators contribute only their own linear part
    assert linear_span_dim([f + t.var("x1"), t.var("x2") + t.one()]) == 2


def test_negative_exponent_discipline():
    t = VarTable(2, ("x", "y"))
    with pytest.raises(NegativeExponent):
        t.var("x", -1)
    with pytest.raises(NegativeExponent):
        t.monomial(1, x=1, y=-2)
    # no power of a polynomial is negative, not even of a monomial
    for f in (t.var("y"), t.monomial(1, x=2, y=1), t.const(1)):
        with pytest.raises(NegativeExponent):
            f ** -1


def test_coefficients_of_another_characteristic_are_rejected():
    """A Coeff of another p enters a table only through VarTable's const,
    monomial, affine and coeff, which every product, sum, scale and
    substitution value goes through; each raises instead of reading the
    foreign residue mod p (4 would read as 1 in F_3)."""
    t = table2(3)
    four = Coeff.from_int(5, 4)
    f = sum((t.monomial(1, x=i, y=j) for i in range(4) for j in range(4)),
            t.zero())
    assert len(f.terms) == 16
    for make in (lambda: t.const(four), lambda: t.coeff(four),
                 lambda: t.monomial(four, x=1), lambda: f * four,
                 lambda: t.affine(four, {"x": 1}),
                 lambda: t.affine(0, {"x": 1, "y": four}),
                 lambda: four * f, lambda: f + four, lambda: f.scale(four),
                 lambda: f.substitute({"x": four}),
                 lambda: f.substitute({"x": t.var("y"), "T": four})):
        with pytest.raises(ValueError, match="mixed characteristics 3 and 5"):
            make()
    # the same residue in F_3 is accepted everywhere
    one = Coeff.from_int(3, 4)
    assert f * one == f.scale(one) == f and t.coeff(one) is one
    assert f.substitute({"x": one}) == f.substitute({"x": t.one()})


def test_pow_matches_repeated_multiplication():
    t = table2(3)
    f = t.parse("x + 2*y + 1")
    acc = t.one()
    for k in range(1, 8):
        acc = acc * f
        assert f ** k == acc


@st.composite
def _two_term_bases(draw):
    """A polynomial of two terms in a fresh table over x, y (and T), p in
    {2, 3, 5}: coefficients in F_p, in F_p[u, 1/u], or in F_p(u) with the
    first one over u + 1."""
    p = draw(st.sampled_from((2, 3, 5)))
    ring = draw(st.sampled_from(("F_p", "F_p[u, 1/u]", "F_p(u)")))
    exps = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                   st.integers(0, 1)),
                         min_size=2, max_size=2, unique=True))
    terms = {}
    for e in exps:
        c = Coeff.from_int(p, draw(st.integers(1, p - 1)))
        if ring != "F_p":
            c = c * Coeff.u(p, draw(st.integers(-2, 2)))
        if ring == "F_p(u)" and not terms:
            c = c / Coeff(p, (1, 1))
        terms[e] = c
    return MultiPoly(VarTable(p, ("x", "y")), terms)


@given(_two_term_bases(), st.data())
@settings(max_examples=60, deadline=None)
def test_two_term_powers_are_memoized_per_table(f, data):
    """f ** e is e copies of f multiplied together, on the call that fills
    its table's memo and on the calls that read it.  An equal base in a
    fresh object gets the memoized terms; a separately built equal table
    shares none of them.  Powers below 2 cost nothing and are not kept."""
    t = f.table
    e = data.draw(st.integers(0, 2 * t.p * t.p + 1), label="e")
    product = t.one()
    for _ in range(e):
        product = product * f
    assert t._pow_memo == {}
    first = f ** e
    assert first == product
    assert len(t._pow_memo) == (e >= 2)
    assert f ** e == product
    again = MultiPoly(t, dict(f.terms)) ** e
    assert again == product
    assert (again.terms is first.terms) == (e >= 2)
    other = VarTable(t.p, t.names)
    assert other == t and other._pow_memo == {}
    apart = MultiPoly(other, dict(f.terms)) ** e
    assert apart == product and apart.table is other
    assert apart.terms is not first.terms
    assert len(other._pow_memo) == len(t._pow_memo) == (e >= 2)
    assert f ** (e + 1) == product * f


def test_pow_memo_keeps_two_term_powers_up_to_its_bound():
    """Only two-term bases are memoized.  The power that would take a
    table's memo past _POW_MEMO_MAX entries clears it first, and every
    power, a cleared one included, stays correct."""
    t = table2(3)
    x, y = t.var("x"), t.var("y")
    assert x ** 5 == t.var("x", 5)
    assert (x + y + 1) ** 3 == t.parse("x^3 + y^3 + 1")
    assert t._pow_memo == {}
    for k in range(1, _POW_MEMO_MAX + 2):
        yk = t.var("y", k)
        assert (x + yk) ** 2 == x * x + (x * yk).scale(2) + yk * yk
        assert len(t._pow_memo) == (k if k <= _POW_MEMO_MAX else 1)
    assert (x + y) ** 2 == t.parse("x^2 + 2*x*y + y^2")
    assert len(t._pow_memo) == 2


def test_only_products_that_may_pack_scan_their_coefficients(monkeypatch):
    """MultiPoly.__mul__ picks its path with Coeff.is_constant and
    Coeff.is_laurent; a product too small to pack calls neither."""
    calls = []
    for name in ("is_constant", "is_laurent"):
        def counted(self, original=getattr(Coeff, name)):
            calls.append(self)
            return original(self)
        monkeypatch.setattr(Coeff, name, counted)
    t = table2(3)
    half = _PACK_MIN_PRODUCTS // 2
    x_plus_2 = t.parse("x + 2")
    small = t.parse(" + ".join("y^%d" % i for i in range(half - 1)))
    large = small + t.var("y", half - 1)
    # below the threshold, over F_p or F_p(u), and with a one-term operand
    assert x_plus_2 * small == t.var("x") * small + small.scale(2)
    assert t.parse("x + u") * t.parse("y + 1") == t.parse("x*y + x + u*y + u")
    assert len((t.var("x") * large).terms) == half
    assert calls == []
    packed = x_plus_2 * large
    assert calls and packed == t.var("x") * large + large.scale(2)
    del calls[:]
    inv_u = Coeff.u(3, -1)
    packed = (t.var("x") + t.const(inv_u)) * large
    assert calls and packed == t.var("x") * large + large.scale(inv_u)


def test_exponent_tuple_is_the_variables_then_T():
    for names in ((), ("x",), ("x1", "x2", "x3")):
        t = VarTable(3, names)
        assert len(t.zero_exp()) == t.nvars + 1
        assert t.all_names == names + ("T",)
        assert list(t.var("T").terms) == [(0,) * t.nvars + (1,)]
    with pytest.raises(ValueError):
        VarTable(3, ("x", "T"))


def test_T1_and_T2_are_ordinary_variable_names():
    """T is the only reserved name: a table may name variables T1, T2,
    and maps and actions may use them like any other variable."""
    t = VarTable(3, ("T1", "T2"))
    f = t.parse("T1*T2 + T^2")
    assert str(f) == "T1*T2 + T^2"
    assert f.substitute({"T1": t.var("T2")}) == t.parse("T2^2 + T^2")
    swap = PolyMap(t, [t.var("T2"), t.var("T1")])
    assert swap.apply(f) == f
    action = GaAction(t, [t.parse("T1 + T2*T"), t.var("T2")])
    assert action.evaluate(1) == PolyMap(t, [t.parse("T1 + T2"),
                                             t.var("T2")])


def test_truncate_u_reduces_each_coefficient_mod_a_power_of_u():
    """truncate_u(e) keeps the terms a*u^k with k < e of every coefficient,
    negative k included, and drops a monomial whose coefficient has none;
    a denominator other than a power of u raises ValueError, as its
    expansion in u does not end."""
    t = table2(3)
    u = Coeff.u(3)
    x, y = t.var("x"), t.var("y")
    f = x.scale(1 + u + u ** 2) + y.scale(u.inv() + u)
    assert f.truncate_u(2) == x.scale(1 + u) + y.scale(u.inv() + u)
    assert f.truncate_u(1) == x + y.scale(u.inv())
    assert f.truncate_u(0) == y.scale(u.inv())
    assert f.truncate_u(-1) == t.zero()
    # the y term vanishes modulo u^2, the x term keeps its constant
    g = x.scale(2 + u ** 2) + y.scale(u ** 2 + u ** 3)
    assert g.truncate_u(2) == x.scale(2)
    assert g.truncate_u(2).terms[x.leading_term()[0]] is Coeff.from_int(3, 2)
    with pytest.raises(ValueError):
        x.scale((u + 1).inv()).truncate_u(2)


@st.composite
def _coeffs(draw, p, ring):
    """A nonzero Coeff of F_p, of F_p[u] (degree up to 2) or of F_p(u)
    (such a numerator over u, u + 1 or u^2 + 1)."""
    num = draw(st.lists(st.integers(0, p - 1), min_size=1,
                        max_size=1 if ring == "F_p" else 3)
               .filter(any))
    c = Coeff(p, tuple(num))
    if ring == "F_p(u)":
        c = c / Coeff(p, draw(st.sampled_from(((0, 1), (1, 1), (1, 0, 1)))))
    return c


@st.composite
def _poly_pairs(draw):
    """(f, g): two polynomials of up to five terms in one table over x, y
    (and T), p in {2, 3, 5}, with coefficients in F_p, F_p[u] or F_p(u)."""
    p = draw(st.sampled_from((2, 3, 5)))
    ring = draw(st.sampled_from(("F_p", "F_p[u]", "F_p(u)")))
    t = VarTable(p, ("x", "y"))
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1))
    return tuple(
        MultiPoly(t, draw(st.dictionaries(exps, _coeffs(p, ring),
                                          max_size=5)))
        for _ in range(2))


@given(_poly_pairs())
@settings(max_examples=80, deadline=None)
def test_sub_is_add_of_the_negation(pair):
    """f - g is f + (-g), term for term and in the same term order, and a
    difference of equal polynomials is zero."""
    f, g = pair
    for a, b in ((f, g), (g, f)):
        diff = a - b
        assert diff == a + (-b)
        assert list(diff.terms) == list((a + (-b)).terms)
        assert all(not c.is_zero() for c in diff.terms.values())
    assert (f - MultiPoly(f.table, dict(f.terms))).is_zero()


@given(_poly_pairs(), st.data())
@settings(max_examples=60, deadline=None)
def test_scale_by_one_returns_the_polynomial_itself(pair, data):
    """scale(1) is f itself, for the shared 1, a separately built 1 and the
    int 1; scaling by another nonzero c multiplies every coefficient, and
    by 0 gives zero."""
    f, _ = pair
    p = f.table.p
    for one in (1, Coeff.from_int(p, 1), Coeff(p, (1,)), p + 1):
        assert f.scale(one) is f
    c = data.draw(_coeffs(p, "F_p(u)"), label="c")
    assert f.scale(c).terms == {e: k * c for e, k in f.terms.items()}
    assert f.scale(0).is_zero() and f.scale(p).is_zero()


@given(_poly_pairs())
@settings(max_examples=60, deadline=None)
def test_substitute_tables_and_the_identity_image(pair):
    """substitute accepts images from an equal table built apart, and
    raises ValueError for images from any other table.  An image that is
    its own variable counts as left alone, also when its coefficient 1 is
    not the shared constant: a call with only such images returns f."""
    f, g = pair
    t = f.table
    p = t.p
    twin = VarTable(p, t.names)
    assert twin is not t and twin == t
    moved = MultiPoly(twin, dict(g.terms))
    assert f.substitute({"x": moved}) == f.substitute({"x": g})
    others = [VarTable(p, ("x", "z")), VarTable(p, ("y", "x")),
              VarTable(5 if p != 5 else 3, t.names)]
    for other in others:
        with pytest.raises(ValueError, match="different table"):
            f.substitute({"x": MultiPoly(other, {})})
    x = MultiPoly(t, {t.var("x").leading_term()[0]: Coeff(p, (1,))})
    assert x.terms[next(iter(x.terms))] is not Coeff.from_int(p, 1)
    assert f.substitute({"x": x}) is f
    assert f.substitute({"x": x, "y": t.var("y")}) is f
    assert PolyMap(t, [x, t.var("y")]).is_identity()
    assert f.substitute({"x": x, "y": g}) == f.substitute({"y": g})


@pytest.mark.parametrize("build,error", [
    (lambda t, u: t.zero(), ZeroPolynomial),
    (lambda t, u: t.var("x").scale(u.inv()), NonIntegralCoefficient),
    (lambda t, u: t.var("x").scale(u) + t.const(u / (u + 1)),
     NonIntegralCoefficient),
])
def test_content_refuses_what_content_primitive_refuses(build, error):
    t = table2(3)
    f = build(t, Coeff.u(3))
    for fn in (content, content_primitive):
        with pytest.raises(error):
            fn(f)


@given(_poly_pairs())
@settings(max_examples=80, deadline=None)
def test_content_is_the_content_of_content_primitive(pair):
    """content(f) is content_primitive(f)[0], or both raise the same
    error: ZeroPolynomial for 0, NonIntegralCoefficient outside F_p[u]."""
    for f in pair:
        try:
            want = content_primitive(f)[0]
        except (ZeroPolynomial, NonIntegralCoefficient) as err:
            with pytest.raises(type(err)):
                content(f)
        else:
            assert content(f) == want


@given(_poly_pairs(), st.data())
@settings(max_examples=80, deadline=None)
def test_affine_is_the_sum_of_its_terms(pair, data):
    """affine(c0, {x: a, y: b}, rest) is c0 + a*x + b*y + rest, for zero
    coefficients too, with no zero coefficient left, and it refuses a
    rest of another table."""
    f, _ = pair
    t = f.table
    p = t.p
    c0, a, b = (data.draw(st.sampled_from([0, 1, p - 1]) | _coeffs(p, ring))
                for ring in ("F_p", "F_p[u]", "F_p(u)"))
    old = t.const(c0) + t.var("x").scale(a) + t.var("y").scale(b)
    for rest in (None, f, -old):
        got = t.affine(c0, {"x": a, "y": b}, rest)
        assert got == (old if rest is None else old + rest)
        assert all(not c.is_zero() for c in got.terms.values())
    assert t.affine(0, {}) == t.zero()
    with pytest.raises(ValueError, match="mixed variable tables"):
        t.affine(c0, {"x": a}, VarTable(p, ("x", "z")).var("x"))
