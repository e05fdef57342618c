import pytest
from hypothesis import given, settings, strategies as st

from charp_autos.coeffs import Coeff
from charp_autos.errors import (BadParameters, NotAutomorphism,
                                NotInCentralizer, NotInWst,
                                WitnessNotCentralizing)
from charp_autos.endo import PolyMap, compose, eps_map
from charp_autos.plane import (AffineFactor, CentralizerWord,
                               TriangularFactor, TameWord,
                               centralizer_decompose, centralizer_membership,
                               fixed_point_elem_centralizer,
                               fpf_witness_check, jvdk_factor, normal_form,
                               recompose, w_st_split)
from charp_autos.poly import MultiPoly, VarTable
from charp_autos.seeds import Lcg


def t2(p):
    return VarTable(p, ("x1", "x2"))


def _rand_affine(lcg, t):
    p = t.p
    while True:
        a, b, c, d = (lcg.draw(p) for _ in range(4))
        if (a * d - b * c) % p:
            break
    return AffineFactor(t, (a, b, c, d), (lcg.draw(p), lcg.draw(p)))


def _rand_tri(lcg, t, max_deg=4):
    p = t.p
    deg = 2 + lcg.draw(max_deg - 1)
    q = t.monomial(lcg.draw_nonzero(p), x1=deg)
    for e in range(2, deg):
        cc = lcg.draw(p)
        if cc:
            q = q + t.monomial(cc, x1=e)
    return TriangularFactor(t, lcg.draw_nonzero(p), lcg.draw_nonzero(p),
                            lcg.draw(p), q)


def _rand_word(lcg, t, max_factors=6):
    phi = PolyMap.identity(t)
    for k in range(1 + lcg.draw(max_factors)):
        phi = compose(phi, _rand_affine(lcg, t) if k % 2 == 0
                      else _rand_tri(lcg, t))
    return phi


def test_affine_input_single_factor():
    t = t2(3)
    phi = PolyMap(t, [t.parse("x1+2*x2+1"), t.parse("x1+x2")])
    word = jvdk_factor(phi)
    assert len(word.factors) == 1 and isinstance(word.factors[0], AffineFactor)
    assert recompose(word) == phi


def test_elementary_input():
    t = t2(2)
    phi = PolyMap(t, [t.parse("x1+x2^2"), t.var("x2")])
    word = jvdk_factor(phi)
    tri = [f for f in word.factors if isinstance(f, TriangularFactor)]
    assert len(tri) == 1 and tri[0].q == t.parse("x1^2")
    assert recompose(word) == phi


@pytest.mark.parametrize("p", [2, 3])
def test_factor_recompose_round_trip(p):
    t = t2(p)
    lcg = Lcg(1000 + p)
    for _ in range(60):
        phi = _rand_word(lcg, t)
        assert recompose(jvdk_factor(phi)) == phi


def test_non_automorphism_rejection():
    t = t2(2)
    for text in ["(x1^2, x2)", "(x1, x1)", "(x1+x2, x1+x2)", "(x1*x2, x2)"]:
        from charp_autos.textio import parse_map
        with pytest.raises(NotAutomorphism):
            jvdk_factor(parse_map(t, text))


@pytest.mark.parametrize("build,message", [
    # (x1, x2^2 + x2) is not an automorphism
    (lambda t: TriangularFactor(t, 1, 1, 0, t.parse("x2^2")),
     "q must be univariate in x1"),
    (lambda t: TriangularFactor(t, 1, 1, 0, t.parse("x1*T")),
     "q must be univariate in x1"),
    (lambda t: CentralizerWord(t, 1, [("E1", t.parse("x1*x2"))]),
     "g must be univariate in x1"),
    # would build (x1 + x2 + 1, x2), an E1 generator with g(0) != 0
    (lambda t: CentralizerWord(t, 1, [("E1", t.parse("x1+1"))]),
     "g(0) must be 0"),
    (lambda t: CentralizerWord(t, 1, [("E2", t.parse("x1^2")),
                                      ("E2", t.parse("x1^3+2"))]),
     "g(0) must be 0"),
    # recompose would meet the kind only in gen_map, with a ValueError
    (lambda t: CentralizerWord(t, 1, [("E1", t.parse("x1^2")),
                                      ("E3", t.parse("x1^2"))]),
     "unknown generator kind 'E3'"),
])
def test_factor_constructors_reject_inputs_outside_their_form(build,
                                                             message):
    """The constructors check the form their docstrings state, so a library
    caller cannot build a word that parse_word would reject."""
    with pytest.raises(BadParameters) as err:
        build(t2(3))
    assert str(err.value) == message


def test_factors_are_the_maps_of_their_images():
    """A factor is a PolyMap equal to the map of its images, a TameWord
    yields its factors themselves, and from_map hands a factor back as it
    is but still refuses a map that is not affine."""
    t = t2(3)
    aff = AffineFactor(t, (1, 2, 0, 1), (1, 0))
    tri = TriangularFactor(t, 2, 1, 1, t.parse("x1^2"))
    assert isinstance(aff, PolyMap) and isinstance(tri, PolyMap)
    assert aff == PolyMap(t, [t.parse("x1 + 2*x2 + 1"), t.var("x2")])
    assert tri == PolyMap(t, [t.parse("2*x1 + 1"), t.parse("x2 + x1^2")])
    word = TameWord(t, [aff, tri])
    assert list(map(id, word)) == [id(aff), id(tri)]
    assert recompose(word) == compose(aff, tri)
    assert AffineFactor.from_map(aff) is aff
    rebuilt = AffineFactor.from_map(PolyMap(t, aff.images))
    assert (rebuilt.mat, rebuilt.shift) == (aff.mat, aff.shift)
    with pytest.raises(NotAutomorphism):
        AffineFactor.from_map(tri)
    assert not aff.is_identity()
    assert AffineFactor(t, (1, 0, 0, 1), (0, 0)).is_identity()


@st.composite
def _coeff_rows(draw):
    """(p, [Coeff, ..]): eight coefficients of one p in {2, 3, 5}, all of
    F_p, F_p[u] or F_p(u), zero about a third of the time."""
    p = draw(st.sampled_from((2, 3, 5)))
    ring = draw(st.sampled_from(("F_p", "F_p[u]", "F_p(u)")))
    row = []
    for _ in range(8):
        c = Coeff(p, tuple(draw(st.lists(st.integers(0, p - 1), min_size=1,
                                         max_size=1 if ring == "F_p" else 3))))
        if ring == "F_p(u)":
            c = c / Coeff(p, draw(st.sampled_from(((0, 1), (1, 1)))))
        row.append(c)
    return p, row


def _no_zero_terms(pmap):
    return all(not c.is_zero() for g in pmap.images for c in g.terms.values())


@given(_coeff_rows())
@settings(max_examples=120, deadline=None)
def test_factor_images_keep_their_old_sums(case):
    """Every map a word is built from has the images of the var, scale and
    const sums it used to be built from, zero coefficients included, and
    holds no zero coefficient."""
    p, (a, b, c, d, e, f, g, h) = case
    t = t2(p)
    x, y = t.var("x1"), t.var("x2")
    old_maps = []
    aff = AffineFactor(t, (a, b, c, d), (e, f))
    old_maps.append((aff, [x.scale(a) + y.scale(b) + t.const(e),
                           x.scale(c) + y.scale(d) + t.const(f)]))
    q = MultiPoly(t, {(k, 0, 0): v for k, v in enumerate((e, f, g, h)) if v})
    if not a.is_zero() and not b.is_zero():
        tri = TriangularFactor(t, a, b, c, q)
        old_maps.append((tri, [x.scale(a) + t.const(c), y.scale(b) + q]))
    if not a.is_zero():
        word = CentralizerWord(t, 1, [], (a, b, c))
        old_maps.append((word.h0_map(), [x + t.const(b),
                                         y.scale(a) + t.const(c)]))
        old_maps.append((word.inverse_map(), [
            x - t.const(b), (y - t.const(c)).scale(a.inv())]))
    g_poly = MultiPoly(t, {(k, 0, 0): v for k, v in
                           enumerate((d, e, f, g), start=1) if v})
    if not g_poly.is_zero():
        for tval in range(1, p):
            word = CentralizerWord(t, tval, [])
            w = t.var("x1", p) - x.scale(Coeff.from_int(p, tval) ** (p - 1))
            old_maps.append((word.gen_map("E1", g_poly), [
                x + g_poly.substitute({"x1": y}), y]))
            old_maps.append((word.gen_map("E2", g_poly), [
                x, y + g_poly.substitute({"x1": w})]))
    for new, old in old_maps:
        assert new.images == tuple(old)
        assert _no_zero_terms(new)


def test_triangular_factor_refuses_a_q_of_another_table():
    t = t2(3)
    for other in (t2(2), VarTable(3, ("x1", "y")), VarTable(3, ("x1",))):
        with pytest.raises(ValueError, match="mixed variable tables"):
            TriangularFactor(t, 1, 1, 0, other.parse("x1^2"))


def test_recompose_empty_word_is_identity():
    t = t2(3)
    assert recompose(TameWord(t, [])).is_identity()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_recompose_starts_from_the_first_factor(monkeypatch, k):
    """A word of k factors costs k - 1 compositions, none of them with the
    identity, and its product still reads left to right.  A centralizer
    word of k - 1 generators has k factors, its H0 factor last."""
    from charp_autos import plane
    t = t2(3)
    lcg = Lcg(11 + k)
    tame = TameWord(t, [_rand_affine(lcg, t) if i % 2 == 0
                        else TriangularFactor(t, 1, 2, 1, t.parse("x1^2"))
                        for i in range(k)])
    centralizer = CentralizerWord(
        t, 1, [("E1", t.var("x1") ** (i + 2)) for i in range(k - 1)],
        (2, 1, 0))
    for word in (tame, centralizer):
        expected = PolyMap.identity(t)
        for f in word:
            expected = compose(expected, f)
        calls = []

        def counting(phi, psi):
            calls.append(phi)
            return compose(phi, psi)
        monkeypatch.setattr(plane, "compose", counting)
        assert recompose(word) == expected
        monkeypatch.undo()
        assert len(calls) == k - 1
        assert not any(phi.is_identity() for phi in calls)


def test_membership():
    p = 3
    t = t2(p)
    tv = Coeff.from_int(p, 1)
    assert centralizer_membership(
        PolyMap(t, [t.parse("x1+2*x2+1"), t.parse("2*x2+1")]), tv)
    assert centralizer_membership(
        PolyMap(t, [t.var("x1"), t.parse("x2 + (x1^3 - x1)^2")]), tv)
    assert not centralizer_membership(PolyMap(t, [t.var("x2"), t.var("x1")]), tv)


def test_decompose_single_e1():
    t = t2(3)
    phi = PolyMap(t, [t.parse("x1 + x2^3"), t.var("x2")])
    word = centralizer_decompose(phi, 1)
    assert word.gens == [("E1", t.parse("x1^3"))]
    a, u1, u2 = word.h0
    assert a.is_one() and u1.is_zero() and u2.is_zero()
    assert recompose(word) == phi


def test_decompose_affine_split():
    p = 3
    t = t2(p)
    phi = PolyMap(t, [t.parse("x1 + 2*x2 + 1"), t.parse("2*x2 + 2")])
    word = centralizer_decompose(phi, 1)
    assert word.gens == [("E1", t.parse("2*x1"))]
    assert word.h0 == (Coeff.from_int(p, 2), Coeff.from_int(p, 1),
                       Coeff.from_int(p, 2))
    assert recompose(word) == phi


@pytest.mark.parametrize("p,tval", [(2, 1), (3, 1), (3, 2)])
def test_decompose_round_trip(p, tval):
    t = t2(p)
    lcg = Lcg(50 + p + tval)
    for _ in range(25):
        gens = []
        for _ in range(lcg.draw(4)):
            kind = ("E1", "E2")[lcg.draw(2)]
            g = t.monomial(1, x1=1 + lcg.draw(3))
            for e in range(1, 4):
                cc = lcg.draw(p)
                if cc:
                    g = g + t.monomial(cc, x1=e)
            gens.append((kind, g))
        word = CentralizerWord(t, tval, gens,
                               (lcg.draw_nonzero(p), lcg.draw(p), lcg.draw(p)))
        phi = recompose(word)
        assert centralizer_membership(phi, tval)
        back = centralizer_decompose(phi, tval)
        assert recompose(back) == phi
        for kind, g in back.gens:
            gm = back.gen_map(kind, g)
            e = eps_map(t, tval)
            assert compose(gm, e) == compose(e, gm)


def test_decompose_each_proof_case_fires():
    # (a): affine leading factor with nonzero x-coefficient
    p = 3
    t = t2(p)
    word = CentralizerWord(t, 1, [("E1", t.parse("2*x1")),
                                  ("E2", t.parse("x1^2"))])
    phi = recompose(word)
    tag, first = normal_form(jvdk_factor(phi))[0]
    assert tag == "GJ" and not first.images[0].coeff_of(x1=1).is_zero()
    assert recompose(centralizer_decompose(phi, 1)) == phi
    # (b): swap-led word (affine with vanishing x-coefficient)
    word_b = CentralizerWord(t, 1, [("E2", t.parse("x1^2")),
                                    ("E1", t.parse("x1^2"))])
    phi_b = recompose(word_b)
    assert recompose(centralizer_decompose(phi_b, 1)) == phi_b
    # (c): triangular leading factor
    word_c = CentralizerWord(t, 1, [("E2", t.parse("x1^3 + x1"))])
    phi_c = recompose(word_c)
    tag, _ = normal_form(jvdk_factor(phi_c))[0]
    assert tag == "JG"
    assert recompose(centralizer_decompose(phi_c, 1)) == phi_c


@pytest.mark.parametrize("tval,text", [
    (1, "[E2: x1^2][E1: x2^2][H0: a=1,u1=0,u2=0]"),
    (2, "[E2: x1^2 + x1][E1: 2*x2^2][E2: x1][H0: a=2,u1=1,u2=0]")])
def test_swap_led_words_decompose_back_exactly(monkeypatch, tval, text):
    """Case (b) gives back the very word, and the swap case is reached."""
    from charp_autos import plane
    from charp_autos.plane import parse_word
    t = t2(3)
    calls = []
    original = plane._strip_swap_case

    def spy(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(plane, "_strip_swap_case", spy)
    phi = recompose(parse_word(t, text, t=tval))
    assert centralizer_decompose(phi, tval).to_text() == text
    assert calls


def test_decompose_rejects_non_member():
    t = t2(2)
    with pytest.raises(NotInCentralizer):
        centralizer_decompose(PolyMap(t, [t.var("x2"), t.var("x1")]), 1)


def test_w_st_split_examples():
    p = 3
    t = t2(p)
    s = Coeff.from_int(p, 2)
    tv = Coeff.from_int(p, 1)
    # q = t^-1 s x
    q = t.var("x1").scale(s / tv)
    assert w_st_split(q, tv).is_zero()
    # q = w^2 + 5 with w = x^3 - x
    q = t.parse("(x1^3 - x1)^2 + 5")
    assert w_st_split(q, tv) == t.parse("x1^2 + 5")
    # q = x^3 = w + x: s = (x+1)^3 - x^3 = 1 is read off q
    assert w_st_split(t.parse("x1^3"), tv) == t.var("x1")
    with pytest.raises(NotInWst):
        w_st_split(t.parse("x1^2"), tv)


def test_w_st_split_derived_char2():
    t = t2(2)
    one = Coeff.from_int(2, 1)
    q = t.parse("x1^4 + x1^2 + x1")
    diff = q.substitute({"x1": t.parse("x1+1")}) - q
    assert diff == t.one()
    q1 = w_st_split(q, one)
    w = t.parse("x1^2 + x1")
    assert q1.substitute({"x1": w}) + t.var("x1").scale(one) == q


def test_delta_degree_lemma():
    # right multiplication by G\J preserves the larger Delta; by J\G it
    # strictly raises Delta_2 when Delta_1 dominates (tau of order p)
    p = 3
    t = t2(p)
    tau = eps_map(t, 1)

    def deltas(phi):
        out = []
        for g in phi.images:
            d = tau.apply(g) - g
            out.append(-1 if d.is_zero() else d.total_degree())
        return out

    lcg = Lcg(321)
    checked_i = checked_ii = 0
    for _ in range(200):
        phi = _rand_word(lcg, t, max_factors=4)
        d1, d2 = deltas(phi)
        if d1 < d2:
            alpha = _rand_affine(lcg, t)
            while not alpha.images[0].uses_var("x2"):
                alpha = _rand_affine(lcg, t)
            e1, e2 = deltas(compose(phi, alpha))
            assert e1 == d2 and d2 >= e2
            checked_i += 1
        if d1 >= 1 and d1 >= d2:
            beta = _rand_tri(lcg, t)
            e1, e2 = deltas(compose(phi, beta))
            assert e1 == d1 and e2 > d1
            checked_ii += 1
    assert checked_i > 10 and checked_ii > 10


def test_leading_triangular_factor_in_V():
    # members of C(eps) whose normal form starts in J\G have a leading q
    # with constant difference q(x+t) - q(x)
    p = 2
    t = t2(p)
    lcg = Lcg(99)
    seen = 0
    for _ in range(40):
        gens = [("E2", t.monomial(1, x1=1 + lcg.draw(2)))]
        if lcg.draw(2):
            gens.append(("E1", t.monomial(1, x1=1 + lcg.draw(2))))
        word = CentralizerWord(t, 1, gens)
        phi = recompose(word)
        if phi.images[0].total_degree() == 1 and phi.images[1].total_degree() == 1:
            continue
        nf = normal_form(jvdk_factor(phi))
        tag, first = nf[0]
        if tag != "JG":
            continue
        q = first.images[1] - t.var("x2").scale(first.images[1].coeff_of(x2=1))
        diff = q.substitute({"x1": t.parse("x1+1")}) - q
        assert diff.is_constant()
        seen += 1
    assert seen > 5


def test_fixed_point_centralizer():
    p = 3
    t = t2(p)
    f = t.parse("x2^2")
    a, b, c, g = fixed_point_elem_centralizer(PolyMap.identity(t), f)
    assert (a.is_one() and b.is_one() and c.is_zero() and g.is_zero())
    got = fixed_point_elem_centralizer(PolyMap(t, [t.var("x1"),
                                                   t.parse("2*x2")]), f)
    assert got is not None and got[1] == Coeff.from_int(p, 2)
    bad = PolyMap(t, [t.var("x1") + f, t.parse("x2^2")])
    assert fixed_point_elem_centralizer(bad, f) is None
    # equation failure: y^2 is not fixed by y -> y+1
    shifted = PolyMap(t, [t.var("x1"), t.parse("x2+1")])
    assert fixed_point_elem_centralizer(shifted, f) is None


def test_fpf_witness_identity_and_transport():
    p = 2
    t = t2(p)
    fval = Coeff.from_int(p, 1)
    action = fpf_witness_check(CentralizerWord(t, fval, []))
    assert action.restricts_to()[0]
    assert action.images[0] == t.parse("x1 + T")
    # psi = [E1(x2^2)]: the slice transports to E(x2) = x2, E(x1) = x1 + f T
    word = CentralizerWord(t, fval, [("E1", t.var("x1") ** 2)])
    action = fpf_witness_check(word)
    assert action.images[0] == t.parse("x1 + T")
    assert action.images[1] == t.var("x2")


def test_fpf_witness_verdicts_cross_checked():
    p = 3
    t = t2(p)
    fval = Coeff.from_int(p, 1)
    u = Coeff.u(p)
    for gens, expected in [([("E2", t.var("x1") ** 2)], True),
                           ([("E2", t.var("x1").scale(u.inv()))], False)]:
        word = CentralizerWord(t, fval, gens)
        action = fpf_witness_check(word)
        ok, witness = action.restricts_to()
        assert ok is expected
        if not expected:
            assert witness is not None
        # independent route: conjugate the translation action by the word
        psi = recompose(word)
        psi_inv = word.inverse_map()
        translated = [g.substitute({"x1": t.var("x1")
                                    + t.var("T").scale(fval)})
                      for g in psi_inv.images]
        images = [psi.apply(g) for g in translated]
        assert list(action.images) == images


def test_fpf_witness_check_refuses_a_psi_outside_H_f(monkeypatch):
    """With E2 built as (x1, x2 + g(x1^p)), psi no longer commutes with
    the translation, so E_1 of the slice action through it is not
    (x1 + f, x2) and the check raises; the true E2 passes."""
    t = t2(3)
    word = CentralizerWord(t, 2, [("E2", t.parse("x1^2"))])
    assert fpf_witness_check(word).restricts_to()[0]
    gen_map = CentralizerWord.gen_map

    def frobenius_e2(self, kind, g):
        if kind != "E2":
            return gen_map(self, kind, g)
        return PolyMap(t, [t.var("x1"),
                           t.var("x2") + g.substitute({"x1": t.var("x1", 3)})])
    monkeypatch.setattr(CentralizerWord, "gen_map", frobenius_e2)
    with pytest.raises(WitnessNotCentralizing):
        fpf_witness_check(word)
