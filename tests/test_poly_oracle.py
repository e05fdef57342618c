"""Differential oracle for the polynomial kernel: MultiPoly add, mul, pow,
substitute, exact_div and content_primitive against sympy's sparse
polynomial rings over GF(p), GF(p)[u] and GF(p)(u).

Operands live in a table over x, y and z, so an exponent tuple is
(x, y, z, T).  Most tests draw over x, y and T with z at zero; the
packed-product test lets all four slots vary.  Prime-field results are
compared as dicts of exponent tuple -> residue in [0, p); F_p(u) results
are mapped into sympy's ring and their difference from sympy's result must
be zero.  Products and substitutions over F_p[u, 1/u] are compared over
GF(p), and over ZZ read mod p, with u as one more generator, once the
operands' u-power denominators are cleared.
"""

from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import symbols
from sympy.polys.domains import GF, ZZ
from sympy.polys.orderings import grlex
from sympy.polys.rings import ring

from charp_autos import poly
from charp_autos.coeffs import _CONSTANTS, Coeff
from charp_autos.errors import NotDivisible
from charp_autos.poly import (_PACK_MIN_PRODUCTS, _PACK_MIN_SUBSTITUTION,
                              MultiPoly, VarTable, content_primitive,
                              exact_div)

PRIMES = (2, 3, 5, 7)
ORACLE = settings(max_examples=40, deadline=None)

_EXPS = st.tuples(st.integers(0, 3), st.integers(0, 3), st.just(0),
                  st.integers(0, 2))


@st.composite
def operands(draw, count, max_size=5):
    """(p, [term dicts]): count polynomials over F_p, the first nonzero."""
    p = draw(st.sampled_from(PRIMES))
    coeff = st.integers(1, p - 1)
    polys = [draw(st.dictionaries(_EXPS, coeff, min_size=1 if i == 0 else 0,
                                  max_size=max_size))
             for i in range(count)]
    return p, polys


def rings(p):
    table = VarTable(p, ("x", "y", "z"))
    oracle = ring(",".join(table.all_names), GF(p), grlex)[0]
    return table, oracle


def ours(table, terms):
    return MultiPoly(table, {e: Coeff.from_int(table.p, c)
                             for e, c in terms.items()})


def theirs(oracle, terms):
    return oracle.from_dict(dict(terms))


def as_dict(poly, p):
    if isinstance(poly, MultiPoly):
        return {e: c.const_value() for e, c in poly.terms.items()}
    return {e: int(c) % p for e, c in poly.terms() if int(c) % p}


X, Y, T = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)
XT, ONE = (1, 0, 0, 1), (0, 0, 0, 0)


@given(operands(2))
@ORACLE
# products that cancel mod p: (x+1)^2 = x^2 + 1 at p = 2, and
# (x+1)(x+2) = x^2 + 2 at p = 3
@example((2, ({X: 1, ONE: 1}, {X: 1, ONE: 1})))
@example((3, ({X: 1, ONE: 1}, {X: 1, ONE: 2})))
def test_mul_matches_sympy(case):
    p, (f, g) = case
    table, oracle = rings(p)
    assert as_dict(ours(table, f) * ours(table, g), p) \
        == as_dict(theirs(oracle, f) * theirs(oracle, g), p)


# Exponent sets an operand draws per slot for the packed-product test:
# fixed; small; a nonzero minimum; above 2^31 with a small span; a span
# above 2^31, so that packed keys span several int digits.
_PROFILES = ((0,), (3,), (0, 1, 2, 3), (5, 6, 7), (2 ** 31, 2 ** 31 + 1),
             (0, 1, 2, 2 ** 31 + 1))
_SLOTS = 4                          # x, y, z, T


@st.composite
def slot_operand(draw, p, sizes):
    """A nonzero F_p term dict over x, y, z and T: each slot draws its
    exponents from one profile, and the terms are distinct points of the
    box those profiles span, as many as one of sizes or the whole box."""
    profiles = [draw(st.sampled_from(_PROFILES)) for _ in range(_SLOTS)]
    box = list(product(*profiles))
    size = min(len(box), draw(st.sampled_from(sizes)))
    exps = draw(st.permutations(box))[:size]
    coeffs = draw(st.lists(st.integers(1, p - 1), min_size=size,
                           max_size=size))
    return dict(zip(exps, coeffs))


@st.composite
def packed_operands(draw):
    p = draw(st.sampled_from(PRIMES))
    return p, draw(slot_operand(p, (1, 3, 8, 16))), draw(
        slot_operand(p, (4, 16, 40)))


X1, XY = (1, 0, 0, 0), (1, 1, 0, 0)
HALF = _PACK_MIN_PRODUCTS // 2
SUM_XH = {(i, 0, 0, 0): 1 for i in range(HALF)}    # 1 + x + .. + x^(HALF-1)
WIDE = {(0, 0, 2 ** 31 + 1, 1): 1, (1, 0, 1, 2): 1}


@given(packed_operands())
@ORACLE
# one side of _PACK_MIN_PRODUCTS and the other: 2 * (HALF - 1) and 2 * HALF
@example((3, {X1: 1, ONE: 2}, dict(list(SUM_XH.items())[:HALF - 1])))
@example((3, {X1: 1, ONE: 2}, SUM_XH))
# cancelling mod p: (x + 1) SUM_XH = x^HALF + 1 at p = 2, and
# (x - 1) SUM_XH = x^HALF - 1 at p = 5
@example((2, {X1: 1, ONE: 1}, SUM_XH))
@example((5, {X1: 1, ONE: 4}, SUM_XH))
# y and z the same in every term of both operands, x spanning two values
@example((7, {XY: 3, (0, 1, 0, 0): 5},
          {(0, 1, 0, j): 1 + j % 6 for j in range(70)}))
# a span above 2^31 in z
@example((7, WIDE, {(i, j, 0, 0): 1 + (i * j) % 6
                    for i in range(8) for j in range(8)}))
def test_fp_product_matches_sympy_on_both_sides_of_packing(case):
    """Prime-field products of operands with up to 16 * 40 term products.
    The packed kernel poly._packed_product runs on the term dicts
    themselves, and MultiPoly.__mul__ runs too, so that both its Coeff loop
    and the packed kernel run; the first two examples straddle the
    threshold _PACK_MIN_PRODUCTS between them."""
    p, f, g = case
    table, oracle = rings(p)
    want = as_dict(theirs(oracle, f) * theirs(oracle, g), p)
    lhs, rhs = ({e: Coeff.from_int(p, c) for e, c in h.items()}
                for h in (f, g))
    for got in (poly._packed_product(p, lhs, rhs),
                (ours(table, f) * ours(table, g)).terms):
        assert {e: c.const_value() for e, c in got.items()} == want
        assert all(c.den == (1,) and len(c.num) == 1 and 0 < c.num[0] < p
                   for c in got.values())


@given(operands(1, max_size=3), st.integers(0, 15))
@ORACLE
def test_pow_matches_sympy(case, e):
    p, (f,) = case
    table, oracle = rings(p)
    got = ours(table, f) ** e
    assert as_dict(got, p) == as_dict(theirs(oracle, f) ** e, p)
    # both product paths build canonical constants
    assert all(c.den == (1,) and len(c.num) == 1 and 0 < c.num[0] < p
               for c in got.terms.values())


@given(operands(4, max_size=3))
@ORACLE
# a zero image: x*T + 1 under T -> 0 is 1
@example((3, ({XT: 1, ONE: 1}, {X: 1}, {Y: 1}, {})))
# terms that cancel: x + y + T under x -> -y is T
@example((3, ({X: 1, Y: 1, T: 1}, {Y: 2}, {Y: 1}, {T: 1})))
def test_substitute_matches_sympy(case):
    """Simultaneous substitution of x, y and T."""
    p, (f, gx, gy, gt) = case
    table, oracle = rings(p)
    got = ours(table, f).substitute(
        {"x": ours(table, gx), "y": ours(table, gy), "T": ours(table, gt)})
    x, y, _, t = oracle.gens
    want = theirs(oracle, f).compose(
        [(x, theirs(oracle, gx)), (y, theirs(oracle, gy)),
         (t, theirs(oracle, gt))])
    assert as_dict(got, p) == as_dict(want, p)


@given(operands(2))
@ORACLE
def test_exact_div_round_trips_products(case):
    p, (g, f) = case
    table, oracle = rings(p)
    product = ours(table, f) * ours(table, g)
    q = exact_div(product, ours(table, g))
    assert q == ours(table, f)
    assert as_dict(q, p) == as_dict(
        (theirs(oracle, f) * theirs(oracle, g)).exquo(theirs(oracle, g)), p)


@given(operands(3))
@ORACLE
def test_exact_div_agrees_on_divisibility(case):
    """dividend = h*g + r: a quotient exactly when sympy's remainder is 0,
    NotDivisible otherwise."""
    p, (g, h, r) = case
    table, oracle = rings(p)
    dividend = ours(table, h) * ours(table, g) + ours(table, r)
    want_q, want_r = (theirs(oracle, h) * theirs(oracle, g)
                      + theirs(oracle, r)).div(theirs(oracle, g))
    if want_r:
        with pytest.raises(NotDivisible):
            exact_div(dividend, ours(table, g))
    else:
        assert as_dict(exact_div(dividend, ours(table, g)), p) \
            == as_dict(want_q, p)


# -- F_p[u] and F_p(u) coefficients ------------------------------------------

_U = symbols("u")


@st.composite
def frac_operands(draw, count, max_size=3, integral=False):
    """(p, [term dicts]): count polynomials whose coefficients are (num, den)
    lists of u-coefficients, index = degree; den is [1] when integral.
    Otherwise den is dense of degree <= 2 or c*u^k with k <= 12, and num may
    carry a factor u^v with v <= 14, so that it cancels part or all of a
    u-power.  The first polynomial is nonzero."""
    p = draw(st.sampled_from(PRIMES))
    dense = st.lists(st.integers(0, p - 1), min_size=1, max_size=3).filter(any)
    if integral:
        coeff = st.tuples(dense, st.just([1]))
    else:
        shifted = st.builds(lambda v, d: [0] * v + d, st.integers(0, 14), dense)
        u_power = st.builds(lambda k, c: [0] * k + [c], st.integers(0, 12),
                            st.integers(1, p - 1))
        coeff = st.tuples(dense | shifted, dense | u_power)
    polys = [draw(st.dictionaries(_EXPS, coeff, min_size=1 if i == 0 else 0,
                                  max_size=max_size))
             for i in range(count)]
    return p, polys


def frac_rings(p):
    table = VarTable(p, ("x", "y", "z"))
    oracle = ring(",".join(table.all_names), GF(p).frac_field(_U), grlex)[0]
    return table, oracle


def frac_ours(table, terms):
    return MultiPoly(table, {e: Coeff(table.p, num, den)
                             for e, (num, den) in terms.items()})


def frac_theirs(oracle, terms):
    field = oracle.domain.field
    u = field.gens[0]

    def value(dense):
        return sum((c * u ** i for i, c in enumerate(dense)), field.zero)

    return oracle.from_dict({e: value(num) / value(den)
                             for e, (num, den) in terms.items()})


def frac_mirror(oracle, poly):
    """Our result as an element of sympy's ring."""
    return frac_theirs(oracle, {e: (c.num, c.den)
                                for e, c in poly.terms.items()})


@given(frac_operands(2))
@ORACLE
# an operand with F_p coefficients times one with F_p(u) coefficients
@example((3, ({X: ([2], [1]), ONE: ([1], [1])},
              {X: ([1], [0, 1]), T: ([1, 1], [1])})))
def test_frac_add_and_mul_match_sympy(case):
    p, (f, g) = case
    table, oracle = frac_rings(p)
    a, b = frac_ours(table, f), frac_ours(table, g)
    want_a, want_b = frac_theirs(oracle, f), frac_theirs(oracle, g)
    assert not (frac_mirror(oracle, a + b) - (want_a + want_b))
    assert not (frac_mirror(oracle, a - b) - (want_a - want_b))
    assert not (frac_mirror(oracle, a * b) - want_a * want_b)


@given(frac_operands(3))
@ORACLE
@example((2, ({XT: ([1], [1, 1]), ONE: ([0, 1], [1])}, {X: ([1], [1])}, {})))
def test_frac_substitute_matches_sympy(case):
    """Simultaneous substitution of x and T."""
    p, (f, gx, gt) = case
    table, oracle = frac_rings(p)
    got = frac_ours(table, f).substitute(
        {"x": frac_ours(table, gx), "T": frac_ours(table, gt)})
    x, _, _, t = oracle.gens
    want = frac_theirs(oracle, f).compose(
        [(x, frac_theirs(oracle, gx)), (t, frac_theirs(oracle, gt))])
    assert not (frac_mirror(oracle, got) - want)


# coefficients in F_p[u] or in F_p(u); exact_div divides over F_p(u) either way
_FRAC_OR_INTEGRAL = st.booleans().flatmap(
    lambda integral: frac_operands(3, integral=integral))


@given(_FRAC_OR_INTEGRAL)
@ORACLE
# a divisor whose leading coefficient u + 1 is not a unit of F_p[u]
@example((2, ({X: ([1, 1], [1]), ONE: ([0, 1], [1])},
              {XT: ([1], [1]), Y: ([1, 1], [1])}, {})))
def test_frac_exact_div_round_trips_products(case):
    p, (g, f, _) = case
    table, oracle = frac_rings(p)
    product = frac_ours(table, f) * frac_ours(table, g)
    q = exact_div(product, frac_ours(table, g))
    assert q == frac_ours(table, f)
    want = (frac_theirs(oracle, f) * frac_theirs(oracle, g)).exquo(
        frac_theirs(oracle, g))
    assert not (frac_mirror(oracle, q) - want)


@given(_FRAC_OR_INTEGRAL)
@ORACLE
# x (x + 1/u) + u leaves the remainder u on division by x + 1/u
@example((3, ({X: ([1], [1]), ONE: ([1], [0, 1])}, {X: ([1], [1])},
              {ONE: ([0, 1], [1])})))
def test_frac_exact_div_agrees_on_divisibility(case):
    """dividend = h*g + r over F_p(u): a quotient exactly when sympy's
    remainder is 0, NotDivisible otherwise."""
    p, (g, h, r) = case
    table, oracle = frac_rings(p)
    dividend = (frac_ours(table, h) * frac_ours(table, g)
                + frac_ours(table, r))
    want_q, want_r = (frac_theirs(oracle, h) * frac_theirs(oracle, g)
                      + frac_theirs(oracle, r)).div(frac_theirs(oracle, g))
    if want_r:
        with pytest.raises(NotDivisible):
            exact_div(dividend, frac_ours(table, g))
    else:
        got = exact_div(dividend, frac_ours(table, g))
        assert not (frac_mirror(oracle, got) - want_q)


def _dense(upoly, p):
    """A sympy element of GF(p)[u] as our dense tuple, index = degree."""
    out = [0] * (upoly.degree() + 1)
    for (i,), c in upoly.terms():
        out[i] = int(c) % p
    return tuple(out)


@given(frac_operands(1, max_size=4, integral=True), st.data())
@ORACLE
def test_content_primitive_matches_sympy(case, data):
    """content_primitive of f times a common factor in F_p[u]: the content
    is sympy's content made monic, the primitive part the quotient by it."""
    p, (f,) = case
    factor = data.draw(st.lists(st.integers(0, p - 1), min_size=1,
                                max_size=3).filter(any))
    table = VarTable(p, ("x", "y", "z"))
    domain = GF(p)[_U]
    oracle = ring(",".join(table.all_names), domain, grlex)[0]
    k = domain.ring.from_dict({(i,): c for i, c in enumerate(factor) if c})
    theirs = oracle.from_dict(
        {e: domain.ring.from_dict({(i,): c for i, c in enumerate(num) if c})
         for e, (num, _) in f.items()}) * k
    ours = MultiPoly(table, {e: Coeff(p, _dense(c, p))
                             for e, c in theirs.terms()})
    content, primitive = content_primitive(ours)
    want = theirs.content().monic()
    assert (content.num, content.den) == (_dense(want, p), (1,))
    assert primitive == MultiPoly(table, {
        e: Coeff(p, _dense(c, p)) for e, c in theirs.quo_ground(want).terms()})


# -- F_p[u, 1/u] coefficients on the packed kernel ----------------------------

@st.composite
def laurent_operand(draw, p, sizes):
    """A nonzero term dict over x, y and T whose coefficients are
    (k, dense) pairs: the Coeff dense(u) * u^k with k in -4..4, where dense
    may have several terms and may vanish at u = 0."""
    size = draw(st.sampled_from(sizes))
    dense = st.lists(st.integers(0, p - 1), min_size=1, max_size=3).filter(any)
    coeff = st.tuples(st.integers(-4, 4), dense)
    return draw(st.dictionaries(_EXPS, coeff, min_size=size, max_size=size))


@st.composite
def laurent_operands(draw):
    p = draw(st.sampled_from(PRIMES))
    return p, draw(laurent_operand(p, (1, 2, 3, 8))), draw(
        laurent_operand(p, (4, 16)))


def laurent_ours(table, terms):
    def coeff(k, dense):
        if k >= 0:
            return Coeff(table.p, [0] * k + dense)
        return Coeff(table.p, dense, [0] * -k + [1])
    return MultiPoly(table, {e: coeff(k, dense)
                             for e, (k, dense) in terms.items()})


def laurent_cleared(terms):
    """(shift, {exponents + (u exponent,): residue}): the operand times
    u^shift, the least power of u that clears its denominators."""
    shift = -min(k for k, _ in terms.values())
    return shift, {e + (k + shift + i,): v for e, (k, dense) in terms.items()
                   for i, v in enumerate(dense) if v}


def u_power(c):
    """m with c.den = u^m, or None for any other denominator."""
    m = len(c.den) - 1
    return m if c.den == (0,) * m + (1,) else None


SUM_UH = {e: (1, [1]) for e in SUM_XH}                   # u * SUM_XH
X_PLUS_1_BY_U = {X1: (-1, [1]), ONE: (-1, [1])}          # (x + 1) / u


@given(laurent_operands())
@ORACLE
# u^-1 (x + 1) times u * SUM_XH is (x + 1) SUM_XH: every coefficient
# cancels to a constant of F_p
@example((3, X_PLUS_1_BY_U, SUM_UH))
# at p = 2, (x + 1) SUM_XH = x^HALF + 1: the middle coefficients cancel
# to zero, and (1 + u) stays at the ends
@example((2, X_PLUS_1_BY_U, {e: (1, [1, 1]) for e in SUM_XH}))
# (1 + u)/u^2 and 2/u times SUM_XH: a u-power denominator stays
@example((5, {X1: (-2, [1, 1]), ONE: (-1, [2])},
          {e: (0, [1]) for e in SUM_XH}))
# one side of _PACK_MIN_PRODUCTS: 2 * (HALF - 1) term products
@example((3, X_PLUS_1_BY_U, dict(list(SUM_UH.items())[:HALF - 1])))
def test_laurent_product_matches_sympy(case):
    """Products over F_p[u, 1/u] with up to 8 * 16 term products, so that
    both the Coeff loop and the packed kernel run, against sympy with u as
    one more generator.  Both sides clear the operands' u-power
    denominators: sympy multiplies the cleared operands, and our product
    times u^(shift_f + shift_g) is read as a polynomial in x, y, z, T, u.
    Every result Coeff is canonical, and the packed kernel hands out the
    shared constants of F_p."""
    p, f, g = case
    table = VarTable(p, ("x", "y", "z"))
    oracle = ring(",".join(table.all_names + ("u",)), GF(p), grlex)[0]
    (sf, cf), (sg, cg) = laurent_cleared(f), laurent_cleared(g)
    packs = (min(len(f), len(g)) > 1
             and len(f) * len(g) >= _PACK_MIN_PRODUCTS)
    with mock.patch.object(poly, "_packed_product",
                           wraps=poly._packed_product) as kernel:
        got = laurent_ours(table, f) * laurent_ours(table, g)
    assert kernel.called == packs
    mirrored = {}
    for e, c in got.terms.items():
        m = u_power(c)
        assert m is not None and c.num[-1] and (m == 0 or c.num[0])
        if packs and c.den == (1,) and len(c.num) == 1:
            assert c is _CONSTANTS[p][c.num[0]]
        mirrored.update({e + (i - m + sf + sg,): v
                         for i, v in enumerate(c.num) if v})
    assert mirrored == as_dict(theirs(oracle, cf) * theirs(oracle, cg), p)


def test_laurent_products_with_another_denominator_run_the_coeff_loop():
    """One coefficient 1/(u + 1) among u-powers: the product skips the
    packed kernel and equals the sum of its one-term products, each of
    which runs the Coeff loop."""
    table = VarTable(3, ("x", "y", "z"))
    f = laurent_ours(table, X_PLUS_1_BY_U) + MultiPoly(
        table, {(0, 1, 0, 0): Coeff(3, [1], [1, 1])})
    g = laurent_ours(table, SUM_UH)
    with mock.patch.object(poly, "_packed_product",
                           wraps=poly._packed_product) as kernel:
        got = f * g
        rows = sum((MultiPoly(table, {e: c}) * g for e, c in f.terms.items()),
                   table.zero())
    assert not kernel.called
    assert len(f.terms) * len(g.terms) >= _PACK_MIN_PRODUCTS
    assert got == rows and got.terms[(0, 1, 0, 0)] == Coeff(3, [0, 1], [1, 1])


# -- substitutions over F_p[u, 1/u] -------------------------------------------

_SLOTS_OF = {"x": 0, "y": 1, "T": 3}


@st.composite
def laurent_substitutions(draw):
    """(p, f, images): f a nonzero operand as laurent_operand draws it, and
    images {name: operand} for one to three of x, y and T, each possibly
    zero, so that len(f) times the images' total term count falls on both
    sides of _PACK_MIN_SUBSTITUTION."""
    p = draw(st.sampled_from(PRIMES))
    f = draw(laurent_operand(p, (1, 2, 4, 8)))
    names = draw(st.lists(st.sampled_from(sorted(_SLOTS_OF)), min_size=1,
                          max_size=3, unique=True))
    return p, f, {n: draw(laurent_operand(p, (0, 1, 3, 8, 16)))
                  for n in names}


def laurent_substitution_oracle(oracle, f, images):
    """(shift, sympy's u^shift * f(images)) in oracle, a ring over x, y, z,
    T and u.

    With f = u^-sf F and each image g_j = u^-s_j G_j for polynomials F and
    G_j (laurent_cleared), and d_j the largest exponent of slot j in f,
    shift = sf + sum(s_j * d_j) makes every term polynomial: a term of F
    with slot exponents e_j becomes that term, slots j set to 0, times
    G_j^e_j * u^(s_j * (d_j - e_j)) for each j.
    """
    u = oracle.gens[-1]
    sf, cf = laurent_cleared(f)
    shift = sf
    cleared = {}
    for name, g in images.items():
        j = _SLOTS_OF[name]
        # an image divisible by u is cleared by u^0, not by a negative power
        s_j, cg = laurent_cleared(g) if g else (0, {})
        if s_j < 0:
            cg = {e[:-1] + (e[-1] - s_j,): v for e, v in cg.items()}
            s_j = 0
        d_j = max(e[j] for e in f)
        shift += s_j * d_j
        cleared[j] = (theirs(oracle, cg), s_j, d_j)
    # the factor of slot j for each exponent that F gives it, formed once
    factors = {(j, k): (g ** k if k else oracle.one)    # sympy refuses 0**0
               * u ** (s_j * (d_j - k))
               for j, (g, s_j, d_j) in cleared.items()
               for k in {e[j] for e in cf}}
    want = oracle.zero
    for e, v in cf.items():
        kept = list(e)
        for j in cleared:
            kept[j] = 0
        term = theirs(oracle, {tuple(kept): v})
        for j in cleared:
            term *= factors[j, e[j]]
        want += term
    return shift, want


SUM_8 = {(i, j, 0, 0): (-1 - i, [1, 1]) for i in range(2) for j in range(4)}
IMAGE_8 = {(0, j, 0, t): (-j, [1, 0, 2]) for j in range(4) for t in range(2)}
H = [(j, t) for j in range(4) for t in range(4)]        # y^j z^t


@given(laurent_substitutions())
@ORACLE
# negative u powers in f and in the image: 8 * 8 term pairs, the gate, and
# 7 * 8, just below it
@example((3, SUM_8, {"x": IMAGE_8}))
@example((3, dict(list(SUM_8.items())[:7]), {"x": IMAGE_8}))
# an image of T, which f does not use, leaves the size test at 8 * 4
@example((3, {(i, j, 0, 0): (-1, [1]) for i in range(1, 3) for j in range(4)},
          {"x": {(0, j, 0, 0): (-j, [1]) for j in range(4)}, "T": IMAGE_8}))
# a zero image beside an image of T
@example((5, {(i, 0, 0, t): (i - t, [1 + (i + t) % 4])
              for i in range(4) for t in range(3)},
          {"x": {}, "T": {(0, j, 0, 0): (j - 1, [1]) for j in range(8)}}))
# T substituted alone
@example((2, {(i, 0, 0, t): (i - t, [1]) for i in range(3) for t in range(3)},
          {"T": {(j, 1, 0, 0): (-1, [1, 1]) for j in range(8)}}))
# (x - y - T^2/u) H under x -> y + T^2/u cancels to zero at p = 3
@example((3, {**{(1, j, t, 0): (0, [1]) for j, t in H},
              **{(0, j + 1, t, 0): (0, [2]) for j, t in H},
              **{(0, j, t, 2): (-1, [2]) for j, t in H}},
          {"x": {(0, 1, 0, 0): (0, [1]), (0, 0, 0, 2): (-1, [1])}}))
def test_laurent_substitute_matches_sympy(case):
    """Simultaneous substitutions over F_p[u, 1/u], on both sides of
    _PACK_MIN_SUBSTITUTION, against sympy with u as one more generator:
    our result times u^shift (laurent_substitution_oracle) is read as a
    polynomial in x, y, z, T, u.  The call takes poly._packed_substitute
    exactly when it passes the size test; every result Coeff is canonical,
    and the packed kernel hands out the shared constants of F_p.

    sympy computes over ZZ, not GF(p): Z -> F_p is a ring map and as_dict
    reduces every coefficient mod p, so the comparison is the same, and
    sympy's GF(p) element arithmetic took most of this test's time."""
    p, f, images = case
    table = VarTable(p, ("x", "y", "z"))
    oracle = ring(",".join(table.all_names + ("u",)), ZZ, grlex)[0]
    ours_f = laurent_ours(table, f)
    ours_images = {n: laurent_ours(table, g) for n, g in images.items()}
    # the size test counts the images of the variables f uses, except
    # those equal to their variable
    counted = [g for n, g in ours_images.items()
               if g.terms != table.var(n).terms and ours_f.uses_var(n)]
    packs = (len(ours_f.terms) * sum(len(g.terms) for g in counted)
             >= _PACK_MIN_SUBSTITUTION)
    with mock.patch.object(poly, "_packed_substitute",
                           wraps=poly._packed_substitute) as kernel:
        got = ours_f.substitute(ours_images)
    assert kernel.called == packs
    shift, want = laurent_substitution_oracle(oracle, f, images)
    mirrored = {}
    for e, c in got.terms.items():
        m = u_power(c)
        assert m is not None and c.num[-1] and (m == 0 or c.num[0])
        if packs and c.den == (1,) and len(c.num) == 1:
            assert c is _CONSTANTS[p][c.num[0]]
        mirrored.update({e + (i - m + shift,): v
                         for i, v in enumerate(c.num) if v})
    assert mirrored == as_dict(want, p)


def test_laurent_substitutions_with_another_denominator_run_the_coeff_loop():
    """One coefficient 1/(u + 1) in f: a call above the size test skips the
    packed kernel and still matches sympy over GF(3)(u)."""
    table, oracle = frac_rings(3)
    f = laurent_ours(table, SUM_8) + MultiPoly(
        table, {(0, 1, 0, 0): Coeff(3, [1], [1, 1])})
    image = laurent_ours(table, IMAGE_8)
    assert len(f.terms) * len(image.terms) >= _PACK_MIN_SUBSTITUTION
    with mock.patch.object(poly, "_packed_substitute",
                           wraps=poly._packed_substitute) as kernel:
        got = f.substitute({"x": image})
    assert not kernel.called

    def as_fractions(h):
        return frac_theirs(oracle, {e: (c.num, c.den)
                                    for e, c in h.terms.items()})
    want = as_fractions(f).compose(oracle.gens[0], as_fractions(image))
    assert not (frac_mirror(oracle, got) - want)
