"""Differential oracle for the polynomial kernel: MultiPoly mul, pow,
substitute and exact_div against sympy's sparse polynomial rings over GF(p).

Operands have prime-field coefficients in x, y and the action parameter T;
the other reserved slots stay zero.  Results are compared as dicts of
exponent tuple -> residue in [0, p).
"""

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import GF
from sympy.polys.orderings import grlex
from sympy.polys.rings import ring

from charp_autos.coeffs import Coeff
from charp_autos.errors import NotDivisible
from charp_autos.poly import MultiPoly, VarTable, exact_div

PRIMES = (2, 3, 5, 7)
ORACLE = settings(max_examples=40, deadline=None)

_EXPS = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2),
                  st.just(0), st.just(0))


@st.composite
def operands(draw, count, max_size=5):
    """(p, [term dicts]): count polynomials over F_p, the first nonzero."""
    p = draw(st.sampled_from(PRIMES))
    coeff = st.integers(1, p - 1)
    polys = [draw(st.dictionaries(_EXPS, coeff, min_size=1 if i == 0 else 0,
                                  max_size=max_size))
             for i in range(count)]
    return p, polys


def rings(p, invertible=()):
    table = VarTable(p, ("x", "y"), invertible)
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


@given(operands(2))
@ORACLE
def test_mul_matches_sympy(case):
    p, (f, g) = case
    table, oracle = rings(p)
    assert as_dict(ours(table, f) * ours(table, g), p) \
        == as_dict(theirs(oracle, f) * theirs(oracle, g), p)


@given(operands(1, max_size=3), st.integers(0, 15))
@ORACLE
def test_pow_matches_sympy(case, e):
    p, (f,) = case
    table, oracle = rings(p)
    assert as_dict(ours(table, f) ** e, p) == as_dict(theirs(oracle, f) ** e, p)


@given(operands(4, max_size=3))
@ORACLE
def test_substitute_matches_sympy(case):
    """Simultaneous substitution of x, y and T."""
    p, (f, gx, gy, gt) = case
    table, oracle = rings(p)
    got = ours(table, f).substitute(
        {"x": ours(table, gx), "y": ours(table, gy), "T": ours(table, gt)})
    x, y, t = oracle.gens[:3]
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


@given(operands(2), st.integers(-3, 3), st.integers(-3, 3))
@ORACLE
def test_exact_div_laurent_shift(case, s_f, s_g):
    """x invertible: x^s_f * f*g divided by x^s_g * g is x^(s_f - s_g) * f,
    whatever the signs and whatever powers of x f and g carry."""
    p, (g, f) = case
    table, oracle = rings(p, invertible=("x",))
    product = theirs(oracle, f) * theirs(oracle, g)
    dividend = ours(table, as_dict(product, p)) * table.var("x", s_f)
    divisor = ours(table, g) * table.var("x", s_g)
    want = ours(table, f) * table.var("x", s_f - s_g)
    assert exact_div(dividend, divisor) == want
