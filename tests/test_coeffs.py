import pytest
from hypothesis import given, settings, strategies as st

from charp_autos.coeffs import Coeff, coeff_gcd_integral
from charp_autos.errors import DivisionByZero
from charp_autos.seeds import Lcg


def u(p=2):
    return Coeff.u(p)


def c(p, n):
    return Coeff.from_int(p, n)


def test_characteristic_two_addition():
    assert c(2, 1) + c(2, 1) == c(2, 0)


def test_fraction_product_reduces():
    a = u() / (u() + 1)
    assert a * (u() + 1) == u()


def test_inverse_of_zero():
    with pytest.raises(DivisionByZero):
        c(3, 0).inv()


def test_is_integral():
    assert (u() ** 2).is_integral()
    assert not u().inv().is_integral()
    # (u^2+u)/u reduces to u+1
    w = (u() ** 2 + u()) / u()
    assert w.is_integral() and w == u() + 1


def _random_coeff(lcg, p, allow_zero=True):
    num = tuple(lcg.draw(p) for _ in range(1 + lcg.draw(4)))
    den = tuple(lcg.draw(p) for _ in range(lcg.draw(3))) + (1,)
    out = Coeff(p, num, den)
    if not allow_zero and out.is_zero():
        return Coeff.from_int(p, 1)
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_arithmetic_always_reduced_and_invertible(p):
    from charp_autos.coeffs import _ugcd
    lcg = Lcg(2024 + p)
    for _ in range(1000):
        a = _random_coeff(lcg, p)
        b = _random_coeff(lcg, p, allow_zero=False)
        for r in (a + b, a - b, a * b, a / b):
            assert r.den[-1] == 1
            assert r.is_zero() or _ugcd(r.num, r.den, p) == (1,)
        assert (a * b) / b == a


@pytest.mark.parametrize("p", [2, 3])
def test_integrality_closed_under_ring_ops(p):
    lcg = Lcg(7 * p)
    for _ in range(200):
        a = Coeff.from_u_coeffs(p, [lcg.draw(p) for _ in range(4)])
        b = Coeff.from_u_coeffs(p, [lcg.draw(p) for _ in range(4)])
        assert (a + b).is_integral()
        assert (a * b).is_integral()


@given(st.integers(0, 60), st.integers(0, 60), st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_field_axioms_sampled(na, nb, k):
    p = 3
    a = Coeff(p, (na % p, (na // p) % p, (na // p // p) % p))
    b = Coeff(p, (nb % p, (nb // p) % p, 1), (0,) * k + (1,))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * b == a * b + b * b


def test_frobenius_power():
    p = 3
    a = (u(p) + 1) / (u(p) ** 2 + u(p) + 2)
    assert a.frob_power(1) == a ** p
    assert a.frob_power(2) == a ** (p * p)


def test_gcd_of_integral_values():
    p = 2
    g = coeff_gcd_integral([u(p) ** 2, u(p) ** 3 + u(p) ** 2])
    assert g == u(p) ** 2


def _reduced(p, num, den):
    """num/den reduced the general way: divide out the gcd, then make the
    denominator monic."""
    from charp_autos.coeffs import _trim, _udivmod, _ugcd, _uscale
    num, den = _trim(num), _trim(den)
    if not num:
        return (), (1,)
    g = _ugcd(num, den, p)
    num, den = _udivmod(num, g, p)[0], _udivmod(den, g, p)[0]
    inv = pow(den[-1], p - 2, p)
    return _uscale(num, inv, p), _uscale(den, inv, p)


@st.composite
def _fraction_pairs(draw):
    """(p, [(num, den), (num, den)]) with entries in [0, p); each den is (1,)
    half of the time, otherwise dense and nonzero, possibly a non-monic
    constant."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    digits = st.lists(st.integers(0, p - 1), max_size=4)
    pairs = []
    for _ in range(2):
        num = tuple(draw(digits))
        den = (1,) if draw(st.booleans()) else (
            tuple(draw(digits)) + (draw(st.integers(1, p - 1)),))
        pairs.append((num, den))
    return p, pairs


@given(_fraction_pairs(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_fast_paths_give_the_canonical_form(case, cancel):
    """Sums and products, through the integral fast paths or not, carry the
    num, den and hash of the general reduction; so does construction."""
    from charp_autos.coeffs import _uadd, _umul
    p, pairs = case
    a, b = (Coeff(p, num, den) for num, den in pairs)
    for c, (num, den) in zip((a, b), pairs):
        assert (c.num, c.den) == _reduced(p, num, den)
    if cancel:
        b = -a                      # the sum is zero
    for got, num, den in (
            (a + b, _uadd(_umul(a.num, b.den, p), _umul(b.num, a.den, p), p),
             _umul(a.den, b.den, p)),
            (a * b, _umul(a.num, b.num, p), _umul(a.den, b.den, p))):
        want = _reduced(p, num, den)
        assert (got.num, got.den) == want
        assert hash(got) == hash(want)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_frob_power_of_a_constant_is_the_constant_itself(p):
    """a^(p^k) = a on F_p: every constant, zero included, and one built
    apart from the shared ones, comes back as the same object."""
    for n in range(p):
        for const in (c(p, n), Coeff(p, (n,))):
            for k in (1, 2, 3):
                assert const.frob_power(k) is const


@given(_fraction_pairs(), st.data())
@settings(max_examples=150, deadline=None)
def test_frob_power_is_the_p_power_power(case, data):
    """frob_power(k) agrees with ** p^k on F_p, F_p[u] and F_p(u) values;
    k runs up to the largest with p^k <= 27, as ** multiplies out."""
    p, pairs = case
    k_max = max(k for k in (1, 2, 3) if p ** k <= 27)
    k = data.draw(st.integers(1, k_max), label="k")
    for num, den in pairs:
        if not any(den):
            continue
        a = Coeff(p, num, den)
        assert a.frob_power(k) == a ** (p ** k)


def _schoolbook(a, b, p):
    """Dense product a*b over F_p, the double loop with no special cases."""
    from charp_autos.coeffs import _trim
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return _trim(out)


def _dilate(cs, q):
    """cs(u^q) as a dense tuple."""
    out = [0] * ((len(cs) - 1) * q + 1) if cs else []
    for i, c in enumerate(cs):
        out[i * q] = c
    return tuple(out)


@st.composite
def _u_power_fractions(draw):
    """(p, [(num, den), (num, den)]): each den is c*u^k with k in 0..12 and
    c in 1..p-1 (non-monic unless p = 2 or c = 1); each num is nonzero with
    u-valuation 0..k+2, so it cancels all, part or none of u^k."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    pairs = []
    for _ in range(2):
        k = draw(st.integers(0, 12))
        den = (0,) * k + (draw(st.integers(1, p - 1)),)
        v = draw(st.integers(0, k + 2))
        tail = draw(st.lists(st.integers(0, p - 1), max_size=5))
        num = (0,) * v + (draw(st.integers(1, p - 1)),) + tuple(tail)
        pairs.append((num, den))
    return p, pairs


@given(_u_power_fractions(), st.integers(1, 2))
@settings(max_examples=300, deadline=None)
def test_u_power_denominators_give_the_canonical_form(case, k):
    """Construction, the field operations and frob_power on fractions over
    c*u^k carry the num, den and hash of the generic gcd reduction."""
    from charp_autos.coeffs import _uadd, _uneg
    p, pairs = case
    a, b = (Coeff(p, num, den) for num, den in pairs)
    for c, (num, den) in zip((a, b), pairs):
        assert (c.num, c.den) == _reduced(p, num, den)
    mul = _schoolbook
    q = p ** k
    for got, num, den in (
            (a + b, _uadd(mul(a.num, b.den, p), mul(b.num, a.den, p), p),
             mul(a.den, b.den, p)),
            (a - b, _uadd(mul(a.num, b.den, p), _uneg(mul(b.num, a.den, p), p),
                          p), mul(a.den, b.den, p)),
            (-a, _uneg(a.num, p), a.den),
            (a * b, mul(a.num, b.num, p), mul(a.den, b.den, p)),
            (a / b, mul(a.num, b.den, p), mul(a.den, b.num, p)),
            (a.inv(), a.den, a.num),
            (a.frob_power(k), _dilate(a.num, q), _dilate(a.den, q))):
        want = _reduced(p, num, den)
        assert (got.num, got.den) == want
        assert hash(got) == hash(want)


@given(st.sampled_from((2, 3, 5, 7)), st.integers(0, 12), st.data())
@settings(max_examples=200, deadline=None)
def test_umul_monomial_matches_the_schoolbook_product(p, k, data):
    """_umul's shift-and-scale for a factor c*u^k, on either side."""
    from charp_autos.coeffs import _umul
    mono = (0,) * k + (data.draw(st.integers(1, p - 1)),)
    other = tuple(data.draw(st.lists(st.integers(0, p - 1), max_size=8)))
    while other and not other[-1]:
        other = other[:-1]
    want = _schoolbook(mono, other, p)
    assert _umul(mono, other, p) == want
    assert _umul(other, mono, p) == want


def _count_gcd_calls(monkeypatch):
    """Wrap coeffs._ugcd from outside; the returned list grows by one entry
    per call."""
    from charp_autos import coeffs
    calls = []
    inner = coeffs._ugcd

    def counted(a, b, p):
        calls.append((a, b))
        return inner(a, b, p)
    monkeypatch.setattr(coeffs, "_ugcd", counted)
    return calls


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_u_power_fractions_never_reach_the_gcd(monkeypatch, p):
    calls = _count_gcd_calls(monkeypatch)
    x = u(p)
    a = (x ** 3 + 1) / (c(p, p - 1) * x ** 5)      # non-monic c*u^5
    b = (x ** 2 + x) / x ** 4                     # cancels one u: (u+1)/u^3
    values = [a, b, x ** 7 * (x + 1), c(p, 1) / x]
    for s in values:
        for t in values:
            assert (s + t) * (s - t) == s * s - t * t
            # dividing by c*u^k keeps the denominator a u-power
            assert (s * t) / (c(p, p - 1) * x ** 3) * x ** 3 == -(s * t)
            assert -s + s == 0
            assert s.frob_power(1) == s ** p
    assert calls == []


def test_general_denominators_still_take_the_gcd_path(monkeypatch):
    p = 2
    calls = _count_gcd_calls(monkeypatch)
    w = (u(p) ** 2 + u(p)) / (u(p) ** 3 + u(p) ** 2)   # u(u+1) / u^2(u+1)
    assert calls
    assert w == u(p).inv()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_field_constants_are_shared_and_left_unchanged(p):
    consts = [c(p, k) for k in range(p)]
    before = [(k.num, k.den, hash(k)) for k in consts]
    for k, const in enumerate(consts):
        assert c(p, k) is const and c(p, k - p) is const
        fresh = Coeff(p, (k,))
        assert (const.num, const.den, hash(const)) == \
            (fresh.num, fresh.den, hash(fresh))
    for a in range(1, p):
        for b in range(1, p):
            assert consts[a] + consts[b] is consts[(a + b) % p]
            assert consts[a] * consts[b] is consts[a * b % p]
    assert [(k.num, k.den, hash(k)) for k in consts] == before


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_constant_results_are_the_shared_constants(p):
    consts = [c(p, k) for k in range(p)]
    x, w = u(p), u(p) + 1                   # a u-power and another factor
    results = [
        (x.inv() * x, 1), ((x + 1) / x + (-x.inv()), 1),     # u-power path
        (w.inv() * w, 1), (w.inv() + x * w.inv(), 1),        # gcd path
        (w + (-x), 1), (x * 0, 0),                           # F_p[u] path
        (-consts[1], p - 1), (-consts[0], 0), (consts[p - 1].inv(), p - 1),
        (consts[p - 1].frob_power(1), p - 1),
        (Coeff.from_u_coeffs(p, [p - 1, 0, p]), p - 1),
        (Coeff.u(p, 0), 1), (coeff_gcd_integral([x, w]), 1),
        (coeff_gcd_integral([x * 0]), 0)]
    for got, k in results:
        assert got is consts[k]
