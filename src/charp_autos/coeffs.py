"""Exact coefficient domains F_p, F_p[u] and F_p(u).

A Coeff is a reduced fraction num/den of dense univariate polynomials over
F_p in the single parameter u.  Elements of F_p are the constant fractions;
elements of F_p[u] are those with denominator 1 (see is_integral).  The
denominator is kept monic and coprime to the numerator, so equality is plain
structural equality.

Coeff.__init__ reaches that form by one of two reductions.  A denominator
c*u^k (every entry but the leading one zero) is reduced by valuation: with
m = min(k, v(num)), where v is the order of vanishing at u = 0, the result
is c^-1 num/u^m over u^(k-m).  The only irreducible factor of u^k is u, so
gcd(num, c*u^k) is u^m and this is exactly the gcd reduction, found without
a Euclidean division.  Every other denominator goes through the monic gcd.
Both end with a monic denominator coprime to the numerator, and that form is
unique, so the path taken never shows in num, den, equality or hashes.  The
u-power denominators are the common case: F_p[u] is the paper's UFD R, and
most fractions its constructions produce have denominators c*u^k.  Products
and sums of such fractions stay u-powers: _umul shifts and scales when a
factor is a monomial, and __add__ adds over u^max(i, j).  Negation,
inversion and frob_power map canonical fractions to canonical fractions, so
they build their results without a reduction; frob_power returns a constant
of F_p itself, as a^p = a there.

The constants 0, 1, .., p-1 of each supported F_p exist once: from_int,
and every operation whose result lies in F_p, return the shared objects of
one table, _CONSTANTS, which poly's prime-field products hand out too.
Sharing is safe because a Coeff is never changed once built: only this
module assigns num and den, and only to a Coeff it is creating.

Elements of F_p[u, 1/u] (is_laurent) are also sums of terms a*u^k.
poly's packed products and substitutions read them as such (u_terms, with
each a as its residue, or num[0] for a constant of F_p) and hand the
u-terms of each result term back to from_u_terms, which builds the
canonical Coeff directly, so that building num and den stays this
module's business.

Dense polynomials are tuples of ints in [0, p), index = degree, with no
trailing zeros; the zero polynomial is the empty tuple.
"""

from .errors import DivisionByZero

SUPPORTED_PRIMES = (2, 3, 5, 7)


def check_prime(p):
    if p not in SUPPORTED_PRIMES:
        raise ValueError("characteristic must be one of %s, got %r"
                         % (SUPPORTED_PRIMES, p))
    return p


# ---------------------------------------------------------------------------
# dense univariate arithmetic over F_p
# ---------------------------------------------------------------------------

def _trim(cs):
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def _uadd(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = [(x + y) % p for x, y in zip(a, b)]
    out.extend(a[len(b):])
    return _trim(out)


def _uneg(a, p):
    return tuple((-c) % p for c in a)


def _umul(a, b, p):
    if not a or not b:
        return ()
    if any(a[:-1]):
        if any(b[:-1]):
            out = [0] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if ca:
                    for j, cb in enumerate(b):
                        if cb:
                            out[i + j] = (out[i + j] + ca * cb) % p
            return _trim(out)
        a, b = b, a
    # a = c*u^k: a shift and a scale instead of the double loop
    c = a[-1]
    if c != 1:
        b = tuple((x * c) % p for x in b)
    return (0,) * (len(a) - 1) + b


def _uscale(a, c, p):
    c %= p
    if c == 0:
        return ()
    return _trim([(x * c) % p for x in a])


def _udivmod(a, b, p):
    if not b:
        raise DivisionByZero("univariate division by zero")
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], p - 2, p)
    for i in range(len(a) - len(b), -1, -1):
        c = (a[i + len(b) - 1] * inv_lead) % p
        if c:
            q[i] = c
            for j, cb in enumerate(b):
                a[i + j] = (a[i + j] - c * cb) % p
    return _trim(q), _trim(a)


def _umonic(a, p):
    if not a:
        return a
    return _uscale(a, pow(a[-1], p - 2, p), p)


def _ugcd(a, b, p):
    while b:
        a, b = b, _udivmod(a, b, p)[1]
    return _umonic(a, p)


def _uval(a):
    """Order of vanishing at u = 0 (multiplicity of the factor u).  Found as
    the index of the first nonzero entry's value: both scans run in C."""
    for c in filter(None, a):
        return a.index(c)
    raise ValueError("valuation of zero polynomial")


def _ustr(a):
    if not a:
        return "0"
    parts = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append("u" if c == 1 else "%d*u" % c)
        else:
            parts.append("u^%d" % i if c == 1 else "%d*u^%d" % (c, i))
    return "+".join(parts)


# ---------------------------------------------------------------------------
# the field F_p(u)
# ---------------------------------------------------------------------------

class Coeff:
    """An element of F_p(u), canonically reduced."""

    __slots__ = ("p", "num", "den")

    def __init__(self, p, num, den=(1,)):
        self.p = p
        num = _trim(num)
        den = _trim(den)
        if not den:
            raise DivisionByZero("zero denominator")
        if not num:
            self.num, self.den = (), (1,)
            return
        if den == (1,):
            self.num, self.den = num, den
            return
        if not any(den[:-1]):
            # den = c*u^k: cancel u^m, m = min(k, v(num)), then scale by 1/c
            k = len(den) - 1
            m = min(k, _uval(num))
            num = num[m:]
            den = (0,) * (k - m) + den[-1:]
        else:
            g = _ugcd(num, den, p)
            if len(g) > 1:
                num = _udivmod(num, g, p)[0]
                den = _udivmod(den, g, p)[0]
        if den[-1] != 1:
            inv = pow(den[-1], p - 2, p)
            num = _uscale(num, inv, p)
            den = _uscale(den, inv, p)
        self.num, self.den = num, den

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_int(p, n):
        return _CONSTANTS[p][n % p]

    @staticmethod
    def u(p, power=1):
        if power >= 0:
            return _reduced(p, (0,) * power + (1,))
        return _reduced(p, (1,), (0,) * (-power) + (1,))

    @staticmethod
    def from_u_coeffs(p, coeffs):
        """coeffs[i] is the coefficient of u^i in the numerator."""
        return _reduced(p, tuple(c % p for c in coeffs))

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def is_integral(self):
        """Membership in R = F_p[u]."""
        return self.den == (1,)

    def is_constant(self):
        """Membership in the prime field F_p."""
        return len(self.num) <= 1 and self.den == (1,)

    def is_laurent(self):
        """Membership in F_p[u, 1/u]: the denominator is a power of u, all
        zeros below its leading 1."""
        den = self.den
        return len(den) == 1 or den.count(0) == len(den) - 1

    def is_one(self):
        return self.num == (1,) and self.den == (1,)

    def const_value(self):
        if not self.is_constant():
            raise ValueError("%s is not a prime-field constant" % self)
        return self.num[0] if self.num else 0

    def u_terms(self):
        """(k, a) pairs with self = sum(a*u^k), for self in F_p[u, 1/u]: one
        pair per nonzero term, a its residue in 1..p-1."""
        m = len(self.den) - 1
        return [(i - m, a) for i, a in enumerate(self.num) if a]

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Coeff):
            if other.p != self.p:
                raise ValueError("mixed characteristics %d and %d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return Coeff.from_int(self.p, other)
        return NotImplemented

    def __add__(self, other):
        if other.__class__ is not Coeff or other.p != self.p:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        p = self.p
        if self.den == (1,) and other.den == (1,):
            a, b = self.num, other.num
            if len(a) == 1 and len(b) == 1:
                return _CONSTANTS[p][(a[0] + b[0]) % p]
            return _canonical(p, _uadd(a, b, p))
        sd, od = self.den, other.den
        if not any(sd[:-1]) and not any(od[:-1]):
            # u^i and u^j: add over their lcm u^k, k = max(i, j), not u^(i+j)
            k = max(len(sd), len(od)) - 1
            num = _uadd((0,) * (k + 1 - len(sd)) + self.num,
                        (0,) * (k + 1 - len(od)) + other.num, p)
            return _reduced(p, num, (0,) * k + (1,))
        num = _uadd(_umul(self.num, od, p), _umul(other.num, sd, p), p)
        return _reduced(p, num, _umul(sd, od, p))

    __radd__ = __add__

    def __neg__(self):
        # -num/den is still reduced with a monic denominator
        return _canonical(self.p, _uneg(self.num, self.p), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not Coeff or other.p != self.p:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        p = self.p
        if self.den == (1,) and other.den == (1,):
            a, b = self.num, other.num
            if len(a) == 1 and len(b) == 1:
                return _CONSTANTS[p][a[0] * b[0] % p]
            return _canonical(p, _umul(a, b, p))
        return _reduced(p, _umul(self.num, other.num, p),
                        _umul(self.den, other.den, p))

    __rmul__ = __mul__

    def inv(self):
        if not self.num:
            raise DivisionByZero("inverse of zero")
        # den/num is still reduced; only the new denominator needs making monic
        p = self.p
        inv = pow(self.num[-1], p - 2, p)
        return _canonical(p, _uscale(self.den, inv, p), _uscale(self.num, inv, p))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        out = Coeff.from_int(self.p, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def frob_power(self, k):
        """self**(p**k), using a^p = a on F_p scalars: only u-degrees dilate,
        so a constant of F_p, zero included, is its own result."""
        if k == 0 or (len(self.num) <= 1 and len(self.den) == 1):
            return self
        q = self.p ** k

        def dilate(cs):
            out = [0] * ((len(cs) - 1) * q + 1)
            for i, c in enumerate(cs):
                out[i * q] = c
            return tuple(out)

        # a(u^q) = a(u)^q over F_p, so the dilated fraction stays reduced, and
        # leading coefficients do not move, so its denominator stays monic
        return _canonical(self.p, dilate(self.num), dilate(self.den))

    # -- structure -----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = Coeff.from_int(self.p, other)
        if not isinstance(other, Coeff):
            return NotImplemented
        return self.p == other.p and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den == (1,):
            return _ustr(self.num)
        num = _ustr(self.num)
        den = _ustr(self.den)
        if sum(1 for c in self.num if c) > 1:
            num = "(%s)" % num
        if sum(1 for c in self.den if c) > 1:
            den = "(%s)" % den
        return "%s/%s" % (num, den)

    def __repr__(self):
        return "Coeff(p=%d, %s)" % (self.p, self)


def _canonical(p, num, den=(1,)):
    """The Coeff num/den for trimmed num, den with entries in [0, p) that
    are already canonical: den monic and coprime to num, and (1,) when num
    is zero.  The reduction in Coeff.__init__ is skipped, and a constant of
    F_p is the shared entry of _CONSTANTS."""
    if len(num) < 2 and len(den) == 1:
        return _CONSTANTS[p][num[0] if num else 0]
    out = object.__new__(Coeff)
    out.p, out.num, out.den = p, num, den
    return out


def _reduced(p, num, den=(1,)):
    """Coeff(p, num, den), or the shared constant of F_p it equals."""
    out = Coeff(p, num, den)
    if len(out.num) < 2 and len(out.den) == 1:
        return _CONSTANTS[p][out.num[0] if out.num else 0]
    return out


# p -> (0, 1, .., p-1) as canonical constant Coeffs, shared by every caller
_CONSTANTS = {p: tuple(Coeff(p, (k,)) for k in range(p))
              for p in SUPPORTED_PRIMES}


def from_u_terms(p, groups):
    """{key: the Coeff sum(a*u^k)} for a dict of nonempty lists of (k, a)
    pairs with distinct k, each a a residue in 1..p-1 (as u_terms gives
    them).  A constant is the shared constant of F_p, and each distinct
    monomial a*u^k is built once and shared by every key that has it."""
    consts = _CONSTANTS[p]
    monomials = {}
    out = {}
    for key, terms in groups.items():
        if len(terms) > 1:
            out[key] = _from_u_terms(p, terms)
            continue
        k, a = terms[0]
        if not k:
            out[key] = consts[a]
            continue
        mono = k * p + a                    # one int per (k, a)
        got = monomials.get(mono)
        if got is None:
            got = monomials[mono] = _from_u_terms(p, terms)
        out[key] = got
    return out


def _from_u_terms(p, terms):
    """sum(a*u^k), canonical as built: over u^-lo when the least k, lo, is
    negative (its term makes the numerator prime to u), else integral."""
    ks = [k for k, _ in terms]
    lo = min(ks)
    num = [0] * (max(ks) - lo + 1)
    for k, a in terms:
        num[k - lo] = a
    if lo < 0:
        return _canonical(p, tuple(num), (0,) * -lo + (1,))
    return _canonical(p, (0,) * lo + tuple(num))


def coeff_gcd_integral(values):
    """Monic gcd in F_p[u] of a nonempty iterable of integral Coeffs."""
    values = list(values)
    p = values[0].p
    g = ()
    for v in values:
        if not v.is_integral():
            raise ValueError("gcd over F_p[u] needs integral operands")
        g = _ugcd(g, v.num, p)
        if g == (1,):
            break
    return _reduced(p, g)
