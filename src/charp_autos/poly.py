"""Sparse multivariate polynomials over F_p(u).

MultiPoly maps exponent tuples to nonzero Coeffs.  An exponent tuple holds
one slot per variable of the VarTable, in its order, followed by one slot
for the action parameter T, which every table reserves.  Checks that need a
second parameter (axiom (A2) in gaction) lift their operands into a table
with one more variable.

No exponent is ever negative: var, monomial and ** raise NegativeExponent
for one, and sums, products, substitutions and exact quotients of
polynomials stay polynomials.  Only coefficients are inverted.  Powers use
the base-p expansion of the exponent so that Frobenius powers f^(p^k) cost
one pass over the terms.

Sums, the products and substitutions that do not pack, and the remainder
of exact_div build their result through one in-place accumulator,
_accumulate.

Products and substitutions whose coefficients all lie in F_p[u, 1/u] (a
denominator that is a power of u; F_p included) may run on packed
monomials (Monagan & Pearce, JSC 2011).  _layout makes each exponent slot
that is not always 0 a mixed-radix digit, and the exponent k of u in an
F_p term a*x^e*u^k the most significant digit, which may take either sign,
so that x^e*u^k packs into one int and a product of two such terms is one
int addition, with no carry between digits.  _pack encodes a term dict once,
as its keys grouped by residue a.  _products is the one product loop: it
sums the coefficient products of each key as plain ints (as in sympy's
galoistools gf_mul).  _unpack reduces each sum mod p and decodes each
result key once, and coeffs.from_u_terms builds every Coeff from the
u-terms under one exponent tuple.

MultiPoly.__mul__ has two paths.  A product of at least
_PACK_MIN_PRODUCTS = 32 term products, with more than one term in each
operand and every coefficient in F_p[u, 1/u], runs _packed_product.  Every
other product runs the _accumulate loop, which reduces a fraction per term
product.  The size test comes first, so a smaller product never scans its
coefficients, and on F_p the loop allocates no Coeff: coeffs hands out one
shared constant per residue.  Encoding both operands and decoding the
result cost more than they save on small products, and a one-term operand
saves nothing, since each of its term products is a result term of its
own.

Packed/loop time ratios by term products, replaying the recorded products
(both operands above one term, every coefficient in F_p[u, 1/u]) of the
seeded-instances, rank3 and gallery-axioms workloads at seed 7 (2 cores,
Python 3.11), first those with every coefficient in F_p, then the others:

    term products   < 8  < 16  < 24  < 32  < 48  < 64  < 128  < 256  < 2048
    F_p            2.83  1.95  1.39  1.10  0.83  0.75   0.56   0.45    0.20
    F_p[u, 1/u]    2.64  1.86  1.24  0.95  0.81  0.82   0.34   0.47       -

and 0.14 for the 12 F_p products above 2048.  Both ratios cross 1 between
24 and 32 term products, so one threshold serves both.  On the same replay
the threshold 32 is within 1 ms of the best of 16, 24, 32, 48, 64 and 128
on every workload: 31.1 and 129.2 ms for the F_p and the other products of
seeded-instances (45.5 and 134.1 ms with none packed), 38.5 ms on rank3
(238.6) and 7.0 ms on gallery-axioms (12.5).

MultiPoly.substitute has two paths too.  A call where len(f.terms) times
the total term count of the images of the variables that f uses (an image
equal to its variable left out) is at least _PACK_MIN_SUBSTITUTION = 64,
and every coefficient of f and of those images lies in F_p[u, 1/u], runs
_packed_substitute.  It packs f and each image once, on one layout for the
whole call, whose digit for slot i runs from 0 to the largest degree in
slot i that a term of the result can reach, so that every image power and
partial product of the call shares the layout; a Frobenius power g^(p^k)
of a packed g is its keys times p^k, as a^p = a on F_p.  Every other call
multiplies out each term's product of cached image powers with __mul__ and
accumulates it Coeff by Coeff.  Packed/loop time ratios by those term
pairs, replaying the recorded calls of the same workloads at seed 7 that
have every coefficient in F_p[u, 1/u]:

    term pairs   < 8  < 16  < 24  < 32  < 48  < 64  < 96  < 128  < 256  < 4096
    packed/loop 2.43  1.44  1.28  1.11  1.06  0.92  0.60   0.62   0.18    0.43

The ratio crosses 1 between 48 and 64 term pairs.  By threshold 32, 48,
64, 128 or none, the calls took 377, 376, 378, 395 and 410 ms on
seeded-instances and 68, 68, 69, 88 and 233 ms on gallery-axioms; rank3's
5.7 ms do not move.  At 64 no suite of the three workloads is more than
0.1 ms slower than with none packed, at seed 7 and at seed 4242 alike.
Counting the images of variables that f does not use as well would pack
the axiom checks of the rank-r action, which substitute every generator
into images that each use one of them, at 5 to 7 times the loop's time.

Every table memoizes the powers of two-term bases.  The automorphisms and
actions here are built from translations x_i + c, so compositions, Taylor
shifts and averaging weights such as (x1 + j*a)^(p-1) raise the same few
binomials to the same powers, mostly held in fresh objects: a seed-7 pass
of seeded-instances, set-up included, makes 14,875 ** calls, 4,212 of them
on a two-term base with e >= 2, and 3,778 of those repeat an earlier (base,
e) of their table.  MultiPoly.__pow__ keys such a power by the frozenset
of the base's terms and e in VarTable._pow_memo, and a hit wraps the stored
term dict in a new MultiPoly, which is safe as no term dict changes once
built.  The memo holds term dicts, not polynomials, so that no table holds
objects that point back at it, which only the cycle collector would free.
e = 0 and 1 and bases of one term cost next to nothing to recompute.
Memoizing the bases of three terms or more as well raised a seed-7 pass's
peak RSS from 17.6 to 20.9 MB, against 17.9 MB for two-term bases alone,
and was no faster.  The largest memo of a table over the three workloads
at seed 7 holds 69 entries with 231 result terms (seeded-instances; 15 on
gallery-axioms, 2 on rank3), and _POW_MEMO_MAX = 256 clears a memo that
would pass it.  The traced seed-7 pass of seeded-instances makes 3,622
products instead of 7,774, and its verdict_s fell from 1.032 to 0.948 s
(medians of ten alternating pairs of perfbench/run.py --seconds 25, 2
cores, Python 3.11; faster in nine), and from 0.997 to 0.923 s at seed
4242 (three pairs, faster in all three).

substitute tells an image equal to its variable by the unit exponents of
VarTable._units instead of building var(name), __sub__ negates no copy,
scale(1) returns self and compose builds one assignment.

substitute_all is the one substitution loop.  MultiPoly.substitute is its
one-polynomial case, and endo.compose resolves phi's assignment once and
substitutes it into all of psi's images with one cache of image powers.
VarTable.affine builds an affine image c0 + sum(c_i * x_i), plus a
polynomial when given, as one term dict; the map builders of endo, plane
and expo use it in place of sums of var, scale and const temporaries.

exact_div is plain leading-term division: each step finds the leading
term of the remainder with max over its keys, at a cost linear in the
remainder's size.  A seed-7 run of every case of the three workloads makes
60 calls (54 on gallery-axioms, 6 on rank3, none on seeded-instances), with
at most 20 dividend and 10 divisor terms; replaying them takes 0.64 ms,
against 0.86 ms with a min-heap of remainder keys (Johnson 1974; Monagan &
Pearce, JSC 2011), which exact_div kept while rank3 divided operands of
about 47k terms (best of 20 replays, 2 cores, Python 3.11).  The heap pays
on larger remainders: dividing dense products of F_7 polynomials in two
variables by a three-term divisor, the two break even near 12 dividend
terms, and the plain loop takes 1.6, 4.2 and 13 times as long at 47, 214
and 781 (0.41 against 0.25 ms, 5.5 against 1.3 ms, 64 against 4.9 ms).  No
workload, suite or gallery parameter range divides more than 20 terms.  Term dicts stay keyed by exponent tuples;
packing every table's monomials into ints measured no gain on rank3.
"""

from itertools import compress, repeat
from operator import add, eq, floordiv, mod, mul, sub

from .coeffs import (Coeff, _CONSTANTS, check_prime, coeff_gcd_integral,
                     from_u_terms)
from .errors import (NegativeExponent, NonIntegralCoefficient, NotDivisible,
                     ZeroPolynomial)

RESERVED = ("T",)


class VarTable:
    """Ordered ring variables plus the reserved action parameter T; no
    variable may be named u, which text reads as the coefficient parameter."""

    __slots__ = ("p", "names", "all_names", "index", "_vcount", "_units",
                 "_pow_memo")

    def __init__(self, p, names):
        self.p = check_prime(p)
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for r in RESERVED:
            if r in names:
                raise ValueError("%r is reserved for the action parameter" % r)
        if "u" in names:
            raise ValueError("'u' is reserved for the coefficient parameter")
        self.names = names
        self.all_names = names + RESERVED
        self.index = {n: i for i, n in enumerate(self.all_names)}
        self._vcount = len(self.all_names)
        self._units = tuple(tuple(int(i == j) for j in self.index.values())
                            for i in self.index.values())
        # (frozenset of a two-term base's terms, e) -> the terms of its
        # e-th power, e >= 2; filled and read only by MultiPoly.__pow__
        self._pow_memo = {}

    @property
    def nvars(self):
        return len(self.names)

    def zero_exp(self):
        return (0,) * self._vcount

    def const(self, c):
        c = self.coeff(c)
        if c.is_zero():
            return MultiPoly(self, {})
        return MultiPoly(self, {self.zero_exp(): c})

    def zero(self):
        return MultiPoly(self, {})

    def one(self):
        return self.const(1)

    def var(self, name, exponent=1):
        i = self.index[name]
        if exponent < 0:
            raise NegativeExponent("negative power of %s" % name)
        exp = [0] * self._vcount
        exp[i] = exponent
        return MultiPoly(self, {tuple(exp): Coeff.from_int(self.p, 1)})

    def affine(self, const, coeffs, rest=None):
        """const + sum(c * x for x, c in coeffs.items()), plus the
        polynomial rest of this table when given, built as one term dict:
        zero coefficients are dropped, and rest's terms are added in place.
        Coefficients may be ints or Coeffs."""
        out = {}
        units = self._units
        index = self.index
        for name, c in coeffs.items():
            c = self.coeff(c)
            if c:
                out[units[index[name]]] = c
        const = self.coeff(const)
        if const:
            out[self.zero_exp()] = const
        if rest is not None:
            if rest.table is not self and rest.table != self:
                raise ValueError("mixed variable tables")
            _accumulate(out, rest.terms.items())
        return MultiPoly(self, out)

    def monomial(self, coeff, **powers):
        coeff = self.coeff(coeff)
        exp = [0] * self._vcount
        for name, e in powers.items():
            if e < 0:
                raise NegativeExponent("negative power of %s" % name)
            exp[self.index[name]] = e
        if coeff.is_zero():
            return self.zero()
        return MultiPoly(self, {tuple(exp): coeff})

    def coeff(self, c):
        """c as a Coeff of this table's F_p(u); a Coeff of another
        characteristic raises ValueError."""
        if isinstance(c, int):
            return Coeff.from_int(self.p, c)
        if c.p != self.p:
            raise ValueError("mixed characteristics %d and %d"
                             % (self.p, c.p))
        return c

    def parse(self, text):
        from .textio import parse_poly
        return parse_poly(self, text)

    def __eq__(self, other):
        if other is self:
            return True
        return (isinstance(other, VarTable) and self.p == other.p
                and self.names == other.names)

    def __hash__(self):
        return hash((self.p, self.names))

    def __repr__(self):
        return "VarTable(p=%d, %s)" % (self.p, ",".join(self.names))


def _grlex_key(exp):
    return (sum(exp), exp)


def _accumulate(out, pairs):
    """Add (exponents, coefficient) pairs into the term dict out, in place;
    a term that cancels is deleted.  Coefficients are nonzero, so a product
    of two of them is too (F_p(u) is a field)."""
    for e, c in pairs:
        cur = out.get(e)
        if cur is None:
            out[e] = c
        else:
            c = cur + c
            if c.is_zero():
                del out[e]
            else:
                out[e] = c


# Products of at least this many term products, with more than one term in
# each operand and every coefficient in F_p[u, 1/u], take _packed_product;
# substitutions of at least this many term pairs, len(f.terms) times the
# term count of the images of the variables f uses, take _packed_substitute
# (see the module docstring).
_PACK_MIN_PRODUCTS = 32
_PACK_MIN_SUBSTITUTION = 64

# A table's memo of two-term powers is cleared when it holds this many
# entries (see the module docstring).
_POW_MEMO_MAX = 256


def _layout(hi):
    """(weights, radices, top): packed keys for exponent tuples whose slot i
    lies in 0..hi[i].  A slot with hi[i] > 0 is a mixed-radix digit of span
    hi[i] + 1; weights holds each slot's weight (0 on a slot fixed at 0) and
    radices the (slot, span) of the digits, low digit first.  top is the
    weight of the u exponent, the most significant digit, which may take
    either sign."""
    weights = []
    radices = []
    w = 1
    for i, h in enumerate(hi):
        if h:
            radices.append((i, h + 1))
            weights.append(w)
            w *= h + 1
        else:
            weights.append(0)
    return weights, radices, w


def _pack(p, terms, weights, top):
    """A term dict over F_p[u, 1/u] as packed keys grouped by residue: a
    list whose entry a holds the key sum(e[i] * weights[i]) + k * top of
    each F_p term a*x^e*u^k (entry 0 stays empty)."""
    out = [[] for _ in range(p)]
    for e, c in terms.items():
        key = sum(map(mul, e, weights))
        # a constant of F_p is read as its one residue: a call of u_terms
        # per term left the rank3 workload ~4% slower than a kernel for
        # F_p alone
        num = c.num
        if len(num) == 1 and len(c.den) == 1:
            out[num[0]].append(key)
        else:
            for k, a in c.u_terms():
                out[a].append(key + k * top)
    return out


def _products(acc, lhs, rhs):
    """Add every term product of the packed operands lhs and rhs into acc,
    {key: int}, as plain ints with no reduction: a term product is one int
    addition of keys, as no digit carries, and the keys of one residue
    pair share one coefficient product."""
    if sum(map(len, lhs)) > sum(map(len, rhs)):
        lhs, rhs = rhs, lhs
    rhs = [(b, keys) for b, keys in enumerate(rhs) if keys]
    get = acc.get
    for a, keys1 in enumerate(lhs):
        for key1 in keys1:
            for b, keys2 in rhs:
                k = a * b
                for key2 in keys2:
                    key = key1 + key2
                    acc[key] = get(key, 0) + k
    return acc


def _reduce(p, acc):
    """acc, {key: int}, as a packed operand: its sums mod p, grouped by
    residue."""
    residues = list(map(mod, acc.values(), repeat(p)))
    return [[]] + [list(compress(acc, map(eq, residues, repeat(a))))
                   for a in range(1, p)]


def _unpack(p, acc, top, radices, n):
    """The term dict of acc, {key: int}, packed by _layout's weights on n
    exponent slots: sums reduced mod p once per key, and every Coeff built
    by coeffs.from_u_terms from the u-terms under one exponent tuple.  When
    no key leaves 0..top - 1, no u exponent is nonzero and the coefficients
    are the shared constants of F_p."""
    keys = []
    residues = []
    for key, k in acc.items():
        k %= p
        if k:
            keys.append(key)
            residues.append(k)
    if not keys:
        return {}
    if min(keys) >= 0 and max(keys) < top:
        coeffs = map(_CONSTANTS[p].__getitem__, residues)
    else:
        groups = {}
        for key, term in zip(map(mod, keys, repeat(top)),
                             zip(map(floordiv, keys, repeat(top)), residues)):
            got = groups.get(key)
            if got is None:
                groups[key] = [term]
            else:
                got.append(term)
        groups = from_u_terms(p, groups)
        keys = list(groups)
        coeffs = groups.values()
    # the result's exponent columns: digit by digit, low digit first
    columns = [repeat(0)] * n
    for i, span in radices:
        columns[i] = map(mod, keys, repeat(span))
        keys = list(map(floordiv, keys, repeat(span)))
    return dict(zip(zip(*columns), coeffs))


def _packed_product(p, lhs, rhs):
    """Product of two term dicts over F_p[u, 1/u] on packed keys.

    Slot i of a product exponent is at most hi[i], the sum of the operands'
    largest exponents there, so the key of a term product is the sum of its
    factors' keys, and each result key is decoded once.
    """
    hi = list(map(add, map(max, zip(*lhs)), map(max, zip(*rhs))))
    weights, radices, top = _layout(hi)
    acc = _products({}, *(_pack(p, h, weights, top) for h in (lhs, rhs)))
    return _unpack(p, acc, top, radices, len(hi))


def _packed_substitute(p, terms, images):
    """The term dict of sum(c * x^e) under x_j -> images[j] (a term dict
    each), every coefficient in F_p[u, 1/u], on packed keys.

    Slot i of the result is at most the largest, over the terms of f, of
    its own exponent there (0 when it is substituted) plus sum(e[j] *
    deg_i(images[j])), so slot i is a digit of span that bound plus one and
    every partial product fits the layout.  f and each image are packed
    once.  An image's power is the product of Frobenius powers of its
    powers below p, one per base-p digit of the exponent, and the Frobenius
    power (g^d)^(p^k) multiplies each key of g^d by p^k with its residue
    unchanged.  Terms of f that share their substituted exponents are
    multiplied by their product of image powers together.
    """
    n = len(next(iter(terms)))
    cols = list(zip(*terms))
    degrees = {j: [max(col) for col in zip(*img)] or [0] * n
               for j, img in images.items()}
    bounds = []
    for i in range(n):
        vals = repeat(0, len(terms)) if i in images else cols[i]
        for j, deg in degrees.items():
            if deg[i]:
                vals = map(add, vals, map(mul, cols[j], repeat(deg[i])))
        bounds.append(max(vals))
    weights, radices, top = _layout(bounds)
    slots = list(images)
    packed = {j: _pack(p, img, weights, top) for j, img in images.items()}
    powers = {j: {} for j in slots}

    def power(j, e):
        """images[j]^e, packed, cached."""
        cache = powers[j]
        got = cache.get(e)
        if got is None:
            if e < p:
                got = (packed[j] if e == 1 else
                       _reduce(p, _products({}, power(j, e - 1), packed[j])))
            else:
                q = 1
                rest = e
                while rest:
                    rest, d = divmod(rest, p)
                    if d:
                        piece = [list(map(mul, keys, repeat(q)))
                                 for keys in power(j, d)]
                        got = (piece if got is None else
                               _reduce(p, _products({}, got, piece)))
                    q *= p
            cache[e] = got
        return got

    # the terms of f grouped by their substituted exponents, each group
    # packed with those exponents set to 0
    kept = list(weights)
    for j in slots:
        kept[j] = 0
    groups = {}
    for e, c in terms.items():
        sub = tuple(map(e.__getitem__, slots))
        got = groups.get(sub)
        if got is None:
            groups[sub] = {e: c}
        else:
            got[e] = c
    one = [[], [0]]                         # the packed 1
    acc = {}
    for sub, g in groups.items():
        g = _pack(p, g, kept, top)
        prod = one
        for j, e in zip(slots, sub):
            if e:
                piece = power(j, e)
                prod = (piece if prod is one else
                        _reduce(p, _products({}, prod, piece)))
        _products(acc, g, prod)
    return _unpack(p, acc, top, radices, n)


class MultiPoly:
    __slots__ = ("table", "terms")

    def __init__(self, table, terms):
        self.table = table
        self.terms = terms

    # -- basic structure -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.table.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]),
                      reverse=True)

    def leading_term(self):
        if not self.terms:
            raise ZeroPolynomial("leading term of zero")
        exp = max(self.terms, key=_grlex_key)
        return exp, self.terms[exp]

    def total_degree(self):
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def _is_var(self, i):
        """Is this the variable of exponent slot i, with coefficient 1?"""
        c = self.terms.get(self.table._units[i])
        return len(self.terms) == 1 and c is not None and c.is_one()

    def uses_var(self, name):
        i = self.table.index[name]
        return any(e[i] for e in self.terms)

    def constant_term(self):
        return self.terms.get(self.table.zero_exp(),
                              Coeff.from_int(self.table.p, 0))

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1
                                  and self.table.zero_exp() in self.terms)

    def coeff_of(self, **powers):
        exp = [0] * len(self.table.all_names)
        for name, e in powers.items():
            exp[self.table.index[name]] = e
        return self.terms.get(tuple(exp), Coeff.from_int(self.table.p, 0))

    def monomials_of_degree(self, d):
        terms = {e: c for e, c in self.terms.items() if sum(e) == d}
        return MultiPoly(self.table, terms)

    def linear_part(self):
        """Terms of total degree exactly one."""
        return self.monomials_of_degree(1)

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.table is not self.table and other.table != self.table:
                raise ValueError("mixed variable tables")
            return other
        if isinstance(other, (int, Coeff)):
            return self.table.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if len(self.terms) < len(other.terms):
            self, other = other, self
        out = dict(self.terms)
        _accumulate(out, other.terms.items())
        return MultiPoly(self.table, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.table, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # copy the larger operand, so the terms keep the order of self + -other
        if len(self.terms) < len(other.terms):
            out = {e: -c for e, c in other.terms.items()}
            _accumulate(out, self.terms.items())
        else:
            out = dict(self.terms)
            _accumulate(out, ((e, -c) for e, c in other.terms.items()))
        return MultiPoly(self.table, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms or not other.terms:
            return self.table.zero()
        lhs, rhs = self.terms, other.terms
        if len(lhs) > len(rhs):
            lhs, rhs = rhs, lhs
        if (len(lhs) > 1 and len(lhs) * len(rhs) >= _PACK_MIN_PRODUCTS
                and all(map(Coeff.is_laurent, lhs.values()))
                and all(map(Coeff.is_laurent, rhs.values()))):
            return MultiPoly(self.table,
                             _packed_product(self.table.p, lhs, rhs))
        out = {}
        rhs = rhs.items()
        for e1, c1 in lhs.items():
            _accumulate(out, ((tuple(map(add, e1, e2)), c1 * c2)
                              for e2, c2 in rhs))
        return MultiPoly(self.table, out)

    __rmul__ = __mul__

    def scale(self, c):
        c = self.table.coeff(c)
        if c.is_zero():
            return self.table.zero()
        if c.is_one():
            return self
        return MultiPoly(self.table, {e: k * c for e, k in self.terms.items()})

    def frob(self, k=1):
        """Frobenius power f^(p^k): exact in characteristic p."""
        if k == 0:
            return self
        q = self.table.p ** k
        return MultiPoly(self.table,
                         {tuple(x * q for x in e): c.frob_power(k)
                          for e, c in self.terms.items()})

    def __pow__(self, e):
        if e < 0:
            raise NegativeExponent("negative power of a polynomial")
        if e == 0:
            return self.table.one()
        if e == 1:
            return self
        if len(self.terms) != 2:
            return self._power(e)
        memo = self.table._pow_memo
        key = (frozenset(self.terms.items()), e)
        got = memo.get(key)
        if got is None:
            got = self._power(e).terms
            if len(memo) >= _POW_MEMO_MAX:
                memo.clear()
            memo[key] = got
        return MultiPoly(self.table, got)

    def _power(self, e):
        """self^e, e >= 1, as a product of Frobenius powers of self^d, one
        per nonzero base-p digit d of e."""
        p = self.table.p
        out = None
        base = self
        k = 0
        while e:
            digit = e % p
            e //= p
            if digit:
                piece = base.frob(k)
                acc = piece
                for _ in range(digit - 1):
                    acc = acc * piece
                out = acc if out is None else out * acc
            k += 1
        return out

    # -- substitution --------------------------------------------------------

    def substitute(self, assignment):
        """Image under the ring homomorphism sending each named variable to
        its assigned polynomial (simultaneously); unassigned variables map to
        themselves.  Values may be MultiPoly, Coeff or int.

        This is the one-polynomial case of substitute_all.
        """
        return substitute_all(self.table, (self,), assignment)[0]

    def subs_T(self, value):
        return self.substitute({"T": value})

    # -- coefficient-wise queries ---------------------------------------------

    def map_coeffs(self, fn):
        out = {}
        for e, c in self.terms.items():
            v = fn(c)
            if not v.is_zero():
                out[e] = v
        return MultiPoly(self.table, out)

    def truncate_u(self, e):
        """This polynomial modulo u^e: each coefficient, which must lie in
        F_p[u, 1/u], keeps its terms a*u^k with k < e, negative k included.
        Any other denominator raises ValueError, as its expansion in u does
        not end."""
        groups = {}
        for exp, c in self.terms.items():
            if not c.is_laurent():
                raise ValueError("%s is not in F_p[u, 1/u]" % c)
            low = [(k, a) for k, a in c.u_terms() if k < e]
            if low:
                groups[exp] = low
        return MultiPoly(self.table, from_u_terms(self.table.p, groups))

    def __str__(self):
        from .textio import poly_to_str
        return poly_to_str(self)

    def __repr__(self):
        return "MultiPoly(%s)" % self


# ---------------------------------------------------------------------------
# module operations
# ---------------------------------------------------------------------------

def substitute_all(table, fs, assignment):
    """[f.substitute(assignment) for f in fs], the polynomials fs of table:
    the one substitution loop, of MultiPoly.substitute and endo.compose.

    The assignment is resolved to exponent slots once, leaving out each
    image equal to its variable; an f with no terms, or every f when no
    image is left, is returned itself.  Two paths per f.  When
    len(f.terms) times the total term count of the images of variables
    that occur in f is at least _PACK_MIN_SUBSTITUTION, and every
    coefficient of f and of those images is in F_p[u, 1/u],
    _packed_substitute packs that call once.  Otherwise each term's
    product of image powers, from one cache for all of fs, is multiplied
    out and accumulated Coeff by Coeff.
    """
    images = {}
    for name, val in assignment.items():
        idx = table.index[name]
        if isinstance(val, (int, Coeff)):
            val = table.const(val)
        if val.table is not table and val.table != table:
            raise ValueError("substitution image in a different table")
        if not val._is_var(idx):
            images[idx] = val
    if not images:
        return list(fs)
    total = sum(len(g.terms) for g in images.values())
    power_cache = {idx: {1: g} for idx, g in images.items()}
    one = _CONSTANTS[table.p][1]
    results = []
    for f in fs:
        terms = f.terms
        n = len(terms)
        if not n:
            results.append(f)
            continue
        if n * total >= _PACK_MIN_SUBSTITUTION:
            # only the images of variables that occur in f count
            cols = list(zip(*terms))
            used = {idx: g.terms for idx, g in images.items()
                    if any(cols[idx])}
            if (n * sum(map(len, used.values())) >= _PACK_MIN_SUBSTITUTION
                    and all(map(Coeff.is_laurent, terms.values()))
                    and all(all(map(Coeff.is_laurent, g.values()))
                            for g in used.values())):
                results.append(MultiPoly(
                    table, _packed_substitute(table.p, terms, used)))
                continue
        out = {}
        for exp, c in terms.items():
            base = list(exp)
            prod = None
            for idx, cache in power_cache.items():
                e = base[idx]
                if e:
                    base[idx] = 0
                    g = cache.get(e)
                    if g is None:
                        g = cache[e] = images[idx] ** e
                    prod = g if prod is None else prod * g
            # a zero image gives a zero (falsy) prod: test for None only
            if prod is None:
                _accumulate(out, ((tuple(base), c),))
            else:
                pairs = prod.terms.items()
                if any(base):
                    pairs = [(tuple(map(add, base, e2)), c2)
                             for e2, c2 in pairs]
                _accumulate(out, pairs if c is one else
                            ((e2, c * c2) for e2, c2 in pairs))
        results.append(MultiPoly(table, out))
    return results


def exact_div(f, g):
    """Exact quotient f/g, or NotDivisible: leading-term division.

    Each step takes the graded-lex leading term of the remainder, the rule
    of leading_term, and subtracts q*g from it in place through _accumulate,
    without the leading monomial, which cancels by construction.  A leading
    remainder term that the leading term of g does not divide has no
    quotient term, so f is then not a multiple of g.  Quotient terms come
    out in descending graded-lex order.
    """
    if g.is_zero():
        raise ZeroPolynomial("division by the zero polynomial")
    if f.is_zero():
        return f.table.zero()
    table = f.table
    if table is not g.table and table != g.table:
        raise ValueError("mixed variable tables")
    lg_exp, lg_coeff = g.leading_term()
    lg_inv = lg_coeff.inv()
    # -g without its leading term
    neg_tail = [(e, -c) for e, c in g.terms.items() if e != lg_exp]
    rem = dict(f.terms)
    qterms = {}
    while rem:
        lr_exp = max(rem, key=_grlex_key)
        q_exp = tuple(map(sub, lr_exp, lg_exp))
        if min(q_exp) < 0:
            raise NotDivisible("no exact quotient")
        qc = rem.pop(lr_exp) * lg_inv
        qterms[q_exp] = qc
        _accumulate(rem, [(tuple(map(add, q_exp, e)), qc * c)
                          for e, c in neg_tail])
    return MultiPoly(table, qterms)


def content(f):
    """The content of f over F_p[u]: the monic gcd of its coefficients."""
    if f.is_zero():
        raise ZeroPolynomial("content of the zero polynomial")
    for c in f.terms.values():
        if not c.is_integral():
            raise NonIntegralCoefficient("coefficient %s is not in F_p[u]" % c)
    return coeff_gcd_integral(f.terms.values())


def content_primitive(f):
    """(content, primitive part) over F_p[u]; the primitive part has
    content 1."""
    c = content(f)
    if c.is_one():
        return c, f
    return c, f.map_coeffs(lambda v: v / c)


def is_polynomial_over(f):
    """Membership in R[x1..xn, T], R = F_p[u]: every coefficient in F_p[u].

    Returns (ok, witness) where witness is the graded-lex least offending
    (exponents, coeff) pair, or None.
    """
    offenders = [(e, c) for e, c in f.terms.items() if not c.is_integral()]
    if not offenders:
        return True, None
    return False, min(offenders, key=lambda kv: _grlex_key(kv[0]))


def express_in_invariant(q, var, a):
    """Write a univariate q as q1(w) + rem with w = var^p - a^(p-1)*var.

    rem collects the monomials var^i with p not dividing i.  q1 is returned
    as a polynomial in var whose variable stands for w.

    The exponents of var are walked downward over one mutable dict: when
    p | m the term c*var^m goes to q1 as c*var^(m/p) and c*w^(m/p) is
    subtracted (w is monic, so this cancels it and changes only lower
    terms); otherwise it goes to rem.
    """
    table = q.table
    p = table.p
    idx = table.index[var]
    for e in q.terms:
        if any(x and i != idx for i, x in enumerate(e)):
            raise ValueError("polynomial is not univariate in %s" % var)
    w = table.var(var, p) - table.var(var).scale(a ** (p - 1))
    zero = table.zero_exp()

    def power(m):
        return zero[:idx] + (m,) + zero[idx + 1:]

    work = dict(q.terms)
    q1 = {}
    rem = {}
    top = max((e[idx] for e in work), default=-1)
    for m in range(top, -1, -1):
        exp = power(m)
        c = work.get(exp)
        if c is None:
            continue
        if m % p:
            rem[exp] = c
        else:
            q1[power(m // p)] = c
            _accumulate(work, ((e, -c * k)
                               for e, k in (w ** (m // p)).terms.items()))
    return MultiPoly(table, q1), MultiPoly(table, rem)


def linear_span_dim(gens):
    """Dimension of the k-span of linear parts of the algebra k[gens].

    Translating each generator by its value at 0 leaves the algebra and the
    linear parts unchanged, and products of constant-free elements have no
    linear part, so the span is that of the generators' own linear parts.
    """
    gens = list(gens)
    if not gens:
        return 0
    table = gens[0].table
    n = table.nvars
    rows = []
    for g in gens:
        if g.table != table:
            raise ValueError("mixed variable tables")
        lin = g.linear_part()
        row = [lin.coeff_of(**{name: 1}) for name in table.names]
        rows.append(row)
    basis = []
    pivots = []
    for row in rows:
        row = list(row)
        for prow, pcol in zip(basis, pivots):
            if not row[pcol].is_zero():
                factor = row[pcol] / prow[pcol]
                row = [a - factor * b for a, b in zip(row, prow)]
        col = next((j for j in range(n) if not row[j].is_zero()), None)
        if col is not None:
            basis.append(row)
            pivots.append(col)
    return len(basis)
