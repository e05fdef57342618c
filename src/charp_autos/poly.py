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

Sums, products and substitutions all build their result through one in-place
accumulator, _accumulate.  exact_div keeps its own merge loop, because a term
it adds to the remainder must also be pushed onto its heap of live keys.

MultiPoly.__mul__ has two paths.  A product of at least
_PACK_MIN_PRODUCTS = 32 term products, with more than one term in each
operand and every coefficient in F_p[u, 1/u] (a denominator that is a
power of u), takes the packed kernel _fp_product.  It packs each exponent
tuple into one int, mixed radix over the slots that vary in this product
(packed monomials as in Monagan & Pearce, JSC 2011), so a term product is
one int addition and each result term is decoded once; the coefficient
products are summed as plain ints and reduced mod p once per result term
(as in sympy's galoistools gf_mul).  When every coefficient is in F_p the
operands go to _fp_product as they are.  Otherwise _laurent_product first
expands each term c*x^e, c = sum(a*u^k), into its F_p terms a*x^e*u^k with
k as one more exponent slot, and coeffs regroups the product's u-terms
under each x^e into one Coeff, with no reduction.  Every other product runs
the _accumulate loop, which reduces a fraction per term product.  The size
test comes first, so a smaller product never scans its coefficients, and
on F_p the loop allocates no Coeff: coeffs hands out one shared constant
per residue.  Encoding both operands and decoding the result cost more
than they save on small products, and a one-term operand saves nothing,
since each of its term products is a result term of its own.

Packed/loop time ratios by term products, replaying the recorded products
(both operands above one term) of the seeded-instances, rank3 and
gallery-axioms workloads at seed 7 (2 cores, Python 3.11), first those
with every coefficient in F_p, then those in F_p[u, 1/u] but not all in
F_p, which only seeded-instances and gallery-axioms make:

    term products   < 8  < 16  < 24  < 32  < 48  < 64  < 128  < 256  < 2048
    F_p            2.54  1.83  1.36  0.93  0.69  0.66   0.55   0.43    0.30
    F_p[u, 1/u]    2.78  1.86  1.30  0.85  0.71  0.68   0.48   0.37    0.29

and 0.14 for the one F_p[u, 1/u] product above 2048.  Both ratios cross 1
between 16 and 32 term products, so one threshold serves both.  On the
same replay a threshold of 32 is no slower than one of 128 on the F_p
products of any workload: 52, 15 and 2.5 ms in all against 57, 16 and
2.5 ms.  On the F_p[u, 1/u] products it is no slower than leaving them all
on the loop: 158 and 43 ms against 166 and 189 ms on seeded-instances and
gallery-axioms, and within 3% of the best threshold, 24.

exact_div has no prime-field path: on the rank3 suite one measured
2.59/2.26/2.16 s against 2.74/2.29/2.94 s without, within noise.  Term dicts
stay keyed by exponent tuples; packing every table's monomials into ints
measured no gain on rank3.
"""

import heapq
from itertools import repeat
from operator import add, floordiv, mod, mul, sub

from .coeffs import (Coeff, _CONSTANTS, check_prime, coeff_gcd_integral,
                     from_u_terms)
from .errors import (NegativeExponent, NonIntegralCoefficient, NotDivisible,
                     ZeroPolynomial)

RESERVED = ("T",)


class VarTable:
    """Ordered ring variables plus the reserved action parameter T; no
    variable may be named u, which text reads as the coefficient parameter."""

    __slots__ = ("p", "names", "all_names", "index", "_vcount")

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

    @property
    def nvars(self):
        return len(self.names)

    def zero_exp(self):
        return (0,) * self._vcount

    def const(self, c):
        if isinstance(c, int):
            c = Coeff.from_int(self.p, c)
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

    def monomial(self, coeff, **powers):
        if isinstance(coeff, int):
            coeff = Coeff.from_int(self.p, coeff)
        exp = [0] * self._vcount
        for name, e in powers.items():
            if e < 0:
                raise NegativeExponent("negative power of %s" % name)
            exp[self.index[name]] = e
        if coeff.is_zero():
            return self.zero()
        return MultiPoly(self, {tuple(exp): coeff})

    def coeff(self, c):
        if isinstance(c, int):
            return Coeff.from_int(self.p, c)
        return c

    def parse(self, text):
        from .textio import parse_poly
        return parse_poly(self, text)

    def __eq__(self, other):
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
# each operand and every coefficient in F_p[u, 1/u], take _fp_product (see
# the module docstring).
_PACK_MIN_PRODUCTS = 32


def _fp_product(p, lhs, rhs):
    """Product of two term dicts with coefficients in F_p, on exponents
    packed into ints.  The sums of coefficient products are plain ints,
    reduced mod p once per result term; the result shares coeffs' canonical
    constants.

    Slot i of a product exponent lies between base[i] = lo1[i] + lo2[i] and
    hi1[i] + hi2[i], the sums of the operands' per-slot minimums and
    maximums: span[i] values.  An operand's tuple e packs to
    sum((e[i] - lo[i]) * weight[i]), with mixed-radix weights over the slots
    whose span exceeds 1 and weight 0 on the others, which are fixed at
    base[i].  The key of a term product is then the sum of its factors'
    keys, without carries between slots, and each result key is decoded
    once.
    """
    cols1 = list(zip(*lhs))
    cols2 = list(zip(*rhs))
    lo1 = list(map(min, cols1))
    lo2 = list(map(min, cols2))
    base = list(map(add, lo1, lo2))
    weights = []
    radices = []        # (slot, span) of the varying slots, low digit first
    w = 1
    for i, (b, h1, h2) in enumerate(zip(base, map(max, cols1),
                                        map(max, cols2))):
        span = h1 + h2 - b + 1
        if span > 1:
            radices.append((i, span))
            weights.append(w)
            w *= span
        else:
            weights.append(0)
    off1 = sum(map(mul, lo1, weights))
    off2 = sum(map(mul, lo2, weights))
    # rhs keys grouped by coefficient: the inner loop multiplies nothing
    groups = {}
    for e, c in rhs.items():
        groups.setdefault(c.num[0], []).append(sum(map(mul, e, weights))
                                               - off2)
    groups = list(groups.items())
    acc = {}
    get = acc.get
    for e, c in lhs.items():
        k1 = c.num[0]
        key1 = sum(map(mul, e, weights)) - off1
        for k2, keys in groups:
            k = k1 * k2
            for key2 in keys:
                key = key1 + key2
                acc[key] = get(key, 0) + k
    consts = _CONSTANTS[p]
    keys = []
    coeffs = []
    for key, k in acc.items():
        k %= p
        if k:
            keys.append(key)
            coeffs.append(consts[k])
    # the result's exponent columns: digit by digit, low digit first
    columns = [repeat(b) for b in base]
    for i, span in radices:
        columns[i] = map(add, map(mod, keys, repeat(span)), repeat(base[i]))
        keys = list(map(floordiv, keys, repeat(span)))
    return dict(zip(zip(*columns), coeffs))


def _laurent_product(p, lhs, rhs):
    """Product of two term dicts with coefficients in F_p[u, 1/u] on
    _fp_product.  Each term c*x^e expands into the F_p terms a*x^e*u^k of
    c = sum(a*u^k), with k as one more exponent slot, which may be negative;
    the product's terms are then regrouped under each x^e into one Coeff.
    A result term that is one monomial c*u^k shares that Coeff with every
    other such term of this product."""
    wide = [{e + (k,): a for e, c in terms.items() for k, a in c.u_terms()}
            for terms in (lhs, rhs)]
    groups = {}
    for e, a in _fp_product(p, *wide).items():
        groups.setdefault(e[:-1], []).append((e[-1], a))
    return from_u_terms(p, groups)


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
            if other.table != self.table:
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
        return self + (-other)

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
        if len(lhs) > 1 and len(lhs) * len(rhs) >= _PACK_MIN_PRODUCTS:
            if (all(map(Coeff.is_constant, lhs.values()))
                    and all(map(Coeff.is_constant, rhs.values()))):
                return MultiPoly(self.table,
                                 _fp_product(self.table.p, lhs, rhs))
            if (all(map(Coeff.is_laurent, lhs.values()))
                    and all(map(Coeff.is_laurent, rhs.values()))):
                return MultiPoly(self.table,
                                 _laurent_product(self.table.p, lhs, rhs))
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
        """
        table = self.table
        images = {}
        for name, val in assignment.items():
            idx = table.index[name]
            if isinstance(val, (int, Coeff)):
                val = table.const(val)
            if val.table != table:
                raise ValueError("substitution image in a different table")
            if val.terms != table.var(name).terms:
                images[idx] = val
        if not images or not self.terms:
            return self
        power_cache = {idx: {} for idx in images}

        def image_power(idx, e):
            cache = power_cache[idx]
            got = cache.get(e)
            if got is None:
                got = images[idx] ** e
                cache[e] = got
            return got

        out = {}
        for exp, c in self.terms.items():
            base = list(exp)
            prod = None
            for idx in images:
                e = base[idx]
                if e:
                    base[idx] = 0
                    f = image_power(idx, e)
                    prod = f if prod is None else prod * f
            # a zero image gives a zero (falsy) prod: test for None only
            if prod is None:
                _accumulate(out, ((tuple(base), c),))
            else:
                _accumulate(out, ((tuple(map(add, base, e2)), c * c2)
                                  for e2, c2 in prod.terms.items()))
        return MultiPoly(table, out)

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

    def truncate_u(self, bound):
        """Drop terms whose coefficient lies in u^bound * F_p[u].

        Exact modulo u^bound as long as every operand in the surrounding
        computation has u-valuation >= 0.  Stored coefficients are nonzero,
        so each has a valuation.
        """
        out = {e: c for e, c in self.terms.items() if c.u_valuation() < bound}
        return MultiPoly(self.table, out)

    def __str__(self):
        from .textio import poly_to_str
        return poly_to_str(self)

    def __repr__(self):
        return "MultiPoly(%s)" % self


# ---------------------------------------------------------------------------
# module operations
# ---------------------------------------------------------------------------

def exact_div(f, g):
    """Exact quotient f/g, or NotDivisible: leading-term division.

    The remainder is one mutable dict keyed by negated exponents, so that the
    key (sum, exponents) of a min-heap pops terms in descending graded-lex
    order (the order of leading_term).  A term cancelled to zero leaves its
    key in the heap; such stale keys are skipped when popped.  Each step
    subtracts q*g in place, without the leading monomial, which cancels by
    construction (Johnson 1974; Monagan & Pearce, JSC 2011).  A leading
    remainder term that the leading term of g does not divide has no
    quotient term, so f is then not a multiple of g.
    """
    if g.is_zero():
        raise ZeroPolynomial("division by the zero polynomial")
    if f.is_zero():
        return f.table.zero()
    table = f.table
    if table != g.table:
        raise ValueError("mixed variable tables")
    lg_exp, lg_coeff = g.leading_term()
    lg_inv = lg_coeff.inv()
    neg_lg = tuple(-x for x in lg_exp)
    # -g without its leading term, exponents negated like the remainder's
    neg_tail = [(tuple(-x for x in e), -c) for e, c in g.terms.items()
                if e != lg_exp]
    rem = {tuple(-x for x in e): c for e, c in f.terms.items()}
    heap = [(sum(e), e) for e in rem]
    heapq.heapify(heap)
    qterms = {}
    while heap:
        neg_lr = heapq.heappop(heap)[1]
        lr_coeff = rem.pop(neg_lr, None)
        if lr_coeff is None:
            continue
        neg_q = tuple(map(sub, neg_lr, neg_lg))
        if any(x > 0 for x in neg_q):
            raise NotDivisible("no exact quotient")
        qc = lr_coeff * lg_inv
        qterms[tuple(-x for x in neg_q)] = qc
        for e, c in neg_tail:
            m = tuple(map(add, neg_q, e))
            d = qc * c
            cur = rem.get(m)
            if cur is None:
                rem[m] = d
                heapq.heappush(heap, (sum(m), m))
            else:
                s = cur + d
                if s.is_zero():
                    del rem[m]
                else:
                    rem[m] = s
    return MultiPoly(table, qterms)


def content_primitive(f):
    """(content, primitive part) over F_p[u]; content is the monic gcd of the
    coefficients and the primitive part has content 1."""
    if f.is_zero():
        raise ZeroPolynomial("content of the zero polynomial")
    for c in f.terms.values():
        if not c.is_integral():
            raise NonIntegralCoefficient("coefficient %s is not in F_p[u]" % c)
    content = coeff_gcd_integral(f.terms.values())
    if content.is_one():
        return content, f
    primitive = f.map_coeffs(lambda c: c / content)
    return content, primitive


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
