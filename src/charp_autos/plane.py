"""The plane n = 2 over a field: tame factorization and centralizers.

jvdk_factor peels a plane automorphism from the right: while some component
has degree >= the other's, the higher leading form must cancel against a
scalar multiple of a power of the lower one; the accumulated elementary
factors and the terminal affine map recompose to the input exactly.

centralizer_decompose follows the constructive proof of C(eps) = H(t)H0:
it repeatedly strips a leading H(t) generator determined by the first factor
of the amalgam normal form (three cases: affine with a != 0, affine with
a = 0, triangular) and terminates on an affine remainder, which splits into
one E1 generator and the trailing H0 element.

A word's factors are maps: AffineFactor and TriangularFactor are PolyMaps
that keep their parameters for to_text, and parse_word reads that text
format back.

The identities are asserted here by raising, and callers check none of
them again:
- jvdk_factor: recompose(word) = phi (NotAutomorphism);
- centralizer_decompose: phi centralizes eps = (x1 + t, x2), and
  recompose(word) = phi (NotInCentralizer);
- fpf_witness_check: E_1 of the slice action is the translation
  (WitnessNotCentralizing).
"""

import re

from .errors import (BadParameters, NotAutomorphism, NotInCentralizer,
                     NotInWst, ParseError, WitnessNotCentralizing)
from .poly import MultiPoly, express_in_invariant
from .endo import PolyMap, compose, eps_map
from .textio import parse_coeff, parse_poly
from .gaction import SliceData, slice_action


# ---------------------------------------------------------------------------
# word factors
# ---------------------------------------------------------------------------

def _check_univariate(name, f, var, vanishes_at_0=False):
    """BadParameters unless f is univariate in var and, when vanishes_at_0,
    f(0) = 0: the form of a tri factor's q (name "q") and of an H(t)
    generator's g (name "g").  One scan of f's terms; as no exponent is
    negative, a term lies in var alone when its degree is var's exponent."""
    i = f.table.index[var]
    for e in f.terms:
        if sum(e) != e[i]:
            raise BadParameters("%s must be univariate in %s" % (name, var))
    if vanishes_at_0 and not f.constant_term().is_zero():
        raise BadParameters("%s(0) must be 0" % name)


class AffineFactor(PolyMap):
    """(a*x + b*y + u, c*x + d*y + v)."""

    __slots__ = ("mat", "shift")

    def __init__(self, table, mat, shift):
        self.mat = tuple(table.coeff(c) for c in mat)      # (a, b, c, d)
        self.shift = tuple(table.coeff(c) for c in shift)  # (u, v)
        a, b, c, d = self.mat
        u, v = self.shift
        x, y = table.names
        # affine images of table, free of T: PolyMap.__init__'s checks
        # cannot fail on them
        self.table = table
        self.images = (table.affine(u, {x: a, y: b}),
                       table.affine(v, {x: c, y: d}))

    @classmethod
    def from_map(cls, pmap):
        """pmap itself when it is an AffineFactor; NotAutomorphism when it
        is not affine."""
        if isinstance(pmap, cls):
            return pmap
        table = pmap.table
        x, y = table.names
        gx, gy = pmap.images
        mat = (gx.coeff_of(**{x: 1}), gx.coeff_of(**{y: 1}),
               gy.coeff_of(**{x: 1}), gy.coeff_of(**{y: 1}))
        shift = (gx.constant_term(), gy.constant_term())
        factor = cls(table, mat, shift)
        if factor != pmap:
            raise NotAutomorphism("map %s is not affine" % pmap)
        return factor

    def det(self):
        a, b, c, d = self.mat
        return a * d - b * c

    def to_text(self):
        return "[aff: %s]" % ",".join(str(c) for c in self.mat + self.shift)


class TriangularFactor(PolyMap):
    """(a*x + c, b*y + q(x)) with a, b units; q is univariate in x.  The
    constructor raises BadParameters for any other a, b or q."""

    __slots__ = ("a", "b", "c", "q")

    def __init__(self, table, a, b, c, q):
        self.a = table.coeff(a)
        self.b = table.coeff(b)
        if self.a.is_zero() or self.b.is_zero():
            raise BadParameters("a and b must lie in k*, got a=%s, b=%s"
                                % (self.a, self.b))
        self.c = table.coeff(c)
        _check_univariate("q", q, table.names[0])
        self.q = q
        x, y = table.names
        # affine does not add a q of another table, and a q univariate in x
        # is free of T: PolyMap.__init__'s checks cannot fail on the images
        self.table = table
        self.images = (table.affine(self.c, {x: self.a}),
                       table.affine(0, {y: self.b}, q))

    def to_text(self):
        return "[tri: a=%s,b=%s,c=%s,q=%s]" % (self.a, self.b, self.c, self.q)


class TameWord:
    def __init__(self, table, factors):
        self.table = table
        self.factors = list(factors)

    def __iter__(self):
        """The factors, left to right."""
        return iter(self.factors)

    def to_text(self):
        if not self.factors:
            return "[id]"
        return "".join(f.to_text() for f in self.factors)


# ---------------------------------------------------------------------------
# the word text format, as the to_text methods print it
# ---------------------------------------------------------------------------

_WORD_BLOCK = re.compile(r"\[\s*(aff|tri|E1|E2|H0|id)\s*(?::([^\]]*))?\]")


def parse_word(table, text, t=1):
    """Rebuild a serialized word: centralizer words from E1/E2/H0 blocks,
    tame words from aff/tri blocks.  A centralizer word has at most one H0
    block, and it comes last, as the product reads left to right."""
    if table.nvars != 2:
        raise ParseError("a word needs two variables, got %d" % table.nvars)
    blocks = []
    pos = 0
    stripped = text.strip()
    while pos < len(stripped):
        m = _WORD_BLOCK.match(stripped, pos)
        if not m:
            raise ParseError("expected a [tag: ...] block", pos)
        blocks.append((m.group(1), (m.group(2) or "").strip(), pos))
        pos = m.end()
        while pos < len(stripped) and stripped[pos].isspace():
            pos += 1
    tags = {tag for tag, _, _ in blocks}
    if tags <= {"E1", "E2", "H0"}:
        gens = []
        h0 = (1, 0, 0)
        x1, x2 = table.names
        for i, (tag, payload, start) in enumerate(blocks):
            if tag == "H0":
                if i != len(blocks) - 1:
                    raise ParseError("an [H0] block must come last", start)
                h0 = tuple(parse_coeff(table.p, v) for v in _block_fields(
                    tag, payload, {"a": "1", "u1": "0", "u2": "0"}))
            else:
                g = _univariate(table, tag, payload, payload,
                                x2 if tag == "E1" else x1)
                gens.append((tag, _swap_xy(g) if tag == "E1" else g))
        return CentralizerWord(table, t, gens, h0)
    factors = []
    for tag, payload, _ in blocks:
        if tag == "id":
            continue
        if tag == "aff":
            vals = [parse_coeff(table.p, part) for part in payload.split(",")]
            if len(vals) != 6:
                raise ParseError("affine factor needs 6 entries")
            factor = AffineFactor(table, vals[:4], vals[4:])
            if factor.det().is_zero():
                raise BadParameters("affine factor %s is singular"
                                    % factor.to_text())
            factors.append(factor)
        elif tag == "tri":
            a, b, c, q = _block_fields(tag, payload, dict.fromkeys("abcq"), 3)
            factors.append(TriangularFactor(
                table, parse_coeff(table.p, a), parse_coeff(table.p, b),
                parse_coeff(table.p, c),
                _univariate(table, tag, payload, q, table.names[0])))
        else:
            raise ParseError("cannot mix word kinds in %r" % text)
    return TameWord(table, factors)


def _swap_xy(f):
    """f with the exponents of the two variables exchanged: for f
    univariate in one of them, the same polynomial in the other."""
    return MultiPoly(f.table, {(e[1], e[0]) + e[2:]: c
                               for e, c in f.terms.items()})


def _univariate(table, tag, payload, text, var):
    """The polynomial text of a [tag: payload] block: a tri factor's q in
    var alone, or an E1 or E2 argument g in var alone with g(0) = 0.  The
    rule is _check_univariate's; the error names the block."""
    f = parse_poly(table, text)
    try:
        if tag == "tri":
            _check_univariate("q", f, var)
        else:
            _check_univariate("g", f, var, vanishes_at_0=True)
    except BadParameters as err:
        raise BadParameters("[%s: %s]: %s" % (tag, payload, err)) from None
    return f


def _block_fields(tag, payload, defaults, maxsplit=-1):
    """The values of a block's key=value fields in the order of defaults; an
    omitted key takes its default, and a default of None makes it needed."""
    fields = dict(defaults)
    for part in filter(None, payload.split(",", maxsplit)):
        key, eq, value = part.partition("=")
        if not eq or key.strip() not in fields:
            raise ParseError("bad field %r in a [%s] block" % (part, tag))
        fields[key.strip()] = value
    if None in fields.values():
        raise ParseError("a [%s] block needs %s" % (tag, ", ".join(fields)))
    return fields.values()


def recompose(word):
    """Left-to-right product of the maps of a TameWord or CentralizerWord,
    from its first factor on; the identity for an empty word."""
    factors = iter(word)
    out = next(factors, None)
    if out is None:
        return PolyMap.identity(word.table)
    for f in factors:
        out = compose(out, f)
    return out


# ---------------------------------------------------------------------------
# Jung-van der Kulk factorization
# ---------------------------------------------------------------------------

def _is_affine(pmap):
    return all(g.total_degree() == 1 for g in pmap.images)


def jvdk_factor(phi):
    """TameWord of alternating affine/triangular factors with
    recompose(word) = phi exactly; raises NotAutomorphism otherwise."""
    word = _jvdk_word(phi)
    if recompose(word) != phi:
        raise NotAutomorphism("recomposition check failed")
    return word


def _jvdk_word(phi):
    """The factors of jvdk_factor, without its recomposition check."""
    table = phi.table
    if table.nvars != 2:
        raise ValueError("plane factorization needs two variables")
    x, y = table.names
    cur = list(phi.images)
    runs = []          # (component_index, q as dict degree->Coeff)
    guard = 0
    while not (cur[0].total_degree() == 1 and cur[1].total_degree() == 1):
        guard += 1
        if guard > 10000:
            raise NotAutomorphism("factorization does not terminate")
        d = [cur[0].total_degree(), cur[1].total_degree()]
        if d[0] is None or d[1] is None or min(d) < 1:
            raise NotAutomorphism("a component is constant")
        hi, lo = (0, 1) if d[0] >= d[1] else (1, 0)
        if d[hi] % d[lo]:
            raise NotAutomorphism("component degrees %s do not divide" % d)
        m = d[hi] // d[lo]
        lt_hi_exp, lt_hi_coeff = cur[hi].leading_term()
        flo_m = cur[lo] ** m
        lt_lo_exp, lt_lo_coeff = flo_m.leading_term()
        if lt_hi_exp != lt_lo_exp:
            raise NotAutomorphism("leading terms cannot cancel")
        c = lt_hi_coeff / lt_lo_coeff
        new_hi = cur[hi] - flo_m.scale(c)
        if not new_hi.is_zero():
            new_exp = new_hi.leading_term()[0]
            if (sum(new_exp), new_exp) >= (sum(lt_hi_exp), lt_hi_exp):
                raise NotAutomorphism("no progress cancelling leading terms")
        cur[hi] = new_hi
        if runs and runs[-1][0] == hi:
            # m strictly falls within a run: an equal m would need the
            # leading term of cur[lo]^m again, which new_hi's lies below
            runs[-1][1][m] = c
        else:
            runs.append((hi, {m: c}))

    terminal = AffineFactor.from_map(PolyMap(table, cur))
    if terminal.det().is_zero():
        raise NotAutomorphism("terminal affine part is singular")

    factors = [terminal]
    for comp, qdict in reversed(runs):
        # inverse of the peeled factor adds q back.  m = d[hi] // d[lo] >= 1,
        # so q has no constant term, and c != 0 in every step
        lin = qdict.pop(1, 0)
        q_hi = table.zero()
        for m, c in qdict.items():
            q_hi = q_hi + table.monomial(c, **{x: m})
        if comp == 1:
            # ties go to component 0, so a component-1 step has m >= 2
            factors.append(TriangularFactor(table, 1, 1, 0, q_hi))
            continue
        lin_aff = AffineFactor(table, (1, lin, 0, 1), (0, 0))
        if q_hi.is_zero():
            # (x + q(y), y) is lin_aff itself when q is linear
            factors.append(lin_aff)
        else:
            # (x + q(y), y) = swap * (x, y + q_hi(x)) * affine * swap
            swap = AffineFactor(table, (0, 1, 1, 0), (0, 0))
            factors.append(swap)
            factors.append(TriangularFactor(table, 1, 1, 0, q_hi))
            factors.append(AffineFactor.from_map(compose(swap, lin_aff)))

    return TameWord(table, _merge_affines(table, factors))


def _merge_affines(table, factors):
    out = []
    for f in factors:
        if isinstance(f, AffineFactor) and out and isinstance(out[-1], AffineFactor):
            out[-1] = AffineFactor.from_map(compose(out[-1], f))
        else:
            out.append(f)
    return [f for f in out
            if not (isinstance(f, AffineFactor) and f.is_identity())]


def normal_form(word):
    """Alternating factors from G\\J and J\\G, with G-cap-J parts folded into
    their right neighbour (or the tail).  Returns [(tag, PolyMap)]."""
    out = []
    pending = None
    for factor in word:
        affine = isinstance(factor, AffineFactor)
        if pending is not None:
            factor = compose(pending, factor)
            pending = None
        if not affine:
            out.append(("JG", factor))
        elif AffineFactor.from_map(factor).mat[1].is_zero():
            pending = factor
        else:
            out.append(("GJ", factor))
    if pending is not None and out:
        tag, last = out[-1]
        out[-1] = (tag, compose(last, pending))
    for (t1, _), (t2, _) in zip(out, out[1:]):
        if t1 == t2:
            raise NotAutomorphism("normal form does not alternate")
    return out


# ---------------------------------------------------------------------------
# the centralizer C(eps) = H(t) H0
# ---------------------------------------------------------------------------

class CentralizerWord:
    """H(t) generators followed by one H0 element (x1+u1, a*x2+u2), a != 0.

    Each generator is ("E1", g) for (x1 + g(x2), x2) or ("E2", g) for
    (x1, x2 + g(x1^p - t^(p-1) x1)); g is stored as a univariate polynomial
    in the first variable with g(0) = 0.  The constructor raises
    BadParameters for any other generator kind, t, g or H0 factor a.
    """

    def __init__(self, table, t, gens, h0=(1, 0, 0)):
        self.table = table
        self.t = table.coeff(t)
        if self.t.is_zero():
            raise BadParameters("t must lie in k*, got 0")
        self.gens = list(gens)
        for kind, g in self.gens:
            if kind not in ("E1", "E2"):
                raise BadParameters("unknown generator kind %r" % (kind,))
            _check_univariate("g", g, table.names[0], vanishes_at_0=True)
        a, u1, u2 = h0
        self.h0 = (table.coeff(a), table.coeff(u1), table.coeff(u2))
        if self.h0[0].is_zero():
            raise BadParameters("the H0 factor a must lie in k*, got 0")

    def gen_map(self, kind, g):
        table = self.table
        x1, x2 = table.names
        if kind == "E1":
            return PolyMap(table, [table.affine(0, {x1: 1}, _swap_xy(g)),
                                   table.affine(0, {x2: 1})])
        if kind == "E2":
            p = table.p
            w = table.affine(0, {x1: -self.t ** (p - 1)},
                             table.monomial(1, **{x1: p}))
            return PolyMap(table, [table.affine(0, {x1: 1}),
                                   table.affine(0, {x2: 1},
                                                g.substitute({x1: w}))])
        raise ValueError("unknown generator kind %r" % kind)

    def h0_map(self):
        table = self.table
        x1, x2 = table.names
        a, u1, u2 = self.h0
        return PolyMap(table, [table.affine(u1, {x1: 1}),
                               table.affine(u2, {x2: a})])

    def __iter__(self):
        """The generators as maps, left to right, then the H0 element."""
        for kind, g in self.gens:
            yield self.gen_map(kind, g)
        yield self.h0_map()

    def inverse_map(self):
        table = self.table
        x1, x2 = table.names
        a, u1, u2 = self.h0
        a_inv = a.inv()
        out = PolyMap(table, [table.affine(-u1, {x1: 1}),
                              table.affine(-u2 * a_inv, {x2: a_inv})])
        for kind, g in reversed(self.gens):
            out = compose(out, self.gen_map(kind, -g))
        return out

    def to_text(self):
        parts = ["[%s: %s]" % (kind, _swap_xy(g) if kind == "E1" else g)
                 for kind, g in self.gens]
        a, u1, u2 = self.h0
        parts.append("[H0: a=%s,u1=%s,u2=%s]" % (a, u1, u2))
        return "".join(parts)


def centralizer_membership(phi, t):
    """The two displayed conditions with eps = (x1+t, x2)."""
    table = phi.table
    x1 = table.names[0]
    t = table.coeff(t)
    shift = {x1: table.affine(t, {x1: 1})}
    f1, f2 = phi.images
    return (f1.substitute(shift) == f1 + table.const(t)
            and f2.substitute(shift) == f2)


def w_st_split(q, t):
    """q = q1(x^p - t^(p-1)x) + t^-1 s x for the constant s = q(x+t) - q(x);
    NotInWst when that difference is not a constant."""
    table = q.table
    var = table.names[0]
    t = table.coeff(t)
    diff = q.substitute({var: table.affine(t, {var: 1})}) - q
    if not diff.is_constant():
        raise NotInWst("q(x+t) - q(x) = %s is not a constant" % diff)
    core = table.affine(0, {var: -(diff.constant_term() / t)}, q)
    q1, rem = express_in_invariant(core, var, t)
    if not rem.is_zero():
        raise NotInWst("residual part %s survives" % rem)
    return q1


def centralizer_decompose(phi, t):
    """Write phi in C(eps) as an H(t) word followed by an H0 element."""
    table = phi.table
    x1 = table.names[0]
    generators = CentralizerWord(table, t, [])   # rejects t = 0; gen_map
    t = generators.t
    if not centralizer_membership(phi, t):
        raise NotInCentralizer("%s does not centralize eps" % phi)

    gens = []
    cur = phi
    prev_len = None
    while not _is_affine(cur):
        nf = normal_form(_jvdk_word(cur))
        if prev_len is not None and len(nf) >= prev_len:
            raise NotInCentralizer("no progress stripping H(t) generators")
        prev_len = len(nf)
        tag, first = nf[0]
        if tag == "JG":
            g = _strip_triangular(table, first, t)
            kind = "E2"
        else:
            a, b = AffineFactor.from_map(first).mat[:2]
            g = (table.var(x1).scale(b / a) if not a.is_zero()
                 else _strip_swap_case(table, first, nf))
            kind = "E1"
        cur = compose(generators.gen_map(kind, -g), cur)
        gens.append((kind, g))

    # affine remainder (x1 + s x2 + u1, a x2 + u2)
    remainder = AffineFactor.from_map(cur)
    (one, s, zero, a), (u1, u2) = remainder.mat, remainder.shift
    if not one.is_one() or not zero.is_zero() or a.is_zero():
        raise NotInCentralizer("affine remainder %s has the wrong shape" % cur)
    if not s.is_zero():
        gens.append(("E1", table.var(x1).scale(s)))
    word = CentralizerWord(table, t, gens, h0=(a, u1, u2))
    if recompose(word) != phi:
        raise NotInCentralizer("recomposition check failed")
    return word


def _strip_triangular(table, first, t):
    """Case (c): leading factor (a1 x + c1, b1 y + q(x)); the H(t) generator
    is E2(b1^-1 (q1 - q1(0))) via the W_{s,t} split."""
    x1, x2 = table.names
    f1, f2 = first.images
    b1 = f2.coeff_of(**{x2: 1})
    q = f2 - table.var(x2).scale(b1)
    if q.uses_var(x2):
        raise NotInCentralizer("leading triangular factor has a bad shape")
    q1 = w_st_split(q, t)
    q1_reduced = q1 - table.const(q1.constant_term())
    return q1_reduced.scale(b1.inv())


def _strip_swap_case(table, first, nf):
    """Case (b): affine leading factor with a = 0 needs the next two factors;
    the generator is E1(p(y) + u_hat y).

    Both normalizations are inverted in closed form.  gamma1 is defined by
    first*gamma1 = (y, x), so gamma1^-1 = (y, x)*first.  The second factor
    becomes phi2' = gamma1^-1 * nf[1] = (a2 x + c2, b2 y + q2(x)); split
    q2 = ulin x + vconst + b2 p(x), so phi2' = (x, y + p(x))*A with affine
    part A = (a2 x + c2, b2 y + ulin x + vconst) and gamma2 = A^-1, whence
    phi3' = A * nf[2].
    """
    x1, x2 = table.names
    if len(nf) < 3:
        raise NotInCentralizer("swap-led word is too short to centralize")
    swap = PolyMap(table, [table.affine(0, {x2: 1}), table.affine(0, {x1: 1})])
    phi2p = compose(compose(swap, first), nf[1][1])
    f1, f2 = phi2p.images
    a2 = f1.coeff_of(**{x1: 1})
    c2 = f1.constant_term()
    b2 = f2.coeff_of(**{x2: 1})
    q2 = table.affine(0, {x2: -b2}, f2)
    if q2.uses_var(x2) or f1 != table.affine(c2, {x1: a2}):
        raise NotInCentralizer("second factor is not triangular")
    ulin = q2.coeff_of(**{x1: 1})
    vconst = q2.constant_term()
    pq = table.affine(-vconst, {x1: -ulin}, q2).scale(b2.inv())
    affine_part = PolyMap(table, [f1,
                                  table.affine(vconst, {x2: b2, x1: ulin})])
    phi3p = compose(affine_part, nf[2][1])
    g1 = phi3p.images[0]
    a3 = g1.coeff_of(**{x1: 1})
    b3 = g1.coeff_of(**{x2: 1})
    if b3.is_zero():
        raise NotInCentralizer("third factor lies in G-cap-J")
    u_hat = a3 / b3
    return table.affine(0, {x1: u_hat}, pq)


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------

def fixed_point_elem_centralizer(phi, f):
    """Membership in C((x + f(y), y)): phi = (a x + g(y), b y + c) with
    a f(y) = f(b y + c).  Returns (a, b, c, g) or None."""
    table = phi.table
    x1, x2 = table.names
    if f.uses_var(x1) or f.is_constant():
        raise ValueError("f must be a nonconstant univariate in %s" % x2)
    g1, g2 = phi.images
    a = g1.coeff_of(**{x1: 1})
    g = table.affine(0, {x1: -a}, g1)
    b = g2.coeff_of(**{x2: 1})
    c = g2.constant_term()
    y_image = table.affine(c, {x2: b})
    if (a.is_zero() or not a.is_constant() or g.uses_var(x1)
            or b.is_zero() or not b.is_constant() or not c.is_constant()
            or g2 != y_image):
        return None
    lhs = f.scale(a)
    rhs = f.substitute({x2: y_image})
    if lhs != rhs:
        return None
    return a, b, c, g


def fpf_witness_check(psi_word):
    """Theorem criterion for a fixed point free tau = (x1 + f, x2), f in k*:
    the slice action through psi in H(f), with f = psi_word.t, evaluates to
    tau at 1.  Returns that action; the verdict is its restricts_to()."""
    table = psi_word.table
    f = psi_word.t
    psi_map = recompose(psi_word)
    psi_inv = psi_word.inverse_map()
    lam = table.var("T").scale(f)
    action = slice_action(SliceData(psi_map, lam, psi_inv))
    if action.evaluate(1) != eps_map(table, f):
        raise WitnessNotCentralizing("E_1 differs from the translation")
    return action
