"""G_a-actions as coactions B -> B[T].

A GaAction stores the generator images e_i in B[T].  Construction verifies
(A1): substituting T = 0 gives back the generators, and (A2):
E(x; S+T) = E(E(x; S); T) for every generator x, i.e. e_i under T -> S+T
equals e_i with the generators replaced by their S-images.  Checking (A2) on
generators suffices because both sides are ring homomorphisms; slice_action
proves both on its slice generators instead, and skips this check.

The second parameter S lives only here: (A2) and the additivity of a slice
translation, lam(S+T) = lam(S) + lam(T), are checked in a lifted table, the
caller's variables plus S (named apart from them), so that an exponent
tuple there is the caller's with one more slot, for S, just before T.
"""

from dataclasses import dataclass

from .coeffs import Coeff
from .errors import (AdditivityViolation, AxiomViolation,
                     NotInvariantGenerator, NotInvariantParameter)
from .poly import MultiPoly, VarTable, is_polynomial_over, linear_span_dim
from .endo import PolyMap, compose, invert_structured


def _lifted(table):
    """(lifted table, name of S): table's variables plus S, a name none of
    them has, so that S's slot comes just before T's."""
    s = "S"
    while s in table.names:
        s += "_"
    return VarTable(table.p, table.names + (s,)), s


def _lift(lifted, f, at_s=False):
    """f(T), from the table that lifted extends by S, as f(T) in lifted, or
    as f(S) when at_s: the T exponent moves to the slot of T or of S, and
    the other slot is 0."""
    return MultiPoly(lifted, {e[:-1] + ((e[-1], 0) if at_s else (0, e[-1])): c
                              for e, c in f.terms.items()})


def check_axioms(table, images):
    """Report {"A1": bool, "A2": bool, "witness": name-or-None}."""
    images = list(images)
    zero = table.const(0)
    for name, e in zip(table.names, images):
        if e.subs_T(zero) != table.var(name):
            return {"A1": False, "A2": False, "witness": name}
    lifted, s = _lifted(table)
    s_plus_t = {"T": lifted.var(s) + lifted.var("T")}
    at_s = {n: _lift(lifted, e, at_s=True)
            for n, e in zip(table.names, images)}
    for name, e in zip(table.names, images):
        e = _lift(lifted, e)
        if e.substitute(s_plus_t) != e.substitute(at_s):
            return {"A1": True, "A2": False, "witness": name}
    return {"A1": True, "A2": True, "witness": None}


class GaAction:
    __slots__ = ("table", "images")

    def __init__(self, table, images, _checked=False):
        images = tuple(images)
        if len(images) != table.nvars:
            raise ValueError("expected %d images" % table.nvars)
        for g in images:
            if isinstance(g, (int, Coeff)):
                raise ValueError("action images must be polynomials")
        self.table = table
        self.images = images
        if not _checked:
            report = check_axioms(table, images)
            if not (report["A1"] and report["A2"]):
                raise AxiomViolation("axiom %s fails at generator %s" % (
                    "A1" if not report["A1"] else "A2", report["witness"]))

    def assignment(self):
        return dict(zip(self.table.names, self.images))

    def apply(self, f):
        """E(f) in B[T]."""
        return f.substitute(self.assignment())

    def is_invariant(self, h):
        if h.uses_var("T"):
            raise ValueError("invariants live in B, not B[T]")
        return self.apply(h) == h

    def evaluate(self, alpha):
        """The automorphism E_alpha for an invariant alpha; inverse is E_{-alpha}."""
        if isinstance(alpha, (int, Coeff)):
            alpha = self.table.const(alpha)
        if not self.is_invariant(alpha):
            raise NotInvariantParameter("parameter %s is not invariant" % alpha)
        return PolyMap(self.table, [e.subs_T(alpha) for e in self.images])

    def restricts_to(self):
        """(bool, witness): do all images lie in R[x1..xn, T], R = F_p[u]?"""
        for name, e in zip(self.table.names, self.images):
            ok, bad = is_polynomial_over(e)
            if not ok:
                return False, (name, bad)
        return True, None

    def __eq__(self, other):
        if not isinstance(other, GaAction):
            return NotImplemented
        return self.table == other.table and self.images == other.images

    def __str__(self):
        from .textio import map_to_str
        return map_to_str(self)

    __repr__ = __str__


def additivity_check(lam):
    """lam(S+T) = lam(S) + lam(T); in char p this means p-power
    T-exponents only and no T-free part.  Coefficients from B are allowed
    (slice translations) and are treated as scalars."""
    lifted, s = _lifted(lam.table)
    at_t = _lift(lifted, lam)
    return (at_t.substitute({"T": lifted.var(s) + lifted.var("T")})
            == _lift(lifted, lam, at_s=True) + at_t)


@dataclass
class SliceData:
    """A coordinate system (p1,..,pn) and an additive lam(T); the action fixes
    p2,..,pn and sends p1 to p1 + lam(T)."""
    coords: PolyMap
    lam: MultiPoly
    coords_inverse: PolyMap = None


def slice_action(data):
    """The action fixing p2,..,pn and translating p1 by lam, written on the
    x-generators through the inverse coordinates.

    (A1)/(A2) are proved on the slice generators p1,..,pn, which generate B
    as the inverse is verified both ways: there they reduce to additivity of
    lam, which gives lam(0) = 0, and to lam, written in the p-coordinates,
    not involving p1.  The x-images are not checked again.
    """
    lam = data.lam
    table = data.coords.table
    if not additivity_check(lam):
        raise AdditivityViolation("%s is not additive" % lam)
    inverse = data.coords_inverse
    if inverse is None:
        inverse = invert_structured(data.coords)
    elif (not compose(data.coords, inverse).is_identity()
          or not compose(inverse, data.coords).is_identity()):
        raise ValueError("supplied inverse does not invert the coordinates")
    first = table.names[0]
    if inverse.apply(lam).uses_var(first):
        raise AxiomViolation("A2 fails: %s has a coefficient outside "
                             "k[p2,..,pn]" % lam)
    target = {name: img for name, img in zip(table.names, data.coords.images)}
    target[first] = target[first] + lam
    images = [q.substitute(target) for q in inverse.images]
    return GaAction(table, images, _checked=True)


def slice_axioms_report(data, invariant_exprs):
    """(A1)/(A2) on the slice generators (p1,..,pn) by slice_action's
    argument, for slice data whose inverse substitution does not fit in
    memory: the caller exhibits the coefficients of lam as expressions in
    p2,..,pn (slot i stands for p_{i+1}), which are substituted back.
    """
    table = data.coords.table
    lam = data.lam
    a1 = lam.subs_T(table.const(0)).is_zero()
    a2 = additivity_check(lam)
    rebuilt = table.zero()
    for k, expr in invariant_exprs.items():
        if expr.uses_var(table.names[0]):
            return {"A1": a1, "A2": False, "witness": "coefficient uses p1"}
        rebuilt = rebuilt + data.coords.apply(expr) * table.var("T") ** k
    if rebuilt != lam:
        return {"A1": a1, "A2": False,
                "witness": "coefficients not generated by p2,..,pn"}
    return {"A1": a1, "A2": a2,
            "witness": None if (a1 and a2) else "lam"}


def rank_certificate(claimed_invariant_gens, coordinate_witness):
    """Bounds {rank_lower, rank_upper} for the rank of an action.

    rank_upper comes from coordinates inside the invariant ring (gamma >=
    witness size); rank_lower from gamma <= dim of the linear span of the
    claimed invariant generators.  The bounds hold only when the generators
    and the witnesses are invariant, and the caller establishes that; here
    each witness is only checked to be a coordinate.
    """
    gens = list(claimed_invariant_gens)
    witness = list(coordinate_witness)
    table = gens[0].table if gens else (witness[0].table if witness else None)
    for w in witness:
        if len(w.terms) != 1 or w.total_degree() != 1:
            raise NotInvariantGenerator("witness %s is not a coordinate" % w)
    n = table.nvars
    dim = linear_span_dim(gens)
    return {"rank_lower": n - dim, "rank_upper": n - len(witness)}
