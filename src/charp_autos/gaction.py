"""G_a-actions as coactions B -> B[T].

A GaAction is a PolyMap whose generator images e_i lie in B[T].  Its
constructor is PolyMap's, which lets images involve T for a class that
clears _t_free, followed by check_axioms.  That verifies (A1): substituting
T = 0 gives back the generators, and (A2): E(x; S+T) = E(E(x; S); T) for
every generator x, i.e. e_i under T -> S+T equals e_i with the generators
replaced by their S-images.  Checking (A2) on generators suffices because
both sides are ring homomorphisms.  A slice action's lam is written in the
slice coordinates (slot i stands for p_i); slice_axioms_report proves both
axioms on those generators, and slice_action and slice_image skip this
check.

Both checks return the (ok, witness) pair of every verdict in the library:
(True, None), or (False, (axiom, where)) for the axiom that fails, "A1" or
"A2".  (A2) is checked only once (A1) holds.

The second parameter S lives only here: (A2) and the additivity of a slice
translation, lam(S+T) = lam(S) + lam(T), are checked in a lifted table, the
caller's variables plus S (named apart from them), so that an exponent
tuple there is the caller's with one more slot, for S, just before T.
"""

from .coeffs import Coeff
from .errors import (AxiomViolation, InternalIntegralityFailure,
                     NotInvariantGenerator, NotInvariantParameter)
from .poly import MultiPoly, VarTable, linear_span_dim
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


class _AxiomVerdict(tuple):
    """check_axioms' (ok, witness) pair.  It also answers verdict["A1"] and
    verdict["A2"], as perfbench/probes.py reads it: True for an axiom that
    holds, False for the one that fails, and None for (A2) when (A1) fails,
    as (A2) is then not checked."""

    __slots__ = ()

    def __getitem__(self, key):
        if key not in ("A1", "A2"):
            return tuple.__getitem__(self, key)
        ok, witness = self
        if ok or key < witness[0]:
            return True
        return None if key > witness[0] else False


def check_axioms(table, images):
    """(True, None), or (False, (axiom, generator)) for the first generator
    at which (A1) fails or, when (A1) holds at all of them, (A2) does."""
    images = list(images)
    zero = table.const(0)
    for i, (name, e) in enumerate(zip(table.names, images)):
        if not e.subs_T(zero)._is_var(i):
            return _AxiomVerdict((False, ("A1", name)))
    lifted, s = _lifted(table)
    s_plus_t = {"T": lifted.var(s) + lifted.var("T")}
    at_s = {n: _lift(lifted, e, at_s=True)
            for n, e in zip(table.names, images)}
    for name, e in zip(table.names, images):
        e = _lift(lifted, e)
        if e.substitute(s_plus_t) != e.substitute(at_s):
            return _AxiomVerdict((False, ("A2", name)))
    return _AxiomVerdict((True, None))


class GaAction(PolyMap):
    """A PolyMap whose images may involve T, checked for the axioms."""

    __slots__ = ()
    _t_free = False

    def __init__(self, table, images, _checked=False):
        PolyMap.__init__(self, table, images)
        if not _checked:
            ok, witness = check_axioms(table, self.images)
            if not ok:
                raise AxiomViolation("axiom %s fails at generator %s"
                                     % witness)

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


def additivity_check(lam):
    """lam(S+T) = lam(S) + lam(T); in char p this means p-power
    T-exponents only and no T-free part.  Coefficients from B are allowed
    (slice translations) and are treated as scalars."""
    lifted, s = _lifted(lam.table)
    at_t = _lift(lifted, lam)
    return (at_t.substitute({"T": lifted.var(s) + lifted.var("T")})
            == _lift(lifted, lam, at_s=True) + at_t)


class SliceData:
    """A coordinate system (p1,..,pn) and an additive lam(T) written in the
    slice coordinates: the slot of x_i stands for p_i, the slot of p1 is
    unused, and T is T.  The action fixes p2,..,pn and sends p1 to
    p1 + lam(p2,..,pn; T)."""

    def __init__(self, coords, lam, coords_inverse=None):
        self.coords = coords
        self.lam = lam
        self.coords_inverse = coords_inverse


def slice_axioms_report(data):
    """(A1)/(A2) on the slice generators p1,..,pn, which generate B: there
    (A1) says that lam(0) = 0, and (A2) that lam is additive and does not
    involve p1.  (True, None), or (False, (axiom, reason))."""
    lam = data.lam
    if not lam.subs_T(lam.table.const(0)).is_zero():
        return False, ("A1", "lam(0) is not 0")
    if not additivity_check(lam):
        return False, ("A2", "lam is not additive")
    if lam.uses_var(lam.table.names[0]):
        return False, ("A2", "lam involves p1")
    return True, None


def _slice_images(data, names):
    """The images of the generators named in names under the action fixing
    p2,..,pn and translating p1 by lam: the inverse coordinates' images of
    those names at p1 + lam, p2,..,pn.  The axioms are proved by
    slice_axioms_report, whose (axiom, reason) an AxiomViolation carries
    when they fail, and no x-image is checked again.

    A supplied coords_inverse is proved by compose(inverse, coords) = id
    alone, and one that fails it is a fault of the caller that built it:
    InternalIntegralityFailure.  Read as ring endomorphisms of K[x],
    phi: x_i -> coords_i and psi: x_i -> inverse_i, that identity says
    psi(phi(q)) = q for every q.  So psi is onto, and an onto endomorphism
    of a Noetherian ring is one-to-one (the kernels of psi, psi^2, .. stop
    growing), so psi is an automorphism and phi = psi^(-1); the other side,
    phi(psi(q)) = q, follows.
    """
    ok, witness = slice_axioms_report(data)
    if not ok:
        raise AxiomViolation("%s fails: %s, lam = %s"
                             % (witness + (data.lam,)))
    coords = data.coords
    inverse = data.coords_inverse
    if inverse is None:
        inverse = invert_structured(coords)
    elif not compose(inverse, coords).is_identity():
        raise InternalIntegralityFailure(
            "supplied inverse does not invert the coordinates")
    target = coords.assignment()
    first = coords.table.names[0]
    target[first] = target[first] + coords.apply(data.lam)
    gens = coords.table.names
    return [inverse.images[gens.index(name)].substitute(target)
            for name in names]


def slice_action(data):
    """The action fixing p2,..,pn and translating p1 by lam, written on the
    x-generators through the inverse coordinates (see _slice_images)."""
    table = data.coords.table
    return GaAction(table, _slice_images(data, table.names), _checked=True)


def slice_image(data, name):
    """The image of the generator name under slice_action(data), built
    without the other images."""
    return _slice_images(data, (name,))[0]


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
