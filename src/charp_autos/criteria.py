"""Non-exponentiality machinery: f-stability patterns, the certificate,
action modification and the Gauss-lemma harness.

The canonical action h(y1) -> h(y1 + fT), fixing y2,..,yn, is
gaction.slice_action of the SliceData(coords, f T, inverse) that the
certificate reads f and A = k[y2,..,yn] from; gaction.slice_image builds
one of its images.

f_stability is a pattern recognizer, not a decision procedure: it certifies
stability only through the two patterns with a known proof (a monomial plus
constant touching every variable of A, and a nonconstant univariate), and
instability only for nonzero constants, where the explicit counter-action
with invariant y + x^p - f^(p-1) x exists.  Everything else is Unknown.
"""

from .coeffs import Coeff
from .errors import NotInvariantParameter, PreconditionViolated
from .poly import content
from .endo import PolyMap
from .gaction import SliceData, slice_action


class StabilityVerdict:
    def __init__(self, kind, pattern="", detail=""):
        self.kind = kind          # "Stable" | "NotStable" | "Unknown"
        self.pattern = pattern
        self.detail = detail

    def is_stable(self):
        return self.kind == "Stable"


def f_stability(f):
    """Stability of A = k[y2,..,yn] for the translation by f, written as a
    slice translation is: slot i of f's table stands for y_{i+1}, so A is
    k[f.table.names[1:]] and the slot of y1 must be unused.

    Unit factors from k* are immaterial (A[ux] = A[x]), so patterns are
    matched on the terms of f directly.
    """
    if f.is_zero():
        raise ValueError("f must be nonzero")
    table = f.table
    if f.uses_var(table.names[0]):
        raise ValueError("f involves %s outside A" % table.names[0])
    a_names = table.names[1:]

    if f.is_constant():
        if a_names:
            return StabilityVerdict(
                "NotStable", pattern="constant-translation",
                detail="counter-action translates x by f with invariant "
                       "y + x^p - f^(p-1) x in place of y")
        return StabilityVerdict("Unknown", detail="A has no variables")

    if len(a_names) == 1:
        return StabilityVerdict("Stable", pattern="univariate",
                                detail="A = k[y] and f is not constant")

    terms = list(f.terms.items())
    nonconst = [(e, c) for e, c in terms if any(e)]
    if len(terms) - len(nonconst) <= 1 and len(nonconst) == 1:
        exp, _ = nonconst[0]
        # the slots of y2,..,yn, between y1's (unused) and T's
        if all(exp[1:-1]) and not exp[-1]:
            return StabilityVerdict(
                "Stable", pattern="every-variable-monomial",
                detail="f = alpha + beta*m with m touching every variable of A")
    return StabilityVerdict("Unknown")


def a_rigid_counter_action(table, f):
    """The explicit action showing k[y] is not f-stable for constant f:
    E(x) = x + fT with invariant generator y + x^p - f^(p-1) x.

    Uses the first two variables of the table as (x, y).  Returns the action
    and the invariant generator.
    """
    f = table.coeff(f)
    if f.is_zero():
        raise ValueError("f must be a nonzero constant")
    p = table.p
    x, y = table.names[0], table.names[1]
    gen = table.var(y) + table.var(x, p) - table.var(x).scale(f ** (p - 1))
    coords = PolyMap(table, [table.var(x), gen]
                     + [table.var(n) for n in table.names[2:]])
    action = slice_action(SliceData(coords, table.var("T").scale(f)))
    return action, gen


class CertificateResult:
    def __init__(self, verdict, stability=None, reason="", witness=None):
        self.verdict = verdict        # "NotExponentialOverR" | "Inconclusive"
        self.stability = stability    # a StabilityVerdict
        self.reason = reason
        self.witness = witness        # (generator name, (exponents, coeff))


def non_exponentiality_certificate(data, restriction=None):
    """Corollary-style certificate: NotExponentialOverR iff A is f-stable
    (by a recognized pattern) and the canonical action does not restrict to
    R[x].  data is the canonical action's SliceData, whose lam must be f T
    with f = lam(1).  restriction may carry a precomputed (ok, witness)
    pair for families whose restriction test was done by an exact
    structure-specific argument; otherwise the canonical action is
    materialized and tested.
    """
    table = data.lam.table
    f = data.lam.subs_T(table.one())
    if f * table.var("T") != data.lam:
        raise PreconditionViolated("lam = %s is not f T" % data.lam)
    verdict = f_stability(f)
    if verdict.kind == "Unknown":
        return CertificateResult("Inconclusive", stability=verdict,
                                 reason="stability unknown")
    if verdict.kind == "NotStable":
        return CertificateResult("Inconclusive", stability=verdict,
                                 reason="A is not f-stable")
    if restriction is None:
        restriction = slice_action(data).restricts_to()
    ok, witness = restriction
    if ok:
        return CertificateResult("Inconclusive", stability=verdict,
                                 reason="restricts")
    # soundness guard: the offending coefficient must genuinely escape F_p[u]
    if witness is None or witness[1][1].is_integral():
        raise PreconditionViolated("restriction witness %s is integral"
                                   % (witness,))
    return CertificateResult("NotExponentialOverR", stability=verdict,
                             witness=witness)


def modify_action(slice_data, alpha):
    """Replace the slice translation lam(T) of slice_action(slice_data) by
    the constant translation lam(alpha)*T, for an invariant alpha, written
    like lam in p2,..,pn."""
    lam = slice_data.lam
    table = lam.table
    if isinstance(alpha, (int, Coeff)):
        alpha = table.const(alpha)
    if alpha.uses_var("T") or alpha.uses_var(table.names[0]):
        raise NotInvariantParameter("alpha is not in k[p2,..,pn]")
    new_lam = lam.subs_T(alpha) * table.var("T")
    return slice_action(SliceData(slice_data.coords, new_lam,
                                  slice_data.coords_inverse))


def gauss_check(f, g):
    """Primitivity of f(g(T)) for primitive f, g with g(0) = 0; the lemma
    says this must hold, and the harness asserts it."""
    table = f.table
    for h in (f, g):
        if h.is_zero():
            raise PreconditionViolated("operands must be nonzero")
        for name in table.names:
            if h.uses_var(name):
                raise PreconditionViolated("operands must be univariate in T")
        c = content(h)
        if not c.is_one():
            raise PreconditionViolated("operand with content %s" % c)
    if not g.subs_T(table.const(0)).is_zero():
        raise PreconditionViolated("g(0) must vanish")
    composed = f.substitute({"T": g})
    return content(composed).is_one()
