"""Constructive exponentialization of triangular order-p automorphisms.

The conjugator of Maubach's lemma is built by Artin-Schreier averaging: with
w := a^-1 x1, the images f_i := -sum_{j=0}^{p-1} (w+j)^{p-1} sigma^j(x_i)
are sigma-invariant (reindex the residue sum) and congruent to x_i modulo
lower variables (sum_{c in F_p} (w+c)^{p-1} = -1), so (x1, f2,..,fn) is a
strict triangular coordinate change conjugating the translation to sigma.
The sums are formed over R with the weights (x1 + j*a)^(p-1), then scaled
once by -a^-(p-1).  Correctness is verified afterwards, once per result:
maubach_conjugator checks phi*eps = sigma*phi on a triangular phi, and each
exponentializer checks E_1 = sigma for the action built on phi, so the
construction is safe even if it differs from the original one.

Each entry point runs one shape guard, then at most one order test per map:
the powers sigma^0..sigma^p that the averaging also uses, or, for n = 2 and
sigma = (x1, x2 + b(x1)), b != 0.  n = 3 delegates sigma(x1) = x1 to the
n = 2 construction past its guard, before any order test: the renamed map
is strict triangular whenever sigma is, so sigma's shape is classified once
on that path too.

The identities are asserted here, by raising InternalIntegralityFailure:
- the averaging core, so every entry point: the conjugator phi is
  triangular, so a broken averaging stops before phi is read;
- maubach_conjugator, whose output is phi: phi*eps = sigma*phi for
  eps = (x1 + a, x2, ..), which for an automorphism phi is conjugating eps
  by phi giving back sigma.  The exponentializers do not return phi and do
  not test it: E_1 = sigma for the slice action on coordinates built from
  phi already says that those coordinates conjugate eps to sigma;
- exponentialize_triangular_n2: E_1 = sigma, and, when sigma(x1) != x1,
  the action restricts to R, so a*c lies in F_p[u] for each coefficient c
  of the reduced f (the x1^(i-1)*T coefficient of E(x2) is -i*a*c, and p
  does not divide i).  That path first raises NonIntegralCoefficient for a
  sigma with a coefficient outside F_p[u], which is bad input, not a bug;
- exponentialize_field_n3: E_1 = sigma.  On the path delegated to n = 2
  the renamed action lies over F_p[u] without a test of its own: the n = 2
  construction asserts it when the renamed map moves its first variable,
  and builds (x2, x3 + b*T) with b over F_p[u] when it fixes it.  The
  axiom check of the renamed-back action and E_1 = sigma certify it;
- theta_of: sigma_from_theta(a, theta) is sigma, so a result computed for
  another map is rejected;
- sigma_from_theta: theta lies in sum_{p∤i} R x1^i (else BadThetaSupport)
  and the images it builds lie over R.
"""

from .coeffs import Coeff
from .errors import (BadThetaSupport, InternalIntegralityFailure,
                     NonIntegralCoefficient, NotOrderP, NotTriangular,
                     NonUnitTranslation, UnsupportedField)
from .poly import MultiPoly, VarTable, _accumulate, express_in_invariant
from .endo import PolyMap, classify, compose, eps_map
from .gaction import GaAction, SliceData, slice_action


class ExponentializationResult:
    """The action and, when sigma(x1) = x1 + a with a != 0, the data of its
    construction: a, the reduced f and the coordinates (x1, x2 + reduced f).
    When sigma fixes x1 the action is built directly and these are None."""

    def __init__(self, action, conjugator=None, reduced_f=None, a=None):
        self.action = action
        self.conjugator = conjugator
        self.reduced_f = reduced_f
        self.a = a


def _check_shape(sigma):
    """NotTriangular unless sigma is triangular, NotOrderP unless it is also
    strict: a leading unit c of an order-p map has c^p = 1, and in
    characteristic p that forces c = 1."""
    flags = classify(sigma)
    if "triangular" not in flags:
        raise NotTriangular("input is not triangular")
    if "strict_triangular" not in flags:
        raise NotOrderP("automorphism does not have order %d" % sigma.table.p)


def _order_p_powers(sigma):
    """[sigma^0, .., sigma^(p-1)], or NotOrderP unless sigma has order p.

    For prime p, "sigma != id and sigma^p = id" is the same as "order exactly
    p", so the powers the averaging needs also carry the order test: p - 1
    compositions in all, the last one giving sigma^p.
    """
    table = sigma.table
    p = table.p
    powers = [PolyMap.identity(table), sigma]
    while len(powers) <= p:
        powers.append(compose(sigma, powers[-1]))
    if sigma.is_identity() or not powers[p].is_identity():
        raise NotOrderP("automorphism does not have order %d" % p)
    return powers[:p]


def _averaged_conjugator(sigma, a, powers):
    """Maubach's conjugator by Artin-Schreier averaging over the powers
    [sigma^0, .., sigma^(p-1)] of an order-p strict triangular sigma with
    sigma(x1) = x1 + a, a != 0.

    The sums are formed over R: (w+j)^(p-1) = (x1 + j*a)^(p-1) / a^(p-1), so
    F_i := sum_j (x1 + j*a)^(p-1) sigma^j(x_i) has coefficients in R and
    f_i = -a^-(p-1) F_i is one scaling of it.  Only the shape is tested
    here, by one classify scan: a phi that is not triangular raises before
    express_in_invariant or invert_structured reads it.  Whether phi
    conjugates eps to sigma is tested once, by the caller's certificate:
    maubach_conjugator's intertwining check, or an exponentializer's
    E_1 = sigma.
    """
    phi = _average(sigma, a, powers)
    if "triangular" not in classify(phi):
        raise InternalIntegralityFailure("averaging produced a bad conjugator")
    return phi


def _average(sigma, a, powers):
    """(x1, f2,..,fn), the averaged images of _averaged_conjugator, unchecked."""
    table = sigma.table
    p = table.p
    x1 = table.names[0]
    weights = [table.affine(a * j, {x1: 1}) ** (p - 1) for j in range(p)]
    scale = -(a ** (p - 1)).inv()
    images = [table.affine(0, {x1: 1})]
    for i in range(1, table.nvars):
        acc = table.zero()
        for weight, sj in zip(weights, powers):
            acc = acc + weight * sj.images[i]
        images.append(acc.scale(scale))
    return PolyMap(table, images)


def maubach_conjugator(sigma):
    """phi = (x1, f2,..,fn) with conjugate((x1+a, x2,..), phi) = sigma.

    a = sigma(x1)-x1 must be a unit of F_p[u], that is an element of F_p*.
    The shape test runs before the p - 1 compositions of the order test, so
    a triangular input that is not strict raises NotTriangular.  phi is
    returned only after phi*eps = sigma*phi for eps = (x1 + a, x2, ..): on
    the triangular phi that the averaging guarantees, an automorphism over
    F_p(u), that is phi*eps*phi^-1 = sigma.  The shape test carries
    weight: phi = (x1, 0) intertwines every such sigma.
    """
    if "strict_triangular" not in classify(sigma):
        raise NotTriangular("conjugator needs a strict triangular input")
    powers = _order_p_powers(sigma)
    a = sigma.images[0].constant_term()
    if a.is_zero():
        raise NonUnitTranslation("sigma fixes x1")
    if not a.is_constant():
        raise NonUnitTranslation("translation %s is not a unit of F_p[u]" % a)
    phi = _averaged_conjugator(sigma, a, powers)
    if compose(phi, eps_map(sigma.table, a)) != compose(sigma, phi):
        raise InternalIntegralityFailure("averaging produced a bad conjugator")
    return phi


def exponentialize_triangular_n2(sigma):
    """Theorem: a triangular order-p automorphism of R[x1,x2], R = F_p[u],
    is E_1 of a G_a-action over R.  Returns the action, with the conjugator
    data when sigma(x1) != x1."""
    if sigma.table.nvars != 2:
        raise ValueError("this construction is for n = 2")
    _check_shape(sigma)
    return _exponentialize_n2(sigma)


def _exponentialize_n2(sigma):
    """exponentialize_triangular_n2 for a sigma that has passed the shape
    guard: strict triangular in two variables."""
    table = sigma.table
    p = table.p
    x1, x2 = table.names

    a = sigma.images[0].constant_term()
    if a.is_zero():
        # sigma = (x1, x2 + b(x1)) is elementary, of order p iff b != 0
        b = table.affine(0, {x2: -1}, sigma.images[1])
        if b.is_zero():
            raise NotOrderP("automorphism does not have order %d" % p)
        return ExponentializationResult(GaAction(table, [
            table.affine(0, {x1: 1}),
            table.affine(0, {x2: 1}, b * table.monomial(1, T=1))]))

    # the restriction to R asserted below holds only for sigma over R
    ok, witness = sigma.restricts_to()
    if not ok:
        raise NonIntegralCoefficient("coefficient %s of sigma is not in "
                                     "F_p[u]" % (witness[1][1],))
    phi = _averaged_conjugator(sigma, a, _order_p_powers(sigma))
    f = table.affine(0, {x2: -1}, phi.images[1])
    _, f_red = express_in_invariant(f, x1, a)
    coords = PolyMap(table, [table.affine(0, {x1: 1}),
                             table.affine(0, {x2: 1}, f_red)])
    action = slice_action(SliceData(coords, table.monomial(a, T=1)))
    if action.evaluate(1) != sigma:
        raise InternalIntegralityFailure("E_1 differs from sigma")
    ok, witness = action.restricts_to()
    if not ok:
        raise InternalIntegralityFailure("action escapes R: %s" % (witness,))
    return ExponentializationResult(action, coords, f_red, a)


def theta_of(sigma, result):
    """(a, theta) with sigma = (x1+a, x2 + a^-1(theta(x1) - theta(x1+a))),
    theta supported on exponents prime to p, read off
    result = exponentialize_triangular_n2(sigma).  The theta found must
    reproduce sigma, so a result for another map raises."""
    if result.a is None:
        raise NonUnitTranslation("theta needs sigma(x1) != x1")
    theta = result.reduced_f.scale(result.a)
    if sigma_from_theta(result.a, theta) != sigma:
        raise InternalIntegralityFailure("theta does not reproduce sigma")
    return result.a, theta


def sigma_from_theta(a, theta):
    """(x1+a, x2 + a^-1(theta(x1) - theta(x1+a))) for theta in sum_{p∤i} R x1^i."""
    table = theta.table
    p = table.p
    if a.is_zero():
        raise ValueError("a must be nonzero")
    if not a.is_integral():
        raise ValueError("a must lie in R = F_p[u]")
    x1, x2 = table.names[:2]
    for e, c in theta.terms.items():
        i = e[table.index[x1]]
        if sum(e) != i or i % p == 0:
            raise BadThetaSupport("theta term %s outside sum_{p∤i} R x1^i"
                                  % MultiPoly(table, {e: c}))
        if not c.is_integral():
            raise BadThetaSupport("theta coefficient %s not in R" % c)
    first = table.affine(a, {x1: 1})
    shifted = theta.substitute({x1: first})
    second = table.affine(0, {x2: 1}, (theta - shifted).scale(a.inv()))
    sigma = PolyMap(table, [first, second])
    if not sigma.restricts_to()[0]:
        raise InternalIntegralityFailure("sigma image escapes R")
    return sigma


def exponentialize_field_n3(sigma):
    """Triangular order-p automorphisms of F_p[x1,x2,x3] are exponential.

    sigma(x1) != x1 goes through the conjugator; sigma(x1) = x1 renames x1 to
    the parameter u and delegates to the n = 2 construction over F_p[u].
    Only k = F_p is supported, because the delegation consumes the single
    parameter slot.

    Returns the GaAction on sigma's table.  The n = 2 result of the
    delegated path is not returned: its conjugator and reduced f live over
    F_p[x1][1/a(x1)] and need not lie in F_p[x1].
    """
    table = sigma.table
    p = table.p
    if table.nvars != 3:
        raise ValueError("this construction is for n = 3")
    for g in sigma.images:
        for c in g.terms.values():
            if not c.is_constant():
                raise UnsupportedField("coefficients must lie in F_p")
    _check_shape(sigma)
    x1, x2, x3 = table.names

    a = sigma.images[0].constant_term()
    if not a.is_zero():
        phi = _averaged_conjugator(sigma, a, _order_p_powers(sigma))
        action = slice_action(SliceData(phi, table.monomial(a, T=1)))
        if action.evaluate(1) != sigma:
            raise InternalIntegralityFailure("E_1 differs from sigma")
        return action

    # rename x1 -> u, run the n = 2 construction over F_p[u] and, as its
    # action lies over F_p[u] (see the module docstring), rename it back;
    # small's exponent slots are table's without the first, x1
    small = VarTable(p, (x2, x3))
    u = Coeff.u(p)

    def promote(f):
        out = {}
        _accumulate(out, ((e[1:], c * u ** e[0]) for e, c in f.terms.items()))
        return MultiPoly(small, out)

    def demote(f):
        out = {}
        _accumulate(out, (((k,) + e, Coeff.from_int(p, n))
                          for e, c in f.terms.items()
                          for k, n in enumerate(c.num) if n))
        return MultiPoly(table, out)

    sub_sigma = PolyMap(small, [promote(sigma.images[1]), promote(sigma.images[2])])
    sub = _exponentialize_n2(sub_sigma)
    images = [table.var(x1)] + [demote(e) for e in sub.action.images]
    action = GaAction(table, images)
    if action.evaluate(1) != sigma:
        raise InternalIntegralityFailure("E_1 differs from sigma")
    return action
