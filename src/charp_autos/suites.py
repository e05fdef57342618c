"""Registered verification suites, one per acceptance criterion.

Each suite builds a deterministic list of (case id, thunk) pairs from its
parameters and the seed; thunks return (ok, witness text).  Cases run one
at a time and the report lists them in case-id order, so the output is
byte-identical for a given (suite, parameters, seed).

A thunk that raises is a failing case with the exception as its witness,
so no case recomputes an identity that its library call asserts by raising
(the docstrings of plane and expo list them): a thm15-n2 case checks only
that theta_of gives back (a, theta), a jvdk case only factors its word, a
centralizer case only decomposes its word's product, or expects
NotInCentralizer from a non-member, and a maubach case only builds the
conjugator.  The axioms suite does run check_axioms, on actions that
slice_action proved only on the slice generators; a case whose builder
makes a GaAction(table, images), which has run check_axioms, passes when
the builder returns.

Cases that need one costly record (a rank3 Rank3Base, a nonexp member)
share it through functools.cache on a thunk: the first case to run makes
it, and one that raises leaves it unmade for the next.

A suite is declared once, where its body is defined:
@_suite(name, ps=..., primes=..., count=..., seeded=...) puts it in SUITES.
The body runs at the primes ps, or at a given p, which must be one of
primes (ps by default); a suite declared without ps reads no p.  count is
the default count of a suite that reads one, and seeded=False marks a suite
whose cases the seed does not draw.  SUITES[name](params) refuses a
parameter the body does not read, a p outside primes and a count below 1
before it builds any case, then calls the body with what it reads: ps,
count and seed.
"""

import json
import time
from functools import cache

from .coeffs import SUPPORTED_PRIMES, Coeff
from .errors import (AxiomViolation, BadParameters, NotAutomorphism,
                     NotInCentralizer, UnknownSuite)
from .poly import VarTable, content, content_primitive
from .endo import PolyMap, compose, conjugate, eps_map
from .gaction import GaAction, check_axioms, slice_image
from .gallery import Check
from .seeds import Lcg
from . import criteria, expo, gallery, plane


class SuiteResult:
    """A suite's cases, one Check per case: name is the case id and detail
    the witness."""

    def __init__(self, suite, params, cases=None):
        self.suite = suite
        self.params = params
        self.cases = [] if cases is None else cases

    @property
    def all_passed(self):
        return all(c.ok for c in self.cases)

    def to_text(self):
        lines = ["suite %s  %s" % (self.suite, _param_str(self.params))]
        for c in self.cases:
            line = "%s: %s" % (c.name, "pass" if c.ok else "FAIL")
            if c.detail:
                line += "  [%s]" % c.detail
            lines.append(line)
        lines.append("%d/%d passed" % (sum(c.ok for c in self.cases),
                                       len(self.cases)))
        return "\n".join(lines)

    def to_json(self):
        return json.dumps({
            "suite": self.suite,
            "params": {k: v for k, v in sorted(self.params.items())},
            "cases": [{"id": c.name, "verdict": "pass" if c.ok else "fail",
                       "witness": c.detail} for c in self.cases],
            "all_passed": self.all_passed,
        }, sort_keys=True)


def _param_str(params):
    return " ".join("%s=%s" % (k, v) for k, v in sorted(params.items()))


# ---------------------------------------------------------------------------
# samplers (draw order is part of the reproducibility contract)
# ---------------------------------------------------------------------------

def _sample_u_poly_coeff(lcg, p, maxdeg=2):
    return Coeff.from_u_coeffs(p, [lcg.draw(p) for _ in range(maxdeg + 1)])


def _sample_theta(lcg, table, maxdeg=8):
    p = table.p
    theta = table.zero()
    for i in range(1, maxdeg + 1):
        if i % p == 0:
            continue
        if lcg.draw(2):
            theta = theta + table.monomial(_sample_u_poly_coeff(lcg, p), x1=i)
    if theta.is_zero():
        theta = table.monomial(Coeff.from_int(p, 1), x1=1)
    return theta


def _sample_strict_triangular(lcg, table, maxdeg=3):
    """A random element of J_n(R) with leading units 1 over R = F_p[u]."""
    p = table.p
    images = [table.var(table.names[0])]
    for i in range(1, table.nvars):
        extra = table.const(_sample_u_poly_coeff(lcg, p, 1))
        for _ in range(1 + lcg.draw(2)):
            term = table.const(Coeff.from_int(p, 1))
            for j in range(i):
                e = lcg.draw(maxdeg + 1)
                if e:
                    term = term * table.var(table.names[j]) ** e
            extra = extra + term.scale(_sample_u_poly_coeff(lcg, p, 1))
        images.append(table.var(table.names[i]) + extra)
    return PolyMap(table, images)


def _sample_tame_word(lcg, table, max_factors=6, max_deg=4):
    p = table.p
    x1 = table.names[0]
    factors = []
    nfac = 1 + lcg.draw(max_factors)
    for k in range(nfac):
        if k % 2 == 0:
            while True:
                a, b, c, d = (lcg.draw(p) for _ in range(4))
                if (a * d - b * c) % p:
                    break
            factor = plane.AffineFactor(table, (a, b, c, d),
                                        (lcg.draw(p), lcg.draw(p)))
        else:
            deg = 2 + lcg.draw(max_deg - 1)
            q = table.monomial(lcg.draw_nonzero(p), **{x1: deg})
            for e in range(2, deg):
                cc = lcg.draw(p)
                if cc:
                    q = q + table.monomial(cc, **{x1: e})
            factor = plane.TriangularFactor(
                table, lcg.draw_nonzero(p), lcg.draw_nonzero(p),
                lcg.draw(p), q)
        factors.append(factor)
    return plane.recompose(plane.TameWord(table, factors))


def _sample_h_gen(lcg, table):
    p = table.p
    x1 = table.names[0]
    g = table.zero()
    for e in range(1, 4):
        cc = lcg.draw(p)
        if cc:
            g = g + table.monomial(cc, **{x1: e})
    if g.is_zero():
        g = table.monomial(1, **{x1: 1})
    return (lcg.choice(["E1", "E2"]), g)


def _sample_primitive_T_poly(lcg, table, maxdeg=6, zero_const=False):
    p = table.p
    f = table.zero()
    for e in range(0 if not zero_const else 1, maxdeg + 1):
        if lcg.draw(2):
            f = f + table.monomial(_sample_u_poly_coeff(lcg, p), T=e)
    if f.is_zero():
        f = table.monomial(Coeff.from_int(p, 1), T=1)
    return content_primitive(f)[1]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

SUITES = {}
# name -> (the primes it accepts or None, its default count or None, whether
# it reads the seed), written by _suite alone
_DECLARED = {}


def _suite(name, ps=None, primes=None, count=None, seeded=True):
    """Register the decorated body as SUITES[name], as the module
    docstring says."""
    primes = primes or ps
    reads = {"seed"} | {k for k, v in (("p", ps), ("count", count)) if v}

    def register(body):
        def build(params):
            unread = sorted(set(params) - reads)
            if unread:
                raise BadParameters("suite %s does not read %s"
                                    % (name, ", ".join(unread)))
            args = {}
            if ps:
                p = params.get("p")
                if p is not None and p not in primes:
                    raise BadParameters("suite %s runs at p in %s, not %s"
                                        % (name, primes, p))
                args["ps"] = ps if p is None else (p,)
            if count:
                args["count"] = params.get("count", count)
                if args["count"] < 1:
                    raise BadParameters("count must be at least 1")
            if seeded:
                args["seed"] = params.get("seed", 7)
            return body(**args)
        SUITES[name] = build
        _DECLARED[name] = (primes, count, seeded)
        return body
    return register


@_suite("axioms", ps=(2, 3))
def _suite_axioms(ps, seed):
    cases = []

    def action_case(cid, make):
        def thunk():
            action = make()
            return check_axioms(action.table, action.images)[0], ""
        cases.append((cid, thunk))

    def built_case(cid, build):
        # the builder's GaAction(table, images) has run check_axioms
        def thunk():
            build()
            return True, ""
        cases.append((cid, thunk))

    for p in ps:
        action_case("gallery-triangular-p%d" % p,
                    lambda p=p: gallery.build_example_triangular(p).action)
        built_case("gallery-F-n3-p%d" % p,
                   lambda p=p: gallery.build_F_and_Fh(3, p))
        built_case("gallery-F-n4-p%d" % p,
                   lambda p=p: gallery.build_F_and_Fh(4, p))
        built_case("gallery-rank-r-32-p%d" % p,
                   lambda p=p: gallery.build_rank_r_action(3, 2, p))
        built_case("gallery-rank-r-43-p%d" % p,
                   lambda p=p: gallery.build_rank_r_action(4, 3, p))

        def expo_action(p=p):
            lcg = Lcg(seed * 31 + p)
            table = VarTable(p, ("x1", "x2"))
            theta = _sample_theta(lcg, table, maxdeg=5)
            sig = expo.sigma_from_theta(Coeff.u(p), theta)
            return expo.exponentialize_triangular_n2(sig).action
        action_case("expo-thm15-p%d" % p, expo_action)

        def fpf_action(p=p):
            table = VarTable(p, ("x1", "x2"))
            word = plane.CentralizerWord(table, 1, [("E1", table.var("x1") ** 2)])
            return plane.fpf_witness_check(word)
        action_case("plane-fpf-p%d" % p, fpf_action)

        def counter_action(p=p):
            table = VarTable(p, ("x", "y"))
            return criteria.a_rigid_counter_action(table, Coeff.u(p))[0]
        action_case("criteria-counter-p%d" % p, counter_action)

    # the cases below are built at one fixed p each, and run only when
    # that p is selected
    members = {pdl: cache(lambda pdl=pdl: gallery.build_nonexp_family(*pdl))
               for pdl in ((2, 3, 1), (3, 2, 1)) if pdl[0] in ps}

    def nonexp_slice_axioms():
        # x-generator substitution is intractable here; the slice generator
        # system generates the same ring, so the axioms are checked there
        verdicts = [member().slice_axioms() for member in members.values()]
        return all(ok for ok, _ in verdicts), ""
    cases.append(("gallery-nonexp-slice-generators", nonexp_slice_axioms))

    def nonexp_small_e_y():
        # E(y), built without E(x), equals y + xi exactly
        fam = members[(2, 3, 1)]()
        return slice_image(fam.data(), "y") == fam.e_y(), ""

    def corrupted_a2():
        table = VarTable(2, ("x1", "x2"))
        images = [table.parse("x1+x1*T"), table.var("x2")]
        ok, witness = check_axioms(table, images)
        try:
            GaAction(table, images)
            constructed = True
        except AxiomViolation:
            constructed = False
        return (not ok and witness[0] == "A2" and not constructed,
                "witness %s" % (witness and witness[1]))

    def corrupted_a1():
        table = VarTable(2, ("x1", "x2"))
        ok, witness = check_axioms(
            table, [table.parse("x1+T+1"), table.var("x2")])
        return not ok and witness[0] == "A1", ""

    def corrupted_mixed():
        table = VarTable(3, ("x1", "x2"))
        ok, witness = check_axioms(
            table, [table.parse("x1+T"), table.parse("x2+x1*T")])
        return (not ok and witness[0] == "A2",
                "witness %s" % (witness and witness[1]))

    cases.extend((cid, thunk) for p, cid, thunk in (
        (2, "gallery-nonexp-231-image", nonexp_small_e_y),
        (2, "corrupted-multiplicative", corrupted_a2),
        (2, "corrupted-shifted", corrupted_a1),
        (3, "corrupted-noninvariant-slope", corrupted_mixed)) if p in ps)
    return cases


@_suite("thm15-n2", ps=(2, 3, 5), primes=SUPPORTED_PRIMES, count=50)
def _suite_thm15_n2(ps, count, seed):
    cases = []
    for p in ps:
        table = VarTable(p, ("x1", "x2"))
        u = Coeff.u(p)
        a_pool = (u, u * u, u + 1)
        lcg = Lcg(seed * 1009 + p)
        for k in range(count):
            theta = _sample_theta(lcg, table)
            a = a_pool[lcg.draw(3)]

            def thunk(theta=theta, a=a):
                sigma = expo.sigma_from_theta(a, theta)
                res = expo.exponentialize_triangular_n2(sigma)
                a2, theta2 = expo.theta_of(sigma, res)
                if a2 != a or theta2 != theta:
                    return False, "round trip changed (a, theta)"
                return True, ""
            cases.append(("p%d-%02d" % (p, k), thunk))
    return cases


@_suite("maubach", ps=(2, 3, 5), primes=SUPPORTED_PRIMES, count=12)
def _suite_maubach(ps, count, seed):
    cases = []
    for p in ps:
        # count cases per p: the odd one out goes to n = 2
        for n, per_n in ((2, (count + 1) // 2), (3, count // 2)):
            lcg = Lcg(seed * 271 + 10 * p + n)
            table = VarTable(p, tuple("x%d" % (i + 1) for i in range(n)))
            maxdeg = 2 if p == 5 else 3
            for k in range(per_n):
                psi = _sample_strict_triangular(lcg, table, maxdeg=maxdeg)
                a = Coeff.from_int(p, lcg.draw_nonzero(p))

                def thunk(psi=psi, a=a, table=table):
                    expo.maubach_conjugator(conjugate(eps_map(table, a), psi))
                    return True, ""
                cases.append(("p%d-n%d-%02d" % (p, n, k), thunk))
    return cases


@_suite("ex-triangular", ps=(2, 3), primes=(2, 3, 5), seeded=False)
def _suite_ex_triangular(ps):
    cases = []
    for p in ps:
        def thunk(p=p):
            return gallery.build_example_triangular(p).report.outcome()
        cases.append(("p%d" % p, thunk))
    return cases


@_suite("nonexp-family", seeded=False)
def _suite_nonexp_family():
    cases = []
    for pdl in ((2, 3, 1), (3, 2, 1), (3, 4, 2)):
        member = cache(lambda pdl=pdl: gallery.build_nonexp_family(*pdl))

        def stars(member=member):
            return member().report.outcome()
        cases.append(("stars-%d-%d-%d" % pdl, stars))

        def certificate(member=member):
            fam = member()
            cert = criteria.non_exponentiality_certificate(
                fam.data(), restriction=fam.restriction())
            return (cert.verdict == "NotExponentialOverR"
                    and cert.stability.pattern == "every-variable-monomial"), \
                cert.verdict
        cases.append(("certificate-%d-%d-%d" % pdl, certificate))
    return cases


@_suite("rank3", ps=(2, 3), seeded=False)
def _suite_rank3(ps):
    """The cases of a p share one gallery.Rank3Base."""
    cases = []
    for p in ps:
        base = cache(lambda p=p: gallery.rank3_base(p))

        def xi_case(base=base):
            return base().xi_ok, ""
        cases.append(("xi-p%d" % p, xi_case))
        for l in range(3):
            for m in range(3):
                def thunk(l=l, m=m, base=base):
                    fam = gallery.build_rank3_family(base(), l, m)
                    return fam.report.outcome()
                cases.append(("p%d-l%d-m%d" % (p, l, m), thunk))
    return cases


@_suite("rank-r", ps=(2, 3), seeded=False)
def _suite_rank_r(ps):
    cases = []
    for (n, r) in ((3, 2), (4, 2), (4, 3)):
        for p in ps:
            def thunk(n=n, r=r, p=p):
                return gallery.build_rank_r_action(n, r, p).report.outcome()
            cases.append(("n%d-r%d-p%d" % (n, r, p), thunk))
    return cases


@_suite("jvdk", ps=(2, 3), primes=SUPPORTED_PRIMES, count=100)
def _suite_jvdk(ps, count, seed):
    cases = []
    for p in ps:
        table = VarTable(p, ("x1", "x2"))
        lcg = Lcg(seed * 613 + p)
        for k in range(count):
            phi = _sample_tame_word(lcg, table)

            def thunk(phi=phi):
                plane.jvdk_factor(phi)
                return True, ""
            cases.append(("p%d-%03d" % (p, k), thunk))

        def rejects(table=table):
            bad_inputs = ["(x1^2, x2)", "(x1, x1)", "(x1+x2, x1+x2)",
                          "(x1*x2, x2)"]
            from .textio import parse_map
            for text in bad_inputs:
                try:
                    plane.jvdk_factor(parse_map(table, text))
                    return False, "accepted %s" % text
                except NotAutomorphism:
                    continue
            return True, ""
        cases.append(("p%d-rejects" % p, rejects))
    return cases


@_suite("centralizer", ps=(2, 3), primes=SUPPORTED_PRIMES, count=50)
def _suite_centralizer(ps, count, seed):
    bad_count = 20
    cases = []
    for p in ps:
        table = VarTable(p, ("x1", "x2"))
        tvals = (Coeff.from_int(p, 1),) if p == 2 else \
            (Coeff.from_int(p, 1), Coeff.from_int(p, 2))
        lcg = Lcg(seed * 389 + p)
        for k in range(count):
            t = tvals[lcg.draw(len(tvals))]
            gens = [_sample_h_gen(lcg, table) for _ in range(lcg.draw(4))]
            h0 = (lcg.draw_nonzero(p), lcg.draw(p), lcg.draw(p))
            word = plane.CentralizerWord(table, t, gens, h0)

            def thunk(word=word, t=t):
                plane.centralizer_decompose(plane.recompose(word), t)
                return True, ""
            cases.append(("p%d-word%02d" % (p, k), thunk))

        gathered = 0
        attempts = 0
        while gathered < bad_count and attempts < 50 * bad_count:
            attempts += 1
            t = tvals[lcg.draw(len(tvals))]
            phi_bad = _sample_tame_word(lcg, table, max_factors=3, max_deg=3)
            if plane.centralizer_membership(phi_bad, t):
                continue

            def thunk(phi_bad=phi_bad, t=t):
                try:
                    plane.centralizer_decompose(phi_bad, t)
                    return False, "decomposed a non-member"
                except NotInCentralizer:
                    return True, ""
            cases.append(("p%d-nonmember%02d" % (p, gathered), thunk))
            gathered += 1

        def gens_commute(p=p, table=table, tvals=tvals):
            lcg2 = Lcg(seed * 389 + p + 77)
            for t in tvals:
                eps = eps_map(table, t)
                for _ in range(10):
                    kind, g = _sample_h_gen(lcg2, table)
                    word = plane.CentralizerWord(table, t, [(kind, g)])
                    gm = word.gen_map(kind, g)
                    if compose(gm, eps) != compose(eps, gm):
                        return False, "%s(%s) fails" % (kind, g)
                h0 = plane.CentralizerWord(
                    table, t, [], (lcg2.draw_nonzero(p), lcg2.draw(p),
                                   lcg2.draw(p))).h0_map()
                if compose(h0, eps) != compose(eps, h0):
                    return False, "H0 fails"
            return True, ""
        cases.append(("p%d-generators-commute" % p, gens_commute))
    return cases


@_suite("f-and-fh", ps=(2, 3), primes=SUPPORTED_PRIMES, count=10)
def _suite_f_and_fh(ps, count, seed):
    cases = []
    for p in ps:
        def thunk(p=p):
            lcg = Lcg(seed * 97 + p)
            table = VarTable(p, ("x1", "x2", "x3", "x4"))
            hs = [table.zero(), table.var("x1"), table.var("x4")]
            while len(hs) < count:
                h = table.const(lcg.draw(p))
                for _ in range(1 + lcg.draw(2)):
                    term = table.const(1)
                    for nm in ("x1", "x3", "x4"):
                        term = term * table.var(nm) ** lcg.draw(2)
                    h = h + term.scale(Coeff.from_int(p, lcg.draw_nonzero(p)))
                hs.append(h)
            # count h's, also below the three fixed ones
            return gallery.build_F_and_Fh(4, p, hs[:count]).report.outcome()
        cases.append(("p%d" % p, thunk))
    return cases


@_suite("gauss", ps=(2, 3), primes=SUPPORTED_PRIMES, count=200)
def _suite_gauss(ps, count, seed):
    cases = []
    for i, p in enumerate(ps):
        # count pairs in all, the remainder one each to the first primes
        per_p = count // len(ps) + (i < count % len(ps))
        if not per_p:
            continue
        table = VarTable(p, ())
        lcg = Lcg(seed * 53 + p)

        def composition(p=p, table=table, lcg=lcg, per_p=per_p):
            for k in range(per_p):
                f = _sample_primitive_T_poly(lcg, table)
                g = _sample_primitive_T_poly(lcg, table, zero_const=True)
                if not criteria.gauss_check(f, g):
                    return False, "f=%s g=%s" % (f, g)
            return True, "%d pairs" % per_p
        cases.append(("p%d-composition" % p, composition))

        def multiplicativity(p=p, per_p=per_p):
            lcg2 = Lcg(seed * 53 + p + 1000)
            tab = VarTable(p, ("x", "y"))
            for k in range(per_p):
                f = _sample_integral_poly(lcg2, tab)
                g = _sample_integral_poly(lcg2, tab)
                if content(f * g) != content(f) * content(g):
                    return False, "content broke at pair %d" % k
            return True, "%d pairs" % per_p
        cases.append(("p%d-content-multiplicative" % p, multiplicativity))
    return cases


def _sample_integral_poly(lcg, table):
    p = table.p
    f = table.zero()
    for _ in range(1 + lcg.draw(4)):
        mono = {nm: lcg.draw(3) for nm in table.names}
        f = f + table.monomial(_sample_u_poly_coeff(lcg, p), **mono)
    if f.is_zero():
        f = table.const(Coeff.u(p))
    return f


@_suite("fixed-point", ps=(3,), primes=SUPPORTED_PRIMES, count=20)
def _suite_fixed_point(ps, count, seed):
    cases = []
    p, = ps
    table = VarTable(p, ("x1", "x2"))
    lcg = Lcg(seed * 11 + p)

    def sample_tuple(lcg):
        shape = lcg.draw(3)
        y = table.var("x2")
        g = table.zero()
        for e in range(0, 3):
            cc = lcg.draw(p)
            if cc:
                g = g + table.monomial(cc, x2=e)
        if shape == 0:
            f = y ** (2 + lcg.draw(3)) + table.const(lcg.draw(p))
            a, b, c = 1, 1, 0
        elif shape == 1:
            m = 1 + lcg.draw(3)
            bval = lcg.draw_nonzero(p)
            f = table.monomial(lcg.draw_nonzero(p), x2=m)
            a, b, c = pow(bval, m, p), bval, 0
        else:
            w = table.var("x2", p) - y
            f = w ** (1 + lcg.draw(2)) + table.const(lcg.draw_nonzero(p))
            a, b, c = 1, 1, 1
        phi = PolyMap(table, [table.var("x1").scale(Coeff.from_int(p, a)) + g,
                              y.scale(Coeff.from_int(p, b)) + table.const(c)])
        return f, phi, (a, b, c, g)

    for k in range(count):
        f, phi, tup = sample_tuple(lcg)

        def member(f=f, phi=phi, tup=tup):
            eps_prime = PolyMap(table, [table.var("x1") + f, table.var("x2")])
            if compose(phi, eps_prime) != compose(eps_prime, phi):
                return False, "tuple does not commute"
            got = plane.fixed_point_elem_centralizer(phi, f)
            if got is None:
                return False, "membership rejected"
            a, b, c, g = got
            want = tup
            ok = (a == Coeff.from_int(p, want[0]) and b == Coeff.from_int(p, want[1])
                  and c == Coeff.from_int(p, want[2]) and g == want[3])
            return ok, ""
        cases.append(("member%02d" % k, member))

    for k in range(count):
        # f a monomial, second component y + 1: a f(y) = f(y+1) never holds
        m = 1 + lcg.draw(3)
        f_bad = table.monomial(lcg.draw_nonzero(p), x2=m)
        g = table.monomial(lcg.draw(p), x2=lcg.draw(3))
        phi_bad = PolyMap(table, [table.var("x1") + g,
                                  table.var("x2") + table.one()])

        def violator(f_bad=f_bad, phi_bad=phi_bad):
            if plane.fixed_point_elem_centralizer(phi_bad, f_bad) is not None:
                return False, "violating tuple accepted"
            eps_prime = PolyMap(table, [table.var("x1") + f_bad, table.var("x2")])
            commutes = compose(phi_bad, eps_prime) == compose(eps_prime, phi_bad)
            return not commutes, ""
        cases.append(("violator%02d" % k, violator))

    e1 = 1 + lcg.draw(3)
    e2 = 1 + lcg.draw(3)

    def fpf_cases(e1=e1, e2=e2):
        fval = Coeff.from_int(p, 1)
        idw = plane.CentralizerWord(table, fval, [])
        if not plane.fpf_witness_check(idw).restricts_to()[0]:
            return False, "identity witness should restrict"
        g_int = table.var("x1") ** e1
        w1 = plane.CentralizerWord(table, fval, [("E1", g_int)])
        if not plane.fpf_witness_check(w1).restricts_to()[0]:
            return False, "integral word should restrict"
        g_frac = table.monomial(Coeff.u(p).inv(), x1=e2)
        w2 = plane.CentralizerWord(table, fval, [("E2", g_frac)])
        ok, witness = plane.fpf_witness_check(w2).restricts_to()
        if ok:
            return False, "fractional word must fail with a witness"
        return True, "witness in %s" % witness[0]
    cases.append(("fpf-witness", fpf_cases))
    return cases


def run_suite(name, **params):
    if name not in SUITES:
        raise UnknownSuite("unknown suite %r; known: %s"
                           % (name, ", ".join(sorted(SUITES))))
    params = {k: v for k, v in params.items() if v is not None}
    cases = SUITES[name](params)
    if not cases:
        raise BadParameters("suite %s has no cases at %s"
                            % (name, _param_str(params)))
    results = []
    for cid, thunk in cases:
        start = time.monotonic()
        try:
            ok, witness = thunk()
        except Exception as exc:  # a crash is a failing case, not a crash
            ok, witness = False, "%s: %s" % (type(exc).__name__, exc)
        results.append(Check(cid, ok, witness, time.monotonic() - start))
    results.sort(key=lambda c: c.name)  # the canonical report order
    return SuiteResult(name, params, results)
