"""Builders for the explicit constructions, each returning the construction
plus a report of machine-checked identities.

The builder of the translation family (see build_nonexp_family) does not
materialize the image of x: it contains (y + xi)^(p*a+1), with hundreds of
thousands of terms already at modest parameters.  Its report needs only
the nonintegral part of E(x) - x, which NonExpFamily.nonintegral_shift
computes exactly in closed form from xi modulo u^2, by Lucas's theorem.
gaction.slice_image(family.data(), name) builds one image of the canonical
action alone, so E(y) = y + xi is checked cheaply at every member;
gaction.slice_action(family.data()) builds all of them, E(x) included,
which is feasible only for a small member.
"""

import json

from .coeffs import Coeff
from .errors import (BadH, BadParameters, InternalIntegralityFailure,
                     NotDivisible, NotInvariantGenerator, UnsupportedP)
from .poly import VarTable, exact_div, is_polynomial_over
from .endo import PolyMap, compose, eps_map, order_up_to
from .gaction import (GaAction, SliceData, rank_certificate, slice_action,
                      slice_axioms_report)


class Check:
    """One named check: its verdict, a residual or witness text, and its
    wall time in seconds (0 where the check is not timed on its own)."""

    def __init__(self, name, ok, detail="", elapsed=0.0):
        self.name = name
        self.ok = ok
        self.detail = detail
        self.elapsed = elapsed


class StarReport:
    """Ordered named checks."""

    def __init__(self):
        self.checks = []

    def add(self, name, ok, detail=""):
        self.checks.append(Check(name, bool(ok), detail))

    def all_ok(self):
        return all(c.ok for c in self.checks)

    def outcome(self):
        """(ok, witness) as a suite case reports it: the failed names."""
        bad = [c.name for c in self.checks if not c.ok]
        return not bad, ("failed: " + ",".join(bad) if bad else "")

    def to_text(self, **values):
        """The checks' verdicts, then any named values, as one JSON
        object on one line."""
        return json.dumps({**{c.name: c.ok for c in self.checks}, **values})


# ---------------------------------------------------------------------------
# the triangular three-variable example
# ---------------------------------------------------------------------------

class TriangularExample:
    def __init__(self, p, action, report):
        self.p = p
        self.action = action
        self.report = report


def build_example_triangular(p):
    """The action E = (x1+aT, x2+lam, x3+mu; fixing the shifted coordinates)
    with a = u, lam = a^-1 x1^(p+1), mu = a^-1(x1^(p+1)x2^p - x1^(p^2+1)x2);
    for p = 2 the corrected mu' = mu - a^-2 x1^8 is used.

    E_1 restricts to R[x] and has order p, E(x2) is integral, but E(x3) only
    becomes integral after removing a^-1 x1^(1+p+p^2)(T^p - T).
    """
    if p not in (2, 3, 5):
        raise UnsupportedP("supported characteristics: 2, 3, 5")
    table = VarTable(p, ("x1", "x2", "x3"))
    a = Coeff.u(p)
    x1 = table.var("x1")
    x2 = table.var("x2")
    x3 = table.var("x3")
    lam = table.monomial(a.inv(), x1=p + 1)
    mu = (table.monomial(a.inv(), x1=p + 1, x2=p)
          - table.monomial(a.inv(), x1=p * p + 1, x2=1))
    if p == 2:
        mu = mu - table.monomial((a ** 2).inv(), x1=8)
    coords = PolyMap(table, [x1, x2 + lam, x3 + mu])
    action = slice_action(SliceData(coords, table.var("T").scale(a)))

    report = StarReport()
    # mu lies in sum over p-prime exponents of R_a[x2 + lam] x1^i
    nu = mu.substitute({"x2": x2 - lam})
    good = all(e[table.index["x1"]] % p for e in nu.terms)
    report.add("mu_good_form", good, "exponents of x1 in f2-coordinates")

    ok2, _ = is_polynomial_over(action.images[1])
    report.add("E_x2_integral", ok2)

    residual = action.images[2] - table.monomial(
        a.inv(), x1=1 + p + p * p) * (table.var("T", p) - table.var("T"))
    ok3, bad3 = is_polynomial_over(residual)
    report.add("E_x3_residual_integral", ok3,
               "" if ok3 else "offending term %s" % (bad3,))

    sigma = action.evaluate(1)
    report.add("E1_restricts", sigma.restricts_to()[0])
    report.add("E1_order_p", order_up_to(sigma, p) == p)

    restr, witness = action.restricts_to()
    report.add("E_not_restricts", not restr,
               "witness %s in E(%s)" % (witness[1][1], witness[0])
               if witness else "")
    return TriangularExample(p, action, report)


# ---------------------------------------------------------------------------
# the non-exponential family of section 4.4
# ---------------------------------------------------------------------------

class NonExpFamily:
    def __init__(self, p, d, l, a, b, c, table, translation, xi, coords,
                 coords_inverse, f_expr, report=None):
        self.p = p
        self.d = d
        self.l = l
        self.a = a
        self.b = b
        self.c = c
        self.table = table
        self.translation = translation    # u^b (1 + u g)
        self.xi = xi                      # E(y) - y, exact
        self.coords = coords
        self.coords_inverse = coords_inverse
        self.f_expr = f_expr
        self.report = report

    def e_y(self):
        return self.table.var("y") + self.xi

    def data(self):
        """The SliceData of the canonical action: lam = f_expr T."""
        return SliceData(self.coords, self.f_expr * self.table.var("T"),
                         self.coords_inverse)

    def nonintegral_shift(self, t_value=None):
        """The nonintegral part of E(x) - x (of sigma(x) - x when
        t_value = 1), in closed form.

        E(x) = x + lam(y) - lam(y + xi) + wcap with wcap = u^b (1 + u g) T
        integral, so modulo R[x, y, z, T] E(x) - x is -(q1 / u^(p+1) +
        q2 / u^2), where q1 = (y + xi)^(p(p-1)) - y^(p(p-1)) and
        q2 = (y + xi)^(pa+1) - y^(pa+1).

        xi = xt^d - (xt + wcap)^d lies in u R[x, y, z, T]: wcap has
        u-valuation >= b and xt^(d-1) has u-valuation >= -(p+1)(d-1) =
        1 - b, so every term of the binomial expansion has valuation >= 1.
        So xi = u A modulo u^2 with A over F_p, and xi^p = u^p A^p modulo
        u^(p+1).  In characteristic p, (y + xi)^(pk) = (y^p + xi^p)^k
        (Lucas's theorem).  Expanding the power p - 1, every term with
        xi^(2p) lies in u^(p+1), and C(p-1, 1) = -1 modulo p; expanding
        (y^p + xi^p)^a (y + xi), every term with xi^p lies in u^2:

            q1 = -y^(p(p-2)) xi^p = -u^p y^(p(p-2)) A^p  modulo u^(p+1),
            q2 = y^(pa) xi = u y^(pa) A                  modulo u^2.

        So the shift is (y^(p(p-2)) A^p - y^(pa) A) / u, and A^p is the
        Frobenius A.frob(), as A has its coefficients in F_p.
        """
        table = self.table
        p = self.p
        u_inv = Coeff.u(p, -1)
        xi = self.xi if t_value is None else self.xi.subs_T(table.const(t_value))
        low = xi.truncate_u(2)
        if not low.truncate_u(1).is_zero():
            raise InternalIntegralityFailure("xi is not in u R[x, y, z, T]")
        a_part = low.scale(u_inv)
        return (table.var("y", p * (p - 2)) * a_part.frob()
                - table.var("y", p * self.a) * a_part).scale(u_inv)

    def slice_axioms(self):
        """slice_axioms_report(self.data()), and then that f_expr read in x,
        y, z is the translation that xi and the stars use, which fails with
        the witness ("A2", "f_expr differs from the translation")."""
        ok, witness = slice_axioms_report(self.data())
        if ok and self.coords.apply(self.f_expr) != self.translation:
            return False, ("A2", "f_expr differs from the translation")
        return ok, witness

    def restriction(self):
        """PolyMap.restricts_to's (ok, witness) pair for the canonical
        action, from the closed-form shift: E fixes the z's and E(y) - y =
        xi is integral (star3), so E restricts exactly when the shift is
        zero.  A failure's witness is ("x", the shift's leading term)."""
        shift = self.nonintegral_shift()
        if shift.is_zero():
            return True, None
        return False, ("x", shift.leading_term())


def build_nonexp_family(p, d, l, g_expr=None):
    """The family over R = F_p[u] built from lam, xt = x + lam and
    yt = y + xt^d; the action translates xt by u^b (1 + u g) and fixes yt
    and the z variables.  Verifies the four star congruences, that E_1
    restricts to R[x,y,z], and that E does not: star4's shift
    d u^-1 y^c (T - T^p) is nonzero, as p does not divide d."""
    if d < 2 or d % p == 0 or l < 0:
        raise BadParameters("need d >= 2 prime to p and l >= 0")
    a = p - 2 + (p - 1) ** 2 * (d - 1)
    b = (p + 1) * (d - 1) + 1
    c = p * a + p * (p - 1) * (d - 1)
    zs = ["z%d" % (i + 1) for i in range(l)]
    table = VarTable(p, tuple(["x", "y"] + zs))
    u = Coeff.u(p)
    x = table.var("x")
    y = table.var("y")
    zvars = [table.var(z) for z in zs]

    lam = (table.monomial((u ** (p + 1)).inv(), y=p * (p - 1))
           + table.monomial((u ** 2).inv(), y=p * a + 1))
    xt = x + lam
    yt = y + xt ** d
    wt = yt.scale(u ** ((p + 1) * d))

    if g_expr is None:
        g_expr = y
        for z in zvars:
            g_expr = g_expr * z
    if g_expr.uses_var("x") or g_expr.uses_var("T"):
        raise BadParameters("g must be expressed in u^((p+1)d) yt and z")
    g = g_expr.substitute({"y": wt})
    ok_g, _ = is_polynomial_over(g)
    if not ok_g:
        raise BadParameters("g escapes R[x,y,z]")

    translation = (table.one() + g.scale(u)).scale(u ** b)
    wcap = translation * table.var("T")
    xi = xt ** d - (xt + wcap) ** d

    # the coordinates (xt, yt, z) and their inverse (x - lam(y - x^d),
    # y - x^d, z), not proved here: gaction._slice_images proves
    # compose(inv, coords) = id before any image is read through it
    coords = PolyMap(table, [xt, yt] + zvars)
    y_back = y - x ** d
    inv = PolyMap(table, [x - lam.substitute({"y": y_back}), y_back] + zvars)

    f_expr = (table.one()
              + g_expr.substitute({"y": table.var("y").scale(u ** ((p + 1) * d))})
              .scale(u)).scale(u ** b)

    family = NonExpFamily(p, d, l, a, b, c, table, translation, xi, coords,
                          inv, f_expr)

    report = StarReport()
    res1a = xt.scale(u ** (p + 1)) - table.monomial(1, y=p * (p - 1))
    report.add("star1_u_xt", res1a.truncate_u(1).is_zero(), str(res1a))
    res1b = (xt ** (d - 1)).scale(u ** b) - table.monomial(u, y=p * (p - 1) * (d - 1))
    report.add("star1_u_xt_power", res1b.truncate_u(2).is_zero(),
               str(res1b))
    ok2 = is_polynomial_over(wt)[0] and not any(wt.uses_var(z) for z in zs)
    report.add("star2_wt_in_Rxy", ok2)
    ok3, bad3 = is_polynomial_over(xi)
    report.add("star3_E_y_integral", ok3, "" if ok3 else str(bad3))

    shift = family.nonintegral_shift()
    expected = table.monomial(Coeff.from_int(p, d) * u.inv(), y=c) \
        * (table.var("T") - table.var("T", p))
    report.add("star4_E_x_coset", shift == expected, str(shift))

    # sigma(y) - y is xi at T = 1, tested apart from star3's verdict
    sigma_shift = family.nonintegral_shift(t_value=1)
    ok_y, _ = is_polynomial_over(xi.subs_T(1))
    report.add("sigma_restricts", sigma_shift.is_zero() and ok_y,
               str(sigma_shift))
    family.report = report
    return family


# ---------------------------------------------------------------------------
# section 6.1: the action F and the centralizer elements F_h
# ---------------------------------------------------------------------------

class FFamily:
    def __init__(self, p, n, table, f, action, report):
        self.p = p
        self.n = n
        self.table = table
        self.f = f
        self.action = action
        self.report = report


def build_F_and_Fh(n, p, h_exprs=()):
    """F = (x1 + x3 T, x2 - T + x3^(p-1) T^p, x3, ..); for h in k[f, x3..xn]
    the evaluation F_h matches the displayed formula and centralizes eps.
    For n = 4 the commutator identity F_f = tau F_{x4} tau^-1 F_{x4}^-1 is
    verified exactly.

    h_exprs are written with x1 standing for f and x3..xn for themselves.
    """
    if n < 3:
        raise BadParameters("need n >= 3")
    table = VarTable(p, tuple("x%d" % (i + 1) for i in range(n)))
    x1, x2, x3 = table.var("x1"), table.var("x2"), table.var("x3")
    f = x2 * x3 + x1 - table.var("x1", p)
    images = [x1 + x3 * table.var("T"),
              x2 - table.var("T") + table.monomial(1, x3=p - 1, T=p)]
    images += [table.var("x%d" % (i + 1)) for i in range(2, n)]
    action = GaAction(table, images)

    report = StarReport()
    # F(x2) via clearing x3: x3 * (F(x2) - x2) = (x1 - x1^p) - F(x1 - x1^p)
    target = x1 - table.var("x1", p)
    moved = target.substitute({"x1": images[0]})
    quotient = exact_div(target - moved, x3)
    report.add("F_x2_divisibility", x2 + quotient == images[1])
    report.add("F_restricts", action.restricts_to()[0])
    report.add("F_f_invariant", action.is_invariant(f))

    eps = eps_map(table, 1)
    all_ok = True
    for h_expr in h_exprs:
        if h_expr.uses_var("x2"):
            raise BadH("h must lie in k[f, x3, .., xn]")
        h = h_expr.substitute({"x1": f})
        fh = action.evaluate(h)
        formula = PolyMap(
            table,
            [x1 + x3 * h, x2 - h + table.monomial(1, x3=p - 1) * h ** p]
            + [table.var(n_) for n_ in table.names[2:]])
        ok = fh == formula and compose(fh, eps) == compose(eps, fh)
        all_ok = all_ok and ok
    report.add("F_h_formula_and_centralizing", all_ok,
               "%d instances" % len(list(h_exprs)))

    if n == 4:
        x4 = table.var("x4")
        f_f = action.evaluate(f)
        f_x4 = action.evaluate(x4)
        f_x4_inv = action.evaluate(-x4)
        tau = PolyMap(table, [x1, x2, x3, x4 + f])
        tau_inv = PolyMap(table, [x1, x2, x3, x4 - f])
        rhs = compose(tau, compose(f_x4, compose(tau_inv, f_x4_inv)))
        report.add("commutator_identity", f_f == rhs)
    return FFamily(p, n, table, f, action, report)


# ---------------------------------------------------------------------------
# section 6.2: rank r actions inducing the translation
# ---------------------------------------------------------------------------

class RankRAction:
    def __init__(self, p, n, r, table, gs, action, report):
        self.p = p
        self.n = n
        self.r = r
        self.table = table
        self.gs = gs
        self.action = action
        self.report = report


def build_rank_r_action(n, r, p):
    """The rank-r action on k[x1..xn] with E_1 = (x1+1, x2, .., xn).

    The paper writes it over k[xn^(+-1)] through f1 = x1 + xn^-1 xr^p and
    the chain f_i = x_i + xn^-1 sum_{2<=j<i} x_j^p + xn^(p-1)(f1^p - f1),
    2 <= i <= r.  Everything it reports lies in k[x1..xn], so the builder
    works there, on g_i = xn f_i:

        g1 = xn x1 + xr^p,
        g_i = xn x_i + sum_{2<=j<i} x_j^p + g1^p - xn^(p-1) g1,

    since g1^p - xn^(p-1) g1 = xn^p (f1^p - f1); for r < i < n, g_i = x_i.
    The action fixes xn, and k[x1..xn, T] is a domain, so E(f1) = f1 + T
    and E(f_i) = f_i exactly when E(g1) = g1 + xn T and E(g_i) = g_i.  The
    invariant generators xn f_i are the g_i themselves, and the deltas
    E(x_i) - x_i of the proof's recursion carry xn^-1 only in front of
    p-th powers of earlier deltas, each a multiple of xn^(p-1), so those
    divisions are exact.
    """
    if not (2 <= r < n <= 5) or p not in (2, 3):
        raise BadParameters("need 2 <= r < n <= 5 and p in {2, 3}")
    names = tuple("x%d" % (i + 1) for i in range(n))
    table = VarTable(p, names)
    xvars = [table.var(nm) for nm in names]
    xn = xvars[-1]
    xn_low = table.var(names[-1], p - 1)

    g1 = xn * xvars[0] + table.var(names[r - 1], p)
    chain = g1 ** p - xn_low * g1
    gs = [g1]
    for i in range(2, r + 1):
        acc = xn * xvars[i - 1] + chain
        for j in range(2, i):
            acc = acc + table.var(names[j - 1], p)
        gs.append(acc)
    gs += xvars[r:-1]

    # images from the proof's recursion on deltas
    tpow = table.var("T", p) - table.var("T")
    deltas = {}
    for i in range(2, r + 1):
        acc = table.zero()
        for j in range(2, i):
            acc = acc + deltas[j] ** p
        deltas[i] = -exact_div(acc, xn) - xn_low * tpow
    delta1 = table.var("T") - exact_div(deltas[r] ** p, xn)
    images = [xvars[0] + delta1]
    images += [xvars[i - 1] + deltas[i] for i in range(2, r + 1)]
    images += xvars[r:]
    action = GaAction(table, images)

    report = StarReport()
    report.add("fixes_chain",
               action.apply(g1) == g1 + xn * table.var("T")
               and all(action.apply(g) == g for g in gs[1:]))

    ideal = xn * tpow
    try:
        for delta in list(deltas.values()) + [delta1 - table.var("T")]:
            exact_div(delta, ideal)
        membership = True
    except NotDivisible:
        membership = False
    report.add("condition_c_cosets", membership)

    report.add("E1_is_translation", action.evaluate(1) == eps_map(table, 1))

    gens = gs[1:] + [xn]
    report.add("invariant_generators",
               all(action.is_invariant(g) for g in gens))

    zero_images = []
    expected_ok = True
    for i in range(2, r + 1):
        img = gs[i - 1].substitute({names[-1]: table.const(0)})
        expected = table.var(names[r - 1], p * p)
        for j in range(2, i):
            expected = expected + table.var(names[j - 1], p)
        expected_ok = expected_ok and img == expected
        zero_images.append(img)
    distinct = len({frozenset(z.terms.items()) for z in zero_images}) == len(zero_images)
    monic = all(z.leading_term()[1].is_one() for z in zero_images)
    report.add("xn_zero_images", expected_ok and distinct and monic)

    cert = rank_certificate(gens, xvars[r:])
    report.add("rank_certificate",
               cert["rank_lower"] == r and cert["rank_upper"] == r,
               "bounds %s" % cert)
    return RankRAction(p, n, r, table, gs, action, report)


# ---------------------------------------------------------------------------
# section 6.3: the rank-three family
# ---------------------------------------------------------------------------

class Rank3Family:
    """A member (l, m) on its base, a Rank3Base, whose p, table, f, g, r
    and xi it reads: it keeps only what depends on (l, m)."""

    def __init__(self, base, l, m, classification, report):
        self.base = base
        self.l = l
        self.m = m
        # ActionRestricts | OnlyE1Restricts | Neither
        self.classification = classification
        self.report = report


_RANK3_PARAMETERS = "need p in {2, 3} and 0 <= l, m <= 4"


class Rank3Base:
    """The part of the rank-three family that depends only on p, which the
    members built on it share: f, g, r, xi, the check xi_ok that xi = g x2
    by exact division, and the identities (slice_ok, x3_ok) of
    _rank3_generic.  The polynomials are read, never changed, by every
    member."""

    def __init__(self, p, table, f, g, r_elt, xi, xi_ok, slice_ok, x3_ok):
        self.p = p
        self.table = table
        self.f = f
        self.g = g
        self.r_elt = r_elt
        self.xi = xi
        self.xi_ok = xi_ok
        self.slice_ok = slice_ok
        self.x3_ok = x3_ok


def _pi_map(poly, keep):
    table = poly.table
    assignment = {nm: table.const(0) for nm in table.names if nm != keep}
    return poly.substitute(assignment)


def rank3_base(p):
    """A fresh Rank3Base for p: f, g, r with
    xi := f^(p^2+1) - r^(p^2) + f^(p^2-p) r^p, the check xi = g x2 by
    exact division, and the generic identities of _rank3_generic(p).
    Nothing is kept between calls, so a call after a library step has been
    replaced sees the replacement."""
    if p not in (2, 3):
        raise BadParameters(_RANK3_PARAMETERS)
    table = VarTable(p, ("x1", "x2", "x3"))
    p2 = p * p
    x1, x2, x3 = (table.var(nm) for nm in table.names)
    f = table.var("x1", p2) - table.var("x1", p) + x2 * x3
    g = f ** p2 * x3 - table.var("x2", p2 - 1) + f ** (p2 - p) * table.var("x2", p - 1)
    r_elt = f * x1 + x2
    xi = f ** (p2 + 1) - r_elt ** p2 + f ** (p2 - p) * r_elt ** p
    return Rank3Base(p, table, f, g, r_elt, xi, exact_div(xi, g) == x2,
                     *_rank3_generic(p)[2:])


def _rank3_symbols(p):
    """(table, G, B) over the free symbols F, X1, X2, X3, S: G stands for g
    and B for the block G^(p^2-1) (ST)^(p^2) - G^(p-1) (ST)^p."""
    table = VarTable(p, ("F", "X1", "X2", "X3", "S"))
    p2 = p * p
    g = (table.var("F", p2) * table.var("X3") - table.var("X2", p2 - 1)
         + table.var("F", p2 - p) * table.var("X2", p - 1))
    st = table.var("S") * table.var("T")
    g_low = g ** (p - 1)
    block = g_low * g_low.frob() * st.frob(2) - g_low * st.frob()
    return table, g, block


def _rank3_generic(p):
    """(e1, e2, slice_ok, x3_ok) over the free symbols of
    _rank3_symbols: the images e1 = X1 + a and e2 = X2 - Y of the rank-three
    action with l, m >= 1, where a = G S T + F^(p^2-1) B and Y = F^(p^2) B,
    and its two identities.  slice_ok is F e1 + e2 = F X1 + X2 + F G S T.
    x3_ok is

        N = X3 e2 + B (X2^(p^2-1) - Y^(p^2-1)) - F^(p^2-p) B (X2^(p-1) - Y^(p-1))

    for N = X2 X3 - a^(p^2) + a^p, the numerator of E(x3) = N / e2; since
    e2 = X2 - Y divides both binomial differences, E(x3) is a polynomial.
    The right-hand side is not expanded in that form: Y^(p^2-1) alone has
    20,577 terms at p = 5.  As Y = F^(p^2) B and the coefficients lie in
    F_p, B Y^(p^2-1) = F^(p^2(p^2-1)) B^(p^2) and B Y^(p-1) =
    F^(p^2(p-1)) B^p, Frobenius powers of B, so the same polynomial is

        X3 e2 + B X2^(p^2-1) - F^(p^2(p^2-1)) B^(p^2)
              - F^(p^2-p) B X2^(p-1) + F^(p^3-p) B^p,

    and N is compared with it.  Being the same polynomial, it is still a
    multiple of e2 by the binomial form.
    """
    table, g, block = _rank3_symbols(p)
    p2 = p * p
    x1, x2, x3 = (table.var(nm) for nm in ("X1", "X2", "X3"))
    f = table.var("F")
    st = table.var("S") * table.var("T")
    a = g * st + table.var("F", p2 - 1) * block
    y = table.var("F", p2) * block
    e1 = x1 + a
    e2 = x2 - y
    slice_ok = f * e1 + e2 == f * x1 + x2 + f * g * st
    numerator = x2 * x3 - a.frob(2) + a.frob()
    certificate = (x3 * e2 + block * table.var("X2", p2 - 1)
                   - table.var("F", p2 * (p2 - 1)) * block.frob(2)
                   - table.var("F", p2 - p) * block * table.var("X2", p - 1)
                   + table.var("F", p2 * p - p) * block.frob())
    return e1, e2, slice_ok, numerator == certificate


def _rank3_ring_map(f, g, l, m):
    """The images of the generic symbols F, X1, X2, X3, S at (l, m): f, the
    ring variables, and the scale S = f^(l-1) g^(m-1)."""
    table = f.table
    return {"F": f, "X1": table.var("x1"), "X2": table.var("x2"),
            "X3": table.var("x3"), "S": f ** (l - 1) * g ** (m - 1)}


def build_rank3_family(base, l, m):
    """The translation-inducing family on k[x1,x2,x3] built on f, g, r with
    xi := f^(p^2+1) - r^(p^2) + f^(p^2-p) r^p = g x2.

    The member reads p, f, g, r, xi and the checks that depend only on p
    from base, a Rank3Base of rank3_base(p); the rank3 suite passes one
    base to all cases of a p, so a suite run proves them once per p.

    Classification: the action restricts iff l, m >= 1; at (1, 0) only the
    evaluation at 1 restricts, and it is eps, which E1_equals_eps computes
    from g E_1(x1) and g E_1(x2) by exact division; otherwise neither
    does, by the substitution-map nonvanishing oracle.

    For l, m >= 1 the images are not built: they have tens of thousands of
    terms at p = 3.  The identities of _rank3_generic hold over the free
    symbols F, X1, X2, X3, S, T, and F -> f, Xi -> xi, S -> f^(l-1) g^(m-1),
    T -> T is a ring map that sends G to g, so they hold for every member:
    it sends the generic e1, e2 to the images of x1, x2 and the slice
    F G S T to f^l g^m T, which is checked concretely.  They are proved
    once per base.

    For l = 0 or m = 0 an image is written as n / d with n, d polynomials:
    E(x2) = n / g when m = 0 (at T = 1 when l >= 2), E_1(x1) = n / (f g)
    when l = 0.  A projection pi1 or pi2, which keeps x1 or x2 and sends
    the other two variables to 0, kills d but not n, so d does not divide
    n.  A projection is a ring map, so it is applied to f, g and the
    variables first and n's image is formed from theirs: n itself, with
    terms like f^(p^2-p) g^(mp), is not built.
    """
    if l < 0 or m < 0 or max(l, m) > 4:
        raise BadParameters(_RANK3_PARAMETERS)
    p, table, f, g = base.p, base.table, base.f, base.g
    p2 = p * p
    x1, x2 = table.var("x1"), table.var("x2")

    report = StarReport()
    report.add("xi_equals_g_x2", base.xi_ok)

    if l >= 1 and m >= 1:
        scale = _rank3_ring_map(f, g, l, m)["S"]
        report.add("slice_consistency",
                   base.slice_ok and f * g * scale == f ** l * g ** m)
        report.add("x3_image_polynomial", base.x3_ok)
        return Rank3Family(base, l, m, "ActionRestricts", report)

    if (l, m) == (1, 0):
        # g E(x1) = g x1 + g T + f^(p^2-1) (T^(p^2) - T^p) and
        # g E(x2) = g x2 - f^(p^2) (T^(p^2) - T^p); at T = 1, set in the
        # T-parts before the products are formed, the quotients by g are
        # eps's images x1 + 1 and x2
        one = table.one()
        tpow = table.var("T", p2) - table.var("T", p)
        tpow_1 = tpow.subs_T(one)
        n1 = g * x1 + g + f ** (p2 - 1) * tpow_1
        n2 = g * x2 - f ** p2 * tpow_1
        report.add("E1_equals_eps", exact_div(n1, g) == x1 + one
                   and exact_div(n2, g) == x2)
        # the action does not restrict: pi1 of g E(x2)
        f1, g1, x2_1 = (_pi_map(v, "x1") for v in (f, g, x2))
        pi1 = g1 * x2_1 - f1 ** p2 * tpow
        report.add("action_blocked_pi1", g1.is_zero() and not pi1.is_zero(),
                   "pi1 residual %s" % pi1)
        return Rank3Family(base, l, m, "OnlyE1Restricts", report)

    if l >= 2 and m == 0:
        # n = g E_1(x2) = g x2 - f^(p^2) (f^((l-1)p^2) - f^((l-1)p))
        f1, g1, x2_1 = (_pi_map(v, "x1") for v in (f, g, x2))
        pi1 = g1 * x2_1 - f1 ** p2 * (f1 ** ((l - 1) * p2)
                                      - f1 ** ((l - 1) * p))
        report.add("E1_blocked_pi1", g1.is_zero() and not pi1.is_zero(),
                   "pi1 residual %s" % pi1)
        return Rank3Family(base, l, m, "Neither", report)

    # l == 0, any m: n = f g E_1(x1)
    #                    = f g x1 + g^(m+1) + g^(mp^2) - f^(p^2-p) g^(mp)
    f2, g2, x1_2 = (_pi_map(v, "x2") for v in (f, g, x1))
    expected = g2 ** (m + 1) + g2 ** (m * p2)
    pi2 = f2 * g2 * x1_2 + expected - f2 ** (p2 - p) * g2 ** (m * p)
    report.add("E1_blocked_pi2",
               (f2 * g2).is_zero() and not pi2.is_zero()
               and pi2 == expected,
               "pi2 residual %s" % pi2)
    return Rank3Family(base, l, m, "Neither", report)


# ---------------------------------------------------------------------------
# invariants of the translation
# ---------------------------------------------------------------------------

def epsilon_invariants(n, p):
    """Generators {x1^p - x1, x2, .., xn} of the invariant ring of
    eps = (x1+1, x2, .., xn), each verified."""
    if n < 1:
        raise BadParameters("need n >= 1")
    table = VarTable(p, tuple("x%d" % (i + 1) for i in range(n)))
    gens = [table.var("x1", p) - table.var("x1")]
    gens += [table.var(nm) for nm in table.names[1:]]
    shift = {"x1": table.var("x1") + table.one()}
    for gpoly in gens:
        if gpoly.substitute(shift) != gpoly:
            raise NotInvariantGenerator("generator %s is not invariant"
                                        % gpoly)
    return table, gens

