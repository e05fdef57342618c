"""Fixed-operand layer probes, each timed in isolation.

Operands are rebuilt from their closed forms, so setting up a probe does not
pay for the gallery build it comes from (the rank3 case p3-l2-m2 takes tens
of seconds).  Each probe reports the median time of one operation over
several repeats, rescaled to the nominal machine speed (calibrate.py); the
operation's result is checked, so a probe that computes a wrong answer fails
the run.
"""

import statistics
import time

from charp_autos.coeffs import Coeff
from charp_autos.endo import compose
from charp_autos.expo import sigma_from_theta
from charp_autos.gaction import check_axioms
from charp_autos.gallery import build_rank_r_action
from charp_autos.poly import VarTable, exact_div

P = 3


def _time(speed, op, number=1, repeat=1):
    """Median seconds per call of op() over `repeat` batches of `number`,
    rescaled to the nominal machine speed."""
    samples = []
    begin = time.monotonic()
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            op()
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples) * speed.scale(begin, time.monotonic())


def _coeff_operands():
    """(name, a, b) for F_p constants, F_p[u] and F_p(u), all at p = 3."""
    return (
        ("fp", Coeff.from_int(P, 2), Coeff.from_int(P, 1)),
        ("fpu", Coeff.from_u_coeffs(P, (1, 2, 0, 1)),
         Coeff.from_u_coeffs(P, (2, 0, 1))),
        ("frac", Coeff(P, (1, 1), (0, 1, 1)), Coeff(P, (2, 0, 1), (1, 2))),
    )


def _rank3_operands():
    """f, g of the rank3 family at p = 3 and the (l, m) = (2, 2) division
    (e2 - x2) / f^(p^2), whose quotient is -block."""
    table = VarTable(P, ("x1", "x2", "x3"))
    p2 = P * P
    x2, x3 = table.var("x2"), table.var("x3")
    f = table.var("x1", p2) - table.var("x1", P) + x2 * x3
    g = (f ** p2 * x3 - table.var("x2", p2 - 1)
         + f ** (p2 - P) * table.var("x2", P - 1))
    scale = f * g
    block = (g ** (p2 - 1) * scale ** p2 * table.var("T", p2)
             - g ** (P - 1) * scale ** P * table.var("T", P))
    divisor = f ** p2
    e2 = x2 - divisor * block
    return f, g, e2 - x2, divisor, -block


def run(speed):
    out = {}
    ok = True
    for name, a, b in _coeff_operands():
        out["probe.coeffs.add.%s_us" % name] = _time(
            speed, lambda: a + b, 4000, 5) * 1e6
        out["probe.coeffs.mul.%s_us" % name] = _time(
            speed, lambda: a * b, 4000, 5) * 1e6
        ok = ok and (a + b) - b == a and (a * b) / b == a

    f, g, dividend, divisor, quotient = _rank3_operands()
    out["probe.poly.mul.rank3_ms"] = _time(speed, lambda: f * g, 100, 5) * 1e3
    out["probe.poly.pow.rank3_ms"] = _time(
        speed, lambda: g ** (P * P - 1), 1, 5) * 1e3
    quotients = []
    out["probe.poly.exact_div.rank3_s"] = _time(
        speed, lambda: quotients.append(exact_div(dividend, divisor)))
    ok = ok and quotients[0] == quotient

    table = VarTable(P, ("x1", "x2"))
    u = Coeff.u(P)
    theta = table.parse("(u^2+1)*x1 + u*x1^2 + x1^4 + (u+2)*x1^5 + x1^7"
                        " + u^2*x1^8")
    shift = {"x1": table.var("x1") + table.const(u)}
    sigma = sigma_from_theta(u, theta)
    out["probe.poly.substitute.thm15_ms"] = _time(
        speed, lambda: theta.substitute(shift), 20, 5) * 1e3
    out["probe.endo.compose.thm15_ms"] = _time(
        speed, lambda: compose(sigma, sigma), 20, 5) * 1e3
    ok = ok and compose(sigma, sigma).images[0] == (
        table.var("x1") + table.const(u + u))

    action = build_rank_r_action(4, 3, P).action
    out["probe.gaction.check_axioms.rank_r43_ms"] = _time(
        speed, lambda: check_axioms(action.table, action.images), 20, 5) * 1e3
    ok = ok and check_axioms(action.table, action.images)["A2"]
    return {"probes": out, "probes_ok": bool(ok)}
