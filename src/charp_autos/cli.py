"""charp-autos: verification runner and construction explorer.

Exit codes: 0 all checks pass, 1 some check fails, 2 usage or parse error
(an unsupported --p, a construction parameter out of range, or a flag or
suite parameter that the command or the suite does not read), 141 (128 +
SIGPIPE, as a shell reports a command killed by a closed pipe) when the
reader of stdout closes it early, e.g. `| head`.
Reports are deterministic for a fixed (suite, parameters, seed); timings are
kept out of the canonical output (--timings prints each case's time and the
total to stderr).
"""

import argparse
import os
import sys

from .coeffs import SUPPORTED_PRIMES
from .errors import (BadParameters, CharpAutosError, ParseError, UnknownSuite,
                     UnsupportedP)
from .poly import VarTable
from .textio import (map_to_str, parse_coeff, parse_map, parse_poly,
                     poly_to_str)
from .suites import SUITES, run_suite
from . import criteria, expo, gallery, plane

SUITE_FLAGS = ("p", "seed", "count")
# The one-letter flags each gallery construction reads, and their defaults
_GALLERY_FLAGS = {"triangular": "p", "nonexp": "pdl", "F": "pn",
                  "rank-r": "pnr", "rank3": "plm", "eps-invariants": "pn"}
_GALLERY_DEFAULTS = {"p": 2, "d": 3, "l": 1, "m": 1, "n": 3, "r": 2}


def build_parser():
    top = argparse.ArgumentParser(prog="charp-autos", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    suite = sub.add_parser("suite", help="run or list verification suites")
    suite_sub = suite.add_subparsers(dest="suite_command", required=True)
    listp = suite_sub.add_parser("list", help="list registered suites")
    runp = suite_sub.add_parser("run", help="run one suite")
    runp.add_argument("name")
    for flag in SUITE_FLAGS:
        runp.add_argument("--%s" % flag, type=int, default=None)
    runp.add_argument("--json", action="store_true")
    runp.add_argument("--timings", action="store_true")

    gal = sub.add_parser("gallery", help="build a construction and report")
    gal_sub = gal.add_subparsers(dest="name", required=True)
    for name, flags in _GALLERY_FLAGS.items():
        con = gal_sub.add_parser(name)
        for flag in flags:
            con.add_argument("--%s" % flag, type=int,
                             default=_GALLERY_DEFAULTS[flag])
    gal_sub.choices["nonexp"].add_argument(
        "--g", default=None,
        help="g for the nonexp family, in y (= u^((p+1)d) yt) and z")

    pl = sub.add_parser("plane", help="plane automorphism tools")
    pl_sub = pl.add_subparsers(dest="plane_command", required=True)
    fac = pl_sub.add_parser("factor")
    fac.add_argument("map", help='automorphism, e.g. "(x1+x2^2, x2)"')
    fac.add_argument("--p", type=int, default=2)
    cen = pl_sub.add_parser("centralize")
    cen.add_argument("map")
    cen.add_argument("--p", type=int, default=2)
    cen.add_argument("--t", default="1", help="translation constant in k*")

    ex = sub.add_parser("expo", help="exponentialize a triangular automorphism")
    ex.add_argument("map", help='sigma, e.g. "(x1+u, x2+x1^2)"')
    ex.add_argument("--p", type=int, default=2)
    ex.add_argument("--base", choices=["Fp", "Fp[u]"], default="Fp[u]")

    cr = sub.add_parser("criteria", help="non-exponentiality certificates")
    cr_sub = cr.add_subparsers(dest="criteria_command", required=True)
    cert = cr_sub.add_parser("certify")
    cert.add_argument("--p", type=int, default=2)
    cert.add_argument("--d", type=int, default=3)
    cert.add_argument("--l", type=int, default=1)
    cert.add_argument("--g", default=None)

    pr = sub.add_parser("parse", help="parse and reprint canonically")
    pr_sub = pr.add_subparsers(dest="entity", required=True)
    for entity in ("poly", "map", "action", "word", "coeff"):
        ent = pr_sub.add_parser(entity)
        ent.add_argument("text")
        ent.add_argument("--p", type=int, default=2)
        if entity != "coeff":
            ent.add_argument("--vars", default="x1,x2")
        if entity == "word":
            ent.add_argument("--t", default="1", help="t for centralizer words")
    return top


def _cmd_suite(args):
    if args.suite_command == "list":
        for name in sorted(SUITES):
            print(name)
        return 0
    params = {k: getattr(args, k) for k in SUITE_FLAGS
              if getattr(args, k) is not None}
    result = run_suite(args.name, **params)
    print(result.to_json() if args.json else result.to_text())
    if args.timings:
        for c in result.cases:
            print("%s %.3fs" % (c.name, c.elapsed), file=sys.stderr)
        print("total %.3fs" % sum(c.elapsed for c in result.cases),
              file=sys.stderr)
    return 0 if result.all_passed else 1


def _nonexp_g(args):
    """The optional --g of the nonexp family, a polynomial in x, y, z1..zl."""
    if args.g is None:
        return None
    zs = ["z%d" % (i + 1) for i in range(args.l)]
    return parse_poly(VarTable(args.p, tuple(["x", "y"] + zs)), args.g)


def _cmd_gallery(args):
    if args.name == "eps-invariants":
        table, gens = gallery.epsilon_invariants(args.n, args.p)
        print(", ".join(poly_to_str(g) for g in gens))
        return 0
    if args.name == "nonexp":
        built = gallery.build_nonexp_family(args.p, args.d, args.l,
                                            _nonexp_g(args))
        print("a=%d b=%d c=%d" % (built.a, built.b, built.c))
        print("E(y) = %s" % poly_to_str(built.e_y()))
    elif args.name == "rank3":
        built = gallery.build_rank3_family(gallery.rank3_base(args.p),
                                           args.l, args.m)
        print("classification: %s" % built.classification)
    else:
        if args.name == "triangular":
            built = gallery.build_example_triangular(args.p)
        elif args.name == "F":
            built = gallery.build_F_and_Fh(args.n, args.p)
        else:
            built = gallery.build_rank_r_action(args.n, args.r, args.p)
        print(map_to_str(built.action))
    print(built.report.to_text())
    return 0 if built.report.all_ok() else 1


def _cmd_plane(args):
    table = VarTable(args.p, ("x1", "x2"))
    phi = parse_map(table, args.map)
    if args.plane_command == "factor":
        word = plane.jvdk_factor(phi)
        print(word.to_text())
        return 0
    t = parse_coeff(args.p, args.t)
    word = plane.centralizer_decompose(phi, t)
    print(word.to_text())
    return 0


def _cmd_expo(args):
    names = ("x1", "x2") if args.base == "Fp[u]" else ("x1", "x2", "x3")
    table = VarTable(args.p, names)
    sigma = parse_map(table, args.map)
    res = None
    if args.base == "Fp[u]":
        res = expo.exponentialize_triangular_n2(sigma)
        action = res.action
    else:
        action = expo.exponentialize_field_n3(sigma)
    print("action     %s" % map_to_str(action))
    # Report only what the library has not asserted by raising.  For n = 2
    # and sigma(x1) != x1 it has asserted E_1 = sigma and the restriction to
    # R, so what is left is theta_of's round trip.  Every other path reports
    # the restriction to R, which the library leaves open for n = 2 with
    # sigma(x1) = x1 and for n = 3 with sigma(x1) != x1.
    report = gallery.StarReport()
    if res is not None and res.a is not None:
        print("conjugator %s" % map_to_str(res.conjugator))
        print("theta      %s" % poly_to_str(res.reduced_f.scale(res.a)))
        failure = None
        try:
            expo.theta_of(sigma, res)
        except CharpAutosError as exc:
            failure = exc
            print("theta_round_trip: %s" % exc, file=sys.stderr)
        report.add("theta_round_trip", failure is None)
    else:
        report.add("restricts_to_R", action.restricts_to()[0])
    print(report.to_text())
    return 0 if report.all_ok() else 1


def _cmd_criteria(args):
    fam = gallery.build_nonexp_family(args.p, args.d, args.l,
                                      _nonexp_g(args))
    cert = criteria.non_exponentiality_certificate(
        fam.data(), restriction=fam.restriction())
    rep = fam.report
    rep.add("stability_" + cert.stability.kind.lower(),
            cert.stability.is_stable())
    print(rep.to_text(verdict=cert.verdict))
    return 0 if cert.verdict == "NotExponentialOverR" else 1


def _cmd_parse(args):
    if args.entity == "coeff":
        print(parse_coeff(args.p, args.text))
        return 0
    try:
        table = VarTable(args.p, tuple(v for v in args.vars.split(",") if v))
    except ValueError as exc:
        raise ParseError("--vars: %s" % exc)
    if args.entity == "poly":
        print(poly_to_str(parse_poly(table, args.text)))
    elif args.entity == "map":
        print(map_to_str(parse_map(table, args.text)))
    elif args.entity == "word":
        word = plane.parse_word(table, args.text,
                                t=parse_coeff(args.p, args.t))
        print(word.to_text())
    else:
        from .textio import parse_action
        print(map_to_str(parse_action(table, args.text)))
    return 0


def _dispatch(args):
    p = getattr(args, "p", None)
    if p is not None and p not in SUPPORTED_PRIMES:
        raise UnsupportedP("characteristic must be one of %s, got %d"
                           % (SUPPORTED_PRIMES, p))
    if args.command == "suite":
        return _cmd_suite(args)
    if args.command == "gallery":
        return _cmd_gallery(args)
    if args.command == "plane":
        return _cmd_plane(args)
    if args.command == "expo":
        return _cmd_expo(args)
    if args.command == "criteria":
        return _cmd_criteria(args)
    return _cmd_parse(args)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = _dispatch(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull so that the interpreter's final flush of
        # what is left in the buffer cannot fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ParseError, UnknownSuite, BadParameters, UnsupportedP) as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2
    except CharpAutosError as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
