"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py          # quick checks, a few seconds
    python3 perfbench/selftest.py --full   # also traces every workload once
                                           # (a few minutes)

Quick checks: the goldens are complete and all-pass; the seed-free suites
do not read the seed; a corrupted golden witness, verdict or case is
reported as a mismatch; BENCHMARK.json lists the metrics run.py reports;
and, in a traced pass of a few small suites, every binding of a wrapped
function is replaced (and a binding left unwrapped is reported) and the self
times sum to the traced wall time.  --full adds that every span in
tracer.SPANS is reached by at least one workload, and that the speed scale
does not follow the measured process's heap (about two minutes).
"""

import argparse
import gc
import json
import os
import statistics
import sys
import time

import golden
import run
import worker
from calibrate import SpeedProbe
from tracer import (ROOT_SPAN, SPANS, Tracer, binding_sites,
                    find_originals)
from workloads import GOLDEN_SEEDS, SEED_FREE, WORKLOADS

QUICK_SUITES = ("fixed-point", "gauss", "ex-triangular")
HEAVY_HEAP = 2000000         # live tuples in a heap-heavy interval
CALIBRATION_PAIRS = 100      # heavy intervals, each beside light ones
CALIBRATION_INTERVAL_S = 0.3
CALIBRATION_TOLERANCE = 0.05

sys.path.insert(0, os.path.join(run.ROOT, "src"))
from charp_autos import suites  # noqa: E402


def check(name, ok, detail=""):
    print("%s %s%s" % ("ok  " if ok else "FAIL", name,
                       "  (%s)" % detail if detail and not ok else ""))
    return ok


def goldens_complete():
    missing, non_pass = [], []
    for seed in GOLDEN_SEEDS:
        for suite in suites.SUITES:
            if not os.path.exists(golden.path(seed, suite)):
                missing.append("seed%d/%s" % (seed, suite))
                continue
            with open(golden.path(seed, suite)) as fh:
                recs = golden.records(fh.read())
            non_pass += ["seed%d/%s/%s" % (seed, suite, cid)
                         for cid, (v, _) in recs.items() if v != "pass"]
    covered = sorted(s for names in WORKLOADS.values() for s in names)
    return (check("goldens present for every suite", not missing,
                  ", ".join(missing))
            and check("every golden verdict is pass", not non_pass,
                      ", ".join(non_pass))
            and check("workloads cover every suite exactly once",
                      covered == sorted(suites.SUITES), str(covered)))


class _ReadLog(dict):
    """A params dict that records which keys a suite reads."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def seed_free_suites():
    ok = True
    for suite in sorted(SEED_FREE):
        params = _ReadLog(seed=GOLDEN_SEEDS[0])
        suites.SUITES[suite](params)
        texts = []
        for seed in GOLDEN_SEEDS:
            with open(golden.path(seed, suite)) as fh:
                texts.append(golden.records(fh.read()))
        ok &= check("%s reads no seed and has one golden" % suite,
                    "seed" not in params.read and texts[0] == texts[1])
    return ok


def gate_detects_corruption():
    seed = GOLDEN_SEEDS[0]
    case_lists = [(s, suites.SUITES[s]({"seed": seed})) for s in QUICK_SUITES]
    outputs = worker.run_suites(suites, case_lists, seed)[0]
    ok = True
    for suite, text in outputs.items():
        ok &= check("%s: matches its golden" % suite,
                    golden.mismatches(text, seed, suite) == 0)

    text = outputs["fixed-point"]
    cid, witness = next((c["id"], c["witness"])
                        for c in json.loads(text)["cases"] if c["witness"])
    corruptions = {"witness": ("pass", witness + " (corrupted)"),
                   "verdict": ("fail", witness),
                   "missing case": None}
    real_reference = golden.reference
    try:
        for what, record in corruptions.items():
            recs = real_reference(seed, "fixed-point")
            if record is None:
                del recs[cid]
            else:
                recs[cid] = record
            golden.reference = lambda s, suite, recs=recs: recs
            found = golden.mismatches(text, seed, "fixed-point")
            ok &= check("corrupted golden %s is one mismatch" % what,
                        found == 1, "found %d" % found)
    finally:
        golden.reference = real_reference
    return ok


def benchmark_json_lists_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    return (check("end_to_end metrics match run.py",
                  e2e == list(run.END_TO_END))
            and check("per_layer metrics match run.py",
                      layer == list(run.PER_LAYER))
            and check("workloads match workloads.py",
                      [w["name"] for w in spec["workloads"]]
                      == list(WORKLOADS)))


def traced_pass_is_consistent():
    """Must run last: installing the tracer rewrites the library in place."""
    seed = GOLDEN_SEEDS[0]
    case_lists = [(s, suites.SUITES[s]({"seed": seed})) for s in QUICK_SUITES]
    originals = find_originals()
    before = binding_sites(originals)
    tracer = Tracer()
    tracer.install()
    from charp_autos import endo, expo, gaction, gallery, plane, poly
    missed = tracer.check_bindings(originals, before)
    ok = check("every binding of every listed function is replaced",
               not missed, ", ".join(missed))
    exact_div = next(fn for span, fn in originals.values()
                     if span == "poly.exact_div")
    plane._selftest_alias = exact_div    # a binding install() never saw
    missed = tracer.check_bindings(originals, before)
    del plane._selftest_alias
    ok &= check("a binding left unwrapped is reported",
                missed == ["poly.exact_div"], ", ".join(missed))
    for name, modules in (("exact_div", (poly, endo, gallery)),
                          ("compose", (endo, gaction, expo, gallery, plane,
                                       suites))):
        wrapped = [getattr(m, name) for m in modules]
        ok &= check("every binding of %s is the wrapper" % name,
                    all(hasattr(fn, "__wrapped__") for fn in wrapped)
                    and len({id(fn) for fn in wrapped}) == 1)
    mp = poly.MultiPoly
    ok &= check("MultiPoly.__rmul__ is the __mul__ wrapper",
                mp.__dict__["__rmul__"] is mp.__dict__["__mul__"]
                and hasattr(mp.__dict__["__mul__"], "__wrapped__"))
    outputs, _, start, end = worker.run_suites(suites, case_lists, seed,
                                               tracer)
    wall = end - start
    self_sum = sum(s for _, s in tracer.stats.values())
    ok &= check("traced output unchanged", all(
        golden.mismatches(text, seed, suite) == 0
        for suite, text in outputs.items()))
    ok &= check("self times sum to the traced wall time",
                abs(self_sum - wall) <= run.SELF_SUM_TOLERANCE * wall,
                "%.6f s against %.6f s" % (self_sum, wall))
    return ok


def calibration_ignores_heap():
    """The speed scale (calibrate.py) must not follow the measured
    process's heap, or a library change that grows the heap would rescale
    its own cost away.  Intervals of library cases alternate between a
    light heap and one holding HEAVY_HEAP live tuples (about 128 MB, over
    twice rank3's whole peak); each heavy interval's scale is compared with
    the mean of the light intervals beside it, which cancels the machine's
    drift, and the median of these ratios must be within
    CALIBRATION_TOLERANCE of 1."""
    cases = [c for s in QUICK_SUITES for c in suites.SUITES[s]({"seed": 7})]

    def interval_scale(speed):
        begin = time.monotonic()
        end = begin + CALIBRATION_INTERVAL_S
        while time.monotonic() < end:
            for _, thunk in cases:
                thunk()
                if time.monotonic() >= end:
                    break
        return speed.scale(begin, time.monotonic())

    ratios = []
    with SpeedProbe() as speed:
        light = interval_scale(speed)
        for _ in range(CALIBRATION_PAIRS):
            held = [(i & 255, i >> 8 & 255) for i in range(HEAVY_HEAP)]
            heavy = interval_scale(speed)
            del held
            gc.collect()
            next_light = interval_scale(speed)
            ratios.append(heavy / ((light + next_light) / 2))
            light = next_light
    ratio = statistics.median(ratios)
    return check("speed scale with %d live tuples within %d%% of a light "
                 "heap's (%.3f)" % (HEAVY_HEAP, 100 * CALIBRATION_TOLERANCE,
                                    ratio),
                 abs(ratio - 1) <= CALIBRATION_TOLERANCE)


def spans_reached():
    reached = set()
    for workload in WORKLOADS:
        result = run.spawn(workload, GOLDEN_SEEDS[0], "pass", trace=True)
        reached |= {span for span, (calls, _) in
                    result["trace"]["stats"].items() if calls}
    listed = {span for span, _, _, _ in SPANS} | {ROOT_SPAN}
    return check("every listed span is reached by some workload",
                 listed <= reached, ", ".join(sorted(listed - reached)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--full", action="store_true")
    args = ap.parse_args(argv)
    results = [goldens_complete(), seed_free_suites(),
               gate_detects_corruption(),
               benchmark_json_lists_reported_metrics()]
    if args.full:
        results += [spans_reached(), calibration_ignores_heap()]
    results.append(traced_pass_is_consistent())
    print("selftest %s" % ("passed" if all(results) else "FAILED"))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
