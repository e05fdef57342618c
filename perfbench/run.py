"""charp-autos benchmark: the user's wait for a suite's verdicts.

    python3 perfbench/run.py --workload rank3 --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 4242

One closed-loop client: every measurement is a fresh interpreter (a CLI
user pays the import on every call) that runs one case at a time with
CHARP_AUTOS_THREADS=1; the thread pool cannot run cases in parallel under
the GIL.  The suites run at their acceptance parameters at --seed.

--trace 0 reports the end-to-end metrics: set-up is sampled in several
fresh interpreters at consecutive seeds, and whole passes over the workload
repeat while another one fits in --seconds (at least one).  --trace 1 runs
one traced pass (tracer.py) beside one untraced pass followed by the layer
probes (probes.py), and reports the per-layer metrics.  Times are rescaled
to a nominal machine speed (calibrate.py).  Every pass is checked against
the committed golden outputs (golden.py).  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import golden
from tracer import LAYERS, SPANS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_SAMPLES = 15         # set-up-only interpreters per --trace 0 run,
SETUP_MIN_S = 4.0          # or more while they take less wall time
CHILD_TIMEOUT_S = 170      # a run must end within 180 s
SELF_SUM_TOLERANCE = 0.02  # traced self times against the traced wall time

END_TO_END = (
    ("verdict_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics of a --trace 1 run; BENCHMARK.json lists the same ones
# (selftest.py checks), with the prediction table in README.md.
PER_LAYER = (
    [(layer + ".self_s", "s") for layer in LAYERS]
    + [("coeffs.normalisations", "count"),
       ("coeffs.integral_input_ratio", "ratio"),
       ("coeffs.mul.self_s", "s"),
       ("coeffs.add.self_s", "s"),
       ("coeffs.div.self_s", "s"),
       ("poly.exact_div.self_s", "s"),
       ("poly.exact_div.calls", "count"),
       ("poly.exact_div.quotient_terms", "count"),
       ("poly.mul.self_s", "s"),
       ("poly.mul.calls", "count"),
       ("poly.mul.term_products", "count"),
       ("poly.add.self_s", "s"),
       ("poly.pow.self_s", "s"),
       ("poly.frob.self_s", "s"),
       ("poly.max_terms", "count"),
       ("poly.substitute.self_s", "s"),
       ("poly.substitute.calls", "count"),
       ("poly.content_primitive.self_s", "s"),
       ("endo.compose.self_s", "s"),
       ("endo.compose.calls", "count"),
       ("endo.conjugate.self_s", "s"),
       ("endo.invert_structured.self_s", "s"),
       ("endo.order_up_to.self_s", "s"),
       ("criteria.gauss_check.self_s", "s"),
       ("criteria.non_exponentiality_certificate.self_s", "s"),
       ("gaction.check_axioms.self_s", "s"),
       ("gaction.slice_action.self_s", "s")]
    + [(span + ".self_s", "s") for span, _, _, _ in SPANS
       if span.startswith("gallery.build_")]
    + [("expo.exponentialize_triangular_n2.self_s", "s"),
       ("expo.maubach_conjugator.self_s", "s"),
       ("plane.jvdk_factor.self_s", "s"),
       ("plane.recompose.self_s", "s"),
       ("plane.centralizer_decompose.self_s", "s"),
       ("plane.centralizer_membership.self_s", "s"),
       ("suites.case_list_s", "s"),
       ("suites.case_max_s", "s"),
       ("suites.case_p50_ms", "ms"),
       ("suites.case_tail_ms", "ms"),
       ("trace.overhead_frac", "ratio")]
    + [("probe.coeffs.%s.%s_us" % (op, dom), "us")
       for dom in ("fp", "fpu", "frac") for op in ("add", "mul")]
    + [("probe.poly.mul.rank3_ms", "ms"),
       ("probe.poly.pow.rank3_ms", "ms"),
       ("probe.poly.exact_div.rank3_s", "s"),
       ("probe.poly.substitute.thm15_ms", "ms"),
       ("probe.endo.compose.thm15_ms", "ms"),
       ("probe.gaction.check_axioms.rank_r43_ms", "ms")]
)


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# measurement processes
# ---------------------------------------------------------------------------

def pinned_env():
    """The caller's environment without PYTHON* settings, with the hash
    seed and the thread count pinned."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONHASHSEED="0", CHARP_AUTOS_THREADS="1")
    return env


def spawn(workload, seed, mode, trace=False):
    """Run worker.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode
           ] + (["--trace"] if trace else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=pinned_env(), text=True,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s %s worker exceeded %d s"
                         % (workload, mode, CHILD_TIMEOUT_S))
    if proc.returncode != 0:
        raise BenchError("%s %s worker failed:\n%s"
                         % (workload, mode, proc.stderr[-4000:]))
    return json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_passes(passes, seed):
    """Attempted and failed case runs, the largest number of golden
    mismatches in one pass, and whether all passes printed the same."""
    attempted = failed = mismatch = 0
    for ps in passes:
        pass_mismatch = 0
        for suite, text in ps["outputs"].items():
            verdicts = [v for v, _ in golden.records(text).values()]
            attempted += len(verdicts)
            failed += sum(v != "pass" for v in verdicts)
            pass_mismatch += golden.mismatches(text, seed, suite)
        mismatch = max(mismatch, pass_mismatch)
    same = all(ps["outputs"] == passes[0]["outputs"] for ps in passes)
    return attempted, failed, mismatch, same


def case_stats(case_s):
    """Per-case median, tail and maximum.  The tail is the highest
    percentile with at least ten samples beyond it; the median is the low
    median, so with 20 or more samples it never exceeds the tail."""
    ordered = sorted(case_s)
    tail_index = max(0, len(ordered) - 11)
    return {"cases": len(ordered),
            "p50_s": statistics.median_low(ordered),
            "tail_s": ordered[tail_index],
            "tail_pct": 100.0 * (tail_index + 1) / len(ordered),
            "max_s": ordered[-1]}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def sample_setups(workload, seed, first, count, min_s):
    """Set-up-only interpreters number first, first + 1, ...: `count` of
    them, and more while they have taken less than `min_s` seconds.

    Building a case list samples the instances, and its cost varies from
    seed to seed (0.44-0.72 s on seeded-instances over seeds 1-40), so
    interpreter i builds the case lists of seed + i % SETUP_SAMPLES: the
    median is the set-up time of the seeds from --seed on, not the luck of
    one.  A set-up that only imports (about 60 ms) is noisier than one that
    builds case lists, so quick set-ups are sampled more often.
    """
    out = []
    start = time.monotonic()
    while len(out) < count or time.monotonic() - start < min_s:
        i = first + len(out)
        out.append(spawn(workload, seed + i % SETUP_SAMPLES, "setup"))
    return out


def measure(workload, seed, seconds):
    # set-up samples before and after the passes, so that their median
    # spans the run's drift in machine speed
    half = SETUP_SAMPLES // 2
    setups = sample_setups(workload, seed, 0, half, SETUP_MIN_S / 2)
    passes = []
    start = time.monotonic()
    while True:
        passes.append(spawn(workload, seed, "pass"))
        elapsed = time.monotonic() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    setups += sample_setups(workload, seed, len(setups),
                            SETUP_SAMPLES - half, SETUP_MIN_S / 2)
    attempted, failed, mismatch, same = check_passes(passes, seed)
    metrics = {
        "verdict_s": statistics.median(ps["verdict_s"] for ps in passes),
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "peak_rss_mb": statistics.median(ps["peak_rss_mb"] for ps in passes),
    }
    record = {
        "pass_verdict_s": [ps["verdict_s"] for ps in passes],
        "pass_verdict_wall_s": [ps["verdict_wall_s"] for ps in passes],
        "pass_speed_scale": [ps["speed_scale"] for ps in passes],
        "setup_seeds": [seed + i % SETUP_SAMPLES
                        for i in range(len(setups))],
        "setup_s": [r["setup_s"] for r in setups],
        "setup_wall_s": [r["setup_wall_s"] for r in setups],
        "pass_setup_s": [ps["setup_s"] for ps in passes],
        "case_list_s": statistics.median(r["case_list_s"]
                                         for r in setups + passes),
        "per_case": case_stats([t for ps in passes for t in ps["case_s"]]),
        "passes_identical": same,
    }
    return metrics, record, attempted, failed, mismatch, same


def measure_traced(workload, seed):
    # The traced pass runs beside the untraced pass and then the probes, on
    # the other core: each is rescaled by its own speed calibration, and
    # one after another they would not fit in a run's 180 s on rank3.
    with ThreadPoolExecutor(max_workers=1) as pool:
        traced_future = pool.submit(spawn, workload, seed, "pass", True)
        plain = spawn(workload, seed, "pass")
        probes = spawn(workload, seed, "probes")
        traced = traced_future.result()
    attempted, failed, mismatch, same = check_passes([plain, traced], seed)
    trace = traced["trace"]
    self_sum = sum(self_s for _, self_s in trace["stats"].values())
    self_sum_ok = abs(self_sum - traced["verdict_s"]) <= (
        SELF_SUM_TOLERANCE * traced["verdict_s"])
    counts = trace["counts"]
    per_case = case_stats(plain["case_s"])
    values = {
        "coeffs.normalisations": counts["normalisations"],
        "coeffs.integral_input_ratio": (
            counts["integral_inputs"] / max(1, counts["normalisations"])),
        "poly.exact_div.quotient_terms": counts["quotient_terms"],
        "poly.mul.term_products": counts["term_products"],
        "poly.max_terms": counts["max_terms"],
        "suites.case_list_s": plain["case_list_s"],
        "suites.case_max_s": per_case["max_s"],
        "suites.case_p50_ms": per_case["p50_s"] * 1e3,
        "suites.case_tail_ms": per_case["tail_s"] * 1e3,
        "trace.overhead_frac": traced["verdict_s"] / plain["verdict_s"] - 1.0,
    }
    for layer, self_s in trace["layers"].items():
        values[layer + ".self_s"] = self_s
    for span, _, _, _ in SPANS:
        calls, self_s = trace["stats"].get(span, (0, 0.0))
        values[span + ".calls"] = calls
        values[span + ".self_s"] = self_s
    values.update(probes["probes"])
    metrics = {name: values[name] for name, _ in PER_LAYER}
    record = {
        "untraced_verdict_s": plain["verdict_s"],
        "traced_verdict_s": traced["verdict_s"],
        "untraced_verdict_wall_s": plain["verdict_wall_s"],
        "traced_verdict_wall_s": traced["verdict_wall_s"],
        "self_sum_s": self_sum,
        "self_sum_ok": self_sum_ok,
        "probes_ok": probes["probes_ok"],
        "per_case": per_case,
        "spans": trace["stats"],
        "bindings": trace["bindings"],
        "bindings_missed": trace["bindings_missed"],
        "counts": counts,
    }
    ok = (same and self_sum_ok and probes["probes_ok"]
          and not trace["bindings_missed"])
    return metrics, record, attempted, failed, mismatch, ok


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def provenance(workload, seed, trace):
    return {"workload": workload, "seed": seed, "trace": trace,
            "git_sha": git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "env": {"CHARP_AUTOS_THREADS": "1", "PYTHONHASHSEED": "0"}}


def git_sha():
    """HEAD's commit, read from .git without running git; "unknown" in a
    checkout that is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload, seed, seconds, trace):
    if trace:
        metrics, record, attempted, failed, mismatch, ok = measure_traced(
            workload, seed)
        units = dict(PER_LAYER)
    else:
        metrics, record, attempted, failed, mismatch, ok = measure(
            workload, seed, seconds)
        units = dict(END_TO_END)
    record = dict(provenance(workload, seed, trace), **record)
    print("== %s  seed=%d  trace=%d  sha=%s  python=%s  nproc=%d"
          % (workload, seed, trace, record["git_sha"][:12], record["python"],
             record["nproc"]))
    for name, value in metrics.items():
        print("%-46s %14.6g %s" % (name, value, units[name]))
    print("%-46s %14.6g ratio  (%d of %d case runs)"
          % ("fail_frac", failed / attempted, failed, attempted))
    print("%-46s %14d count" % ("verdict_mismatch", mismatch))
    print("record " + json.dumps(record, sort_keys=True))
    return {"correct": bool(ok and failed == 0 and mismatch == 0),
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]))
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "charp_autos",
                                       "suites.py")):
        print("charp_autos sources not found under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace)
                   for w in workloads}
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {"%s.%s" % (w, name): m
                             for w, r in results.items()
                             for name, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
