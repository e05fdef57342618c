"""One measurement in a fresh interpreter; run.py starts it and reads the
JSON object it prints.

  --mode setup   import the library and build every case list, then stop
  --mode pass    the same, then run every case once through
                 suites.run_suite (traced with --trace)
  --mode probes  time the fixed-operand layer probes (probes.py)

Set-up is timed from this file's first statement: the fresh interpreter's
imports (charp_autos and its CLI, as a CLI user pays them on every call) and
case-list building, but not the interpreter's own start-up, which no change
to the library can move and which drifts by tens of milliseconds.  Every
timing is reported both as wall time (`*_wall_s`) and rescaled to the
nominal machine speed (calibrate.py).
"""

import time

START = time.monotonic()  # set-up is timed from here, so imports come after

import argparse
import json
import os
import resource
import sys

from calibrate import SpeedProbe
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def setup(workload, seed):
    """Import the library (the CLI too) and build every case list."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import charp_autos.cli  # noqa: F401  the import cost a CLI call pays
    from charp_autos import suites
    case_list_s = 0.0
    case_lists = []
    for name in WORKLOADS[workload]:
        start = time.monotonic()
        cases = suites.SUITES[name]({"seed": seed})
        case_list_s += time.monotonic() - start
        case_lists.append((name, cases))
    return suites, case_lists, time.monotonic(), case_list_s


def run_suites(suites, case_lists, seed, tracer=None):
    """Run every case list once through `suites.run_suite`, which runs one
    case at a time, and return the canonical outputs and per-case times.

    `run_suite` builds its case list and runs it in one call; pointing the
    registry at the case list built in set-up lets set-up and verdict time
    be measured apart.  With a tracer, each case runs inside its root span.
    """
    if tracer is not None:
        from tracer import ROOT_SPAN
        case_lists = [(name, [(cid, tracer.wrap(ROOT_SPAN, thunk))
                              for cid, thunk in cases])
                      for name, cases in case_lists]
    outputs = {}
    case_s = []
    start = time.monotonic()
    for name, cases in case_lists:
        build = suites.SUITES[name]
        suites.SUITES[name] = lambda params, cases=cases: cases
        try:
            result = suites.run_suite(name, seed=seed)
        finally:
            suites.SUITES[name] = build
        outputs[name] = result.to_json()
        case_s += [case.elapsed for case in result.cases]
    return outputs, case_s, start, time.monotonic()


def measure(args, speed):
    suites, case_lists, ready, case_list_s = setup(args.workload, args.seed)
    scale = speed.scale(START, ready)
    out = {"setup_wall_s": ready - START,
           "setup_s": (ready - START) * scale,
           "case_list_s": case_list_s * scale}
    if args.mode == "setup":
        return out
    tracer = None
    if args.trace:
        from tracer import Tracer, binding_sites, find_originals
        originals = find_originals()
        before = binding_sites(originals)
        tracer = Tracer()
        tracer.install()
        missed = tracer.check_bindings(originals, before)
    outputs, case_s, start, end = run_suites(suites, case_lists, args.seed,
                                             tracer)
    scale = speed.scale(start, end)
    out.update(outputs=outputs, case_s=[t * scale for t in case_s],
               verdict_wall_s=end - start, verdict_s=(end - start) * scale,
               speed_scale=scale)
    if tracer is not None:
        out["trace"] = {
            "stats": {span: [calls, self_s * scale]
                      for span, (calls, self_s) in tracer.stats.items()},
            "layers": {layer: self_s * scale for layer, self_s
                       in tracer.layer_self_seconds().items()},
            "counts": tracer.counts,
            "bindings": tracer.bindings,
            "bindings_missed": missed}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "probes"),
                    required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    with SpeedProbe() as speed:
        if args.mode == "probes":
            sys.path.insert(0, os.path.join(ROOT, "src"))
            import probes
            out = probes.run(speed)
        else:
            out = measure(args, speed)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
