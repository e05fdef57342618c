"""Golden canonical suite outputs, and the gate that compares a run to them.

A golden is the `SuiteResult.to_json()` text of one suite at one seed, as
`charp-autos suite run <suite> --seed <seed> --json` prints it.  A golden is
written only when every verdict in it is `pass`: the pass verdicts are the
known answers, and the rest of the record (ids, witnesses) is a regression
reference made by the code under test.

Regenerate (about a minute per seed on 2 cores):

    python3 perfbench/golden.py --seed 7 --seed 4242
"""

import argparse
import json
import os
import sys

from workloads import GOLDEN_SEEDS, SEED_FREE

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN_DIR = os.path.join(HERE, "golden")


def path(seed, suite):
    return os.path.join(GOLDEN_DIR, "seed%d" % seed, suite + ".json")


def records(text):
    """Canonical per-case records {id: (verdict, witness)} of a suite JSON."""
    return {c["id"]: (c["verdict"], c["witness"])
            for c in json.loads(text)["cases"]}


def reference(seed, suite):
    """The golden records that apply at this seed, or None if none does."""
    seeds = [seed] + ([GOLDEN_SEEDS[0]] if suite in SEED_FREE else [])
    for s in seeds:
        if os.path.exists(path(s, suite)):
            with open(path(s, suite)) as fh:
                return records(fh.read())
    return None


def mismatches(text, seed, suite):
    """Cases whose canonical record differs from the known answer.

    Against a golden, a case differs when its (verdict, witness) differs or
    it is missing on one side.  Without a golden for this seed, the known
    answer of every case is a pass, so each non-pass verdict differs.
    """
    got = records(text)
    want = reference(seed, suite)
    if want is None:
        return sum(verdict != "pass" for verdict, _ in got.values())
    return sum(got.get(cid) != want.get(cid) for cid in set(got) | set(want))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, action="append", required=True)
    args = ap.parse_args(argv)
    os.environ["CHARP_AUTOS_THREADS"] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from charp_autos.suites import SUITES, run_suite
    for seed in args.seed:
        outputs = {}
        for suite in sorted(SUITES):
            text = run_suite(suite, seed=seed).to_json()
            bad = [cid for cid, (verdict, _) in records(text).items()
                   if verdict != "pass"]
            if bad:
                print("refusing seed %d: %s has non-pass cases %s"
                      % (seed, suite, ", ".join(bad)), file=sys.stderr)
                return 1
            outputs[suite] = text
        os.makedirs(os.path.dirname(path(seed, "x")), exist_ok=True)
        for suite, text in outputs.items():
            with open(path(seed, suite), "w") as fh:
                fh.write(text + "\n")
        print("seed %d: wrote %d goldens" % (seed, len(outputs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
