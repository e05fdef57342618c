"""Canonical suite output is pinned: each suite's `--json` report is
byte-identical to the golden file the benchmark checks against, at seed 7
for every suite and at seed 4242 for every suite whose cases the seed draws
(a seed-free suite's cases do not depend on the seed).  The suites that
suites.py declares seed-free are exactly the benchmark's SEED_FREE."""

import importlib.util
import os

import pytest

from charp_autos.suites import _DECLARED, SUITES

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench")
_spec = importlib.util.spec_from_file_location(
    "workloads", os.path.join(PERFBENCH, "workloads.py"))
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def _check(suite_run, suite, seed):
    with open(os.path.join(PERFBENCH, "golden", "seed%d" % seed,
                           suite + ".json")) as fh:
        golden = fh.read()
    result, _ = suite_run(suite, seed=seed)
    assert result.to_json() + "\n" == golden


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_matches_golden(suite, suite_run):
    _check(suite_run, suite, 7)


def test_the_suites_declared_seed_free_are_the_benchmarks():
    assert {name for name, (_, _, seeded) in _DECLARED.items()
            if not seeded} == workloads.SEED_FREE


@pytest.mark.parametrize("suite", sorted(set(SUITES) - workloads.SEED_FREE))
def test_suite_matches_seed4242_golden(suite, suite_run):
    _check(suite_run, suite, 4242)
