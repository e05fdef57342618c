"""Canonical suite output is pinned: at seed 7 each suite's `--json` report
is byte-identical to the golden file the benchmark checks against.

thm15-n2 is left out here because it takes most of the time of a full run;
the benchmark's golden gate covers all twelve suites.
"""

import os

import pytest

from charp_autos.suites import SUITES, run_suite

GOLDEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "golden", "seed7")
SLOW = {"thm15-n2"}


@pytest.mark.parametrize("suite", sorted(set(SUITES) - SLOW))
def test_suite_matches_golden(suite):
    with open(os.path.join(GOLDEN, suite + ".json")) as fh:
        golden = fh.read()
    assert run_suite(suite, seed=7).to_json() + "\n" == golden
