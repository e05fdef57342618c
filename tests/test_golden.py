"""Canonical suite output is pinned: at seed 7 each suite's `--json` report
is byte-identical to the golden file the benchmark checks against."""

import os

import pytest

from charp_autos.suites import SUITES

GOLDEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "golden", "seed7")


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_matches_golden(suite, suite_run):
    with open(os.path.join(GOLDEN, suite + ".json")) as fh:
        golden = fh.read()
    result, _ = suite_run(suite, seed=7)
    assert result.to_json() + "\n" == golden
