"""Shared fixtures for the test suite."""

import time

import pytest

from charp_autos.suites import run_suite


@pytest.fixture(scope="session")
def suite_run():
    """run_suite(name, **params), run once per (name, params) per session.

    Returns (result, seconds), seconds being the wall time of that one run,
    so tests that pin a suite's output and tests that check its verdicts or
    its time budget share a single run.
    """
    runs = {}

    def run(name, **params):
        key = (name, tuple(sorted(params.items())))
        if key not in runs:
            start = time.monotonic()
            result = run_suite(name, **params)
            runs[key] = (result, time.monotonic() - start)
        return runs[key]

    return run
