"""A suite runs only with parameters it reads: p at a characteristic its
constructions accept, count where it reads one, and seed everywhere."""

import pytest

from charp_autos.errors import BadParameters
from charp_autos.poly import VarTable
from charp_autos.suites import _READS, SUITES, run_suite


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


@pytest.mark.parametrize("name", sorted(SUITES))
def test_declared_parameters_are_the_ones_the_suite_reads(name):
    primes, reads_count = _READS[name]
    params = _ReadLog(seed=7)
    SUITES[name](params)
    assert ("p" in params.read) == (primes is not None)
    assert ("count" in params.read) == reads_count


# axioms, rank3 and rank-r accept exactly their default p in (2, 3), whose
# cases the seed-7 goldens pin; every other accepted p runs here
@pytest.mark.parametrize("name,p", [
    (name, p) for name, (primes, _) in sorted(_READS.items())
    if name not in ("axioms", "rank3", "rank-r") for p in primes or ()])
def test_every_accepted_p_runs(name, p):
    count = {"count": 2} if _READS[name][1] else {}
    result = run_suite(name, p=p, seed=7, **count)
    assert result.cases and result.all_passed, result.to_text()


@pytest.mark.parametrize("name,params", [
    ("rank3", {"p": 5}), ("axioms", {"p": 7}), ("ex-triangular", {"p": 7}),
    ("nonexp-family", {"p": 2}), ("rank-r", {"count": 3}),
    ("gauss", {"count": 0}), ("jvdk", {"d": 3})])
def test_run_suite_rejects_parameters_it_would_not_use(name, params):
    with pytest.raises(BadParameters):
        run_suite(name, **params)


@pytest.mark.parametrize("p", (2, 3))
def test_axioms_runs_only_cases_at_the_selected_p(monkeypatch, p):
    """Under --p, every table an axioms case builds is over that F_p: a
    case built at another fixed p does not run."""
    seen = set()
    init = VarTable.__init__

    def spy(self, q, *args, **kwargs):
        seen.add(q)
        init(self, q, *args, **kwargs)
    monkeypatch.setattr(VarTable, "__init__", spy)
    result = run_suite("axioms", p=p, seed=7)
    assert result.all_passed, result.to_text()
    assert seen == {p}
