"""A suite runs only with parameters it reads: p at a characteristic its
constructions accept, count where it reads one, and seed everywhere."""

import pytest

from charp_autos.errors import BadParameters
from charp_autos.poly import VarTable
from charp_autos import expo, gallery, plane
from charp_autos.suites import _DECLARED, SUITES, run_suite


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
    primes, count, seeded = _DECLARED[name]
    params = _ReadLog(seed=7)
    assert SUITES[name](params)
    assert ("p" in params.read) == (primes is not None)
    assert ("count" in params.read) == (count is not None)
    assert ("seed" in params.read) == seeded


# axioms, rank3 and rank-r accept exactly their default p in (2, 3), whose
# cases the seed-7 goldens pin; every other accepted p runs here
@pytest.mark.parametrize("name,p", [
    (name, p) for name, (primes, _, _) in sorted(_DECLARED.items())
    if name not in ("axioms", "rank3", "rank-r") for p in primes or ()])
def test_every_accepted_p_runs(name, p):
    count = {"count": 2} if _DECLARED[name][1] else {}
    result = run_suite(name, p=p, seed=7, **count)
    assert result.cases and result.all_passed, result.to_text()


@pytest.mark.parametrize("name,params", [
    ("rank3", {"p": 5}), ("axioms", {"p": 7}), ("ex-triangular", {"p": 7}),
    ("nonexp-family", {"p": 2}), ("rank-r", {"count": 3}),
    ("gauss", {"count": 0}), ("jvdk", {"d": 3}), ("thm15-n2", {"p": 0}),
    ("fixed-point", {"p": 11}), ("gauss", {"count": -1})])
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


@pytest.mark.parametrize("count,used", [(1, 1), (2, 2), (None, 10)])
def test_f_and_fh_passes_exactly_count_hs(monkeypatch, count, used):
    """f-and-fh hands build_F_and_Fh exactly count h's at each p, also
    below the three fixed ones (0, f and x4), so the count it reports is
    the count it used; the default is 10."""
    lengths = []
    build = gallery.build_F_and_Fh

    def spy(n, p, h_exprs=()):
        lengths.append(len(h_exprs))
        return build(n, p, h_exprs)
    monkeypatch.setattr(gallery, "build_F_and_Fh", spy)
    result = run_suite("f-and-fh", count=count, seed=7)
    assert result.all_passed, result.to_text()
    assert lengths == [used, used]


def _broken_merge(real):
    # drops the word's last factor, which is never the identity
    return lambda table, factors: real(table, factors)[:-1]


def _broken_h0(real):
    # every centralizer word gets its H0 shift u2 moved by 1
    return lambda table, t, gens, h0=(1, 0, 0): real(
        table, t, gens, h0[:2] + (table.coeff(h0[2]) + 1,))


def _broken_eps(real):
    return lambda table, a: real(table, a + 1)


# jvdk, centralizer and maubach cases check no identity themselves: each
# one's library call asserts it by raising, and a broken library step shows
# as a failing case with that exception as its witness
@pytest.mark.parametrize("name,module,attr,corrupt,prefix,witness", [
    ("jvdk", plane, "_merge_affines", _broken_merge, "p3-0",
     "NotAutomorphism: recomposition check failed"),
    ("centralizer", plane, "CentralizerWord", _broken_h0, "p3-word",
     "NotInCentralizer: recomposition check failed"),
    ("maubach", expo, "eps_map", _broken_eps, "p3-n",
     "InternalIntegralityFailure: averaging produced a bad conjugator")],
    ids=["jvdk", "centralizer", "maubach"])
def test_a_broken_library_step_fails_the_case(monkeypatch, name, module,
                                              attr, corrupt, prefix, witness):
    assert run_suite(name, p=3, count=4, seed=7).all_passed
    monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
    cases = [c for c in run_suite(name, p=3, count=4, seed=7).cases
             if c.name.startswith(prefix)]
    assert len(cases) == 4
    assert [(c.ok, c.detail) for c in cases] == [(False, witness)] * 4
