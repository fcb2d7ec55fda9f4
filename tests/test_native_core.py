"""The native search core against the pure-Python reference.

Both cores make their own search decisions, so single models may differ;
what must not differ is every answer BSAT's contract fixes: SAT/UNSAT,
complete model sets (which come back sorted), and the UNKNOWN of an
exhausted budget.  Brute force (:mod:`repro.sat.brute`) is the ground
truth for both.  The loader tests pin the fallback: without a usable
compiler the package still imports and solves, on ``PySolver``.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cnf import CNF, XorClause, php
from repro.sat import UNKNOWN, Budget, Solver, SolverSession, bsat, native
from repro.sat.brute import is_satisfiable, model_set
from repro.sat.pysolver import PySolver
from repro.sat.solver import NativeSolver, select

CORES = (Solver, PySolver)


@st.composite
def cnf_xor(draw, max_vars=7, max_clauses=12, max_xors=3):
    n = draw(st.integers(min_value=1, max_value=max_vars))
    cnf = CNF(n)
    lit = st.integers(min_value=1, max_value=n).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    for _ in range(draw(st.integers(min_value=0, max_value=max_clauses))):
        cnf.add_clause(draw(st.lists(lit, min_size=1, max_size=4, unique=True)))
    for _ in range(draw(st.integers(min_value=0, max_value=max_xors))):
        cnf.add_xor(draw(xor_row(n)))
    return cnf


def xor_row(n):
    return st.builds(
        XorClause.from_vars,
        st.lists(st.integers(min_value=1, max_value=n), min_size=1,
                 max_size=n, unique=True),
        st.booleans(),
    )


def keys(models, n):
    return [tuple(m[v] for v in range(1, n + 1)) for m in models]


def truth_keys(cnf):
    """Brute-force model set as sorted value tuples (False < True)."""
    return sorted(
        tuple(lit > 0 for lit in model) for model in model_set(cnf)
    )


def on_core(core, call, *args, **kwargs):
    """Run ``call`` with ``bsat``/``SolverSession`` built on ``core``."""
    with mock.patch("repro.sat.enumerate.Solver", core):
        return call(*args, **kwargs)


class TestAgainstReference:
    @given(cnf=cnf_xor(), seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_status_and_model_agree_with_brute_force(self, cnf, seed):
        want = is_satisfiable(cnf)
        for core in CORES:
            result = core(cnf, rng=seed).solve()
            assert (result.status == "SAT") == want
            if want:
                assert cnf.evaluate(result.model)

    @given(cnf=cnf_xor(), bound=st.integers(1, 130))
    @settings(max_examples=120, deadline=None)
    def test_bsat_results_are_identical(self, cnf, bound):
        n = cnf.num_vars
        svars = list(range(1, n + 1))
        truth = truth_keys(cnf)
        results = [on_core(core, bsat, cnf, bound, sampling_set=svars)
                   for core in CORES]
        native_result, reference = results
        assert native_result.complete == reference.complete
        assert len(native_result) == len(reference) == min(bound, len(truth))
        if reference.complete:
            assert keys(native_result.models, n) == keys(reference.models, n)
            assert keys(reference.models, n) == truth
        for result in results:
            assert all(cnf.evaluate(m) for m in result.models)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_session_scripts_match(self, data):
        """add group → bsat with blocking → release, repeated."""
        base = data.draw(cnf_xor(max_xors=1))
        n = base.num_vars
        script = data.draw(st.lists(
            st.tuples(st.lists(xor_row(n), max_size=3), st.integers(1, 40)),
            min_size=1, max_size=5,
        ))
        svars = list(range(1, n + 1))
        sessions = [on_core(core, SolverSession, base) for core in CORES]
        for rows, bound in script:
            truth = truth_keys(base.conjoined_with(xors=rows))
            native_cell, reference = [
                on_core(core, session.bsat, rows, bound, sampling_set=svars)
                for core, session in zip(CORES, sessions)
            ]
            assert native_cell.complete == reference.complete
            assert len(native_cell) == len(reference) == min(bound, len(truth))
            if reference.complete:
                assert keys(native_cell.models, n) == truth
                assert keys(reference.models, n) == truth

    @pytest.mark.parametrize("core", CORES, ids=["Solver", "PySolver"])
    def test_tiny_conflict_budget_reports_unknown(self, core):
        result = core(php(7, 6), rng=1).solve(budget=Budget(max_conflicts=2))
        assert result.status == UNKNOWN
        cell = on_core(core, bsat, php(7, 6), 4,
                       budget=Budget(max_conflicts=2))
        assert cell.budget_exhausted and not cell.complete


class TestLoader:
    def test_missing_compiler_falls_back_to_pysolver(self, tmp_path):
        lib, status = native.load(cc=str(tmp_path / "no-such-cc"),
                                  directory=tmp_path / "cache")
        assert lib is None
        assert status.startswith("python:")
        assert select(lib) is PySolver
        assert select(lib)(php(3, 2), rng=0).solve().status == "UNSAT"

    @pytest.mark.skipif(native.LIB is None, reason=native.STATUS)
    def test_build_is_cached_and_atomic(self, tmp_path):
        first = native.build(directory=tmp_path)
        assert native.build(directory=tmp_path) == first
        assert [p.name for p in tmp_path.iterdir()] == [first.name]
        lib, status = native.load(directory=tmp_path)
        assert lib is not None and status == f"native: {first}"

    @pytest.mark.skipif(native.LIB is None, reason=native.STATUS)
    def test_native_core_is_the_default(self):
        assert Solver is NativeSolver
