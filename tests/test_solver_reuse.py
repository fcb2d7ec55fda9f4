"""Incremental CDCL sessions (``SolverSession``) vs one-shot ``bsat()``.

The cell search keeps one solver alive across every BSAT call of a sweep,
installing each cell's hash rows as a releasable XOR group.  Releasing a
group must be a *perfect* undo of its constraints: the next cell's model
set has to match what :func:`~repro.sat.enumerate.bsat` on a fresh solver
over base ∧ rows would enumerate.  These tests pin that equivalence
(hypothesis-driven, with ``bsat()`` as the reference), the end-to-end
fixed-seed determinism of session sampling across ``--jobs`` counts, the
sampler stream against a ``bsat()``-driven cell search, and the
budget-slicing contract (per-call slices layered under a shared session
allowance).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (
    ParallelSamplerConfig,
    SamplerConfig,
    make_sampler,
    prepare,
    sample_parallel,
)
from repro.cnf import CNF, XorClause, exactly_k_solutions_formula, random_ksat
from repro.rng import RandomSource
from repro.sat import Budget, Solver, SolverSession, bsat
from repro.stats import uniformity_gate, witness_key
from repro.suite import build as suite_build


def model_keys(models, svars):
    """Canonical, order-free projection of a model list onto ``svars``."""
    return sorted(
        tuple(m[v] for v in svars) for m in models
    )


def xor_rows(draw_rng, num_vars, count):
    """``count`` random dense XOR rows over variables ``1..num_vars``."""
    rows = []
    for _ in range(count):
        vs = [v for v in range(1, num_vars + 1) if draw_rng.bit()]
        rows.append(XorClause(tuple(vs), bool(draw_rng.bit())))
    return rows


class TestSessionMatchesFresh:
    """Per-cell model-set equivalence: session mode vs fresh solvers."""

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        formula_seed=st.integers(min_value=0, max_value=2**20),
        sweep_seed=st.integers(min_value=0, max_value=2**20),
        cells=st.integers(min_value=1, max_value=4),
        rows_per_cell=st.integers(min_value=0, max_value=4),
    )
    def test_same_model_set_per_cell(
        self, formula_seed, sweep_seed, cells, rows_per_cell
    ):
        cnf = random_ksat(10, 25, 3, rng=RandomSource(formula_seed))
        svars = sorted(cnf.sampling_set_or_support())
        draw = RandomSource(sweep_seed)
        constraints = [
            xor_rows(draw, cnf.num_vars, rows_per_cell) for _ in range(cells)
        ]
        session = SolverSession(cnf)
        for rows in constraints:
            hashed = cnf.conjoined_with(xors=rows)
            fresh = bsat(hashed, bound=64, sampling_set=svars)
            reused = session.bsat(rows, 64, sampling_set=svars)
            assert reused.complete == fresh.complete
            if fresh.complete:
                assert model_keys(reused.models, svars) == model_keys(
                    fresh.models, svars
                )
                continue
            # A cell larger than the bound: which 64 members come back
            # depends on the solver's search, so check the contract only.
            for result in (fresh, reused):
                assert len(result.models) == 64
                assert len(set(model_keys(result.models, svars))) == 64
                assert all(hashed.evaluate(m) for m in result.models)

    def test_models_never_mention_session_auxiliaries(self):
        cnf = random_ksat(8, 16, 3, rng=RandomSource(3))
        session = SolverSession(cnf)
        result = session.bsat(
            [XorClause((1, 2, 3), True)], 32
        )
        for model in result.models:
            assert set(model) == set(range(1, cnf.num_vars + 1))

    def test_empty_group_enumerates_base_formula(self):
        cnf = exactly_k_solutions_formula(5, 12)
        session = SolverSession(cnf)
        result = session.bsat([], 20)
        assert result.complete
        assert len(result.models) == 12

    def test_inconsistent_rows_short_circuit(self):
        cnf = random_ksat(6, 10, 3, rng=RandomSource(9))
        rows = [XorClause((1, 2), True), XorClause((1, 2), False)]
        result = SolverSession(cnf).bsat(rows, 8)
        assert result.complete
        assert result.models == []
        assert result.solver is not None
        assert result.solver.conflicts == 0


class TestGroupLifecycle:
    """The raw solver group API: add, block inside, release, repeat."""

    def _base(self):
        # 4 free variables, 16 models.
        return CNF(4)

    def test_release_restores_the_base_model_count(self):
        solver = Solver(self._base())
        assumps = solver.add_xor_group([XorClause((1,), True)], tag="g0")
        seen = 0
        while True:
            res = solver.solve(assumptions=assumps)
            if res.status != "SAT":
                break
            seen += 1
            solver.block_model(range(1, 5), "g0")
        assert seen == 8  # var 1 pinned true
        solver.release_group("g0")
        # Group gone: the full 2^4 space is back, including var1=False.
        res = solver.solve(assumptions=[-1])
        assert res.status == "SAT"

    def test_groups_do_not_leak_into_each_other(self):
        solver = Solver(self._base())
        a1 = solver.add_xor_group([XorClause((1,), True)], tag="a")
        solver.release_group("a")
        a2 = solver.add_xor_group([XorClause((1,), False)], tag="b")
        res = solver.solve(assumptions=a2)
        assert res.status == "SAT"
        assert res.model[1] is False
        solver.release_group("b")

    def test_blocking_clauses_die_with_their_group(self):
        solver = Solver(self._base())
        for tag in ("first", "second"):
            assumps = solver.add_xor_group([], tag=tag)
            count = 0
            while True:
                res = solver.solve(assumptions=assumps)
                if res.status != "SAT":
                    break
                count += 1
                solver.block_model(range(1, 5), tag)
            # Full space both times: the first group's 16 blocking
            # clauses must not survive its release.
            assert count == 16
            solver.release_group(tag)

    def test_other_assumptions_after_block_model_start_from_root(self):
        # block_model leaves the trail above the root for a resume; a
        # solve() under different assumptions must not continue from it.
        solver = Solver(self._base())
        res = solver.solve(assumptions=[1])
        assert res.status == "SAT" and res.model[1] is True
        solver.block_model(range(1, 5))
        count = 0
        while True:
            res = solver.solve(assumptions=[-1])
            if res.status != "SAT":
                break
            assert res.model[1] is False
            count += 1
            solver.block_model(range(1, 5))
        # The one blocked model had var 1 true, so all 8 remain.
        assert count == 8


class TestBudgetSlicing:
    """Per-call budgets layered under the shared session allowance."""

    def _hard_instance(self):
        cnf = random_ksat(60, 252, 3, rng=RandomSource(21))
        rows = xor_rows(RandomSource(4), cnf.num_vars, 6)
        return cnf, rows

    def test_elapsed_deadline_short_circuits_without_solving(self):
        cnf, rows = self._hard_instance()
        result = bsat(
            cnf.conjoined_with(xors=rows),
            bound=16,
            budget=Budget(timeout_seconds=0.0),
        )
        assert result.budget_exhausted
        assert result.models == []
        # The short-circuit must fire before any solve() call.
        assert result.solver is not None
        assert result.solver.decisions == 0
        assert result.solver.conflicts == 0

    def test_session_deadline_short_circuits_too(self):
        cnf, rows = self._hard_instance()
        session = SolverSession(
            cnf, budget=Budget(timeout_seconds=0.0)
        )
        result = session.bsat(rows, 16)
        assert result.budget_exhausted
        assert result.models == []

    def test_per_call_conflict_cap_is_respected(self):
        cnf, rows = self._hard_instance()
        session = SolverSession(cnf)
        result = session.bsat(rows, 10_000, budget=Budget(max_conflicts=5))
        assert result.budget_exhausted
        assert result.solver is not None
        assert result.solver.conflicts <= 5 + 1  # the tripping conflict

    def test_session_allowance_depletes_across_calls(self):
        cnf, rows = self._hard_instance()
        session = SolverSession(
            cnf, budget=Budget(max_conflicts=30)
        )
        exhausted = False
        for _ in range(50):
            result = session.bsat(rows, 10_000)
            if result.budget_exhausted:
                exhausted = True
                break
        assert exhausted
        assert session.stats.conflicts <= 30 + 1

    def test_call_slice_caps_below_session_remaining(self):
        cnf, rows = self._hard_instance()
        session = SolverSession(
            cnf, budget=Budget(max_conflicts=1_000_000)
        )
        result = session.bsat(rows, 10_000, budget=Budget(max_conflicts=3))
        assert result.budget_exhausted
        assert result.solver is not None
        assert result.solver.conflicts <= 3 + 1


class TestEndToEndDeterminism:
    """Session-solved streams are jobs-invariant and pass the gate."""

    N_DRAWS = 400
    K_SOLUTIONS = 20

    @pytest.fixture(scope="class")
    def instance(self):
        cnf = exactly_k_solutions_formula(6, self.K_SOLUTIONS)
        cnf.sampling_set = range(1, 7)
        config = SamplerConfig(seed=2014)
        return cnf, config, prepare(cnf, config)

    def _run(self, instance, jobs):
        cnf, config, artifact = instance
        report = sample_parallel(
            artifact,
            self.N_DRAWS,
            config,
            ParallelSamplerConfig(jobs=jobs, sampler="unigen"),
        )
        assert len(report.witnesses) == self.N_DRAWS
        svars = artifact.sampling_set
        return [witness_key(w, svars) for w in report.witnesses]

    def test_fixed_seed_jobs_invariance_and_gate(self, instance):
        serial_keys = self._run(instance, jobs=1)
        parallel_keys = self._run(instance, jobs=4)
        assert serial_keys == parallel_keys
        gate = uniformity_gate(serial_keys, self.K_SOLUTIONS)
        assert gate.passed, gate.describe()

    def test_solver_counters_reach_the_report(self, instance):
        cnf, config, artifact = instance
        report = sample_parallel(
            artifact,
            40,
            config,
            ParallelSamplerConfig(jobs=1, sampler="unigen"),
        )
        stats = report.stats.to_dict()
        for key in (
            "solver_decisions",
            "solver_propagations",
            "solver_conflicts",
            "solver_restarts",
            "solver_learned_clauses",
        ):
            assert key in stats


class OneShotSession:
    """A stand-in for ``SolverSession`` that solves every cell with a
    fresh one-shot ``bsat()`` over the conjoined formula."""

    def __init__(self, cnf):
        self._cnf = cnf

    def bsat(self, xors, bound, sampling_set=None, budget=None):
        return bsat(
            self._cnf.conjoined_with(xors=xors), bound,
            sampling_set=sampling_set, budget=budget,
        )


class TestStreamEquality:
    """Session solving draws exactly the fresh-solver stream.

    BSAT seeds its solver from a constant and returns every cell in
    canonical order, so UniGen's stream is a function of the seed, the
    formula, the hash draws and the cell sets alone.
    """

    @pytest.mark.parametrize("name", ["case121", "s1196a_7_4"])
    def test_solver_reuse_draws_the_fresh_stream(self, name, monkeypatch):
        cnf = suite_build(name).cnf
        artifact = prepare(cnf, SamplerConfig(seed=11))
        config = SamplerConfig(seed=11)
        session = make_sampler("unigen", artifact, config).sample_many(30)
        monkeypatch.setattr(
            "repro.core.cellsearch.SolverSession", OneShotSession
        )
        fresh = make_sampler("unigen", artifact, config).sample_many(30)
        assert any(w is not None for w in fresh)
        assert session == fresh
