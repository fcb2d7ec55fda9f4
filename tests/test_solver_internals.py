"""Stress tests exercising solver internals: clause-DB reduction, restarts,
activity rescaling, XOR attachment corner cases, and big differential runs.

The tests that set or read private fields run on the Python reference
core (:class:`~repro.sat.pysolver.PySolver`), whose state is Python
attributes; the rest run on :class:`~repro.sat.solver.Solver`."""

import pytest

from repro.cnf import CNF, XorClause, php, random_ksat
from repro.rng import RandomSource
from repro.sat import SAT, UNSAT, Budget, Solver
from repro.sat.brute import is_satisfiable
from repro.sat.pysolver import PySolver


class TestDbReduction:
    def test_reduce_db_triggers_and_stays_correct(self):
        """Force frequent reductions with a tiny learnt cap; the search must
        still conclude correctly."""
        cnf = php(6, 5)  # UNSAT, needs thousands of conflicts
        solver = PySolver(cnf, rng=3)
        solver._max_learnts = 50  # aggressive reduction pressure
        result = solver.solve()
        assert result.status == UNSAT
        assert solver.stats.db_reductions > 0
        assert solver.stats.removed_clauses > 0

    def test_reduction_on_sat_instance(self):
        cnf = random_ksat(40, 168, 3, rng=9)  # near-threshold, conflict-heavy
        solver = PySolver(cnf, rng=9)
        solver._max_learnts = 30
        result = solver.solve()
        if result.status == SAT:
            assert cnf.evaluate(result.model)


class TestRestarts:
    def test_restarts_happen_on_hard_instances(self):
        solver = Solver(php(7, 6), rng=1)
        assert solver.solve().status == UNSAT
        assert solver.stats.restarts > 0

    def test_restart_does_not_lose_learning(self):
        """Same instance solved twice by one solver: the second run reuses
        learnt clauses and finishes with far fewer conflicts."""
        cnf = php(6, 5)
        solver = Solver(cnf, rng=2)
        first = solver.solve()
        assert first.status == UNSAT  # root-level UNSAT is permanent
        second = solver.solve()
        assert second.status == UNSAT
        assert second.conflicts == 0


class TestXorAttachment:
    def test_xor_added_between_solves(self):
        solver = Solver(CNF(3, clauses=[[1, 2, 3]]), rng=1)
        assert solver.solve().status == SAT
        solver.add_xor(XorClause((1, 2), True))
        solver.add_xor(XorClause((2, 3), True))
        result = solver.solve()
        assert result.status == SAT
        model = result.model
        assert model[1] != model[2] and model[2] != model[3]

    def test_xor_on_root_fixed_vars(self):
        """XOR whose variables are already fixed at the root when attached."""
        solver = Solver(CNF(2, clauses=[[1], [2]]), rng=1)
        assert solver.solve().status == SAT
        solver.add_xor(XorClause((1, 2), True))  # 1^1 = 0 != 1: conflict
        assert solver.solve().status == UNSAT

    def test_xor_forcing_on_attach(self):
        solver = Solver(CNF(2, clauses=[[1]]), rng=1)
        assert solver.solve().status == SAT
        solver.add_xor(XorClause((1, 2), False))  # 2 must equal 1 = True
        result = solver.solve()
        assert result.status == SAT
        assert result.model[2] is True

    def test_many_overlapping_xors(self):
        rng = RandomSource(8)
        cnf = CNF(12)
        hidden = [None] + [bool(rng.bit()) for _ in range(12)]
        for _ in range(10):
            vs = [v for v in range(1, 13) if rng.random() < 0.5] or [1]
            rhs = False
            for v in vs:
                rhs ^= hidden[v]
            cnf.add_xor(XorClause.from_vars(vs, rhs))
        result = Solver(cnf, rng=1).solve()
        assert result.status == SAT
        assert cnf.evaluate(result.model)


class TestActivityRescaling:
    def test_long_run_keeps_activities_finite(self):
        solver = PySolver(php(7, 6), rng=5)
        assert solver.solve().status == UNSAT
        assert all(a == a and a != float("inf") for a in solver._activity)


class TestLargerDifferential:
    @pytest.mark.parametrize("seed", range(12))
    def test_threshold_region_3sat(self, seed):
        """Near the SAT/UNSAT threshold (m/n ≈ 4.26), both outcomes occur
        and the solver must match brute force on every one."""
        cnf = random_ksat(13, 55, 3, rng=1000 + seed)
        want = is_satisfiable(cnf)
        got = Solver(cnf, rng=seed).solve()
        assert (got.status == SAT) == want
        if got.status == SAT:
            assert cnf.evaluate(got.model)

    @pytest.mark.parametrize("seed", range(8))
    def test_budgeted_solve_agrees_when_it_finishes(self, seed):
        cnf = random_ksat(12, 50, 3, rng=2000 + seed)
        want = is_satisfiable(cnf)
        got = Solver(cnf, rng=seed).solve(budget=Budget(max_conflicts=100_000))
        if got.status != "UNKNOWN":
            assert (got.status == SAT) == want
