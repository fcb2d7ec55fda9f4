"""CDCL solver tests: unit behaviour, differential correctness, budgets,
assumptions, incremental use, and native XOR handling."""

import pytest

from repro.cnf import CNF, XorClause, chain_implication, php, random_ksat
from repro.rng import RandomSource
from repro.sat import SAT, UNKNOWN, UNSAT, Budget, Solver, luby
from repro.sat.pysolver import PySolver
from repro.sat.brute import is_satisfiable, model_set


class TestBasics:
    core = Solver

    def test_empty_formula_sat(self):
        assert self.core(CNF()).solve().status == SAT

    def test_single_unit(self):
        cnf = CNF(clauses=[[1]])
        result = self.core(cnf).solve()
        assert result.status == SAT
        assert result.model == {1: True}

    def test_contradictory_units(self):
        cnf = CNF(clauses=[[1], [-1]])
        assert self.core(cnf).solve().status == UNSAT

    def test_empty_clause(self):
        solver = self.core()
        assert solver.add_clause([]) is False
        assert solver.solve().status == UNSAT

    def test_tautology_ignored(self):
        solver = self.core()
        solver.add_clause([1, -1])
        result = solver.solve()
        assert result.status == SAT

    def test_duplicate_literals_collapsed(self):
        solver = self.core()
        solver.add_clause([1, 1, 2])
        assert solver.solve().status == SAT

    def test_model_satisfies_formula(self):
        cnf = random_ksat(12, 40, 3, rng=3)
        result = self.core(cnf, rng=0).solve()
        assert result.status == SAT
        assert cnf.evaluate(result.model)

    def test_model_covers_all_vars(self):
        cnf = CNF(5, clauses=[[1]])  # vars 2..5 unconstrained
        result = self.core(cnf).solve()
        assert set(result.model) == {1, 2, 3, 4, 5}

    def test_result_truthiness(self):
        assert self.core(CNF(clauses=[[1]])).solve()
        assert not self.core(CNF(clauses=[[1], [-1]])).solve()


class TestStructuredInstances:
    core = Solver

    def test_php_unsat(self):
        assert self.core(php(5, 4), rng=1).solve().status == UNSAT

    def test_php_sat(self):
        result = self.core(php(4, 5), rng=1).solve()
        assert result.status == SAT

    def test_deep_propagation_chain(self):
        cnf = chain_implication(500)
        result = self.core(cnf).solve()
        assert result.status == SAT
        assert all(result.model[v] for v in range(1, 501))


class TestDifferential:
    core = Solver

    @pytest.mark.parametrize("seed", range(40))
    def test_random_3sat_vs_brute(self, seed):
        cnf = random_ksat(9, 34, 3, rng=seed)
        want = is_satisfiable(cnf)
        got = self.core(cnf, rng=seed).solve()
        assert (got.status == SAT) == want
        if got.status == SAT:
            assert cnf.evaluate(got.model)

    @pytest.mark.parametrize("seed", range(20))
    def test_mixed_cnf_xor_vs_brute(self, seed):
        rng = RandomSource(seed)
        cnf = random_ksat(8, 14, 3, rng=rng)
        for _ in range(3):
            vs = [v for v in range(1, 9) if rng.random() < 0.5]
            if vs:
                cnf.add_xor(XorClause.from_vars(vs, bool(rng.bit())))
        want = is_satisfiable(cnf)
        got = self.core(cnf, rng=seed).solve()
        assert (got.status == SAT) == want
        if got.status == SAT:
            assert cnf.evaluate(got.model)


class TestXorClauses:
    core = Solver

    def test_unit_xor(self):
        cnf = CNF(1, xor_clauses=[XorClause((1,), True)])
        result = self.core(cnf).solve()
        assert result.status == SAT
        assert result.model[1] is True

    def test_inconsistent_xor_pair(self):
        cnf = CNF(2)
        cnf.add_xor(XorClause((1, 2), True))
        cnf.add_xor(XorClause((1, 2), False))
        assert self.core(cnf).solve().status == UNSAT

    def test_empty_false_xor_unsat(self):
        cnf = CNF(1, clauses=[[1]])
        cnf.add_xor(XorClause((), True))
        assert self.core(cnf).solve().status == UNSAT

    def test_empty_true_xor_noop(self):
        cnf = CNF(1, clauses=[[1]])
        cnf.add_xor(XorClause((), False))
        assert self.core(cnf).solve().status == SAT

    def test_xor_propagation_chain(self):
        # x1=1; x1^x2=1 -> x2=0; x2^x3=1 -> x3=1 ...
        cnf = CNF(10, clauses=[[1]])
        for v in range(1, 10):
            cnf.add_xor(XorClause((v, v + 1), True))
        result = self.core(cnf).solve()
        assert result.status == SAT
        for v in range(1, 11):
            assert result.model[v] == (v % 2 == 1)

    def test_wide_xor(self):
        cnf = CNF(20)
        cnf.add_xor(XorClause(tuple(range(1, 21)), True))
        result = self.core(cnf, rng=1).solve()
        assert result.status == SAT
        parity = sum(result.model[v] for v in range(1, 21)) % 2
        assert parity == 1


class TestAssumptions:
    core = Solver

    def test_assumption_forces_value(self):
        cnf = CNF(2, clauses=[[1, 2]])
        result = self.core(cnf).solve(assumptions=[-1])
        assert result.status == SAT
        assert result.model[1] is False
        assert result.model[2] is True

    def test_conflicting_assumptions_unsat(self):
        cnf = CNF(2, clauses=[[1, 2]])
        result = self.core(cnf).solve(assumptions=[-1, -2])
        assert result.status == UNSAT

    def test_assumptions_do_not_persist(self):
        cnf = CNF(1)
        solver = self.core(cnf)
        assert solver.solve(assumptions=[-1]).model[1] is False
        result = solver.solve(assumptions=[1])
        assert result.status == SAT
        assert result.model[1] is True

    def test_assumption_contradicting_unit(self):
        cnf = CNF(1, clauses=[[1]])
        assert self.core(cnf).solve(assumptions=[-1]).status == UNSAT

    def test_many_assumptions(self):
        cnf = random_ksat(10, 20, 3, rng=5)
        base = self.core(cnf, rng=5).solve()
        assert base.status == SAT
        lits = [v if base.model[v] else -v for v in range(1, 11)]
        again = self.core(cnf, rng=6).solve(assumptions=lits)
        assert again.status == SAT
        assert again.model == base.model


class TestIncremental:
    core = Solver

    def test_blocking_enumeration(self):
        cnf = CNF(2, clauses=[[1, 2]])
        solver = self.core(cnf, rng=0)
        seen = set()
        while True:
            result = solver.solve()
            if result.status == UNSAT:
                break
            key = (result.model[1], result.model[2])
            assert key not in seen
            seen.add(key)
            solver.add_clause(
                [-v if result.model[v] else v for v in (1, 2)]
            )
        assert len(seen) == 3

    def test_add_clause_after_solve_grows_vars(self):
        solver = self.core(CNF(1, clauses=[[1]]))
        assert solver.solve().status == SAT
        solver.add_clause([-1, 5])
        result = solver.solve()
        assert result.status == SAT
        assert result.model[5] is True


class TestBudgets:
    core = Solver

    def test_conflict_budget_reports_unknown(self):
        cnf = php(7, 6)  # hard enough to need many conflicts
        result = self.core(cnf, rng=1).solve(budget=Budget(max_conflicts=5))
        assert result.status == UNKNOWN

    def test_timeout_reports_unknown(self):
        cnf = php(8, 7)
        result = self.core(cnf, rng=1).solve(budget=Budget(timeout_seconds=0.0))
        assert result.status == UNKNOWN

    def test_unknown_solver_still_usable(self):
        cnf = php(7, 6)
        solver = self.core(cnf, rng=1)
        assert solver.solve(budget=Budget(max_conflicts=2)).status == UNKNOWN
        assert solver.solve().status == UNSAT

    def test_budget_unlimited_helper(self):
        assert Budget().unlimited()
        assert not Budget(max_conflicts=1).unlimited()


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(15)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]


class TestStats:
    core = Solver

    def test_counters_move(self):
        cnf = random_ksat(10, 42, 3, rng=1)
        solver = self.core(cnf, rng=1)
        solver.solve()
        assert solver.stats.decisions > 0
        assert solver.stats.propagations > 0

    def test_xor_propagations_counted(self):
        # Assumption is assigned above the root level, so the XOR chain must
        # propagate through the watch machinery (not root-level attachment).
        cnf = CNF(3)
        cnf.add_xor(XorClause((1, 2), True))
        cnf.add_xor(XorClause((2, 3), True))
        solver = self.core(cnf)
        result = solver.solve(assumptions=[1])
        assert result.status == SAT
        assert result.model == {1: True, 2: False, 3: True}
        assert solver.stats.xor_propagations >= 2


# The same tests on the pure-Python reference core (see conftest.py).
for _case in (TestBasics, TestStructuredInstances, TestDifferential, TestXorClauses, TestAssumptions, TestIncremental, TestBudgets, TestStats,):
    _twin = type(f"{_case.__name__}OnPySolver", (_case,), {"core": PySolver})
    globals()[_twin.__name__] = _twin
