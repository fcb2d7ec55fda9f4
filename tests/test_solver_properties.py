"""Property-based differential testing of the CDCL solver (hypothesis)."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cnf import CNF, XorClause
from repro.sat import SAT, Solver
from repro.sat.pysolver import PySolver
from repro.sat.brute import is_satisfiable, model_set


#: Each method below also runs in the PySolver twin class, a second
#: executor of the same function; that is intended, not a flaky setup.
TWINNED = [HealthCheck.differing_executors]


@st.composite
def small_cnf(draw, max_vars=8, max_clauses=14, max_xors=3):
    n = draw(st.integers(min_value=1, max_value=max_vars))
    cnf = CNF(n)
    lit = st.integers(min_value=1, max_value=n).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    n_clauses = draw(st.integers(min_value=0, max_value=max_clauses))
    for _ in range(n_clauses):
        cnf.add_clause(draw(st.lists(lit, min_size=1, max_size=4, unique=True)))
    n_xors = draw(st.integers(min_value=0, max_value=max_xors))
    for _ in range(n_xors):
        vs = draw(
            st.lists(
                st.integers(min_value=1, max_value=n),
                min_size=1,
                max_size=n,
                unique=True,
            )
        )
        cnf.add_xor(XorClause.from_vars(vs, draw(st.booleans())))
    return cnf


class TestSolverAgainstBruteForce:
    core = Solver

    @given(cnf=small_cnf(), seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None, suppress_health_check=TWINNED)
    def test_status_matches_brute_force(self, cnf, seed):
        want = is_satisfiable(cnf)
        result = self.core(cnf, rng=seed).solve()
        assert (result.status == SAT) == want

    @given(cnf=small_cnf(), seed=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None, suppress_health_check=TWINNED)
    def test_models_are_genuine(self, cnf, seed):
        result = self.core(cnf, rng=seed).solve()
        if result.status == SAT:
            assert cnf.evaluate(result.model)

    @given(cnf=small_cnf(max_vars=6, max_clauses=8, max_xors=2),
           seed=st.integers(0, 2**10))
    @settings(max_examples=60, deadline=None, suppress_health_check=TWINNED)
    def test_blocking_enumeration_finds_every_model(self, cnf, seed):
        """Enumerating with full-width blocking clauses recovers the exact
        model set — exercises incremental clause addition heavily."""
        truth = model_set(cnf)
        solver = self.core(cnf, rng=seed)
        found = set()
        for _ in range(len(truth) + 1):
            result = solver.solve()
            if result.status != SAT:
                break
            key = tuple(
                v if result.model[v] else -v for v in range(1, cnf.num_vars + 1)
            )
            assert key not in found
            found.add(key)
            solver.add_clause([-l for l in key])
        assert found == truth

    @given(cnf=small_cnf(max_vars=6), seed=st.integers(0, 2**10),
           assumption_var=st.integers(min_value=1, max_value=6),
           assumption_sign=st.booleans())
    @settings(max_examples=80, deadline=None, suppress_health_check=TWINNED)
    def test_assumptions_match_conditioning(self, cnf, seed, assumption_var,
                                            assumption_sign):
        """Solving under assumption [l] agrees with solving F ∧ l."""
        if assumption_var > cnf.num_vars:
            assumption_var = cnf.num_vars
        lit = assumption_var if assumption_sign else -assumption_var
        conditioned = cnf.copy()
        conditioned.add_clause([lit])
        want = is_satisfiable(conditioned)
        result = self.core(cnf, rng=seed).solve(assumptions=[lit])
        assert (result.status == SAT) == want


# The same tests on the pure-Python reference core (see conftest.py).
for _case in (TestSolverAgainstBruteForce,):
    _twin = type(f"{_case.__name__}OnPySolver", (_case,), {"core": PySolver})
    globals()[_twin.__name__] = _twin
