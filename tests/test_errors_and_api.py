"""Error hierarchy, lazy package API, sampler base-class behaviour."""

import pytest

import repro
from repro.cnf import CNF, exactly_k_solutions_formula
from repro.core.base import SamplerStats, WitnessSampler
from repro.errors import (
    BudgetExhausted,
    DimacsParseError,
    ReproError,
    SamplingError,
    ToleranceError,
    UnsatisfiableError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [DimacsParseError, BudgetExhausted, ToleranceError,
         UnsatisfiableError, SamplingError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_dimacs_error_line_number(self):
        err = DimacsParseError("bad token", line_no=7)
        assert "line 7" in str(err)
        assert err.line_no == 7

    def test_dimacs_error_without_line(self):
        err = DimacsParseError("no header")
        assert err.line_no is None


class TestLazyPackageApi:
    @pytest.mark.parametrize(
        "name",
        ["UniGen", "UniGen2", "UniWit", "XorSamplePrime", "PawsStyle",
         "ApproxMC", "ExactCounter", "Solver", "bsat", "Budget", "HxorFamily",
         "find_independent_support", "IdealUniformSampler",
         "EnumerativeUniformSampler", "compute_kappa_pivot", "SampleResult",
         "WitnessSampler", "SamplerConfig", "PreparedFormula", "prepare",
         "make_sampler", "available_samplers", "register_sampler"],
    )
    def test_lazy_attributes_resolve(self, name):
        assert getattr(repro, name) is not None

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.NoSuchThing

    def test_eager_exports(self):
        assert repro.CNF is CNF
        assert isinstance(repro.__version__, str)


class _FixedSampler(WitnessSampler):
    """Deterministic stub: fail every third draw."""

    name = "stub"

    def __init__(self):
        super().__init__()
        self._n = 0

    def _sample_once(self):
        self._n += 1
        if self._n % 3 == 0:
            return None
        return {1: True}


class TestSamplerBase:
    def test_stats_track_attempts(self):
        sampler = _FixedSampler()
        results = sampler.sample_many(9)
        assert sampler.stats.attempts == 9
        assert sampler.stats.successes == 6
        assert sampler.stats.failures == 3
        assert results.count(None) == 3
        assert sampler.stats.success_probability == pytest.approx(2 / 3)

    def test_sample_until_collects_n(self):
        sampler = _FixedSampler()
        got = sampler.sample_until(5)
        assert len(got) == 5
        assert all(w == {1: True} for w in got)

    def test_sample_until_max_attempts(self):
        sampler = _FixedSampler()
        got = sampler.sample_until(100, max_attempts=6)
        assert len(got) == 4  # 6 attempts, every 3rd fails

    def test_empty_stats_defaults(self):
        stats = SamplerStats()
        assert stats.success_probability == 0.0
        assert stats.avg_xor_length == 0.0
        assert stats.avg_time_per_sample == 0.0


class TestCliToolCommands:
    def test_solve_sat(self, tmp_path, capsys):
        from repro.cnf import write_dimacs
        from repro.experiments.cli import main

        cnf = CNF(2, clauses=[[1, 2], [-1]])
        path = tmp_path / "s.cnf"
        write_dimacs(cnf, path)
        assert main(["solve", str(path), "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "s SAT" in out
        assert "v " in out

    def test_solve_unsat(self, tmp_path, capsys):
        from repro.cnf import write_dimacs
        from repro.experiments.cli import main

        cnf = CNF(1, clauses=[[1], [-1]])
        path = tmp_path / "u.cnf"
        write_dimacs(cnf, path)
        assert main(["solve", str(path)]) == 0
        assert "s UNSAT" in capsys.readouterr().out

    def test_mis_command(self, tmp_path, capsys):
        from repro.cnf import write_dimacs
        from repro.experiments.cli import main

        cnf = CNF(2, clauses=[[1, -2], [-1, 2]])  # a <-> b
        path = tmp_path / "m.cnf"
        write_dimacs(cnf, path)
        assert main(["mis", str(path), "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "c ind" in out
        assert "|support| = 1" in out

    @pytest.mark.parametrize("command", ["count", "solve", "mis"])
    @pytest.mark.parametrize("text", [None, "p cnf 2 1\n1 2\n"],
                             ids=["missing", "malformed"])
    def test_bad_input_exits_2_not_unsat(self, tmp_path, capsys, command,
                                         text):
        """Exit 1 means UNSAT; an unreadable file is a usage error."""
        from repro.experiments.cli import main

        path = tmp_path / "bad.cnf"
        if text is not None:
            path.write_text(text)
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err.startswith("c error: ")

    @pytest.mark.parametrize("flag", [["--epsilon", "0"],
                                      ["--iterations", "0"]],
                             ids=["epsilon", "iterations"])
    def test_count_bad_tolerance_exits_2(self, tmp_path, capsys, flag):
        from repro.cnf import write_dimacs
        from repro.experiments.cli import main

        path = tmp_path / "f.cnf"
        write_dimacs(CNF(2, clauses=[[1, 2]]), path)
        assert main(["count", str(path), *flag]) == 2
        assert capsys.readouterr().err.startswith("c error: ")


class TestExamplesCompile:
    def test_examples_are_valid_python(self):
        import py_compile
        from pathlib import Path

        examples = sorted(Path(__file__).parent.parent.glob("examples/*.py"))
        assert len(examples) >= 3, "paper deliverable: at least 3 examples"
        for path in examples:
            py_compile.compile(str(path), doraise=True)
