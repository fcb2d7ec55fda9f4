"""Experiment harness tests: runner, tables, figure 1, ablations, CLI."""

import pytest

from repro.core import UniGen, UniWit
from repro.experiments import (
    TableConfig,
    render_paper_comparison,
    render_rows,
    run_figure1,
    run_sampler,
    run_table,
)
from repro.experiments.report import format_cell, render_histogram_plot, render_table
from repro.experiments.cli import main
from repro.sat.types import Budget
from repro.suite import build, get


class TestRunner:
    def test_measures_unigen(self):
        instance = build("case121", "quick")
        m = run_sampler(
            instance,
            lambda inst: UniGen(inst.cnf, epsilon=6.0, rng=1,
                                approxmc_search="galloping"),
            n_samples=4,
        )
        assert m.sampler == "UniGen"
        assert m.attempts == 4
        assert m.success_probability is not None
        assert m.avg_time_s is not None

    def test_setup_failure_reported(self):
        instance = build("case121", "quick")

        def bad_factory(inst):
            raise_unsat = UniGen.__new__(UniGen)
            from repro.errors import SamplingError

            raise SamplingError("nope")

        m = run_sampler(instance, bad_factory, n_samples=3)
        assert m.error is not None
        assert m.attempts == 0
        assert m.success_probability is None

    def test_overall_timeout(self):
        instance = build("case121", "quick")
        m = run_sampler(
            instance,
            lambda inst: UniGen(inst.cnf, epsilon=6.0, rng=1,
                                approxmc_search="galloping"),
            n_samples=10_000,
            overall_timeout_s=1.0,
        )
        assert m.timed_out
        assert m.attempts < 10_000

    def test_budget_exhaustion_marks_timeout(self):
        instance = build("case121", "quick")
        m = run_sampler(
            instance,
            lambda inst: UniGen(
                inst.cnf, epsilon=6.0, rng=1,
                bsat_budget=Budget(max_conflicts=1),
                max_retries_per_cell=1,
                approxmc_search="galloping",
            ),
            n_samples=5,
        )
        assert m.timed_out


class TestTables:
    def test_single_row_runs(self):
        config = TableConfig(
            unigen_samples=3, uniwit_samples=2,
            bsat_timeout_s=10.0, per_instance_timeout_s=60.0,
        )
        rows = run_table("table1", config=config, names=["s1196a_7_4"])
        assert len(rows) == 1
        row = rows[0]
        assert row.unigen.successes > 0
        assert row.paper["support_size"] == 32
        # Render both views without crashing.
        text = render_rows(rows, "t")
        assert "s1196a_7_4" in text
        comparison = render_paper_comparison(rows, "c")
        assert "speedup" in comparison

    def test_xor_length_shape(self):
        """UniGen xor len ≈ |S|/2; UniWit ≈ |X|/2 — the Table 1/2 claim."""
        config = TableConfig(
            unigen_samples=4, uniwit_samples=2,
            bsat_timeout_s=10.0, per_instance_timeout_s=120.0,
        )
        rows = run_table("table1", config=config, names=["squaring8"])
        row = rows[0]
        assert row.unigen.avg_xor_len == pytest.approx(
            row.support_size / 2, rel=0.5
        )
        if row.uniwit and row.uniwit.avg_xor_len:
            assert row.uniwit.avg_xor_len == pytest.approx(
                row.num_vars / 2, rel=0.25
            )

    def test_bad_table_name(self):
        with pytest.raises(ValueError):
            run_table("table9")


class TestFigure1:
    def test_quick_run(self):
        result = run_figure1(scale="quick", mean_count=3.0, rng=11)
        assert result.witness_count > 0
        assert result.n_samples == int(3.0 * result.witness_count)
        # mass conservation on both histograms
        for hist in (result.unigen_histogram, result.us_histogram):
            drawn = sum(c * n for c, n in hist.items())
            assert drawn == result.n_samples
        assert result.unigen_chi2 is not None
        text = result.render()
        assert "UniGen" in text and "US" in text


class TestReport:
    def test_format_cell(self):
        assert format_cell(None, 3) == "  —"
        assert format_cell(1.2345, 0) == "1.23"
        assert format_cell(7, 2) == " 7"

    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 2.5], ["x", None]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1  # all same width

    def test_histogram_plot(self):
        text = render_histogram_plot({"A": {5: 3, 6: 8}, "B": {5: 4}})
        assert "A" in text and "B" in text

    def test_histogram_plot_empty(self):
        assert render_histogram_plot({}) == "(no data)"


class TestCli:
    def test_benchmarks_lists_registry(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "squaring7" in out and "tutorial3_4_31" in out

    def test_sample_command(self, tmp_path, capsys):
        from repro.cnf import CNF, write_dimacs

        cnf = CNF(3, clauses=[[1, 2], [-1, 3]], sampling_set=[1, 2, 3])
        path = tmp_path / "f.cnf"
        write_dimacs(cnf, path)
        assert main(["sample", str(path), "-n", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("v ") == 3

    def test_count_command(self, tmp_path, capsys):
        from repro.cnf import CNF, write_dimacs

        cnf = CNF(3, clauses=[[1, 2]], sampling_set=[1, 2, 3])
        path = tmp_path / "f.cnf"
        write_dimacs(cnf, path)
        assert main(["count", str(path), "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "s mc 6" in out

    def test_table_command_subset(self, capsys):
        code = main([
            "table1", "--names", "s1196a_7_4", "--samples", "2",
            "--uniwit-samples", "1", "--instance-timeout", "60",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "s1196a_7_4" in out
        assert "paper-vs-measured" in out


class TestAblations:
    def test_support_ablation(self):
        from repro.experiments import ablation_support

        result = ablation_support(
            benchmark="case121", n_samples=3, rng=5
        )
        assert len(result.rows) == 2
        # Hashing over S must use a smaller hash set than over X.
        assert result.rows[0][1] < result.rows[1][1]
        result.render()

    def test_amortization_ablation(self):
        from repro.experiments import ablation_amortization

        result = ablation_amortization(n_samples=3, rng=5)
        assert len(result.rows) == 2
        amortized_total = result.rows[0][1]
        fresh_total = result.rows[1][1]
        assert fresh_total > 0 and amortized_total > 0

    def test_blocking_ablation(self):
        from repro.experiments import ablation_blocking

        result = ablation_blocking(benchmark="case121", bound=10)
        assert len(result.rows) == 2
        # block-over-S row advertises a narrower clause width
        assert result.rows[0][3] < result.rows[1][3]


class TestExport:
    def test_export_roundtrips(self, tmp_path, capsys):
        from repro.cnf import read_dimacs
        from repro.sat import Solver
        from repro.suite import build

        assert main(["export", str(tmp_path)]) == 0
        files = sorted(tmp_path.glob("*.cnf"))
        assert len(files) == 31
        # Spot-check one file round-trips faithfully.
        again = read_dimacs(tmp_path / "case121.cnf")
        original = build("case121", "quick")
        assert again.clauses == original.cnf.clauses
        assert again.xor_clauses == original.cnf.xor_clauses
        assert again.sampling_set == original.cnf.sampling_set
        assert Solver(again, rng=1).solve().status == "SAT"
