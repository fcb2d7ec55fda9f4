"""Tests for the config-driven benchmark runner (``repro.bench``).

Exercises the registry/config/CSV machinery with tiny gf2-elim sweeps so
the suite stays fast; the real measurement configs live under
``benchmarks/configs/`` and are driven by ``repro bench`` / CI.
"""

import csv
import json
from pathlib import Path

import pytest

from repro.bench.runner import (
    ALGORITHMS,
    BenchRow,
    emit_trajectory,
    iter_param_grid,
    load_config,
    run_config,
)

TINY = {"vars": [16], "rows": [8], "repeats": [1]}
SMOKE_CONFIG = (
    Path(__file__).resolve().parents[1] / "benchmarks/configs/smoke.json"
)


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


class TestRegistry:
    def test_expected_algorithms_registered(self):
        assert {
            "gf2-elim", "unigen-sweep", "bsat-sweep", "solver-micro"
        } <= set(ALGORITHMS)

    def test_columns_are_defaults_plus_metrics(self):
        algorithm = ALGORITHMS["gf2-elim"]
        assert algorithm.columns == list(algorithm.defaults) + list(
            algorithm.metric_cols
        )
        assert set(algorithm.key_cols) <= set(algorithm.defaults)


class TestConfigLoading:
    def test_missing_algorithms_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"out_dir": "x"})
        with pytest.raises(ValueError, match="algorithms"):
            load_config(path)

    def test_unknown_benchmark_rejected(self, tmp_path):
        path = write_config(tmp_path, {"algorithms": [{"name": "nope"}]})
        with pytest.raises(ValueError, match="unknown benchmark 'nope'"):
            load_config(path)

    def test_unknown_parameter_rejected(self, tmp_path):
        path = write_config(
            tmp_path,
            {"algorithms": [{"name": "gf2-elim", "parameters": {"cols": [1]}}]},
        )
        with pytest.raises(ValueError, match="no parameters \\['cols'\\]"):
            load_config(path)

    def test_valid_config_roundtrips(self, tmp_path):
        data = {"algorithms": [{"name": "gf2-elim", "parameters": TINY}]}
        assert load_config(write_config(tmp_path, data)) == data

    def test_unknown_requirement_rejected(self, tmp_path):
        """Blocks cannot be gated on requirements: a block that names one
        fails to load instead of running unconditionally."""
        path = write_config(tmp_path, {"algorithms": [
            {"name": "gf2-elim", "parameters": dict(TINY),
             "requires": ["cuda"]},
        ]})
        with pytest.raises(ValueError, match="unknown keys \\['requires'\\]"):
            load_config(path)


class TestParamGrid:
    def test_empty_sweep_is_the_defaults(self):
        defaults = {"a": 1, "b": 2}
        assert iter_param_grid(defaults, {}) == [defaults]

    def test_cartesian_product_over_defaults(self):
        grid = iter_param_grid(
            {"a": 0, "b": 0, "c": 9}, {"a": [1, 2], "b": [3, 4]}
        )
        assert len(grid) == 4
        assert {(g["a"], g["b"]) for g in grid} == {(1, 3), (1, 4), (2, 3), (2, 4)}
        assert all(g["c"] == 9 for g in grid)


class TestRunConfig:
    def config(self):
        return {
            "algorithms": [{"name": "gf2-elim", "parameters": dict(TINY)}]
        }

    def test_csv_written_with_header_and_metrics(self, tmp_path):
        rows = run_config(self.config(), out_dir=tmp_path)
        assert len(rows) == 1 and not rows[0].skipped
        assert rows[0].metrics["rank"] <= 8
        with (tmp_path / "gf2-elim.csv").open(newline="") as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == 1
        assert records[0]["vars"] == "16"
        assert float(records[0]["wall_s"]) >= 0.0

    def test_skip_existing_second_run(self, tmp_path):
        run_config(self.config(), out_dir=tmp_path)
        rows = run_config(self.config(), out_dir=tmp_path)
        assert [row.skipped for row in rows] == [True]
        # The CSV was not appended to.
        with (tmp_path / "gf2-elim.csv").open(newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 1

    def test_skip_existing_override_remeasures(self, tmp_path):
        run_config(self.config(), out_dir=tmp_path)
        rows = run_config(
            self.config(), out_dir=tmp_path, skip_existing_override=False
        )
        assert not rows[0].skipped
        with (tmp_path / "gf2-elim.csv").open(newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 2



class TestSmokeConfig:
    """The config CI's bench-smoke leg sweeps (its artifact assertions
    count the same points)."""

    def grids(self):
        config = load_config(SMOKE_CONFIG)
        return {
            block["name"]: iter_param_grid(
                ALGORITHMS[block["name"]].defaults, block["parameters"]
            )
            for block in config["algorithms"]
        }

    def test_smoke_sweep_has_six_points(self):
        assert sum(len(grid) for grid in self.grids().values()) == 6

    def test_unigen_sweep_runs_the_pool_branch(self):
        grid = self.grids()["unigen-sweep"]
        assert sorted(params["jobs"] for params in grid) == [1, 2]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unigen_sweep_point_delivers(self, jobs):
        algorithm = ALGORITHMS["unigen-sweep"]
        metrics = algorithm.run(dict(algorithm.defaults, n=20, jobs=jobs))
        assert metrics["witnesses"] == 20
        assert 0 < metrics["prepare_s"] <= metrics["wall_s"]
        assert metrics["wit_per_s"] > 0


class TestEmitTrajectory:
    def gf2_point(self, wall_s):
        return BenchRow(
            "gf2-elim", dict(ALGORITHMS["gf2-elim"].defaults),
            {"wall_s": wall_s, "rank": 500, "rows_per_s": 1.0},
        )

    def test_unpaired_points_yield_no_speedup(self, tmp_path):
        rows = [self.gf2_point(0.4), self.bsat_point("fresh", 0.9)]
        artifact = emit_trajectory(rows, tmp_path / "BENCH.json", "cfg.json")
        assert len(artifact["points"]) == 2
        assert artifact["bsat_speedups"] == []
        # The artifact on disk parses back to the same structure.
        assert json.loads((tmp_path / "BENCH.json").read_text()) == artifact

    def test_skipped_rows_counted_not_listed(self, tmp_path):
        rows = [
            self.gf2_point(0.4),
            BenchRow("gf2-elim", {}, {}, skipped=True),
        ]
        artifact = emit_trajectory(rows, tmp_path / "BENCH.json")
        assert artifact["skipped_existing"] == 1
        assert len(artifact["points"]) == 1

    def bsat_point(self, mode, wall_s, **overrides):
        params = dict(ALGORITHMS["bsat-sweep"].defaults)
        params["mode"] = mode
        params.update(overrides)
        return BenchRow(
            "bsat-sweep",
            params,
            {"wall_s": wall_s, "cells": 40, "models": 120,
             "conflicts": 999, "cells_per_s": 1.0},
        )

    def test_bsat_speedups_pair_fresh_with_reuse(self, tmp_path):
        rows = [self.bsat_point("fresh", 0.9), self.bsat_point("reuse", 0.6)]
        artifact = emit_trajectory(rows, tmp_path / "BENCH.json")
        (pair,) = artifact["bsat_speedups"]
        assert pair["speedup"] == 1.5
        assert pair["fresh_wall_s"] == 0.9
        assert pair["reuse_wall_s"] == 0.6
        assert pair["models"] == 120
        assert pair["benchmark"] == "squaring7"

    def test_bsat_pairs_require_matching_identity(self, tmp_path):
        rows = [
            self.bsat_point("fresh", 0.9),
            self.bsat_point("reuse", 0.6, seed=999),  # different identity
        ]
        artifact = emit_trajectory(rows, tmp_path / "BENCH.json")
        assert artifact["bsat_speedups"] == []


class TestCommittedArtifact:
    """The committed BENCH_innerloop.json must carry the measured rank-500
    elimination points the back-substitution fix is gated on, and the
    fresh-vs-session BSAT pairs."""

    def test_artifact_shape_and_headline(self):
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "BENCH_innerloop.json"
        artifact = json.loads(path.read_text())
        assert artifact["bench"] == "innerloop"
        assert artifact["points"], "artifact must contain measured points"
        rank500 = [
            point for point in artifact["points"]
            if point["algorithm"] == "gf2-elim" and point["rank"] >= 500
        ]
        assert rank500, "artifact must contain rank-500 gf2-elim points"
        assert all(point["wall_s"] > 0 for point in rank500)
        assert "speedups" not in artifact

    def test_artifact_carries_the_solver_reuse_headline(self):
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "BENCH_innerloop.json"
        artifact = json.loads(path.read_text())
        pairs = artifact["bsat_speedups"]
        assert pairs, "artifact must contain bsat-sweep fresh/reuse pairs"
        for pair in pairs:
            assert pair["fresh_wall_s"] > 0 and pair["reuse_wall_s"] > 0
        assert max(pair["speedup"] for pair in pairs) >= 1.3
