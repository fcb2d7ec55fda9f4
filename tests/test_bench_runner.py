"""Tests for the config-driven benchmark runner (``repro.bench``).

Exercises the registry/config/CSV machinery with a tiny fake algorithm
put into the registry, so the suite stays fast; the real measurement
configs live under ``benchmarks/configs/`` and are driven by
``repro bench`` / CI.
"""

import csv
import json
from pathlib import Path

import pytest

from repro.bench.runner import (
    ALGORITHMS,
    BenchAlgorithm,
    BenchRow,
    emit_trajectory,
    iter_param_grid,
    load_config,
    run_config,
)

ROOT = Path(__file__).resolve().parents[1]
SMOKE_CONFIG = ROOT / "benchmarks/configs/smoke.json"

#: A fake benchmark: ``total`` is a pure function of its parameters.
FAKE = BenchAlgorithm(
    name="fake",
    summary="sum of two parameters",
    defaults={"a": 1, "b": 2, "seed": 0},
    key_cols=("a", "b"),
    metric_cols=("wall_s", "total"),
    run=lambda params: {"wall_s": 0.001, "total": params["a"] + params["b"]},
)
TINY = {"a": [16], "b": [8]}


@pytest.fixture
def fake(monkeypatch):
    monkeypatch.setitem(ALGORITHMS, FAKE.name, FAKE)
    return FAKE


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


class TestRegistry:
    def test_expected_algorithms_registered(self):
        assert set(ALGORITHMS) == {"unigen-sweep"}

    def test_columns_are_defaults_plus_metrics(self):
        algorithm = ALGORITHMS["unigen-sweep"]
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

    def test_unknown_parameter_rejected(self, tmp_path, fake):
        path = write_config(
            tmp_path,
            {"algorithms": [{"name": "fake", "parameters": {"cols": [1]}}]},
        )
        with pytest.raises(ValueError, match="no parameters \\['cols'\\]"):
            load_config(path)

    def test_valid_config_roundtrips(self, tmp_path, fake):
        data = {"algorithms": [{"name": "fake", "parameters": TINY}]}
        assert load_config(write_config(tmp_path, data)) == data

    def test_unknown_requirement_rejected(self, tmp_path, fake):
        """Blocks cannot be gated on requirements: a block that names one
        fails to load instead of running unconditionally."""
        path = write_config(tmp_path, {"algorithms": [
            {"name": "fake", "parameters": dict(TINY),
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


@pytest.mark.usefixtures("fake")
class TestRunConfig:
    def config(self):
        return {"algorithms": [{"name": "fake", "parameters": dict(TINY)}]}

    def test_csv_written_with_header_and_metrics(self, tmp_path):
        rows = run_config(self.config(), out_dir=tmp_path)
        assert len(rows) == 1 and not rows[0].skipped
        assert rows[0].metrics["total"] == 24
        with (tmp_path / "fake.csv").open(newline="") as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == 1
        assert records[0]["a"] == "16"
        assert records[0]["total"] == "24"

    def test_skip_existing_second_run(self, tmp_path):
        run_config(self.config(), out_dir=tmp_path)
        rows = run_config(self.config(), out_dir=tmp_path)
        assert [row.skipped for row in rows] == [True]
        # The CSV was not appended to.
        with (tmp_path / "fake.csv").open(newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 1

    def test_skip_existing_override_remeasures(self, tmp_path):
        run_config(self.config(), out_dir=tmp_path)
        rows = run_config(
            self.config(), out_dir=tmp_path, skip_existing_override=False
        )
        assert not rows[0].skipped
        with (tmp_path / "fake.csv").open(newline="") as fh:
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

    def test_smoke_sweep_is_the_unigen_sweep_pair(self):
        grids = self.grids()
        assert list(grids) == ["unigen-sweep"]
        assert len(grids["unigen-sweep"]) == 2

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
    def point(self, total):
        return BenchRow("fake", dict(FAKE.defaults),
                        {"wall_s": 0.4, "total": total})

    def test_points_round_trip_through_the_file(self, tmp_path):
        rows = [self.point(3), self.point(4)]
        artifact = emit_trajectory(rows, tmp_path / "BENCH.json", "cfg.json")
        assert [p["total"] for p in artifact["points"]] == [3, 4]
        assert artifact["points"][0]["algorithm"] == "fake"
        assert artifact["config"] == "cfg.json"
        assert json.loads((tmp_path / "BENCH.json").read_text()) == artifact

    def test_skipped_rows_counted_not_listed(self, tmp_path):
        rows = [self.point(3), BenchRow("fake", {}, {}, skipped=True)]
        artifact = emit_trajectory(rows, tmp_path / "BENCH.json")
        assert artifact["skipped_existing"] == 1
        assert len(artifact["points"]) == 1


class TestCommittedArtifact:
    """The committed BENCH_innerloop.json is a ``repro bench`` run of
    ``benchmarks/configs/innerloop.json``: a ``unigen-sweep`` pair at
    jobs 1 and 2, one plan on two backends, so the same draws."""

    def artifact(self):
        return json.loads((ROOT / "BENCH_innerloop.json").read_text())

    def test_artifact_shape_and_headline(self):
        artifact = self.artifact()
        assert artifact["bench"] == "innerloop"
        assert artifact["config"] == "benchmarks/configs/innerloop.json"
        assert artifact["points"], "artifact must contain measured points"
        assert {p["algorithm"] for p in artifact["points"]} == {"unigen-sweep"}
        assert all(p["wall_s"] > 0 for p in artifact["points"])

    def test_unigen_sweep_jobs_pair_draws_the_same_stream(self):
        sweep = self.artifact()["points"]
        assert sorted(p["jobs"] for p in sweep) == [1, 2]
        assert all(p["witnesses"] == p["n"] for p in sweep)
        serial, pooled = sorted(sweep, key=lambda p: p["jobs"])
        assert serial["witnesses"] == pooled["witnesses"]
        assert serial["bsat_calls"] == pooled["bsat_calls"]
