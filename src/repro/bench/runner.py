"""Config-driven benchmark runner: algorithms registry + JSON sweeps + CSV.

Modeled on the related repo's ``scripts/benchmarks/bench_runner.py``
(SNIPPETS.md snippets 1–3): algorithms are defined once in a registry, a
JSON config names which ones to run and which parameter lists to sweep
(cartesian product), results land in one CSV per algorithm with
skip-existing keyed on the identifying columns, and ``--emit`` folds the
run's rows into a ``BENCH_*.json`` trajectory artifact so speedups are
*measured*, not claimed.

Config schema (JSON)::

    {
      "out_dir": "benchmarks/out",            // CSV directory (CLI can override)
      "algorithms": [
        {
          "name": "unigen-sweep",              // registry key (required)
          "parameters": {"jobs": [1, 2], "n": [200]},
          "skip_existing": true                // default true
        }
      ]
    }

Omitted parameters use the registry defaults; any other block key is
rejected.  ``skip_existing`` consults the algorithm's ``key_cols`` against
the existing CSV, so re-running a config only fills in missing
combinations — append-only, never clobbering earlier measurements.

Algorithms
----------
``unigen-sweep``
    End-to-end witness sampling over a suite benchmark, sweeping sampler ×
    jobs × window.  Honest wall-clock: the prepare phase (lines 1–11) and
    the sampling loop are reported separately so amortized and cold costs
    are both visible.
"""

from __future__ import annotations

import csv
import itertools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class BenchAlgorithm:
    """One registered benchmark: defaults, identity columns, and a runner.

    ``run(params)`` receives a fully-populated parameter dict and returns
    the metrics dict; CSV columns are ``list(defaults) + list(metric_cols)``.
    ``key_cols`` must uniquely identify a combination — they drive
    skip-existing.
    """

    name: str
    summary: str
    defaults: dict
    key_cols: tuple[str, ...]
    metric_cols: tuple[str, ...]
    run: Callable[[dict], dict]

    @property
    def columns(self) -> list[str]:
        return list(self.defaults) + list(self.metric_cols)


ALGORITHMS: dict[str, BenchAlgorithm] = {}


def _register(algorithm: BenchAlgorithm) -> BenchAlgorithm:
    if algorithm.name in ALGORITHMS:  # pragma: no cover - author error
        raise ValueError(f"benchmark {algorithm.name!r} already registered")
    ALGORITHMS[algorithm.name] = algorithm
    return algorithm


# ----------------------------------------------------------------------
# unigen-sweep: end-to-end sampling over a suite benchmark.
# ----------------------------------------------------------------------

def _run_unigen_sweep(params: dict) -> dict:
    from ..api.config import SamplerConfig
    from ..execution import build_plan, make_backend
    from ..suite import registry as suite_registry

    instance = suite_registry.build(params["benchmark"], params["scale"])
    config = SamplerConfig(epsilon=6.0, seed=int(params["seed"]))
    n = int(params["n"])
    jobs = int(params["jobs"])
    # The plan runs lines 1–11 once in this process, so its build is the
    # prepare cost; the stream and its stats are the backend's alone.
    start = time.perf_counter()
    plan = build_plan(instance.cnf, n, config, sampler=params["sampler"])
    prepare_s = time.perf_counter() - start
    if jobs == 1:
        backend = make_backend("serial")
    else:
        backend = make_backend(
            "pool", jobs=jobs, window=params["window"] or None
        )
    start = time.perf_counter()
    report = backend.collect(plan)
    wall = prepare_s + (time.perf_counter() - start)
    witnesses = len(report.witnesses)
    stats = report.stats
    sample_s = max(wall - prepare_s, 0.0)
    return {
        "wall_s": round(wall, 4),
        "prepare_s": round(prepare_s, 4),
        "witnesses": witnesses,
        "wit_per_s": round(witnesses / sample_s, 2) if sample_s > 0 else 0.0,
        "avg_xor_len": round(stats.avg_xor_length, 2),
        "bsat_calls": stats.bsat_calls,
    }


_register(
    BenchAlgorithm(
        name="unigen-sweep",
        summary="end-to-end sampling: sampler x jobs x window",
        defaults={
            "benchmark": "case121",
            "scale": "quick",
            "sampler": "unigen2",
            "n": 200,
            "seed": 2014,
            "jobs": 1,
            "window": 0,
        },
        key_cols=(
            "benchmark",
            "scale",
            "sampler",
            "n",
            "seed",
            "jobs",
            "window",
        ),
        metric_cols=(
            "wall_s",
            "prepare_s",
            "witnesses",
            "wit_per_s",
            "avg_xor_len",
            "bsat_calls",
        ),
        run=_run_unigen_sweep,
    )
)


# ----------------------------------------------------------------------
# The runner: config loading, sweeps, CSV with skip-existing.
# ----------------------------------------------------------------------

#: The keys an algorithm block may carry.
_BLOCK_KEYS = {"name", "parameters", "skip_existing"}


def load_config(path: str | Path) -> dict:
    """Parse and validate a sweep config file."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or "algorithms" not in data:
        raise ValueError(f"{path}: config must be an object with 'algorithms'")
    for block in data["algorithms"]:
        name = block.get("name")
        extra = set(block) - _BLOCK_KEYS
        if extra:
            # An unread key (a typo, or a condition such as "requires")
            # would otherwise run the block as if it were not there.
            raise ValueError(
                f"{path}: benchmark block {name!r} has unknown keys "
                f"{sorted(extra)}"
            )
        if name not in ALGORITHMS:
            raise ValueError(
                f"{path}: unknown benchmark {name!r}; "
                f"available: {sorted(ALGORITHMS)}"
            )
        unknown = set(block.get("parameters", {})) - set(
            ALGORITHMS[name].defaults
        )
        if unknown:
            raise ValueError(
                f"{path}: benchmark {name!r} has no parameters {sorted(unknown)}"
            )
    return data


def iter_param_grid(defaults: dict, sweeps: dict) -> list[dict]:
    """Cartesian product of the swept lists over the defaults."""
    names = [k for k in defaults if k in sweeps]
    value_lists = [list(sweeps[k]) for k in names]
    grid = []
    for combo in itertools.product(*value_lists) if names else [()]:
        params = dict(defaults)
        params.update(zip(names, combo))
        grid.append(params)
    return grid


def _key_of(algorithm: BenchAlgorithm, params: dict) -> tuple[str, ...]:
    return tuple(str(params[k]) for k in algorithm.key_cols)


def _existing_keys(
    csv_path: Path, algorithm: BenchAlgorithm
) -> set[tuple[str, ...]]:
    if not csv_path.exists():
        return set()
    keys = set()
    with csv_path.open(newline="") as fh:
        for row in csv.DictReader(fh):
            try:
                keys.add(tuple(str(row[k]) for k in algorithm.key_cols))
            except KeyError:
                # A CSV from an older schema: treat as no match, re-measure.
                continue
    return keys


@dataclass
class BenchRow:
    """One completed measurement: identity + metrics, CSV- and JSON-ready."""

    algorithm: str
    params: dict
    metrics: dict
    skipped: bool = False

    def as_point(self) -> dict:
        return {"algorithm": self.algorithm, **self.params, **self.metrics}


def run_config(
    config: dict,
    out_dir: str | Path | None = None,
    skip_existing_override: bool | None = None,
    log: Callable[[str], None] | None = None,
) -> list[BenchRow]:
    """Run every algorithm block of ``config``; return completed rows.

    CSVs are appended combination-by-combination (a crash loses at most
    the in-flight measurement), and combinations already present in the
    CSV are skipped when the block's ``skip_existing`` (default true)
    allows — pass ``skip_existing_override`` to force either way.
    Skipped combinations are returned with ``skipped=True`` so callers
    can tell coverage from fresh work.
    """
    say = log or (lambda _msg: None)
    out = Path(out_dir or config.get("out_dir", "benchmarks/out"))
    out.mkdir(parents=True, exist_ok=True)
    rows: list[BenchRow] = []
    for block in config["algorithms"]:
        algorithm = ALGORITHMS[block["name"]]
        skip_existing = block.get("skip_existing", True)
        if skip_existing_override is not None:
            skip_existing = skip_existing_override
        csv_path = out / f"{algorithm.name}.csv"
        seen = _existing_keys(csv_path, algorithm) if skip_existing else set()
        grid = iter_param_grid(algorithm.defaults, block.get("parameters", {}))
        say(f"{algorithm.name}: {len(grid)} combination(s) -> {csv_path}")
        for params in grid:
            key = _key_of(algorithm, params)
            if key in seen:
                say(f"  skip existing {dict(zip(algorithm.key_cols, key))}")
                rows.append(
                    BenchRow(algorithm.name, params, {}, skipped=True)
                )
                continue
            metrics = algorithm.run(params)
            seen.add(key)
            write_header = not csv_path.exists()
            with csv_path.open("a", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=algorithm.columns)
                if write_header:
                    writer.writeheader()
                writer.writerow({**params, **metrics})
            say(f"  {dict(zip(algorithm.key_cols, key))} -> {metrics}")
            rows.append(BenchRow(algorithm.name, params, metrics))
    return rows


# ----------------------------------------------------------------------
# Trajectory artifact (BENCH_*.json).
# ----------------------------------------------------------------------

def emit_trajectory(
    rows: list[BenchRow], path: str | Path, config_path: str | None = None
) -> dict:
    """Write the run's fresh points as one ``BENCH_*.json`` artifact.

    Skipped (already-measured) combinations are counted but not re-listed.
    """
    points = [row.as_point() for row in rows if not row.skipped]
    artifact = {
        "bench": "innerloop",
        "generated_by": "repro bench",
        "config": config_path,
        "points": points,
        "skipped_existing": sum(1 for row in rows if row.skipped),
    }
    Path(path).write_text(json.dumps(artifact, indent=2) + "\n")
    return artifact
