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
          "name": "gf2-elim",                  // registry key (required)
          "parameters": {"vars": [512, 2048], "rows": [500]},
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
``gf2-elim``
    The rank-``rows`` Gaussian-elimination micro: random dense GF(2) rows
    appended to a :class:`~repro.sat.gf2.BitMatrix` and read back in
    reduced form.  This is the asymptotic sanity gate for the
    back-substitution fix — the old O(p²) all-pairs scan would show up as
    a collapse of ``rows_per_s`` at rank 500.
``unigen-sweep``
    End-to-end witness sampling over a suite benchmark, sweeping sampler ×
    jobs × window.  Honest wall-clock: the prepare phase (lines 1–11) and
    the sampling loop are reported separately so amortized and cold costs
    are both visible.
``bsat-sweep``
    The inner-loop cell sweep in isolation: identical ``Hxor`` draws
    enumerated one-shot :func:`~repro.sat.enumerate.bsat` vs the shared
    session the cell search uses (``mode``), so the fresh-vs-reuse pair at
    matching identity *is* the incremental-CDCL speedup (folded into
    ``bsat_speedups`` by ``--emit``).
``solver-micro``
    The solver micro-benchmarks that used to live in
    ``benchmarks/bench_solver.py``: plain CDCL solves, hashed BSAT
    enumeration, and the incremental blocking-clause loop, one ``case``
    per combination.
"""

from __future__ import annotations

import csv
import itertools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..rng import RandomSource
from ..sat.gf2 import BitMatrix


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
# gf2-elim: the rank-N elimination micro-benchmark.
# ----------------------------------------------------------------------

def _run_gf2_elim(params: dict) -> dict:
    rng = RandomSource(int(params["seed"]))
    n_vars = int(params["vars"])
    rows = int(params["rows"])
    repeats = max(1, int(params["repeats"]))
    density = float(params["density"])
    # Row generation happens outside the timed region: the micro measures
    # elimination, not the RNG.  Bit v = variable v, hence the shift.
    from ..hashing.xor_family import row_word

    drawn = [
        (row_word(rng, n_vars, density) << 1, rng.bit()) for _ in range(rows)
    ]
    best = None
    rank = 0
    for _ in range(repeats):
        start = time.perf_counter()
        matrix = BitMatrix(n_vars)
        matrix.extend(drawn)
        matrix.reduced_rows()
        elapsed = time.perf_counter() - start
        rank = matrix.rank
        best = elapsed if best is None else min(best, elapsed)
    return {
        "wall_s": round(best, 6),
        "rank": rank,
        "rows_per_s": round(rows / best, 1) if best > 0 else float("inf"),
    }


_register(
    BenchAlgorithm(
        name="gf2-elim",
        summary="rank-N GF(2) elimination micro (BitMatrix append + RREF)",
        defaults={
            "vars": 512,
            "rows": 500,
            "density": 0.5,
            "seed": 2014,
            "repeats": 3,
        },
        key_cols=("vars", "rows", "density", "seed"),
        metric_cols=("wall_s", "rank", "rows_per_s"),
        run=_run_gf2_elim,
    )
)


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
# bsat-sweep: the cell sweep in isolation, fresh solver vs shared session.
# ----------------------------------------------------------------------

def _run_bsat_sweep(params: dict) -> dict:
    from ..hashing import HxorFamily
    from ..sat import SolverSession, bsat
    from ..suite import registry as suite_registry

    instance = suite_registry.build(params["benchmark"], params["scale"])
    cnf = instance.cnf
    svars = sorted(cnf.sampling_set_or_support())
    family = HxorFamily(svars)
    window = list(range(int(params["i_lo"]), int(params["i_hi"]) + 1))
    sweeps = int(params["sweeps"])
    bound = int(params["bound"])
    mode = params["mode"]
    if mode not in ("fresh", "reuse"):
        raise ValueError(f"bsat-sweep mode must be fresh|reuse, got {mode!r}")
    # Both modes enumerate the *same* (h, alpha) draws: the constraints are
    # drawn up front from a dedicated stream, so a fresh/reuse pair at
    # matching identity measures solver reuse and nothing else.
    draw_rng = RandomSource(int(params["seed"]))
    sweeps_xors = [
        [family.draw(i, draw_rng) for i in window] for _ in range(sweeps)
    ]
    best = None
    cells = models = conflicts = 0
    for _ in range(max(1, int(params["repeats"]))):
        cells = models = conflicts = 0
        start = time.perf_counter()
        for sweep in sweeps_xors:
            session = (
                SolverSession(cnf) if mode == "reuse" else None
            )
            for constraint in sweep:
                if session is not None:
                    cell = session.bsat(
                        constraint.xors, bound, sampling_set=svars
                    )
                else:
                    cell = bsat(
                        cnf.conjoined_with(xors=constraint.xors),
                        bound,
                        sampling_set=svars,
                    )
                cells += 1
                models += len(cell.models)
                conflicts += cell.solver.conflicts if cell.solver else 0
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return {
        "wall_s": round(best, 4),
        "cells": cells,
        "models": models,
        "conflicts": conflicts,
        "cells_per_s": round(cells / best, 2) if best > 0 else float("inf"),
    }


_register(
    BenchAlgorithm(
        name="bsat-sweep",
        summary="window cell sweep: fresh-solver vs shared-session BSAT",
        defaults={
            "benchmark": "squaring7",
            "scale": "quick",
            "mode": "fresh",
            "i_lo": 3,
            "i_hi": 6,
            "bound": 74,
            "sweeps": 10,
            "seed": 2014,
            "repeats": 3,
        },
        key_cols=(
            "benchmark",
            "scale",
            "mode",
            "i_lo",
            "i_hi",
            "bound",
            "sweeps",
            "seed",
        ),
        metric_cols=("wall_s", "cells", "models", "conflicts", "cells_per_s"),
        run=_run_bsat_sweep,
    )
)


# ----------------------------------------------------------------------
# solver-micro: the old benchmarks/bench_solver.py cases, registry-run.
# ----------------------------------------------------------------------

def _solver_micro_case(case: str, seed: int) -> tuple[Callable[[], int], str]:
    """Build one micro case; returns (thunk, expectation description)."""
    from ..cnf import CNF, XorClause, php, random_ksat
    from ..sat import Solver, bsat
    from ..suite import build as suite_build

    if case == "random3sat":
        cnf = random_ksat(60, 240, 3, rng=11)

        def thunk() -> int:
            result = Solver(cnf, rng=seed).solve()
            assert result.status == "SAT"
            return 1

    elif case == "php":
        cnf = php(6, 5)

        def thunk() -> int:
            result = Solver(cnf, rng=seed).solve()
            assert result.status == "UNSAT"
            return 1

    elif case in ("hashed-gauss", "hashed-nogauss"):
        rng = RandomSource(7)
        cnf = random_ksat(40, 100, 3, rng=rng)
        for _ in range(10):
            vs = [v for v in range(1, 41) if rng.random() < 0.5]
            cnf.add_xor(XorClause.from_vars(vs, bool(rng.bit())))
        gauss = case == "hashed-gauss"

        def thunk() -> int:
            result = bsat(cnf, 25, gauss=gauss)
            assert len(result.models) > 0
            return len(result.models)

    elif case == "suite-bsat":
        cnf = suite_build("s1238a_7_4", "quick").cnf

        def thunk() -> int:
            result = bsat(cnf, 30)
            assert len(result.models) == 30
            return len(result.models)

    elif case == "blocking":
        cnf = CNF(12, sampling_set=range(1, 13))
        cnf.add_clause(list(range(1, 13)))

        def thunk() -> int:
            solver = Solver(cnf, rng=seed)
            found = 0
            for _ in range(100):
                result = solver.solve()
                if result.status != "SAT":
                    break
                found += 1
                solver.add_clause(
                    [-v if result.model[v] else v for v in range(1, 13)]
                )
            return found

    else:
        raise ValueError(f"unknown solver-micro case {case!r}")
    return thunk, case


def _run_solver_micro(params: dict) -> dict:
    thunk, _ = _solver_micro_case(params["case"], int(params["seed"]))
    best = None
    result = 0
    for _ in range(max(1, int(params["repeats"]))):
        start = time.perf_counter()
        result = thunk()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return {"wall_s": round(best, 6), "result": result}


_register(
    BenchAlgorithm(
        name="solver-micro",
        summary="CDCL/BSAT micros (ex benchmarks/bench_solver.py)",
        defaults={"case": "random3sat", "seed": 4, "repeats": 3},
        key_cols=("case", "seed"),
        metric_cols=("wall_s", "result"),
        run=_run_solver_micro,
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

def _pair_bsat_speedups(points: list[dict]) -> list[dict]:
    """fresh-vs-reuse pairs among bsat-sweep points with matching identity."""
    algorithm = ALGORITHMS["bsat-sweep"]
    identity_cols = tuple(k for k in algorithm.key_cols if k != "mode")
    by_identity: dict[tuple, dict[str, dict]] = {}
    for point in points:
        if point.get("algorithm") != "bsat-sweep":
            continue
        identity = tuple(point[k] for k in identity_cols)
        by_identity.setdefault(identity, {})[point["mode"]] = point
    pairs = []
    for identity, sides in sorted(by_identity.items(), key=str):
        if "fresh" not in sides or "reuse" not in sides:
            continue
        fresh, reuse = sides["fresh"]["wall_s"], sides["reuse"]["wall_s"]
        pair = dict(zip(identity_cols, identity))
        pair.update(
            {
                "fresh_wall_s": fresh,
                "reuse_wall_s": reuse,
                "models": sides["fresh"]["models"],
                "speedup": round(fresh / reuse, 2) if reuse > 0 else float("inf"),
            }
        )
        pairs.append(pair)
    return pairs


def emit_trajectory(
    rows: list[BenchRow], path: str | Path, config_path: str | None = None
) -> dict:
    """Write the run's fresh points as one ``BENCH_*.json`` artifact.

    Skipped (already-measured) combinations are counted but not re-listed;
    bsat-sweep fresh/reuse pairs are folded into ``bsat_speedups``, so the
    headline ratio is recomputed from the measured points every time.
    """
    points = [row.as_point() for row in rows if not row.skipped]
    artifact = {
        "bench": "innerloop",
        "generated_by": "repro bench",
        "config": config_path,
        "points": points,
        "skipped_existing": sum(1 for row in rows if row.skipped),
        "bsat_speedups": _pair_bsat_speedups(points),
    }
    Path(path).write_text(json.dumps(artifact, indent=2) + "\n")
    return artifact
