"""Regeneration of the paper's Table 1 and Table 2 (E1/E2 in DESIGN.md).

For each registry row we run UniGen (ε = 6, S = the benchmark's independent
support — the paper's exact protocol) and UniWit (full-support hashing, no
leap-frogging), and report:

    benchmark | |X| | |S| | UniGen succ / time / XOR len | UniWit time / XOR len / succ

side by side with the paper's published numbers.  Absolute times differ by
construction (pure-Python CDCL vs C++ CryptoMiniSAT on a cluster); the
claims under reproduction are the *comparative* ones:

* UniGen's per-witness time is orders of magnitude below UniWit's;
* UniGen XOR length ≈ |S|/2, UniWit's ≈ |X|/2;
* UniGen success probability ≈ 1 (≥ the guaranteed 0.62).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..api import SamplerConfig
from ..rng import RandomSource, as_random_source
from ..suite.registry import RegistryEntry, entries, table1_entries
from .report import format_cell, render_table
from .runner import SamplerMeasurement, run_named_sampler


@dataclass
class TableRow:
    """One benchmark's measurements plus the paper's reference numbers."""

    name: str
    num_vars: int
    support_size: int
    unigen: SamplerMeasurement
    uniwit: SamplerMeasurement | None
    paper: dict = field(default_factory=dict)


@dataclass
class TableConfig:
    """Knobs for a table run (scaled-down defaults; see DESIGN.md E1/E2)."""

    scale: str = "quick"
    epsilon: float = 6.0
    unigen_samples: int = 20
    uniwit_samples: int = 5
    bsat_timeout_s: float = 10.0
    per_instance_timeout_s: float = 120.0
    seed: int = 2014
    include_uniwit: bool = True
    # Registry names of the two columns; any entry of
    # repro.api.available_samplers() works (e.g. "unigen2" vs "uniwit").
    sampler: str = "unigen"
    baseline: str = "uniwit"


def run_row(entry: RegistryEntry, config: TableConfig, rng: RandomSource) -> TableRow:
    """Measure one registry row under the paper's protocol."""
    instance = entry.build(config.scale)
    api_config = SamplerConfig(
        epsilon=config.epsilon,
        bsat_timeout_s=config.bsat_timeout_s,
    )

    unigen = run_named_sampler(
        instance,
        config.sampler,
        api_config,
        n_samples=config.unigen_samples,
        overall_timeout_s=config.per_instance_timeout_s,
        rng=rng.spawn(),
    )

    uniwit = None
    if config.include_uniwit:
        uniwit = run_named_sampler(
            instance,
            config.baseline,
            api_config,
            n_samples=config.uniwit_samples,
            overall_timeout_s=config.per_instance_timeout_s,
            rng=rng.spawn(),
        )

    return TableRow(
        name=entry.name,
        num_vars=instance.num_vars,
        support_size=len(instance.sampling_set),
        unigen=unigen,
        uniwit=uniwit,
        paper=dict(entry.paper),
    )


def run_table(
    which: str = "table1",
    config: TableConfig | None = None,
    rng: RandomSource | int | None = None,
    names: list[str] | None = None,
) -> list[TableRow]:
    """Run all rows of Table 1 or Table 2 (or a named subset)."""
    config = config or TableConfig()
    rng = as_random_source(rng if rng is not None else config.seed)
    if which == "table1":
        selected = table1_entries()
    elif which == "table2":
        selected = entries()
    else:
        raise ValueError("which must be 'table1' or 'table2'")
    if names:
        wanted = set(names)
        selected = [e for e in selected if e.name in wanted]
    return [run_row(entry, config, rng) for entry in selected]


def render_rows(rows: list[TableRow], title: str) -> str:
    """Render the measured table in the paper's column layout."""
    headers = [
        "Benchmark", "|X|", "|S|",
        "UG succ", "UG t/wit(s)", "UG xor",
        "UW t/wit(s)", "UW xor", "UW succ",
    ]
    body = []
    for row in rows:
        ug, uw = row.unigen, row.uniwit
        body.append([
            row.name,
            row.num_vars,
            row.support_size,
            format_cell(ug.success_probability, 0),
            format_cell(ug.avg_time_s, 0, 3),
            format_cell(ug.avg_xor_len, 0, 1),
            format_cell(uw.avg_time_s if uw else None, 0, 3),
            format_cell(uw.avg_xor_len if uw else None, 0, 1),
            format_cell(uw.success_probability if uw else None, 0),
        ])
    return render_table(headers, body, title=title)


def render_paper_comparison(rows: list[TableRow], title: str) -> str:
    """Side-by-side of measured vs paper for the shape-preserving claims."""
    headers = [
        "Benchmark",
        "speedup(meas)", "speedup(paper)",
        "xor UG≈|S|/2", "xor UW≈|X|/2",
        "succ meas", "succ paper",
    ]
    body = []
    for row in rows:
        ug, uw = row.unigen, row.uniwit
        meas_speedup = None
        if ug.avg_time_s and uw is not None and uw.avg_time_s:
            meas_speedup = uw.avg_time_s / ug.avg_time_s
        paper_speedup = None
        p = row.paper
        if p.get("unigen_time_s") and p.get("uniwit_time_s"):
            paper_speedup = p["uniwit_time_s"] / p["unigen_time_s"]
        ug_xor_ratio = (
            ug.avg_xor_len / (row.support_size / 2) if ug.avg_xor_len else None
        )
        uw_xor_ratio = (
            uw.avg_xor_len / (row.num_vars / 2)
            if uw is not None and uw.avg_xor_len
            else None
        )
        body.append([
            row.name,
            format_cell(meas_speedup, 0, 1),
            format_cell(paper_speedup, 0, 1),
            format_cell(ug_xor_ratio, 0, 2),
            format_cell(uw_xor_ratio, 0, 2),
            format_cell(ug.success_probability, 0),
            format_cell(p.get("unigen_success"), 0),
        ])
    return render_table(headers, body, title=title)
