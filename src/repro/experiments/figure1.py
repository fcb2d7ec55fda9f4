"""Regeneration of Figure 1 (E3): uniformity of UniGen vs the ideal US.

Protocol (Section 5): on a benchmark with a known witness count, draw ``N``
samples with UniGen and ``N`` index-draws with US **sharing one random
source**, record how many distinct witnesses were generated each possible
number of times, and overlay the two histograms.  The paper used case110
(16,384 witnesses) with N = 4×10⁶ (mean count ≈ 244); we default to a scaled
mean count on the power-of-two fixture from :func:`repro.suite.build_figure1`
and report χ²/KL/TV alongside the plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..api import SamplerConfig, make_sampler
from ..core.us import IdealUniformSampler
from ..rng import RandomSource, as_random_source
from ..stats.uniformity import (
    ChiSquareResult,
    chi_square_uniform,
    kl_from_uniform,
    occurrence_histogram,
    total_variation_from_uniform,
    witness_key,
)
from ..suite.registry import build_figure1
from ..suite.families import BenchmarkInstance
from .report import render_histogram_plot


@dataclass
class Figure1Result:
    """Everything needed to redraw Figure 1 and quantify the comparison."""

    benchmark: str
    witness_count: int
    n_samples: int
    unigen_histogram: dict[int, int] = field(default_factory=dict)
    us_histogram: dict[int, int] = field(default_factory=dict)
    unigen_chi2: ChiSquareResult | None = None
    us_chi2: ChiSquareResult | None = None
    unigen_kl_bits: float = 0.0
    us_kl_bits: float = 0.0
    unigen_tv: float = 0.0
    us_tv: float = 0.0
    unigen_failures: int = 0

    def render(self) -> str:
        plot = render_histogram_plot(
            {"US": self.us_histogram, "UniGen": self.unigen_histogram}
        )
        lines = [
            f"Figure 1 reproduction — benchmark {self.benchmark}, "
            f"|R_F| = {self.witness_count}, N = {self.n_samples}",
            plot,
            "",
            f"{'':10s} {'chi2':>10s} {'p-value':>9s} {'KL(bits)':>9s} {'TV':>7s}",
        ]
        for label, chi2, kl, tv in (
            ("US", self.us_chi2, self.us_kl_bits, self.us_tv),
            ("UniGen", self.unigen_chi2, self.unigen_kl_bits, self.unigen_tv),
        ):
            stat = f"{chi2.statistic:10.1f}" if chi2 else "         —"
            p = f"{chi2.p_value:9.3f}" if chi2 else "        —"
            lines.append(f"{label:10s} {stat} {p} {kl:9.4f} {tv:7.4f}")
        lines.append(f"UniGen ⊥ outcomes: {self.unigen_failures}")
        return "\n".join(lines)


def run_figure1(
    scale: str = "quick",
    mean_count: float = 25.0,
    epsilon: float = 6.0,
    rng: RandomSource | int | None = 110,
    instance: BenchmarkInstance | None = None,
    n_samples: int | None = None,
) -> Figure1Result:
    """Run the Figure 1 protocol.

    ``mean_count`` sets ``N = mean_count · |R_F|`` unless ``n_samples``
    overrides it (the paper's figure has mean ≈ 244; that is minutes of
    pure-Python sampling, so the default is scaled down — crank it up from
    the CLI for a paper-shaped run).
    """
    rng = as_random_source(rng)
    if instance is None:
        instance = build_figure1(scale)
    cnf = instance.cnf

    # Ground-truth witness count (exact counter — US's first step).
    us = IdealUniformSampler(cnf, rng=rng)
    count = us.count
    n = n_samples if n_samples is not None else int(mean_count * count)

    result = Figure1Result(
        benchmark=instance.name, witness_count=count, n_samples=n
    )

    # US draws (index space).
    us_draws = us.sample_many_indices(n)
    result.us_histogram = occurrence_histogram(us_draws, universe_size=count)
    result.us_chi2 = chi_square_uniform(us_draws, count)
    result.us_kl_bits = kl_from_uniform(us_draws, count)
    result.us_tv = total_variation_from_uniform(us_draws, count)

    # UniGen draws (witness space) using the same random source, per §5.
    sampler = make_sampler(
        "unigen",
        cnf,
        SamplerConfig(epsilon=epsilon),
        rng=rng,
    )
    svars = instance.sampling_set
    unigen_draws: list[tuple[int, ...]] = []
    while len(unigen_draws) < n:
        witness = sampler.sample()
        if witness is None:
            result.unigen_failures += 1
            continue
        unigen_draws.append(witness_key(witness, svars))
    result.unigen_histogram = occurrence_histogram(
        unigen_draws, universe_size=count
    )
    result.unigen_chi2 = chi_square_uniform(unigen_draws, count)
    result.unigen_kl_bits = kl_from_uniform(unigen_draws, count)
    result.unigen_tv = total_variation_from_uniform(unigen_draws, count)
    return result
