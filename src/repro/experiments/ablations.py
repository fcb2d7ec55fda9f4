"""Ablation studies (A1–A5 in DESIGN.md) — isolating each design choice the
paper credits for UniGen's scalability.

* **A1 support** — hash over the independent support S vs the full X
  (Section 4's central insight; Tables 1/2's "Avg XOR len" columns).
* **A2 amortization** — run lines 1–11 once per formula vs once per sample
  (Section 4's "note that lines 1–11 ... need to be executed only once").
* **A3 blocking** — BSAT blocking clauses over S vs over X (the
  CryptoMiniSAT modification described in "Implementation issues").
* **A4 sparse XORs** — density-q hashing of Gomes et al. 2007: faster, but
  forfeits Theorem 1 (Section 4's discussion of [12]).
* **A5 baselines** — UniGen vs UniWit vs XORSample' (good and bad ``s``)
  on one instance, with uniformity distances against ground truth.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..core.paws import PawsStyle
from ..core.unigen import UniGen
from ..core.uniwit import UniWit
from ..core.us import EnumerativeUniformSampler
from ..core.xorsample import XorSamplePrime
from ..counting.exact import ExactCounter
from ..errors import ReproError
from ..rng import RandomSource, as_random_source
from ..sat.enumerate import bsat
from ..sat.types import Budget
from ..stats.uniformity import total_variation_from_uniform, witness_key
from ..suite.registry import build
from .report import render_table


@dataclass
class AblationResult:
    """Uniform container: a titled table of (variant, metric...) rows."""

    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)

    def render(self) -> str:
        return render_table(self.headers, self.rows, title=self.title)


def ablation_support(
    benchmark: str = "s1196a_7_4",
    scale: str = "quick",
    n_samples: int = 10,
    epsilon: float = 6.0,
    rng: RandomSource | int | None = 1,
) -> AblationResult:
    """A1: sampling set = independent support vs full variable set."""
    rng = as_random_source(rng)
    result = AblationResult(
        title=f"A1 — hashing over S vs X ({benchmark}, {scale})",
        headers=["variant", "|hash set|", "succ", "ms/sample", "avg xor len"],
    )
    instance = build(benchmark, scale)
    variants = [
        ("independent support S", list(instance.sampling_set)),
        ("full support X", list(range(1, instance.num_vars + 1))),
    ]
    for label, hash_set in variants:
        sampler = UniGen(
            instance.cnf,
            epsilon=epsilon,
            sampling_set=hash_set,
            rng=rng.spawn(),
        )
        samples = sampler.sample_many(n_samples)
        stats = sampler.stats
        result.rows.append([
            label,
            len(hash_set),
            stats.success_probability,
            stats.avg_time_per_sample * 1000,
            stats.avg_xor_length,
        ])
    return result


def ablation_amortization(
    benchmark: str = "case121",
    scale: str = "quick",
    n_samples: int = 10,
    epsilon: float = 6.0,
    rng: RandomSource | int | None = 1,
) -> AblationResult:
    """A2: one-time prepare() vs re-running lines 1–11 for every sample."""
    rng = as_random_source(rng)
    instance = build(benchmark, scale)
    result = AblationResult(
        title=f"A2 — amortized window computation ({benchmark}, {scale})",
        headers=["variant", "total s", "s/sample"],
    )

    start = time.monotonic()
    sampler = UniGen(instance.cnf, epsilon=epsilon, rng=rng.spawn())
    sampler.sample_many(n_samples)
    amortized = time.monotonic() - start
    result.rows.append(["prepare once (UniGen)", amortized, amortized / n_samples])

    start = time.monotonic()
    for _ in range(n_samples):
        fresh = UniGen(instance.cnf, epsilon=epsilon, rng=rng.spawn())
        fresh.sample()
    unamortized = time.monotonic() - start
    result.rows.append(
        ["re-prepare per sample", unamortized, unamortized / n_samples]
    )
    return result


def ablation_blocking(
    benchmark: str = "squaring7",
    scale: str = "quick",
    bound: int = 30,
) -> AblationResult:
    """A3: BSAT blocking clauses restricted to S vs spanning X.

    Deterministic: BSAT draws no randomness, so A3 takes no seed.
    """
    instance = build(benchmark, scale)
    result = AblationResult(
        title=f"A3 — blocking clause support in BSAT ({benchmark}, {scale})",
        headers=["variant", "witnesses", "seconds", "block clause width"],
    )
    for label, full in (("block over S", False), ("block over X", True)):
        start = time.monotonic()
        svars = range(1, instance.num_vars + 1) if full else None
        out = bsat(instance.cnf, bound, sampling_set=svars)
        elapsed = time.monotonic() - start
        width = instance.num_vars if full else len(instance.sampling_set)
        result.rows.append([label, len(out.models), elapsed, width])
    return result


def ablation_sparse(
    benchmark: str = "LoginService2",
    scale: str = "quick",
    n_samples: int = 200,
    densities: tuple[float, ...] = (0.5, 0.2, 0.1),
    epsilon: float = 6.0,
    rng: RandomSource | int | None = 1,
    max_witnesses: int = 100_000,
) -> AblationResult:
    """A4: dense (guaranteed) vs sparse (fast, unguaranteed) hash rows.

    Measures per-sample time *and* the total-variation distance from the
    true uniform distribution — the quantity sparse hashing sacrifices.
    """
    rng = as_random_source(rng)
    instance = build(benchmark, scale)
    truth_count = ExactCounter(instance.cnf).count()
    svars = instance.sampling_set
    result = AblationResult(
        title=(
            f"A4 — hash density ({benchmark}, {scale}, |R_F|={truth_count}, "
            f"{n_samples} samples)"
        ),
        headers=["density", "succ", "ms/sample", "avg xor len", "TV from uniform"],
    )
    for density in densities:
        sampler = UniGen(
            instance.cnf,
            epsilon=epsilon,
            rng=rng.spawn(),
            hash_density=density,
        )
        draws = []
        for witness in sampler.sample_many(n_samples):
            if witness is not None:
                draws.append(witness_key(witness, svars))
        stats = sampler.stats
        tv = (
            total_variation_from_uniform(draws, truth_count)
            if draws and truth_count <= max_witnesses
            else None
        )
        result.rows.append([
            f"{density:.2f}" + (" (paper)" if density == 0.5 else ""),
            stats.success_probability,
            stats.avg_time_per_sample * 1000,
            stats.avg_xor_length,
            tv,
        ])
    # Reference row: what TV pure sampling noise produces at this n (an
    # exactly uniform sampler), so the density rows can be read against it.
    if truth_count <= max_witnesses:
        oracle_rng = rng.spawn()
        oracle_draws = [
            oracle_rng.randint(0, truth_count - 1) for _ in range(n_samples)
        ]
        result.rows.append([
            "uniform reference",
            1.0,
            0.0,
            None,
            total_variation_from_uniform(oracle_draws, truth_count),
        ])
    return result


def ablation_baselines(
    benchmark: str = "case121",
    scale: str = "quick",
    n_samples: int = 200,
    epsilon: float = 6.0,
    rng: RandomSource | int | None = 1,
) -> AblationResult:
    """A5: all samplers on one instance, with uniformity ground truth."""
    rng = as_random_source(rng)
    instance = build(benchmark, scale)
    svars = instance.sampling_set
    oracle = EnumerativeUniformSampler(instance.cnf, rng=rng.spawn())
    truth_count = oracle.count
    import math

    good_s = max(1, int(math.log2(truth_count)) - 2)
    samplers = [
        ("UniGen (eps=6)", UniGen(instance.cnf, epsilon=epsilon, rng=rng.spawn())),
        ("UniWit", UniWit(instance.cnf, rng=rng.spawn())),
        (f"XORSample' s={good_s}", XorSamplePrime(
            instance.cnf, s=good_s, rng=rng.spawn(),
        )),
        (f"XORSample' s={good_s + 4} (bad s)", XorSamplePrime(
            instance.cnf, s=good_s + 4, rng=rng.spawn(),
        )),
        ("PAWS-style b=32", PawsStyle(
            instance.cnf, bucket=32, rng=rng.spawn(),
        )),
        ("uniform oracle", oracle),
    ]
    result = AblationResult(
        title=(
            f"A5 — baseline samplers ({benchmark}, {scale}, "
            f"|R_F|={truth_count}, {n_samples} samples)"
        ),
        headers=["sampler", "succ", "ms/sample", "TV from uniform"],
    )
    for label, sampler in samplers:
        draws = []
        try:
            for witness in sampler.sample_many(n_samples):
                if witness is not None:
                    draws.append(witness_key(witness, svars))
        except ReproError as exc:
            result.rows.append([label, None, None, f"error: {exc}"])
            continue
        stats = sampler.stats
        tv = total_variation_from_uniform(draws, truth_count) if draws else None
        result.rows.append([
            label,
            stats.success_probability,
            stats.avg_time_per_sample * 1000,
            tv,
        ])
    return result


def run_all_ablations(
    scale: str = "quick", rng: RandomSource | int | None = 7
) -> list[AblationResult]:
    """All five studies with their default benchmarks."""
    rng = as_random_source(rng)
    return [
        ablation_support(scale=scale, rng=rng.spawn()),
        ablation_amortization(scale=scale, rng=rng.spawn()),
        ablation_blocking(scale=scale),
        ablation_sparse(scale=scale, rng=rng.spawn()),
        ablation_baselines(scale=scale, rng=rng.spawn()),
    ]
