"""Uniformity statistics — the machinery behind Figure 1 and Theorem 1 checks.

Figure 1 of the paper plots, for ``N`` draws over a witness space of size
``|R_F|``, the **distribution of occurrence counts**: for each count ``c``,
how many distinct witnesses were drawn exactly ``c`` times.  For a truly
uniform sampler this concentrates around ``N/|R_F|`` (binomially); UniGen's
curve is visually indistinguishable from US's.  This module computes that
histogram plus the standard distances used to quantify the comparison:

* Pearson χ² against the uniform distribution (with p-value);
* KL divergence and total-variation distance from uniform;
* the Theorem 1 per-witness envelope check.

Every distributional check has two faces sharing one core: a
*sequence* face (``chi_square_uniform(draws, …)`` — materialize the draws,
count, check) and a *counts* face (``chi_square_from_counts(counts, …)``)
that works straight off an incrementally maintained ``{witness: count}``
map.  The counts face is what the online gate
(:class:`repro.sinks.OnlineUniformityGate`) calls mid-stream, and the
sequence face is a thin ``Counter(draws)`` wrapper over it — so an online
verdict over the final counts is **byte-identical** to the offline verdict
over the materialized list.  The counts cores iterate witnesses in sorted
key order, making every statistic independent of arrival order (a
permuted chunk stream sums the same floats in the same order).
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence


def occurrence_histogram(
    draws: Iterable[Hashable], universe_size: int | None = None
) -> dict[int, int]:
    """Map ``count -> number of distinct items drawn exactly count times``.

    If ``universe_size`` is given, items never drawn contribute to the
    ``0`` bucket (Figure 1 plots only counts >= its x-range, but the zero
    bucket matters for χ² bookkeeping).
    """
    per_item = Counter(draws)
    histogram = Counter(per_item.values())
    if universe_size is not None:
        missing = universe_size - len(per_item)
        if missing < 0:
            raise ValueError("universe_size smaller than observed support")
        if missing:
            histogram[0] = missing
    return dict(sorted(histogram.items()))


@dataclass
class ChiSquareResult:
    """Pearson χ² test of per-witness counts against uniform."""

    statistic: float
    dof: int
    p_value: float

    def rejects_uniformity(self, alpha: float = 0.01) -> bool:
        return self.p_value < alpha


def _canonical_counts(
    counts: Mapping[Hashable, int], universe_size: int
) -> list[tuple[Hashable, int]]:
    """Positive-count items in canonical (sorted-key) order.

    Sorting fixes the floating-point summation order of every statistic to
    a pure function of the *counts*, never of arrival order — the property
    that makes the online gate's verdict byte-identical to the offline one
    no matter how chunks were interleaved.  Zero (or negative) counts are
    dropped: an unseen witness is represented by absence, exactly as in a
    ``Counter`` over the draws.  Keys that cannot be mutually ordered fall
    back to insertion order (then order-independence is the caller's
    problem; witness keys — int tuples — always sort).
    """
    items = [(k, c) for k, c in counts.items() if c > 0]
    if len(items) > universe_size:
        raise ValueError("universe_size smaller than observed support")
    try:
        items.sort(key=lambda kv: kv[0])
    except TypeError:
        pass
    return items


def chi_square_from_counts(
    counts: Mapping[Hashable, int], universe_size: int
) -> ChiSquareResult:
    """χ² against uniform, straight off a ``{witness: count}`` map.

    The incremental-update core behind :func:`chi_square_uniform`: an
    online consumer maintains the counts one draw at a time and calls this
    at any cadence without materializing the draw sequence.
    """
    if universe_size <= 1:
        raise ValueError("universe must contain at least 2 witnesses")
    items = _canonical_counts(counts, universe_size)
    n = sum(count for _, count in items)
    expected = n / universe_size
    stat = 0.0
    if expected > 0:
        for _, count in items:
            stat += (count - expected) ** 2 / expected
        stat += (universe_size - len(items)) * expected  # zero-count cells
    dof = universe_size - 1
    return ChiSquareResult(statistic=stat, dof=dof, p_value=_chi2_sf(stat, dof))


def chi_square_uniform(
    draws: Sequence[Hashable], universe_size: int
) -> ChiSquareResult:
    """χ² of observed per-witness counts vs the uniform expectation.

    Every member of the universe (drawn or not) is a cell with expectation
    ``N / universe_size``.  Meaningful only when that expectation is ≥ ~5.
    """
    return chi_square_from_counts(Counter(draws), universe_size)


_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min / _EPS

#: Stirling series of lnΓ(a) − ((a − ½)·ln a − a + ½·ln 2π): the
#: coefficients of 1/a, 1/a³, … 1/a⁹.  From a = 10 on, the first omitted
#: term is below 2e-14.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)
_STIRLING_FROM = 10.0


def _log_prefactor(a: float, z: float) -> float:
    """``ln(z^a · e^−z / Γ(a))``, the prefactor both tail branches share.

    For large ``a`` the direct form ``a·ln z − z − lnΓ(a)`` subtracts
    terms near ``a·ln a`` (3e7 at dof 2^22 − 1, where one ulp is 4e-9).
    With ``t = (z − a)/a`` and Stirling's series for ``lnΓ(a)`` the same
    value is ``a·(log1p(t) − t) + ½·ln(a/2π) − series(a)``, whose terms
    stay small, so the prefactor keeps its relative accuracy.
    """
    if a < _STIRLING_FROM:
        return a * math.log(z) - z - math.lgamma(a)
    t = (z - a) / a
    # Far below a, 1 + t can round to 0; log(z/a) is the same value there.
    log_ratio = math.log1p(t) if t > -0.5 else math.log(z / a)
    inv_sq = 1.0 / (a * a)
    series = 0.0
    for coefficient in reversed(_STIRLING):
        series = series * inv_sq + coefficient
    return (
        a * (log_ratio - t)
        + 0.5 * math.log(a / (2.0 * math.pi))
        - series / a
    )


def _chi2_sf(x: float, k: int) -> float:
    """Survival function of χ²_k: ``Q(k/2, x/2)``, the regularized upper
    incomplete gamma function, in the standard library only.

    With ``a = k/2`` and ``z = x/2``, below ``z < a + 1`` a power series
    sums the lower tail ``P(a, z)`` and returns ``1 − P`` (there
    ``Q > 0.08``, so the subtraction loses little relative accuracy); at
    or above it the modified-Lentz continued fraction evaluates ``Q``
    directly.  Both share the prefactor ``z^a · e^−z / Γ(a)``
    (:func:`_log_prefactor`).  The tests pin the result against reference
    values to 1e-10 relative for dof up to 2^22 − 1, from p = 0.5 down to
    1e-12, so a verdict depends only on the counts, never on the host.
    ``x ≤ 0`` returns 1.0.
    """
    if x <= 0:
        return 1.0
    a, z = 0.5 * k, 0.5 * x
    prefactor = math.exp(_log_prefactor(a, z))
    if z < a + 1.0:
        term = total = 1.0 / a
        denominator = a
        while term > total * _EPS:
            denominator += 1.0
            term *= z / denominator
            total += term
        return 1.0 - prefactor * total
    b = z + 1.0 - a
    c, d = 1.0 / _TINY, 1.0 / b
    h, delta, i = d, 0.0, 0
    while abs(delta - 1.0) > _EPS:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        delta = c * d
        h *= delta
    return prefactor * h


def empirical_distribution(draws: Sequence[Hashable]) -> dict[Hashable, float]:
    """Relative frequencies of the draws."""
    n = len(draws)
    if n == 0:
        raise ValueError("no draws")
    return {k: v / n for k, v in Counter(draws).items()}


def kl_from_uniform(draws: Sequence[Hashable], universe_size: int) -> float:
    """KL(empirical ‖ uniform) in bits. Unseen witnesses contribute 0."""
    freqs = empirical_distribution(draws)
    u = 1.0 / universe_size
    return sum(p * math.log2(p / u) for p in freqs.values() if p > 0)


def total_variation_from_uniform(
    draws: Sequence[Hashable], universe_size: int
) -> float:
    """TV distance between the empirical distribution and uniform."""
    freqs = empirical_distribution(draws)
    u = 1.0 / universe_size
    seen = sum(abs(p - u) for p in freqs.values())
    unseen = (universe_size - len(freqs)) * u
    return 0.5 * (seen + unseen)


@dataclass
class EnvelopeCheck:
    """Outcome of the Theorem 1 per-witness frequency check."""

    epsilon: float
    universe_size: int
    n_draws: int
    violations: list[tuple[Hashable, float, float, float]] = field(
        default_factory=list
    )
    max_ratio: float = 0.0
    min_ratio: float = math.inf

    @property
    def ok(self) -> bool:
        return not self.violations


def theorem1_envelope(
    draws: Sequence[Hashable],
    universe_size: int,
    epsilon: float,
    slack: float = 0.0,
) -> EnvelopeCheck:
    """Check every drawn witness's frequency against Theorem 1's bounds.

    Theorem 1: ``1/((1+ε)(|R|−1)) ≤ Pr[y] ≤ (1+ε)/(|R|−1)``.  Empirical
    frequencies fluctuate around the true probabilities, so ``slack``
    (a multiplicative margin, e.g. 0.5 for ±50%) widens the envelope —
    callers should size it from ``n_draws`` (binomial noise).

    Only the upper bound is checked per-witness from draws alone (a witness
    drawn zero times cannot distinguish "below lower bound" from bad luck);
    the lower bound is checked for witnesses that *were* seen.
    """
    check = EnvelopeCheck(
        epsilon=epsilon, universe_size=universe_size, n_draws=len(draws)
    )
    lo = 1.0 / ((1 + epsilon) * (universe_size - 1))
    hi = (1 + epsilon) / (universe_size - 1)
    lo_slacked = lo * (1.0 - slack)
    hi_slacked = hi * (1.0 + slack)
    for witness, freq in empirical_distribution(draws).items():
        ratio = freq * (universe_size - 1)
        check.max_ratio = max(check.max_ratio, ratio)
        check.min_ratio = min(check.min_ratio, ratio)
        if freq > hi_slacked or freq < lo_slacked:
            check.violations.append((witness, freq, lo, hi))
    return check


@dataclass
class FrequencyRatioCheck:
    """Min/max per-witness occurrence counts measured against uniform.

    With ``N`` draws over a universe of ``M`` witnesses the uniform
    expectation per witness is ``N/M``; ``max_over_expected`` and
    ``min_over_expected`` are the extreme observed counts divided by that
    expectation (unseen witnesses count as 0, so ``min_over_expected`` is
    0 whenever coverage is incomplete).  The check passes when both
    extremes lie within a multiplicative ``bound`` of the expectation —
    a blunter instrument than χ², but it catches exactly the failure mode
    a buggy parallel merge would introduce: some witnesses drawn twice as
    often (duplicated chunks) or never (dropped chunks).
    """

    n_draws: int
    universe_size: int
    bound: float
    min_count: int
    max_count: int
    coverage: float

    @property
    def expected(self) -> float:
        return self.n_draws / self.universe_size

    @property
    def max_over_expected(self) -> float:
        return self.max_count / self.expected if self.expected else 0.0

    @property
    def min_over_expected(self) -> float:
        return self.min_count / self.expected if self.expected else 0.0

    @property
    def ok(self) -> bool:
        return (
            self.max_over_expected <= self.bound
            and self.min_over_expected >= 1.0 / self.bound
        )


def frequency_ratio_from_counts(
    counts: Mapping[Hashable, int], universe_size: int, bound: float = 2.0
) -> FrequencyRatioCheck:
    """The min/max check straight off a ``{witness: count}`` map.

    The incremental-update core behind :func:`frequency_ratio_check`,
    shared by the online gate.
    """
    if universe_size <= 0:
        raise ValueError("universe must be non-empty")
    if bound <= 1.0:
        raise ValueError("bound must be > 1")
    items = _canonical_counts(counts, universe_size)
    observed = [count for _, count in items]
    max_count = max(observed, default=0)
    min_count = min(observed) if len(items) == universe_size else 0
    return FrequencyRatioCheck(
        n_draws=sum(observed),
        universe_size=universe_size,
        bound=bound,
        min_count=min_count,
        max_count=max_count,
        coverage=len(items) / universe_size,
    )


def frequency_ratio_check(
    draws: Sequence[Hashable], universe_size: int, bound: float = 2.0
) -> FrequencyRatioCheck:
    """Check the min/max witness frequencies against the uniform expectation.

    ``bound`` is the allowed multiplicative deviation; callers should size
    the expected count per witness ``N/M`` so binomial noise clears it.
    The binding side is the *lower* tail: with ``bound=2`` a uniform
    sampler's witness lands below ``N/2M`` with probability ≈ 1.3e-3 at
    ``N/M = 30`` but ≲ 2e-5 at ``N/M = 60`` — multiply by ``M`` for the
    family-wise false-alarm rate and size ``N`` accordingly (the test
    suite uses ``N/M ≥ 60``).
    """
    return frequency_ratio_from_counts(Counter(draws), universe_size, bound)


@dataclass(frozen=True)
class AlphaSpendingSchedule:
    """Sequential-look budgeting: geometric cadence, halving look alphas.

    A fixed-cadence sequential gate checking every ``c`` draws at
    significance ``alpha`` runs ``n/c`` looks over an ``n``-draw stream,
    and its false-alarm mass grows like ``(n/c)·alpha`` — fine at the
    default cadence on short runs, badly miscalibrated at ``n`` in the
    millions.  This schedule bounds the *total* spent mass by ``alpha``
    no matter how long the stream runs, with two standard moves:

    * **Geometric cadence.**  The gap before look ``k`` is
      ``first_interval · growth^(k-1)``, capped at ``max_interval`` — a
      run of ``n`` draws takes ``O(log n)`` looks until the cap, then one
      look per ``max_interval`` draws.
    * **Alpha spending.**  Look ``k`` tests at
      ``alpha_k = alpha · 2^(-k)``, so by the union bound the mass spent
      through any prefix of looks is ``alpha·(1 − 2^(-k)) < alpha`` —
      the classic halving spending sequence (Pocock-style sequences and
      the O'Brien–Fleming spending function are the group-sequential
      ancestors; halving is the simplest member with a closed form).

    The two compose deliberately: halving alphas alone would leave late
    looks testing at homeopathic significance on a *fixed* cadence, but
    under a doubling cadence look ``k`` sees roughly twice the draws of
    look ``k−1``, and the χ² statistic's power grows with sample size
    faster than the threshold tightens — drift still trips, only honest.
    """

    alpha: float
    #: Successful draws before the first look; also the unit the cadence
    #: doubles from.
    first_interval: int = 64
    #: Cadence multiplier per look (2.0 = the doubling schedule).
    growth: float = 2.0
    #: Cadence cap: the gap between looks never exceeds this many draws.
    max_interval: int = 1 << 16

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.first_interval < 1:
            raise ValueError(
                f"first_interval must be >= 1, got {self.first_interval}"
            )
        if self.growth < 1.0:
            raise ValueError(f"growth must be >= 1, got {self.growth}")
        if self.max_interval < self.first_interval:
            raise ValueError(
                f"max_interval ({self.max_interval}) must be >= "
                f"first_interval ({self.first_interval})"
            )

    def look_alpha(self, k: int) -> float:
        """Significance of the ``k``-th look (1-based): ``alpha·2^(-k)``."""
        if k < 1:
            raise ValueError(f"looks are 1-based, got {k}")
        return self.alpha * (0.5 ** k)

    def spent_through(self, k: int) -> float:
        """Total alpha mass spent by looks ``1..k`` — always < ``alpha``."""
        if k < 0:
            raise ValueError(f"look count must be >= 0, got {k}")
        return self.alpha * (1.0 - 0.5 ** k)

    def interval_before(self, k: int) -> int:
        """Successful draws between look ``k-1`` and look ``k`` (1-based)."""
        if k < 1:
            raise ValueError(f"looks are 1-based, got {k}")
        interval = self.first_interval * (self.growth ** (k - 1))
        return int(min(interval, float(self.max_interval)))


@dataclass
class UniformityGateReport:
    """Combined verdict of the χ² test and the frequency-ratio check.

    This is the pass/fail gate the test suite applies to witness streams —
    serial and parallel runs of the same sampler must clear the identical
    gate (the statistical half of the parallel engine's acceptance
    criteria).
    """

    chi_square: ChiSquareResult
    ratio: FrequencyRatioCheck
    alpha: float

    @property
    def passed(self) -> bool:
        return not self.chi_square.rejects_uniformity(self.alpha) and self.ratio.ok

    def describe(self) -> str:
        return (
            f"{'PASS' if self.passed else 'FAIL'}: "
            f"chi2={self.chi_square.statistic:.1f} "
            f"(dof={self.chi_square.dof}, p={self.chi_square.p_value:.4f}, "
            f"alpha={self.alpha:g}), counts in "
            f"[{self.ratio.min_over_expected:.2f}, "
            f"{self.ratio.max_over_expected:.2f}]x of uniform "
            f"(bound {self.ratio.bound:g}x, "
            f"coverage {self.ratio.coverage:.0%})"
        )


def uniformity_gate_from_counts(
    counts: Mapping[Hashable, int],
    universe_size: int,
    alpha: float = 0.01,
    ratio_bound: float = 2.0,
) -> UniformityGateReport:
    """The combined verdict straight off a ``{witness: count}`` map.

    The shared core of both gate faces: the offline
    :func:`uniformity_gate` counts its draws and calls this, and the
    online gate calls it directly on its incrementally maintained counts —
    same counts ⇒ same verdict, down to the last float, is the
    online/offline equivalence invariant the sink tests pin.
    """
    return UniformityGateReport(
        chi_square=chi_square_from_counts(counts, universe_size),
        ratio=frequency_ratio_from_counts(
            counts, universe_size, bound=ratio_bound
        ),
        alpha=alpha,
    )


def uniformity_gate(
    draws: Sequence[Hashable],
    universe_size: int,
    alpha: float = 0.01,
    ratio_bound: float = 2.0,
) -> UniformityGateReport:
    """The one-call uniformity verdict over a witness stream.

    Runs :func:`chi_square_uniform` (global shape, at significance
    ``alpha``) and :func:`frequency_ratio_check` (worst-witness extremes,
    at ``ratio_bound``) and passes only when both do.  Meaningful when the
    expected count per witness ``len(draws)/universe_size`` is ≳ 5.
    """
    return uniformity_gate_from_counts(
        Counter(draws), universe_size, alpha=alpha, ratio_bound=ratio_bound
    )


def witness_key(model: dict[int, bool], svars: Sequence[int]) -> tuple[int, ...]:
    """Canonical hashable projection of a model onto the sampling set."""
    return tuple(v if model[v] else -v for v in sorted(svars))
