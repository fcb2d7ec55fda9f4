"""The sampler registry: algorithms selected by name, built from one config.

Everything downstream of the core — the CLI, the experiment runner, the
benchmark harness, the examples — used to hard-code sampler imports and
their five different constructor signatures.  They now go through

    make_sampler("unigen2", cnf_or_prepared, config)

which also accepts a :class:`~repro.api.prepared.PreparedFormula` in place
of the formula: the artifact already embeds the CNF, and samplers that
amortize lines 1–11 (``unigen``, ``unigen2``) adopt it instead of
re-running ApproxMC.

Third-party samplers can join via :func:`register_sampler`; the registry is
what a future service tier will enumerate to route requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..cnf.formula import CNF
from ..core.base import WitnessSampler
from ..core.paws import PawsStyle
from ..core.unigen import UniGen
from ..core.unigen2 import UniGen2
from ..core.uniwit import UniWit
from ..core.us import EnumerativeUniformSampler
from ..core.xorsample import XorSamplePrime
from ..rng import RandomSource
from .config import SamplerConfig
from .prepared import PreparedFormula

#: factory(cnf, config, prepared, rng) -> sampler
Factory = Callable[
    [CNF, SamplerConfig, "PreparedFormula | None", "RandomSource | None"],
    WitnessSampler,
]


@dataclass(frozen=True)
class SamplerEntry:
    """One registered algorithm."""

    name: str
    summary: str
    factory: Factory
    supports_prepared: bool = False


_REGISTRY: dict[str, SamplerEntry] = {}
_ALIASES: dict[str, str] = {}


def _normalize(name: str) -> str:
    return name.strip().lower().replace("'", "").replace("-", "").replace("_", "")


def register_sampler(
    name: str,
    *,
    summary: str = "",
    aliases: tuple[str, ...] = (),
    supports_prepared: bool = False,
) -> Callable[[Factory], Factory]:
    """Decorator registering a sampler factory under ``name`` (+ aliases)."""

    def decorate(factory: Factory) -> Factory:
        key = _normalize(name)
        if key in _REGISTRY:
            raise ValueError(f"sampler {name!r} is already registered")
        _REGISTRY[key] = SamplerEntry(
            name=name,
            summary=summary,
            factory=factory,
            supports_prepared=supports_prepared,
        )
        for alias in aliases:
            _ALIASES[_normalize(alias)] = key
        return factory

    return decorate


def available_samplers() -> list[str]:
    """Canonical names of every registered sampler, sorted."""
    return sorted(_REGISTRY)


def get_entry(name: str) -> SamplerEntry:
    """Look up a registry entry; raises ``ValueError`` for unknown names."""
    key = _normalize(name)
    key = _ALIASES.get(key, key)
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ValueError(
            f"unknown sampler {name!r}; available: {available_samplers()}"
        ) from None


def make_sampler(
    name: str,
    cnf_or_prepared: CNF | PreparedFormula,
    config: SamplerConfig | None = None,
    *,
    rng: RandomSource | None = None,
) -> WitnessSampler:
    """Build a sampler by name over a formula or a prepared artifact.

    ``cnf_or_prepared``
        Either the raw :class:`~repro.cnf.formula.CNF` or a
        :class:`~repro.api.prepared.PreparedFormula`.  Passing the latter
        to a sampler without a prepare phase (``uniwit``, ``xorsample``,
        ``paws``, ``us``) is an error — those algorithms *cannot* consume
        the artifact, which is exactly the amortization gap the paper's
        Section 5 comparison measures.
    ``config``
        A :class:`~repro.api.config.SamplerConfig`; library defaults apply
        when omitted.
    ``rng``
        Optional shared random source overriding ``config.seed`` (the
        Figure 1 protocol requires UniGen and US to share one stream).
    """
    entry = get_entry(name)
    config = config or SamplerConfig()
    prepared: PreparedFormula | None = None
    if isinstance(cnf_or_prepared, PreparedFormula):
        prepared = cnf_or_prepared
        cnf = prepared.cnf
        if not entry.supports_prepared:
            raise ValueError(
                f"sampler {entry.name!r} has no prepare phase and cannot "
                "consume a PreparedFormula; pass the CNF instead"
            )
    else:
        cnf = cnf_or_prepared
    if rng is None:
        rng = config.make_rng()
    return entry.factory(cnf, config, prepared, rng)


# ----------------------------------------------------------------------
# Built-in algorithms.
# ----------------------------------------------------------------------

def _unigen_kwargs(config: SamplerConfig, prepared, rng) -> dict:
    kwargs = dict(
        epsilon=config.epsilon,
        sampling_set=config.sampling_set,
        rng=rng,
        bsat_budget=config.budget(),
        max_retries_per_cell=config.max_retries_per_cell,
        approxmc_iterations=config.approxmc_iterations,
        hash_density=config.hash_density,
        prepared=prepared,
    )
    if prepared is not None and config.sampling_set is None:
        # The artifact pins the sampling set it was built under; q and the
        # hash family are only valid for exactly that set.
        kwargs["sampling_set"] = prepared.sampling_set
    return kwargs


@register_sampler(
    "unigen",
    summary="UniGen (DAC 2014): almost-uniform, two-sided Theorem 1 guarantee",
    supports_prepared=True,
)
def _make_unigen(cnf, config, prepared, rng) -> WitnessSampler:
    return UniGen(cnf, **_unigen_kwargs(config, prepared, rng))


@register_sampler(
    "unigen2",
    summary="UniGen2 (TACAS 2015 style): batched cells, ⌈loThresh⌉ witnesses each",
    supports_prepared=True,
)
def _make_unigen2(cnf, config, prepared, rng) -> WitnessSampler:
    return UniGen2(cnf, **_unigen_kwargs(config, prepared, rng))


@register_sampler(
    "uniwit",
    summary="UniWit (CAV 2013): near-uniform baseline, full-support hashing",
)
def _make_uniwit(cnf, config, prepared, rng) -> WitnessSampler:
    return UniWit(
        cnf,
        rng=rng,
        bsat_budget=config.budget(),
        max_retries_per_cell=config.max_retries_per_cell,
        leapfrog=config.leapfrog,
    )


@register_sampler(
    "xorsample",
    summary="XORSample' (NIPS 2007): user-chosen XOR count s (config.xor_count)",
    aliases=("xorsample'", "xorsampleprime"),
)
def _make_xorsample(cnf, config, prepared, rng) -> WitnessSampler:
    if config.xor_count is None:
        raise ValueError(
            "sampler 'xorsample' needs config.xor_count (the XOR count s); "
            "this user-supplied knob is exactly what UniGen's design removes"
        )
    return XorSamplePrime(
        cnf,
        s=config.xor_count,
        rng=rng,
        bsat_budget=config.budget(),
        max_cell=config.max_cell,
    )


@register_sampler(
    "paws",
    summary="PAWS-style (NIPS 2013): single hash size from a count estimate",
)
def _make_paws(cnf, config, prepared, rng) -> WitnessSampler:
    return PawsStyle(
        cnf,
        bucket=config.bucket,
        rng=rng,
        bsat_budget=config.budget(),
        approxmc_iterations=config.approxmc_iterations or 9,
    )


@register_sampler(
    "us",
    summary="Exactly uniform oracle by full enumeration (test/Figure 1 baseline)",
    aliases=("uniform", "enum"),
)
def _make_us(cnf, config, prepared, rng) -> WitnessSampler:
    return EnumerativeUniformSampler(
        cnf,
        rng=rng,
        limit=config.enum_limit,
        sampling_set=config.sampling_set,
    )
