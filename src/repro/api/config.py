"""The one configuration object for every sampler in the library.

Before this package existed, the knobs below were spread across five
constructors (``UniGen``, ``UniGen2``, ``UniWit``, ``XorSamplePrime``,
``EnumerativeUniformSampler``) with overlapping-but-different signatures.
:class:`SamplerConfig` captures all of them once; the registry
(:mod:`repro.api.registry`) maps each algorithm to the subset it consumes.

The config is a plain dataclass with :meth:`to_dict`/:meth:`from_dict`, so
it can ride along with a cached :class:`~repro.api.prepared.PreparedFormula`
or a job description in a service tier.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from ..rng import RandomSource, as_random_source
from ..sat.types import Budget


#: Retired keys that did change the stream, with the value this version
#: runs.  Any other value names a stream this version can no longer draw.
RETIRED_DEFAULTS = {"matrix_reuse": False, "approxmc_search": "linear"}


@dataclass
class SamplerConfig:
    """Every knob of every sampler, with the library-wide defaults.

    Core (UniGen / UniGen2)
    -----------------------
    ``epsilon``
        Uniformity tolerance ε > 1.71 (the paper's experiments use 6).
    ``sampling_set``
        The independent support ``S``; ``None`` defers to the formula's
        ``c ind`` declaration or its full support.
    ``seed``
        RNG seed; ``None`` draws OS entropy.  Callers that need to share
        one stream across samplers (Figure 1's protocol) pass an explicit
        ``rng`` to :func:`~repro.api.registry.make_sampler` instead.
    ``max_conflicts`` / ``bsat_timeout_s``
        Per-BSAT-call budget (the paper's 2,500 s cap).
    ``max_retries_per_cell``
        Timed-out BSAT retries at one hash size before giving up.
    ``approxmc_iterations``
        Core-iteration override for the internal ApproxMC call (``None`` =
        the conservative CP'13 count).  ApproxMC has one core, the CP'13
        linear search of Algorithm 1, line 9.
    ``hash_density``
        XOR row density; 0.5 is the 3-independent family Theorem 1 needs.

    How cells are solved is not a knob: every window sweep runs on one
    incremental solver session (see :mod:`repro.core.cellsearch`).
    Configs saved with the retired ``solver_reuse`` or ``gf2_backend``
    keys, or with ``matrix_reuse: false`` or ``approxmc_search:
    "linear"``, still load; :meth:`from_dict` drops them.
    ``matrix_reuse: true`` and ``approxmc_search: "galloping"`` named a
    different cell search or ApproxMC core, which this version cannot
    run, so they are refused.

    Baselines
    ---------
    ``leapfrog``
        UniWit's guarantee-voiding warm start (ablation A2 only).
    ``xor_count``
        XORSample''s user-chosen ``s`` — required by that sampler, the
        "difficult-to-estimate input parameter" the paper criticizes.
    ``max_cell``
        XORSample''s cell-enumeration cap.
    ``bucket``
        PAWS-style bucket size ``b``.
    ``enum_limit``
        Witness cap for the enumerative uniform oracle (``us``).
    """

    epsilon: float = 6.0
    sampling_set: list[int] | None = None
    seed: int | None = None
    max_conflicts: int | None = None
    bsat_timeout_s: float | None = None
    max_retries_per_cell: int = 20
    approxmc_iterations: int | None = 9
    hash_density: float = 0.5
    leapfrog: bool = False
    xor_count: int | None = None
    max_cell: int = 10_000
    bucket: int = 32
    enum_limit: int = 200_000

    def budget(self) -> Budget | None:
        """The per-BSAT-call :class:`~repro.sat.types.Budget` (or ``None``)."""
        if self.max_conflicts is None and self.bsat_timeout_s is None:
            return None
        return Budget(
            max_conflicts=self.max_conflicts,
            timeout_seconds=self.bsat_timeout_s,
        )

    def make_rng(self) -> RandomSource:
        """A fresh random source seeded from :attr:`seed`."""
        return as_random_source(self.seed)

    def to_dict(self) -> dict:
        """JSON-serializable form; inverse of :meth:`from_dict`."""
        data = asdict(self)
        if self.sampling_set is not None:
            data["sampling_set"] = list(self.sampling_set)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SamplerConfig":
        """Build a config from a dict, ignoring unknown keys (so configs
        saved by newer versions still load).

        Raises ``ValueError`` when a retired key of
        :data:`RETIRED_DEFAULTS` holds any other value than the one this
        version runs: a plan payload or broker job asking for that stream
        must fail, not be drawn silently with a different one.
        """
        for key, default in RETIRED_DEFAULTS.items():
            if data.get(key, default) not in (None, default):
                raise ValueError(
                    f"config asks for {key}={data[key]!r}, a retired "
                    "setting whose witness stream this version cannot draw"
                )
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known}
        if kwargs.get("sampling_set") is not None:
            kwargs["sampling_set"] = [int(v) for v in kwargs["sampling_set"]]
        return cls(**kwargs)
