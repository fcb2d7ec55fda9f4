"""The unified sampling-engine API: explicit lifecycle, samplers by name.

Algorithm 1's two phases become two explicit steps::

    from repro.api import SamplerConfig, prepare, make_sampler

    config = SamplerConfig(epsilon=6.0, seed=42)
    pf = prepare(cnf, config)            # lines 1-11, once per formula
    sampler = make_sampler("unigen2", pf, config)   # lines 12-22, per sample
    witnesses = sampler.sample_until(100)

The :class:`PreparedFormula` artifact is JSON-round-trippable
(``pf.to_dict()`` / ``PreparedFormula.from_dict``) so it can be cached on
disk (``repro prepare F.cnf --out state.json``), shipped between processes,
and shared by any number of samplers — none of which re-run ApproxMC.

``make_sampler`` covers every algorithm in the library
(:func:`available_samplers` lists them); each returns a
:class:`~repro.core.base.WitnessSampler` with the uniform result surface:
``sample()``, ``sample_result()`` (a :class:`SampleResult` with cell size,
hash size and timing), ``sample_batch()``, ``sample_until(n)`` and
``iter_samples()``.

Chunked runs of the per-sample phase — inline, over a process pool, or
through a broker — go through :mod:`repro.execution`:
``make_backend("pool", jobs=8).collect(build_plan(pf, n, config))`` draws
the same witness stream as a serial run of the same root seed, merged
into an ordered :class:`~repro.execution.SampleReport`.
"""

from ..core.base import SampleResult, SamplerStats, Witness, WitnessSampler
from .config import SamplerConfig
from .prepared import PREPARED_FORMAT_VERSION, PreparedFormula, prepare
from .registry import (
    SamplerEntry,
    available_samplers,
    get_entry,
    make_sampler,
    register_sampler,
)

__all__ = [
    "SamplerConfig",
    "PreparedFormula",
    "PREPARED_FORMAT_VERSION",
    "prepare",
    "make_sampler",
    "available_samplers",
    "register_sampler",
    "get_entry",
    "SamplerEntry",
    "SampleResult",
    "SamplerStats",
    "WitnessSampler",
    "Witness",
]
