"""repro — a full reproduction of UniGen (Chakraborty, Meel, Vardi, DAC 2014).

Almost-uniform generation of SAT witnesses with strong two-sided guarantees,
built on a from-scratch CDCL solver with native XOR support, an ApproxMC
approximate model counter, and the baselines the paper compares against.

Quickstart — the lifecycle API (``repro.api``)::

    from repro import CNF, SamplerConfig, prepare, make_sampler

    cnf = CNF()
    cnf.add_clause([1, 2, 3])
    cnf.add_clause([-1, -2])

    config = SamplerConfig(epsilon=6.0, seed=42)
    pf = prepare(cnf, config)            # Algorithm 1 lines 1-11, once
    sampler = make_sampler("unigen", pf, config)
    witness = sampler.sample()           # dict var -> bool, or None (⊥)
    batch = make_sampler("unigen2", pf, config).sample_until(100)

The prepared artifact round-trips through JSON (``pf.to_dict()`` /
``PreparedFormula.from_dict``) so it can be cached on disk or shared across
processes — every sampler built from it skips the ApproxMC call.  Sampler
names come from ``available_samplers()`` (``unigen``, ``unigen2``,
``uniwit``, ``xorsample``, ``paws``, ``us``); the direct constructors
(``UniGen(cnf, epsilon=6.0, rng=42)`` …) remain available unchanged.
"""

from .cnf import CNF, XorClause, parse_dimacs, read_dimacs, to_dimacs, write_dimacs

__version__ = "0.1.0"

__all__ = [
    "CNF",
    "XorClause",
    "parse_dimacs",
    "read_dimacs",
    "to_dimacs",
    "write_dimacs",
    "__version__",
]


def __getattr__(name):  # pragma: no cover - thin lazy-import shim
    """Lazily expose the heavier subsystems at the package root."""
    from importlib import import_module

    lazy = {
        "UniGen": "repro.core",
        "UniGen2": "repro.core",
        "UniWit": "repro.core",
        "XorSamplePrime": "repro.core",
        "PawsStyle": "repro.core",
        "IdealUniformSampler": "repro.core",
        "EnumerativeUniformSampler": "repro.core",
        "compute_kappa_pivot": "repro.core",
        "SampleResult": "repro.core",
        "WitnessSampler": "repro.core",
        "SamplerConfig": "repro.api",
        "PreparedFormula": "repro.api",
        "prepare": "repro.api",
        "make_sampler": "repro.api",
        "available_samplers": "repro.api",
        "register_sampler": "repro.api",
        "ApproxMC": "repro.counting",
        "ExactCounter": "repro.counting",
        "Solver": "repro.sat",
        "bsat": "repro.sat",
        "Budget": "repro.sat",
        "HxorFamily": "repro.hashing",
        "find_independent_support": "repro.support",
        "build_plan": "repro.execution",
        "make_backend": "repro.execution",
        "SampleReport": "repro.execution",
        "StreamSink": "repro.sinks",
        "compose": "repro.sinks",
        "run_stream": "repro.sinks",
        "OnlineUniformityGate": "repro.sinks",
        "StatsFold": "repro.sinks",
        "JsonlWitnessWriter": "repro.sinks",
        "DimacsWitnessWriter": "repro.sinks",
        "uniformity_gate": "repro.stats",
        "uniformity_gate_from_counts": "repro.stats",
        "witness_key": "repro.stats",
        "GateTripped": "repro.errors",
    }
    if name in lazy:
        module = import_module(lazy[name])
        return getattr(module, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
