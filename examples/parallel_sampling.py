#!/usr/bin/env python3
"""Parallel sampling: prepare once, fan the drawing out, test uniformity.

The workflow this example walks through is the scripted version of

    repro prepare F.cnf --out state.json
    repro sample --prepared state.json -n 600 --jobs 4 --seed 42

plus the statistical check that parallelism did not bend the distribution:
serial (jobs=1) and pooled (jobs=4) runs of the same root seed draw the
*identical* witness stream, and the stream clears the chi-square +
frequency-ratio uniformity gate.

Run:  python examples/parallel_sampling.py
"""

from repro.cnf import exactly_k_solutions_formula
from repro.api import SamplerConfig, prepare
from repro.execution import build_plan, make_backend
from repro.stats import uniformity_gate, witness_key

# --- 1. A formula with exactly 20 witnesses over 6 sampling variables ------
K = 20
cnf = exactly_k_solutions_formula(6, K)
cnf.sampling_set = range(1, 7)

# --- 2. The one-time phase runs once, in this (parent) process -------------
config = SamplerConfig(epsilon=6.0, seed=42)
artifact = prepare(cnf, config)
print(f"prepared: {artifact.describe()}")

# --- 3. Fan out: one chunk plan, run inline and on a 4-process pool --------
N = 600
plan = build_plan(artifact, N, config, sampler="unigen")
serial = make_backend("serial").collect(plan)
pooled = make_backend("pool", jobs=4).collect(plan)
print(f"jobs=1: {serial.describe()}")
print(f"jobs=4: {pooled.describe()}")

# Jobs-invariance: the pool draws exactly the serial stream, draw for draw.
assert pooled.witnesses == serial.witnesses
print(f"jobs-invariant: {len(pooled.witnesses)} identical draws")

# --- 4. The uniformity gate -------------------------------------------------
keys = [witness_key(w, artifact.sampling_set) for w in pooled.witnesses]
gate = uniformity_gate(keys, K)
print(f"uniformity gate: {gate.describe()}")
assert gate.passed

# Merged provenance survives the fan-out: success probability, cell sizes.
print(
    f"merged stats: {pooled.stats.attempts} attempts, "
    f"success={pooled.stats.success_probability:.3f}, "
    f"avg {pooled.stats.avg_time_per_sample * 1000:.2f} ms/attempt"
)
