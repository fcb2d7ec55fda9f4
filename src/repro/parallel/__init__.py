"""The chunk plan and worker code every execution backend shares.

Once lines 1–11 of Algorithm 1 have produced the hash-size window (the
:class:`~repro.api.prepared.PreparedFormula`), every per-sample run of
lines 12–22 is independent.  This package holds the pure pieces that make
any fan-out of those runs draw one deterministic stream:

* :func:`chunk_plan` / :func:`default_chunk_size` — the task list, a pure
  function of ``(n, chunk_size, root_seed)``; each chunk samples under a
  *derived* seed, so no job count, worker or transport can change it;
* :func:`build_payload` — the serialized per-worker recipe;
* :mod:`repro.parallel.worker` — :func:`~repro.parallel.worker.run_chunk`,
  the one chunk body the serial, pool and broker backends all run;
* :class:`ChunkFold` — the ordered fold of raw chunk results.

Running a plan is :mod:`repro.execution`'s job::

    from repro.execution import build_plan, make_backend

    plan = build_plan(prepared, 1000, SamplerConfig(seed=42),
                      sampler="unigen2")
    report = make_backend("pool", jobs=8).collect(plan)
    report.witnesses            # ordered, identical for every backend
"""

from .plan import (
    ChunkFold,
    ChunkTask,
    build_payload,
    chunk_plan,
    default_chunk_size,
)

__all__ = [
    "default_chunk_size",
    "ChunkFold",
    "ChunkTask",
    "build_payload",
    "chunk_plan",
]
