"""Streaming execution backends: the one way to run a chunk plan.

The per-sample phase of Algorithm 1 runs behind a single
:class:`SampleBackend` protocol.  Backends are picked by name (mirroring
the sampler registry) and all execute the same deterministic
:class:`ExecutionPlan`, so the witness stream is a pure function of the
plan — never of the backend::

    from repro.api import SamplerConfig
    from repro.execution import build_plan, make_backend

    plan = build_plan(prepared, 100_000, SamplerConfig(seed=42),
                      sampler="unigen2")
    backend = make_backend("pool", jobs=8, window=16)
    for chunk_index, result in backend.iter_sample_stream(plan):
        if result.ok:
            consume(result.witness)     # O(window) chunks ever held

``backend.collect(plan)`` runs the plan to completion and returns the
merged :class:`SampleReport` (the ``--report-json`` schema).  The
``broker`` backend streams a distributed job (spool directory or TCP
``repro brokerd``) the same way; ``submit_plan`` enqueues it ahead of
spawning workers.
"""

from __future__ import annotations

from .base import (
    DEFAULT_WINDOW,
    ExecutionPlan,
    SampleBackend,
    SampleReport,
    StreamEvent,
    build_plan,
)
from .registry import (
    BackendEntry,
    available_backends,
    get_backend_entry,
    make_backend,
    register_backend,
)
from .serial import SerialBackend

__all__ = [
    "DEFAULT_WINDOW",
    "ExecutionPlan",
    "SampleBackend",
    "SampleReport",
    "StreamEvent",
    "build_plan",
    "SerialBackend",
    "PoolBackend",
    "BrokerBackend",
    "BackendEntry",
    "register_backend",
    "available_backends",
    "get_backend_entry",
    "make_backend",
]


def __getattr__(name: str):
    # The pool and broker backends load on first use (registry._BUILTIN).
    if name == "PoolBackend":
        from .pool import PoolBackend

        return PoolBackend
    if name == "BrokerBackend":
        from .brokered import BrokerBackend

        return BrokerBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
