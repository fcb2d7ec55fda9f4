"""Distributed sampling: a fault-tolerant chunk queue over any transport.

The per-sample phase of Algorithm 1 is embarrassingly parallel once the
once-per-formula phase has produced the
:class:`~repro.api.prepared.PreparedFormula`.  This package puts the
chunk plan of :func:`repro.execution.build_plan` onto a broker so
independent ``repro worker`` processes — same host, shared filesystem, or
a TCP ``repro brokerd`` — can pull work, with leases, heartbeats, and
lost-chunk retry.  The broker execution backend submits the plan and
streams the acked chunks back in order::

    from repro.api import SamplerConfig
    from repro.distributed import FileBroker
    from repro.execution import build_plan, make_backend

    plan = build_plan(cnf, 1000, SamplerConfig(seed=42), sampler="unigen2")
    backend = make_backend("broker", broker=FileBroker("/var/spool/repro"))
    backend.submit_plan(plan)           # then start `repro worker`s
    report = backend.collect(plan)

The headline guarantee is the pool's: a chunk is re-issued after a crash
*with its original derived seed*, so the merged witness stream is
bit-identical to a single-process run regardless of worker count,
failures, or arrival order.  See :mod:`repro.distributed.broker` for the
queue semantics and :mod:`repro.distributed.worker` for the worker loop.
"""

from .broker import (
    Broker,
    BrokerProgress,
    InMemoryBroker,
    JobSpec,
    Lease,
)
from .clock import FakeClock, wall_clock
from .filebroker import FileBroker
from .tcpbroker import BrokerServer, TcpBroker, connect_broker
from .worker import WorkerReport, default_worker_id, run_worker

__all__ = [
    "Broker",
    "BrokerProgress",
    "InMemoryBroker",
    "FileBroker",
    "TcpBroker",
    "BrokerServer",
    "connect_broker",
    "JobSpec",
    "Lease",
    "FakeClock",
    "wall_clock",
    "run_worker",
    "WorkerReport",
    "default_worker_id",
]
