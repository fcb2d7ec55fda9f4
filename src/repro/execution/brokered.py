"""The broker backend: stream a brokered job's chunks as they are acked.

The broker path used to poll until *every* chunk was delivered, then fetch
the whole result set and merge — the coordinator held O(n) witnesses and
emitted nothing until the job finished.  This backend turns the same poll
loop into an incremental stream:

* each poll re-issues expired leases (the coordinator stays the failure
  detector — brokers run no timers), error-checks each arriving result
  **once** — at arrival for chunks within the window, at consumption for
  chunks that landed beyond it (their payload is fetched exactly once, not
  shipped twice) — and fails the job on a lost chunk, exactly as before;
* delivered chunks are yielded **in chunk-index order** as soon as the
  cursor reaches them.  Out-of-order arrivals within ``window`` of the
  cursor are staged in a reorder buffer; arrivals beyond it are dropped
  after the error check and re-fetched from the transport when their turn
  comes (:meth:`~repro.distributed.broker.Broker.fetch_result` reads one
  result, never the whole set).  Coordinator memory is therefore O(window)
  chunks no matter how large ``n`` grows or how out-of-order the worker
  fleet delivers.

Works against any :class:`~repro.distributed.broker.Broker` — in-memory,
spool directory, or TCP — because it only speaks the protocol.
"""

from __future__ import annotations

import time
from typing import Iterator

from ..distributed.broker import (
    DEFAULT_LEASE_TIMEOUT_S,
    DEFAULT_MAX_DELIVERIES,
    Broker,
    JobSpec,
)
from ..distributed.clock import Clock, wall_clock
from ..errors import ChunkLost, DistributedError
from ..parallel.plan import raise_worker_failure
from .base import ExecutionPlan, SampleBackend
from .registry import register_backend


class BrokerBackend(SampleBackend):
    """Windowed streaming consumption of a brokered sampling job."""

    name = "broker"

    def __init__(
        self,
        broker: Broker,
        *,
        window: int | None = None,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        max_deliveries: int = DEFAULT_MAX_DELIVERIES,
        poll_interval_s: float = 0.2,
        timeout_s: float | None = None,
        clock: Clock = wall_clock,
        sleep=time.sleep,
        on_progress=None,
    ):
        super().__init__(window=window)
        self.broker = broker
        self.lease_timeout_s = lease_timeout_s
        self.max_deliveries = max_deliveries
        self.poll_interval_s = poll_interval_s
        self.timeout_s = timeout_s
        self._clock = clock
        self._sleep = sleep
        self._on_progress = on_progress
        self._submitted: JobSpec | None = None
        #: The queue census at stream completion (workers, requeues).
        self.final_progress = None

    def submit_plan(self, plan: ExecutionPlan) -> JobSpec:
        """Enqueue the plan now, ahead of consuming the stream.

        ``run_plan`` submits lazily on first consumption, but a caller
        that spawns worker processes must submit *first* — otherwise a
        submit-time failure (e.g. a stale job still in flight on the
        spool) surfaces only after freshly spawned workers have started
        serving whatever foreign job is sitting in the queue.
        """
        self._submitted = self.broker.submit(
            plan.payload,
            list(plan.tasks),
            lease_timeout_s=self.lease_timeout_s,
            max_deliveries=self.max_deliveries,
        )
        return self._submitted

    def cancel_in_flight(self) -> None:
        """Abort the brokered job: purge it so nothing else runs.

        Purging is the broker path's cancellation primitive — pending
        chunks are discarded (never leased again), chunks a worker is
        still computing are nacked back into the void (the job is gone, so
        their acks fail the :class:`~repro.errors.LeaseExpired` fence and
        workers drop the results), and drain-mode workers observe the
        vanished job and exit.  Safe on a job that already completed or
        was never submitted.
        """
        super().cancel_in_flight()
        self.broker.purge()

    def run_plan(self, plan: ExecutionPlan) -> Iterator[dict]:
        """Stream the job's raw chunk results in order, submitting the plan
        first unless :meth:`submit_plan` already did.

        Raises :class:`~repro.errors.WorkerFailure` when a delivered chunk
        carries a worker-captured (deterministic) error,
        :class:`~repro.errors.ChunkLost` when a chunk burns its delivery
        budget without an ack, and
        :class:`~repro.errors.DistributedError` when the job vanishes or
        ``timeout_s`` runs out.
        """
        spec, self._submitted = self._submitted, None
        if spec is None:
            spec, self._submitted = self.submit_plan(plan), None
        window = self.resolved_window()
        # A resumed job's task list is a *subset* of the original chunk
        # plan, so chunk indices need not be contiguous or 0-based; the
        # cursor walks positions in the task list and maps results (keyed
        # by chunk index on every transport) back through `pos_of`.
        order = [task.index for task in spec.tasks]
        pos_of = {index: pos for pos, index in enumerate(order)}
        n_tasks = len(order)
        start = self._clock()
        next_pos = 0
        seen: set[int] = set()  # indices whose arrival we have recorded
        staged: dict[int, dict] = {}  # reorder buffer, bounded by window
        while next_pos < n_tasks:
            self.broker.requeue_expired()
            # The full index census is O(delivered) on remote transports;
            # only take it on ticks where the O(1) done counter says
            # something actually arrived since we last looked.
            if self.broker.done_count() != len(seen):
                for index in sorted(self.broker.result_indices() - seen):
                    pos = pos_of.get(index)
                    if pos is None or not (next_pos <= pos < next_pos + window):
                        # Beyond the reorder window: record the arrival
                        # but leave the payload on the transport —
                        # fetching it now only to discard it would ship
                        # every far-ahead chunk twice.  Its error check
                        # happens when the cursor reaches it below.
                        seen.add(index)
                        continue
                    raw = self.broker.fetch_result(index)
                    if raw is None:  # vanished between listing and fetch
                        continue
                    if raw["error"] is not None:
                        raise_worker_failure(raw)
                    seen.add(index)
                    staged[index] = raw
                    self._track(len(staged))
            lost = self.broker.lost()
            if lost:
                index, deliveries = next(iter(sorted(lost.items())))
                raise ChunkLost(
                    f"chunk {index} was issued {deliveries} times without "
                    f"an ack (max_deliveries={spec.max_deliveries}); no "
                    "live workers, or the chunk kills whoever runs it",
                    chunk_index=index,
                    deliveries=deliveries,
                )
            if self._on_progress is not None:
                self._on_progress(self.broker.progress())
            while next_pos < n_tasks:
                index = order[next_pos]
                raw = staged.pop(index, None)
                if raw is None and index in seen:
                    # Arrived beyond the window earlier; its one and only
                    # fetch (and error check) happens here.
                    raw = self.broker.fetch_result(index)
                if raw is None:
                    break
                if raw["error"] is not None:
                    raise_worker_failure(raw)
                yield raw
                self._track(len(staged) + 1)
                next_pos += 1
            if next_pos >= n_tasks:
                break
            # About to wait: make sure the job still exists.  A purged
            # spool or a brokerd that reaped the job mid-stream must be a
            # typed failure, not an eternal poll for results that can no
            # longer arrive.
            current = self.broker.job()
            if current is None or current.job_id != spec.job_id:
                raise DistributedError(
                    f"job {spec.job_id} vanished from the broker "
                    f"mid-stream (purged or reaped) after {next_pos}/"
                    f"{n_tasks} chunks were consumed"
                )
            if (
                self.timeout_s is not None
                and self._clock() - start > self.timeout_s
            ):
                raise DistributedError(
                    f"job {spec.job_id} incomplete after {self.timeout_s}s "
                    f"({self.broker.progress().describe()})"
                )
            self._sleep(self.poll_interval_s)
        self.final_progress = self.broker.progress()
        self._track(0)

    def _report_extras(self) -> dict:
        progress = self.final_progress
        if progress is None:
            return {}
        return {
            "jobs": max(1, len(progress.workers)),
            "requeues": progress.requeues,
        }


@register_backend(
    "broker",
    summary="chunk-queue workers over a spool directory or TCP brokerd",
)
def _make_broker(**kwargs) -> BrokerBackend:
    if "broker" not in kwargs:
        raise ValueError(
            "backend 'broker' needs a broker= transport instance "
            "(FileBroker, InMemoryBroker, or TcpBroker)"
        )
    broker = kwargs.pop("broker")
    return BrokerBackend(broker, **kwargs)
