"""The distributed worker loop: lease, heartbeat, run, ack, repeat.

A worker is transport-agnostic — it drives any
:class:`~repro.distributed.broker.Broker`.  The sampling itself goes
through **exactly** the code path the process pool uses
(:class:`repro.parallel.worker.WorkerState` + :func:`~repro.parallel.worker.
run_chunk`), so the jobs-invariance guarantee extends to the distributed
path by construction: a chunk produces the same raw result dict whether it
ran inline, in a pool process, or on another host via a spool directory.

Fault tolerance from the worker's side:

* While a chunk runs, a daemon thread heartbeats the lease every
  ``lease_timeout_s / 3`` seconds.  A heartbeat that comes back
  :class:`~repro.errors.LeaseExpired` means the broker re-issued the chunk
  (the worker stalled past its deadline, or the coordinator's clock says
  so); the thread records the loss and stops, and the finished result is
  *dropped*, not acked — the replacement lease delivers identical draws.
* A worker that dies outright (crash, SIGKILL, power loss) simply stops
  heartbeating; the broker requeues its chunk at the next expiry scan.
  Nothing worker-side needs to clean up.
* A chunk that fails with a *worker-local* exception (MemoryError,
  OSError, …) is nacked for retry elsewhere; only deterministic library
  errors — which any worker would reproduce under the chunk's seed — are
  delivered, where the coordinator fails the job fast.
* On a clean shutdown mid-lease (``max_chunks`` reached, KeyboardInterrupt)
  the worker nacks, returning the chunk immediately instead of letting the
  lease age out.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field

from ..errors import LeaseExpired
from ..parallel.worker import WorkerState, run_chunk
from .broker import Broker, Lease
from .clock import Clock, wall_clock


def default_worker_id() -> str:
    """``host:pid`` — unique enough per spool, and debuggable in lease files."""
    import socket

    return f"{socket.gethostname()}:{os.getpid()}"


class _Heartbeat:
    """Daemon thread extending one lease until stopped or fenced off."""

    def __init__(self, broker: Broker, lease: Lease, interval_s: float):
        self._broker = broker
        self._lease = lease
        self._interval_s = interval_s
        self._stop = threading.Event()
        self.lost = False
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            try:
                self._lease = self._broker.heartbeat(self._lease)
            except LeaseExpired:
                self.lost = True
                return
            except Exception:  # noqa: BLE001 — a flaky transport beat is
                # not fatal; the next beat (or the lease timeout) decides.
                continue

    def stop(self) -> Lease:
        """Stop beating; returns the most-recently extended lease."""
        self._stop.set()
        self._thread.join(timeout=self._interval_s + 5.0)
        return self._lease


@dataclass
class WorkerReport:
    """What one :func:`run_worker` invocation did, for logs and tests."""

    worker_id: str
    chunks_done: int = 0
    chunks_lost: int = 0
    jobs_seen: list[str] = field(default_factory=list)

    def describe(self) -> str:
        return (
            f"worker {self.worker_id}: {self.chunks_done} chunks acked, "
            f"{self.chunks_lost} leases lost, "
            f"{len(self.jobs_seen)} jobs seen"
        )


def run_worker(
    broker: Broker,
    *,
    worker_id: str | None = None,
    poll_interval_s: float = 0.2,
    idle_timeout_s: float | None = None,
    max_chunks: int | None = None,
    drain: bool = False,
    clock: Clock = wall_clock,
    sleep=time.sleep,
    chaos_kill_after: int | None = None,
    on_chunk=None,
) -> WorkerReport:
    """Serve a broker until told to stop; returns a :class:`WorkerReport`.

    ``idle_timeout_s``
        Exit after this long without obtaining a lease (``None``: poll
        forever).  The idle clock resets on every completed chunk.
    ``max_chunks``
        Exit after acking this many chunks (a test/chaos lever).
    ``drain``
        Exit as soon as a job exists and is complete — the mode CI's smoke
        leg and the golden-path tests use, so workers don't outlive the job.
    ``chaos_kill_after``
        Fault-injection hook for the chaos tests: after *leasing* the Nth
        chunk — mid-chunk, before any result exists — the worker SIGKILLs
        its own process, simulating a hard crash the broker must absorb.
    ``on_chunk``
        Optional callback ``(lease, raw_result) -> None`` after each ack.
    """
    report = WorkerReport(worker_id=worker_id or default_worker_id())
    initialized_job: str | None = None
    state: WorkerState | None = None
    stale_job: str | None = None
    leases_taken = 0
    idle_since = clock()

    while True:
        if max_chunks is not None and report.chunks_done >= max_chunks:
            return report
        spec = broker.job()
        if spec is None or spec.job_id == stale_job:
            if drain and spec is None and report.jobs_seen:
                # The job we served has vanished — its coordinator
                # collected and purged it.  That IS drain-complete; the
                # alternative is polling an empty queue until an idle
                # timeout that drain-mode callers usually don't set.
                return report
            if _idle_expired(clock, idle_since, idle_timeout_s):
                return report
            sleep(poll_interval_s)
            continue
        if spec.job_id != initialized_job:
            if broker.is_complete():
                # A finished job was already sitting in the spool when we
                # arrived (a previous run's leftovers).  Draining on it
                # would exit before the job we were started for is even
                # submitted — wait for the next submit instead.
                stale_job = spec.job_id
                continue
            # One payload deserialization per job, exactly like the pool's
            # per-process initializer.
            state = WorkerState(spec.payload)
            initialized_job = spec.job_id
            report.jobs_seen.append(spec.job_id)

        lease = broker.lease(report.worker_id)
        if lease is None:
            if drain and broker.is_complete():
                return report
            if _idle_expired(clock, idle_since, idle_timeout_s):
                return report
            sleep(poll_interval_s)
            continue
        if lease.job_id != initialized_job:
            # The spool's job changed between our job() read and the
            # claim: this chunk belongs to a job whose payload we have not
            # deserialized.  Running it against the old formula would
            # deliver witnesses of the wrong job — re-initialize if the
            # new spec is already published, hand the chunk back if not.
            spec = broker.job()
            if spec is not None and spec.job_id == lease.job_id:
                state = WorkerState(spec.payload)
                initialized_job = spec.job_id
                report.jobs_seen.append(spec.job_id)
            else:
                try:
                    broker.nack(lease, reason="job changed under us")
                except LeaseExpired:
                    pass
                # Pace the retry: a broker whose job()/lease() views keep
                # disagreeing must not let this loop re-lease and nack the
                # same chunk flat-out — that burns the chunk's delivery
                # budget in milliseconds and marks healthy work lost.
                sleep(poll_interval_s)
                continue

        leases_taken += 1
        if chaos_kill_after is not None and leases_taken >= chaos_kill_after:
            # Hard crash, no cleanup, no ack: exactly what a kernel OOM-kill
            # or a yanked machine looks like to the broker.
            os.kill(os.getpid(), signal.SIGKILL)

        beat = _Heartbeat(
            broker, lease, interval_s=max(spec.lease_timeout_s / 3.0, 0.05)
        )
        try:
            raw = run_chunk(lease.task, state)
        except BaseException:
            # Clean shutdown (KeyboardInterrupt, max_chunks SIGTERM handler):
            # hand the chunk back instead of letting the lease age out.
            lease = beat.stop()
            if not beat.lost:
                try:
                    broker.nack(lease, reason="worker interrupted")
                except LeaseExpired:
                    pass
            raise
        lease = beat.stop()
        error = raw.get("error")
        if beat.lost:
            # Fenced: the chunk was re-issued while we ran.  Drop the
            # result — the replacement lease draws the identical stream.
            report.chunks_lost += 1
        elif error is not None and error.get("retryable"):
            # Worker-local trouble (MemoryError, OSError, …) another host
            # might not hit: hand the chunk back for retry instead of
            # delivering a job-fatal failure.  The delivery budget still
            # bounds a chunk that kills every worker it lands on.
            try:
                broker.nack(lease, reason=f"retryable: {error['type']}")
            except LeaseExpired:
                pass
            report.chunks_lost += 1
        else:
            try:
                broker.ack(lease, raw)
                report.chunks_done += 1
                if on_chunk is not None:
                    on_chunk(lease, raw)
            except LeaseExpired:
                report.chunks_lost += 1
        idle_since = clock()


def _idle_expired(
    clock: Clock, idle_since: float, idle_timeout_s: float | None
) -> bool:
    return idle_timeout_s is not None and clock() - idle_since >= idle_timeout_s
