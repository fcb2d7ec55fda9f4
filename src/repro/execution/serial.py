"""The serial backend: the chunked pipeline, inline, one chunk at a time.

Runs through **exactly** the worker code path the pool and broker use
(:class:`~repro.parallel.worker.WorkerState` +
:func:`~repro.parallel.worker.run_chunk`), so it is both the reference
stream every other backend must reproduce and the cheapest way to stream:
one chunk of witnesses alive at any instant, no processes, no transport.
"""

from __future__ import annotations

from typing import Iterator

from ..parallel.worker import WorkerState, run_chunk
from .base import ExecutionPlan, SampleBackend
from .registry import register_backend


class SerialBackend(SampleBackend):
    """Inline chunk loop; the in-flight window is inherently 1."""

    name = "serial"

    def resolved_window(self) -> int:
        return 1

    def run_plan(self, plan: ExecutionPlan) -> Iterator[dict]:
        # One state per plan, held here: plans interleaved in one thread
        # or run on concurrent threads never share a formula.
        state = WorkerState(plan.payload)
        for task in plan.tasks:
            self._track(1)
            yield run_chunk(task, state)
            self._track(0)


@register_backend(
    "serial",
    summary="inline chunk loop in this process (window 1, the reference)",
)
def _make_serial(*, window: int | None = None) -> SerialBackend:
    # Never silently drop a requested window (any other kwarg is a
    # TypeError): serial streams one chunk at a time by construction.
    if window is not None and window != 1:
        raise ValueError(
            f"backend 'serial' streams one chunk at a time; window="
            f"{window} is not available (use the pool or broker backend)"
        )
    return SerialBackend()
