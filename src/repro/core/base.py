"""Common sampler interface and bookkeeping.

Every generator in :mod:`repro.core` (UniGen, UniGen2, UniWit, XORSample',
US) exposes

* ``sample() -> dict[var, bool] | None`` — one witness, or ``None`` for the
  bounded-probability failure outcome ⊥ (Theorem 1 allows it);
* ``sample_result()`` — one draw wrapped in a :class:`SampleResult` carrying
  the accepted cell size, the hash size ``i``, and per-draw timing;
* ``sample_many(n)`` — a list with one entry per attempt (``None`` kept, so
  observed success probability — Tables 1/2, column "Succ Prob" — falls out
  directly);
* ``sample_batch()`` / ``sample_until(n)`` / ``iter_samples()`` — the batch
  surface.  The retry loop lives *here*, once; batched samplers (UniGen2)
  override only :meth:`batch_size` and :meth:`sample_batch`;
* ``stats`` — cumulative :class:`SamplerStats` including the average XOR
  clause length, the other headline column of Tables 1/2.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass, field
from typing import Iterable, Iterator

Witness = dict[int, bool]


def witness_to_lits(witness: Witness) -> list[int]:
    """Canonical signed-literal list form of a witness (sorted by variable).

    The wire format for witnesses crossing a process or JSON boundary —
    used by :class:`~repro.api.prepared.PreparedFormula` and the parallel
    engine's worker results.
    """
    return [v if witness[v] else -v for v in sorted(witness)]


def lits_to_witness(lits: Iterable[int]) -> Witness:
    """Inverse of :func:`witness_to_lits`."""
    return {abs(l): l > 0 for l in lits}


@dataclass(frozen=True)
class SampleResult:
    """One ``sample()`` draw plus its provenance.

    ``witness``
        The drawn witness, or ``None`` for the ⊥ outcome.
    ``cell_size``
        Size of the pool the witness was drawn from: the accepted hashed
        cell, or the full witness list on UniGen's easy-case path.
        ``None`` for samplers that never enumerate a pool (e.g. UniWit,
        the US oracle).
    ``hash_size``
        The number of XOR constraints ``i`` of the accepted cell.  ``None``
        when no hashing happened — this, not ``cell_size``, distinguishes
        hashed draws from easy-case/oracle draws.
    ``time_seconds``
        Wall-clock time of this draw.
    """

    witness: Witness | None
    cell_size: int | None = None
    hash_size: int | None = None
    time_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.witness is not None

    def __bool__(self) -> bool:
        return self.witness is not None

    def to_dict(self) -> dict:
        """JSON-serializable form (witness as a signed-literal list)."""
        return {
            "witness": (
                None if self.witness is None else witness_to_lits(self.witness)
            ),
            "cell_size": self.cell_size,
            "hash_size": self.hash_size,
            "time_seconds": self.time_seconds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SampleResult":
        """Inverse of :meth:`to_dict` (the parallel engine's wire format)."""
        lits = data.get("witness")
        return cls(
            witness=None if lits is None else lits_to_witness(lits),
            cell_size=data.get("cell_size"),
            hash_size=data.get("hash_size"),
            time_seconds=float(data.get("time_seconds", 0.0)),
        )


@dataclass
class SamplerStats:
    """Cumulative counters across all ``sample()`` calls of one sampler."""

    attempts: int = 0
    successes: int = 0
    failures: int = 0
    bsat_calls: int = 0
    bsat_timeouts: int = 0
    xor_clauses_added: int = 0
    xor_literals_added: int = 0
    # XOR rows of timed-out BSAT calls whose cells were discarded and
    # redrawn (the Section 5 retry rule).  Kept out of the *_added counters
    # so "Avg XOR len" reflects only cells that actually produced results.
    xor_clauses_retried: int = 0
    xor_literals_retried: int = 0
    # Cumulative CDCL counters across every solver the sampler drove —
    # fresh-per-call and shared-session modes book the same deltas, so
    # reuse-vs-fresh wins show up directly in reports and /v1/stats.
    solver_decisions: int = 0
    solver_propagations: int = 0
    solver_conflicts: int = 0
    solver_restarts: int = 0
    solver_learned_clauses: int = 0
    sample_time_seconds: float = 0.0
    setup_time_seconds: float = 0.0

    @property
    def success_probability(self) -> float:
        """Observed success rate (column "Succ Prob" in Tables 1/2)."""
        if self.attempts == 0:
            return 0.0
        return self.successes / self.attempts

    @property
    def avg_xor_length(self) -> float:
        """Mean variables per XOR clause (column "Avg XOR len")."""
        if self.xor_clauses_added == 0:
            return 0.0
        return self.xor_literals_added / self.xor_clauses_added

    @property
    def avg_time_per_sample(self) -> float:
        """Mean wall-clock seconds per attempt (column "Avg Run Time")."""
        if self.attempts == 0:
            return 0.0
        return self.sample_time_seconds / self.attempts

    def book_solver(self, delta) -> None:
        """Fold one enumeration's :class:`~repro.sat.SolverStats` deltas in."""
        if delta is None:
            return
        self.solver_decisions += delta.decisions
        self.solver_propagations += delta.propagations
        self.solver_conflicts += delta.conflicts
        self.solver_restarts += delta.restarts
        self.solver_learned_clauses += delta.learned_clauses

    def merge(self, other: "SamplerStats") -> "SamplerStats":
        """Accumulate ``other``'s counters into this one (returns self).

        Every field of :class:`SamplerStats` is additive, so merging is
        well-defined across samplers over the same formula — this is how
        the parallel engine folds per-worker stats into one run total.
        """
        for f in self.__dataclass_fields__:
            setattr(self, f, getattr(self, f) + getattr(other, f))
        return self

    @classmethod
    def merged(cls, parts: Iterable["SamplerStats | None"]) -> "SamplerStats":
        """One cumulative :class:`SamplerStats` over all of ``parts``.

        ``None`` entries are skipped: a failed chunk's raw result carries
        ``stats: None`` across the wire, and both the pool engine and the
        distributed coordinator merge whatever stats *did* arrive when
        assembling an error report.
        """
        total = cls()
        for part in parts:
            if part is not None:
                total.merge(part)
        return total

    def merge_raw(self, data: dict | None) -> "SamplerStats":
        """Fold one wire-form stats dict into this accumulator (returns self).

        The streaming-safe accumulation primitive: every field is additive,
        so a long-running stream folds each chunk's stats the moment it
        arrives and never needs the full list of parts in memory.  ``None``
        is skipped for the same reason :meth:`merged` skips it — a failed
        chunk ships ``stats: None``.
        """
        if data is not None:
            self.merge(SamplerStats.from_dict(data))
        return self

    def to_dict(self) -> dict:
        """JSON-serializable form; inverse of :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SamplerStats":
        return cls(**{f: data[f] for f in cls.__dataclass_fields__ if f in data})


class WitnessSampler(ABC):
    """Abstract base for witness generators."""

    #: Human-readable algorithm name, used in experiment reports.
    name: str = "sampler"

    def __init__(self) -> None:
        self.stats = SamplerStats()
        # Provenance of the most recent draw, recorded by subclasses that
        # enumerate hashed cells; surfaced through sample_result().
        self._last_cell_size: int | None = None
        self._last_hash_size: int | None = None

    @abstractmethod
    def _sample_once(self) -> Witness | None:
        """Produce one witness or ⊥ (``None``). Subclasses implement this."""

    def sample(self) -> Witness | None:
        """One witness draw with timing/accounting."""
        self._last_cell_size = None
        self._last_hash_size = None
        start = time.monotonic()
        try:
            witness = self._sample_once()
        finally:
            self.stats.sample_time_seconds += time.monotonic() - start
        self.stats.attempts += 1
        if witness is None:
            self.stats.failures += 1
        else:
            self.stats.successes += 1
        return witness

    def sample_result(self) -> SampleResult:
        """One draw wrapped in a :class:`SampleResult` with provenance."""
        start = time.monotonic()
        witness = self.sample()
        return SampleResult(
            witness=witness,
            cell_size=self._last_cell_size,
            hash_size=self._last_hash_size,
            time_seconds=time.monotonic() - start,
        )

    def sample_many(self, n: int) -> list[Witness | None]:
        """``n`` independent draws; failed draws stay as ``None`` entries."""
        return [self.sample() for _ in range(n)]

    # -- batch surface --------------------------------------------------
    def batch_size(self) -> int:
        """Witnesses one successful attempt can yield (1 unless batched)."""
        return 1

    def draws_per_instance(self, n: int) -> int:
        """Draws of an ``n``-draw run one instance serves without waste.

        A fresh instance pays for set-up and harvests that a shorter run
        would throw away; default chunking
        (:func:`~repro.parallel.plan.default_chunk_size`) rounds chunks up
        to a multiple of this.  1 when every draw pays its own way.
        """
        return 1

    def sample_batch(self) -> list[Witness]:
        """One attempt's worth of witnesses; empty list on ⊥.

        The default is a single draw.  Batched samplers (UniGen2) override
        this to harvest several witnesses from one accepted cell.
        """
        witness = self.sample()
        return [] if witness is None else [witness]

    def sample_until_results(
        self, n: int, max_attempts: int | None = None
    ) -> list[SampleResult]:
        """The retry loop with per-draw provenance; the one implementation.

        Draws batches until ``n`` witnesses are delivered or
        ``max_attempts`` :meth:`sample_batch` calls are spent.  A ⊥ batch
        contributes one failed :class:`SampleResult`; a successful batch
        contributes one entry per *kept* witness (extras beyond ``n`` are
        discarded), sharing the batch's cell provenance with its timing
        split evenly.  Both :meth:`sample_until` and the parallel engine's
        workers are thin wrappers over this.
        """
        out: list[SampleResult] = []
        delivered = 0
        attempts = 0
        while delivered < n:
            if max_attempts is not None and attempts >= max_attempts:
                break
            start = time.monotonic()
            batch = self.sample_batch()
            elapsed = time.monotonic() - start
            attempts += 1
            cell = self._last_cell_size
            hsize = self._last_hash_size
            if not batch:
                out.append(
                    SampleResult(None, cell, hsize, time_seconds=elapsed)
                )
                continue
            kept = batch[: n - delivered]
            for witness in kept:
                out.append(
                    SampleResult(
                        witness, cell, hsize,
                        time_seconds=elapsed / len(batch),
                    )
                )
            delivered += len(kept)
        return out

    def sample_until(self, n: int, max_attempts: int | None = None) -> list[Witness]:
        """Draw batches until ``n`` witnesses (or ``max_attempts`` attempts).

        Each :meth:`sample_batch` call counts as one attempt; the loop
        itself lives in :meth:`sample_until_results`.
        """
        return [
            r.witness
            for r in self.sample_until_results(n, max_attempts=max_attempts)
            if r.witness is not None
        ]

    def iter_samples(
        self, limit: int | None = None, max_attempts: int | None = None
    ) -> Iterator[Witness]:
        """Yield successful witnesses lazily (forever when ``limit=None``).

        ``max_attempts`` bounds the number of :meth:`sample_batch` calls so
        a persistently-⊥ sampler (e.g. a badly parameterized XORSample')
        terminates instead of spinning.
        """
        produced = 0
        attempts = 0
        while limit is None or produced < limit:
            if max_attempts is not None and attempts >= max_attempts:
                return
            batch = self.sample_batch()
            attempts += 1
            for witness in batch:
                yield witness
                produced += 1
                if limit is not None and produced >= limit:
                    return
