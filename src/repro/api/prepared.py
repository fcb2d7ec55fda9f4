"""The lines-1–11 artifact as an explicit, serializable object.

Algorithm 1 splits cleanly into a once-per-formula phase (lines 1–11: the
easy-case check and one ApproxMC call) and a per-sample phase (lines 12–22:
the cell search).  :class:`PreparedFormula` materializes the output of the
first phase so it can be

* **shared** — any number of UniGen/UniGen2 instances over the same formula
  adopt it without re-running ApproxMC (``make_sampler(name, prepared)``);
* **cached** — ``to_dict()``/``from_dict()`` round-trip through JSON, so
  ``repro prepare F.cnf --out state.json`` followed by
  ``repro sample --prepared state.json`` skips the expensive phase across
  process boundaries;
* **shipped** — the dict embeds the formula itself (DIMACS text, including
  ``c ind`` and ``x`` lines), so the artifact is self-contained.

Adoption is bit-for-bit faithful: a sampler fed a round-tripped artifact
draws exactly the same witnesses, under the same rng seed, as one fed the
in-memory original (the easy-witness list order and the window ``q`` are
preserved exactly).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..cnf.dimacs import parse_dimacs, to_dimacs
from ..cnf.formula import CNF
from ..core.base import Witness, lits_to_witness, witness_to_lits
from ..counting.types import CountResult
from ..errors import SamplingError

#: Bumped whenever the serialized layout changes incompatibly.
PREPARED_FORMAT_VERSION = 1

#: Keys that must be present in a serialized artifact.
_REQUIRED_KEYS = frozenset({"format_version", "dimacs", "epsilon"})

#: Every key :meth:`PreparedFormula.to_dict` writes.  Unknown keys are
#: rejected rather than ignored: an artifact is a cache of exact sampler
#: state, and a field this version cannot interpret could change sampling
#: behaviour silently.
_KNOWN_KEYS = _REQUIRED_KEYS | {
    "name",
    "sampling_set",
    "easy_witnesses",
    "q",
    "approx_count",
    "prepare_bsat_calls",
    "prepare_time_seconds",
}


@dataclass
class PreparedFormula:
    """Output of Algorithm 1's lines 1–11 for one formula.

    Exactly one of the two payloads is set:

    ``easy_witnesses``
        Lines 5–7 applied (``|R_F| ≤ hiThresh``): the complete witness
        list, in enumeration order.  Sampling is a uniform draw from it.
    ``q``
        Lines 9–11 applied: the upper end of the hash-size window
        ``{q−3..q}``, derived from the ApproxMC estimate kept (with its
        provenance) in ``approx_count``.

    ``epsilon`` and ``sampling_set`` pin the parameters the artifact was
    built under — adopting it with different ones is rejected, because both
    ``q`` and the hash family depend on them.
    """

    cnf: CNF
    epsilon: float
    sampling_set: list[int] = field(default_factory=list)
    easy_witnesses: list[Witness] | None = None
    q: int | None = None
    approx_count: CountResult | None = None
    prepare_bsat_calls: int = 0
    prepare_time_seconds: float = 0.0

    @property
    def is_easy(self) -> bool:
        """True when the easy case applied (full witness list cached)."""
        return self.easy_witnesses is not None

    @property
    def approx_count_value(self) -> int | None:
        return self.approx_count.count if self.approx_count else None

    @staticmethod
    def key_for(cnf: CNF, epsilon: float) -> str:
        """The cache key a ``prepare(cnf, epsilon)`` call *would* produce.

        Exposed separately so the service tier can address its cache
        before running the expensive phase (the single-flight lookup needs
        the key first).
        """
        return f"{cnf.canonical_hash()}:eps={epsilon:g}"

    def cache_key(self) -> str:
        """The service tier's prepared-formula cache key.

        Canonical CNF content (:meth:`~repro.cnf.formula.CNF.
        canonical_hash`) plus the ε the artifact was built under — the two
        inputs adoption is fenced on (``q`` and the hash family depend on
        both), so two artifacts with the same key are interchangeable.
        """
        return self.key_for(self.cnf, self.epsilon)

    # ------------------------------------------------------------------
    @classmethod
    def from_sampler(cls, sampler) -> "PreparedFormula":
        """Export the artifact from a prepared ``UniGen``/``UniGen2``."""
        sampler.prepare()
        easy = sampler.easy_witnesses
        return cls(
            cnf=sampler.cnf,
            epsilon=sampler.epsilon,
            sampling_set=list(sampler.sampling_set),
            easy_witnesses=[dict(w) for w in easy] if easy is not None else None,
            q=sampler.q,
            approx_count=sampler.approx_count_result,
            prepare_bsat_calls=sampler.stats.bsat_calls,
            prepare_time_seconds=sampler.stats.setup_time_seconds,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-serializable dict embedding the formula as DIMACS text."""
        return {
            "format_version": PREPARED_FORMAT_VERSION,
            "dimacs": to_dimacs(self.cnf),
            "name": self.cnf.name,
            "epsilon": self.epsilon,
            "sampling_set": list(self.sampling_set),
            "easy_witnesses": (
                [witness_to_lits(w) for w in self.easy_witnesses]
                if self.easy_witnesses is not None
                else None
            ),
            "q": self.q,
            "approx_count": (
                self.approx_count.to_dict() if self.approx_count else None
            ),
            "prepare_bsat_calls": self.prepare_bsat_calls,
            "prepare_time_seconds": self.prepare_time_seconds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PreparedFormula":
        """Inverse of :meth:`to_dict`.

        Strict: the dict must carry exactly the schema :meth:`to_dict`
        writes.  Missing required fields, unknown fields, a wrong format
        version, or untranslatable values all raise
        :class:`~repro.errors.SamplingError` — never a bare ``KeyError`` —
        so a corrupted or hand-edited cache file fails loudly at the API
        boundary instead of deep inside a sampler.
        """
        if not isinstance(data, dict):
            raise SamplingError(
                f"prepared-formula artifact must be a dict, got "
                f"{type(data).__name__}"
            )
        missing = sorted(_REQUIRED_KEYS - data.keys())
        if missing:
            raise SamplingError(
                f"prepared-formula artifact is missing fields: {missing}"
            )
        unknown = sorted(data.keys() - _KNOWN_KEYS)
        if unknown:
            raise SamplingError(
                f"prepared-formula artifact has unknown fields: {unknown} "
                f"(format version {PREPARED_FORMAT_VERSION} defines "
                f"{sorted(_KNOWN_KEYS)})"
            )
        version = data["format_version"]
        if version != PREPARED_FORMAT_VERSION:
            raise SamplingError(
                f"unsupported prepared-formula format version {version!r} "
                f"(this library writes version {PREPARED_FORMAT_VERSION})"
            )
        easy = data.get("easy_witnesses")
        if easy is not None and (not isinstance(easy, list) or not easy):
            # A prepared formula is satisfiable by construction, so the
            # easy payload is either absent or a non-empty witness list.
            raise SamplingError(
                "easy_witnesses must be null or a non-empty list, got "
                f"{easy!r}"
            )
        if (easy is None) == (data.get("q") is None):
            # The class invariant: exactly one of the two payloads is set.
            raise SamplingError(
                "prepared-formula artifact must carry exactly one of "
                "'easy_witnesses' (the enumerated easy case) and 'q' (the "
                "hashed-case window), got "
                f"easy_witnesses={easy!r}, q={data.get('q')!r}"
            )
        count = data.get("approx_count")
        try:
            return cls(
                cnf=parse_dimacs(data["dimacs"], name=data.get("name", "")),
                epsilon=float(data["epsilon"]),
                sampling_set=[int(v) for v in data.get("sampling_set") or []],
                easy_witnesses=(
                    [lits_to_witness(lits) for lits in easy]
                    if easy is not None
                    else None
                ),
                q=None if data.get("q") is None else int(data["q"]),
                approx_count=CountResult.from_dict(count) if count else None,
                prepare_bsat_calls=int(data.get("prepare_bsat_calls") or 0),
                prepare_time_seconds=float(
                    data.get("prepare_time_seconds") or 0.0
                ),
            )
        except SamplingError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise SamplingError(
                f"malformed prepared-formula artifact: {exc!r}"
            ) from exc

    def save(self, path: str | Path) -> None:
        """Write the artifact as JSON (the ``repro prepare --out`` format)."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2), encoding="utf-8"
        )

    @classmethod
    def load(cls, path: str | Path) -> "PreparedFormula":
        """Read an artifact written by :meth:`save`."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise SamplingError(
                f"prepared-formula file {path} is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(data)

    def describe(self) -> str:
        """One human-readable line for CLI output."""
        if self.is_easy:
            return (
                f"easy case: {len(self.easy_witnesses)} witnesses enumerated "
                f"(epsilon={self.epsilon:g}, |S|={len(self.sampling_set)})"
            )
        return (
            f"hashed case: q={self.q}, approx count={self.approx_count_value} "
            f"(epsilon={self.epsilon:g}, |S|={len(self.sampling_set)}, "
            f"{self.prepare_bsat_calls} BSAT calls)"
        )


def prepare(cnf: CNF, config=None, *, rng=None) -> PreparedFormula:
    """Run lines 1–11 once and return the artifact (the new entry point).

    ``config`` is a :class:`~repro.api.config.SamplerConfig` (defaults
    apply when omitted); ``rng`` optionally overrides ``config.seed`` with
    an existing :class:`~repro.rng.RandomSource`.  The returned
    :class:`PreparedFormula` can drive any number of ``unigen``/``unigen2``
    samplers via :func:`~repro.api.registry.make_sampler`.
    """
    from ..core.unigen import UniGen
    from .config import SamplerConfig

    config = config or SamplerConfig()
    sampler = UniGen(
        cnf,
        epsilon=config.epsilon,
        sampling_set=config.sampling_set,
        rng=rng if rng is not None else config.make_rng(),
        bsat_budget=config.budget(),
        max_retries_per_cell=config.max_retries_per_cell,
        approxmc_iterations=config.approxmc_iterations,
        hash_density=config.hash_density,
    )
    return PreparedFormula.from_sampler(sampler)
