"""The run manifest: everything a resumed run must agree on, on disk.

A checkpointed run is only resumable because the witness stream is a pure
function of ``(formula, sampler, config, root seed, n, chunk size)`` —
the determinism guarantee PR 2/3 built the parallel and distributed paths
on.  The manifest pins exactly that tuple next to the ``--out`` file at
run start (``<out>.manifest.json``), so a later ``--resume`` can prove it
is completing *the same* deterministic stream and not splicing a second,
different run onto a half-written file.

Written atomically (temp file + fsync + rename) so a crash at any instant
leaves either the previous manifest or the new one, never a torn JSON
document; flipped to ``status="complete"`` the same way once the stream
finishes, which is how ``--resume`` distinguishes "nothing to do" from
"no evidence the run ever finished".
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..api.config import RETIRED_DEFAULTS
from ..errors import ManifestMismatch, ResumeError

#: Bump when the manifest layout changes incompatibly; loaders refuse
#: newer schemas instead of misreading them.
MANIFEST_SCHEMA_VERSION = 1

#: Config keys excluded from the resume comparison.  ``seed`` is the one
#: field the manifest resolves *better* than the config: a ``seed=None``
#: run drew a fresh root seed at plan time, and ``root_seed`` records the
#: actual value the stream was drawn under.  ``solver_reuse`` and
#: ``gf2_backend`` are retired knobs that never changed a stream, so older
#: manifests may record them at any value.
_CONFIG_SKIP = ("seed", "solver_reuse", "gf2_backend")


def manifest_path(out_path) -> Path:
    """Where a run's manifest lives: ``<out>.manifest.json``."""
    return Path(str(out_path) + ".manifest.json")


@dataclass
class RunManifest:
    """The identity of one checkpointed run, JSON round-trippable."""

    #: :meth:`repro.cnf.formula.CNF.canonical_hash` of the live formula.
    formula_hash: str
    #: Registry name of the sampler.
    sampler: str
    #: The full :meth:`repro.api.config.SamplerConfig.to_dict` dict.
    config: dict
    #: The resolved root seed every chunk seed derives from.
    root_seed: int
    #: Total witnesses the run delivers.
    n: int
    #: Witnesses per chunk (the last chunk may be short).
    chunk_size: int
    #: Total chunks of the full plan — ``ceil(n / chunk_size)``.
    n_chunks: int
    #: ``"jsonl"`` or ``"dimacs"`` (see :func:`repro.runs.out_format`).
    out_format: str
    #: ``"running"`` until the stream completes, then ``"complete"``.
    status: str = "running"
    schema_version: int = field(default=MANIFEST_SCHEMA_VERSION)

    def __post_init__(self):
        expected = max(0, math.ceil(self.n / self.chunk_size)) if self.chunk_size else 0
        if self.n_chunks != expected:
            raise ValueError(
                f"n_chunks={self.n_chunks} inconsistent with n={self.n}, "
                f"chunk_size={self.chunk_size} (expected {expected})"
            )

    # -- construction ---------------------------------------------------
    @classmethod
    def for_plan(cls, plan, *, formula_hash: str, out_format: str) -> "RunManifest":
        """The manifest of an :class:`~repro.execution.ExecutionPlan`.

        ``plan`` must be the *full* plan (every chunk), not a resumed
        subset — the manifest describes the whole deterministic stream.
        """
        return cls(
            formula_hash=formula_hash,
            sampler=plan.sampler,
            config=dict(plan.payload.get("config") or {}),
            root_seed=plan.root_seed,
            n=plan.n,
            chunk_size=plan.chunk_size,
            n_chunks=math.ceil(plan.n / plan.chunk_size) if plan.chunk_size else 0,
            out_format=out_format,
        )

    # -- (de)serialization ----------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        if not isinstance(data, dict):
            raise ResumeError("run manifest is not a JSON object")
        version = data.get("schema_version")
        if version != MANIFEST_SCHEMA_VERSION:
            raise ResumeError(
                f"run manifest schema_version={version!r} is not the "
                f"supported version {MANIFEST_SCHEMA_VERSION}"
            )
        try:
            return cls(
                formula_hash=str(data["formula_hash"]),
                sampler=str(data["sampler"]),
                config=dict(data["config"]),
                root_seed=int(data["root_seed"]),
                n=int(data["n"]),
                chunk_size=int(data["chunk_size"]),
                n_chunks=int(data["n_chunks"]),
                out_format=str(data["out_format"]),
                status=str(data.get("status", "running")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ResumeError(f"run manifest is malformed: {exc}") from exc

    # -- disk -----------------------------------------------------------
    def write(self, path) -> Path:
        """Atomically persist: temp file, fsync, rename over ``path``.

        The rename is the commit point — a reader (or a resume after a
        crash mid-write) sees either the old manifest or the new one in
        full, never a torn document.
        """
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        payload = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path) -> "RunManifest":
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise ResumeError(
                f"no run manifest at {path} — the run was not started "
                "with --out on this path, or the manifest was deleted"
            ) from None
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ResumeError(f"run manifest {path} is not JSON: {exc}") from exc
        return cls.from_dict(data)

    # -- validation -----------------------------------------------------
    def mismatches_against(
        self,
        *,
        formula_hash: str,
        sampler: str,
        config: dict,
        n: int | None = None,
        seed: int | None = None,
        chunk_size: int | None = None,
        out_format: str | None = None,
    ) -> list[str]:
        """Every way the live run disagrees with this manifest.

        ``n``/``seed``/``chunk_size`` are compared only when the caller
        spelled them explicitly (``None`` = adopt the manifest's value);
        the formula hash, sampler, and config are always compared.
        """
        found: list[str] = []

        def diff(name, recorded, live):
            found.append(f"{name}: manifest={recorded!r} live={live!r}")

        if formula_hash != self.formula_hash:
            diff("formula", self.formula_hash[:16] + "…", formula_hash[:16] + "…")
        if sampler != self.sampler:
            diff("sampler", self.sampler, sampler)
        if n is not None and n != self.n:
            diff("n", self.n, n)
        if seed is not None and seed != self.root_seed:
            diff("seed", self.root_seed, seed)
        if chunk_size is not None and chunk_size != self.chunk_size:
            diff("chunk_size", self.chunk_size, chunk_size)
        if out_format is not None and out_format != self.out_format:
            diff("out_format", self.out_format, out_format)
        keys = set(self.config) | set(config)
        for key in sorted(keys - set(_CONFIG_SKIP)):
            # A retired key missing on either side compares as the value
            # this version runs, so only a different recorded value (a
            # stream this version cannot draw) refuses the resume.
            default = RETIRED_DEFAULTS.get(key)
            recorded = self.config.get(key, default)
            live = config.get(key, default)
            if recorded != live:
                diff(f"config.{key}", recorded, live)
        return found

    def validate_against(self, **live) -> None:
        """Raise :class:`~repro.errors.ManifestMismatch` on any drift."""
        found = self.mismatches_against(**live)
        if found:
            raise ManifestMismatch(
                "resume refused — the manifest disagrees with the live "
                "run on: " + "; ".join(found),
                mismatches=found,
            )
