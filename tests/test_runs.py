"""The checkpoint/resume layer: manifests, scans, writers, CLI, chaos.

Four layers under test, bottom up:

* :mod:`repro.runs.scan` — recovering checkpoint state from a partial
  (possibly torn) witness file;
* :mod:`repro.runs.manifest` — the atomic run-identity document beside
  every ``--out`` file, and its resume-time validation;
* the writers' resume/overwrite/fsync guards
  (:mod:`repro.sinks.writers`);
* ``repro sample --resume`` end to end — including the headline
  property (any split point resumes to the byte-identical file) and the
  SIGKILL chaos legs per backend (serial / pool / broker).

Plus the :class:`~repro.stats.uniformity.AlphaSpendingSchedule` pins:
the halving spending sequence never exceeds its budget and the geometric
cadence doubles up to its cap.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import SampleResult
from repro.errors import (
    GateTripped,
    ManifestMismatch,
    OverwriteRefused,
    ResumeError,
)
from repro.experiments.cli import main
from repro.runs import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    manifest_path,
    out_format,
    scan_out_file,
)
from repro.sinks import DimacsWitnessWriter, JsonlWitnessWriter
from repro.sinks.gate import OnlineUniformityGate
from repro.stats.uniformity import AlphaSpendingSchedule

TINY_CNF = "p cnf 3 2\nc ind 1 2 3 0\n1 2 3 0\n-1 -2 0\n"
OTHER_CNF = "p cnf 3 2\nc ind 1 2 3 0\n1 2 0\n-2 -3 0\n"


@pytest.fixture
def cnf_path(tmp_path):
    path = tmp_path / "tiny.cnf"
    path.write_text(TINY_CNF)
    return path


def _witness(*lits) -> SampleResult:
    return SampleResult(witness={abs(l): l > 0 for l in lits})


def _sample_args(cnf, out, *extra):
    return ["sample", str(cnf), "--sampler", "unigen2", "--seed", "7",
            "--chunk-size", "3", "-n", "12", "--out", str(out), *extra]


def _mark_running(out) -> None:
    """Rewind a completed run's manifest to the mid-run state a crash
    leaves behind (the file itself is cut by the caller)."""
    path = manifest_path(out)
    data = json.loads(path.read_text())
    data["status"] = "running"
    path.write_text(json.dumps(data))


# ---------------------------------------------------------------------------
class TestOutFormat:
    def test_jsonl_by_extension(self):
        assert out_format("w.jsonl") == "jsonl"
        assert out_format(Path("deep/dir/w.jsonl")) == "jsonl"

    def test_everything_else_is_dimacs(self):
        assert out_format("w.txt") == "dimacs"
        assert out_format("witnesses") == "dimacs"


class TestScanJsonl:
    def _line(self, chunk: int) -> str:
        return json.dumps({"chunk": chunk, "witness": [1, -2, 3]}) + "\n"

    def test_missing_and_empty_files_scan_empty(self, tmp_path):
        missing = scan_out_file(tmp_path / "absent.jsonl")
        assert missing.is_empty and missing.resume_chunk == 0
        empty = tmp_path / "w.jsonl"
        empty.write_text("")
        assert scan_out_file(empty).is_empty

    def test_highest_chunk_is_dropped_lower_are_retained(self, tmp_path):
        path = tmp_path / "w.jsonl"
        text = (self._line(0) * 2) + self._line(1) + (self._line(2) * 2)
        path.write_text(text)
        scan = scan_out_file(path)
        assert scan.resume_chunk == 2
        assert scan.retained_draws == 3
        assert scan.chunk_counts == {0: 2, 1: 1}
        # The cut lands exactly where chunk 2's first record begins.
        assert scan.truncate_offset == len((self._line(0) * 2)
                                           + self._line(1))

    def test_torn_final_line_is_trimmed_silently(self, tmp_path):
        path = tmp_path / "w.jsonl"
        whole = self._line(0) + self._line(1)
        path.write_text(whole + '{"chunk":2,"wit')
        scan = scan_out_file(path)
        assert scan.resume_chunk == 1
        assert scan.truncate_offset == len(self._line(0))

    def test_zero_witness_chunks_count_as_complete(self, tmp_path):
        # Chunk 1 delivered nothing (all-BOT): its absence below the max
        # chunk is still proof of completion.
        path = tmp_path / "w.jsonl"
        path.write_text(self._line(0) + self._line(2))
        scan = scan_out_file(path)
        assert scan.resume_chunk == 2
        assert scan.chunk_counts == {0: 1}

    def test_malformed_mid_file_record_is_an_error(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text(self._line(0) + "not json\n" + self._line(1))
        with pytest.raises(ResumeError, match="malformed JSONL"):
            scan_out_file(path)

    def test_descending_chunks_are_an_error(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text(self._line(2) + self._line(1))
        with pytest.raises(ResumeError, match="ascending"):
            scan_out_file(path)

    def test_non_integer_chunk_is_an_error(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text('{"chunk": true, "witness": [1]}\n')
        with pytest.raises(ResumeError, match="malformed"):
            scan_out_file(path)

    def test_unknown_format_is_an_error(self, tmp_path):
        with pytest.raises(ResumeError, match="not resumable"):
            scan_out_file(tmp_path / "w.csv", "csv")


class TestScanDimacs:
    def test_markers_attribute_witnesses(self, tmp_path):
        path = tmp_path / "w.out"
        path.write_text(
            "c chunk 0\nv 1 -2 0\nv -1 2 0\nc chunk 2\nv 1 2 0\n"
        )
        scan = scan_out_file(path)
        assert scan.format == "dimacs"
        assert scan.resume_chunk == 2
        assert scan.retained_draws == 2
        assert scan.chunk_counts == {0: 2}
        assert scan.truncate_offset == len("c chunk 0\nv 1 -2 0\nv -1 2 0\n")

    def test_lone_marker_tail_is_dropped_too(self, tmp_path):
        # Killed right after the marker write, before any witness.
        path = tmp_path / "w.out"
        kept = "c chunk 0\nv 1 -2 0\n"
        path.write_text(kept + "c chunk 1\n")
        scan = scan_out_file(path)
        assert scan.resume_chunk == 1
        assert scan.truncate_offset == len(kept)

    def test_markerless_witness_file_cannot_resume(self, tmp_path):
        path = tmp_path / "w.out"
        path.write_text("v 1 -2 0\nv -1 2 0\n")
        with pytest.raises(ResumeError, match="no 'c chunk K' markers"):
            scan_out_file(path)

    def test_foreign_lines_are_an_error(self, tmp_path):
        path = tmp_path / "w.out"
        path.write_text("c chunk 0\nv 1 -2 0\ns SATISFIABLE\n")
        with pytest.raises(ResumeError, match="unrecognized line"):
            scan_out_file(path)


# ---------------------------------------------------------------------------
class TestRunManifest:
    def _manifest(self, **kw) -> RunManifest:
        base = dict(
            formula_hash="abc123", sampler="unigen2",
            config={"epsilon": 6.0, "seed": 7}, root_seed=7,
            n=12, chunk_size=3, n_chunks=4, out_format="jsonl",
        )
        base.update(kw)
        return RunManifest(**base)

    def test_roundtrips_through_dict(self):
        manifest = self._manifest()
        again = RunManifest.from_dict(manifest.to_dict())
        assert again == manifest

    def test_write_load_roundtrip_and_no_tmp_litter(self, tmp_path):
        manifest = self._manifest()
        path = manifest_path(tmp_path / "w.jsonl")
        manifest.write(path)
        assert RunManifest.load(path) == manifest
        assert list(tmp_path.glob("*.tmp")) == []

    def test_inconsistent_chunk_count_is_rejected(self):
        with pytest.raises(ValueError, match="n_chunks"):
            self._manifest(n_chunks=5)

    def test_load_missing_is_a_resume_error(self, tmp_path):
        with pytest.raises(ResumeError, match="no run manifest"):
            RunManifest.load(tmp_path / "absent.manifest.json")

    def test_load_garbage_is_a_resume_error(self, tmp_path):
        path = tmp_path / "bad.manifest.json"
        path.write_text("{not json")
        with pytest.raises(ResumeError, match="not JSON"):
            RunManifest.load(path)

    def test_newer_schema_is_refused_not_misread(self):
        data = self._manifest().to_dict()
        data["schema_version"] = MANIFEST_SCHEMA_VERSION + 1
        with pytest.raises(ResumeError, match="schema_version"):
            RunManifest.from_dict(data)

    def test_matching_run_has_no_mismatches(self):
        manifest = self._manifest()
        assert manifest.mismatches_against(
            formula_hash="abc123", sampler="unigen2",
            config={"epsilon": 6.0, "seed": 7},
        ) == []

    def test_none_means_adopt_not_compare(self):
        manifest = self._manifest()
        # n/seed/chunk_size/out_format omitted: adopted, never compared.
        assert manifest.mismatches_against(
            formula_hash="abc123", sampler="unigen2",
            config={"epsilon": 6.0},
        ) == []

    def test_config_seed_is_excluded_from_comparison(self):
        manifest = self._manifest()
        # A seed=None config (fresh-entropy run) must still match: the
        # manifest's root_seed carries the real value.
        assert manifest.mismatches_against(
            formula_hash="abc123", sampler="unigen2",
            config={"epsilon": 6.0, "seed": None},
        ) == []

    def test_every_drift_is_named(self):
        manifest = self._manifest()
        found = manifest.mismatches_against(
            formula_hash="zzz", sampler="uniwit",
            config={"epsilon": 2.0}, n=13, seed=8,
            chunk_size=4, out_format="dimacs",
        )
        named = {entry.split(":")[0] for entry in found}
        assert named == {"formula", "sampler", "n", "seed", "chunk_size",
                         "out_format", "config.epsilon"}

    def test_validate_against_raises_typed_mismatch(self):
        manifest = self._manifest()
        with pytest.raises(ManifestMismatch, match="sampler") as info:
            manifest.validate_against(
                formula_hash="abc123", sampler="uniwit",
                config={"epsilon": 6.0},
            )
        assert info.value.mismatches


# ---------------------------------------------------------------------------
class TestWriterGuards:
    def test_existing_nonempty_file_is_refused(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text('{"chunk":0,"witness":[1]}\n')
        with pytest.raises(OverwriteRefused, match="--overwrite"):
            JsonlWitnessWriter(path)

    def test_empty_existing_file_is_fine(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text("")
        writer = JsonlWitnessWriter(path)
        writer.close()

    def test_overwrite_clobbers(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text('{"chunk":0,"witness":[1]}\n')
        writer = JsonlWitnessWriter(path, overwrite=True)
        writer.accept(0, _witness(-1, 2))
        writer.close()
        assert path.read_text() == '{"chunk":0,"witness":[-1,2]}\n'

    def test_resume_and_overwrite_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="mutually exclusive"):
            JsonlWitnessWriter(tmp_path / "w.jsonl", resume=True,
                               overwrite=True)

    def test_fsync_cadence_and_close_sync(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "repro.sinks.writers.os.fsync", lambda fd: calls.append(fd)
        )
        writer = JsonlWitnessWriter(tmp_path / "w.jsonl", fsync_every=2)
        for _ in range(5):
            writer.accept(0, _witness(1))
        assert len(calls) == 2  # after lines 2 and 4
        writer.close()
        assert len(calls) == 3  # close always syncs when a cadence is set

    def test_no_fsync_by_default(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "repro.sinks.writers.os.fsync", lambda fd: calls.append(fd)
        )
        writer = JsonlWitnessWriter(tmp_path / "w.jsonl")
        writer.accept(0, _witness(1))
        writer.close()
        assert calls == []

    def test_resume_trims_and_appends(self, tmp_path):
        path = tmp_path / "w.jsonl"
        kept = ('{"chunk":0,"witness":[1,-2]}\n'
                '{"chunk":0,"witness":[-1,2]}\n')
        path.write_text(kept + '{"chunk":1,"witness":[1,2]}\n'
                        + '{"chunk":1,"wit')
        writer = JsonlWitnessWriter(path, resume=True)
        assert writer.resumed_draws == 2
        assert writer.resume_scan.resume_chunk == 1
        writer.accept(1, _witness(1, 2))
        assert writer.finalize() == {"path": str(path), "written": 3}
        assert path.read_text() == kept + '{"chunk":1,"witness":[1,2]}\n'

    def test_dimacs_resume_reemits_the_chunk_marker(self, tmp_path):
        path = tmp_path / "w.out"
        path.write_text("c chunk 0\nv 1 -2 0\nc chunk 1\nv -1 2 0\n")
        writer = DimacsWitnessWriter(path, resume=True)
        writer.accept(1, _witness(-1, 2))
        writer.close()
        # Chunk 1's marker was trimmed with its lines and comes back with
        # the re-run — the byte layout is exactly the uninterrupted one.
        assert path.read_text() == (
            "c chunk 0\nv 1 -2 0\nc chunk 1\nv -1 2 0\n"
        )

    def test_markerless_dimacs_refuses_resume(self, tmp_path):
        path = tmp_path / "w.out"
        path.write_text("v 1 -2 0\n")
        with pytest.raises(ResumeError, match="markers"):
            DimacsWitnessWriter(path, resume=True)


#: The config a default ``--sampler unigen2 --seed 7`` run recorded before
#: the ``solver_reuse``, ``matrix_reuse``, ``gf2_backend`` and
#: ``approxmc_search`` knobs were retired, with the linear ApproxMC core
#: this version runs.
PARENT_ERA_CONFIG = {
    "approxmc_iterations": 9, "approxmc_search": "linear",
    "bsat_timeout_s": 60.0, "bucket": 32, "enum_limit": 200000,
    "epsilon": 6.0, "gf2_backend": None, "hash_density": 0.5,
    "leapfrog": False, "matrix_reuse": False, "max_cell": 10000,
    "max_conflicts": None, "max_retries_per_cell": 20,
    "sampling_set": None, "seed": 7, "solver_reuse": False,
    "xor_count": None,
}


def _write_parent_era_manifest(out, **config) -> None:
    """Replace ``out``'s manifest with a hand-written parent-era one for
    the same formula, mid-run, its config overridden by ``config``."""
    path = manifest_path(out)
    formula_hash = json.loads(path.read_text())["formula_hash"]
    path.write_text(json.dumps({
        "chunk_size": 3, "config": {**PARENT_ERA_CONFIG, **config},
        "formula_hash": formula_hash, "n": 12, "n_chunks": 4,
        "out_format": "jsonl", "root_seed": 7, "sampler": "unigen2",
        "schema_version": 1, "status": "running",
    }))


class TestRetiredConfigKeys:
    """Manifests written before the retired knobs were deleted."""

    def _cut_run(self, cnf_path, tmp_path, **config):
        out = tmp_path / "w.jsonl"
        assert main(_sample_args(cnf_path, out)) == 0
        reference = out.read_bytes()
        out.write_bytes(reference[: reference.find(b'{"chunk":2') + 7])
        _write_parent_era_manifest(out, **config)
        return out, reference

    @pytest.mark.parametrize("config", [
        {},
        {"solver_reuse": True, "gf2_backend": "numpy"},
    ], ids=["defaults", "stream-neutral-knobs-set"])
    def test_stream_neutral_keys_resume(self, cnf_path, tmp_path, capsys,
                                        config):
        out, reference = self._cut_run(cnf_path, tmp_path, **config)
        assert main(["sample", str(cnf_path), "--sampler", "unigen2",
                     "--resume", str(out)]) == 0
        assert out.read_bytes() == reference
        assert RunManifest.load(manifest_path(out)).status == "complete"

    def test_matrix_reuse_stream_is_refused(self, cnf_path, tmp_path,
                                            capsys):
        out, _ = self._cut_run(cnf_path, tmp_path, matrix_reuse=True)
        capsys.readouterr()
        assert main(["sample", str(cnf_path), "--sampler", "unigen2",
                     "--resume", str(out)]) == 2
        assert "config.matrix_reuse" in capsys.readouterr().err
        manifest = RunManifest.load(manifest_path(out))
        live = {k: v for k, v in PARENT_ERA_CONFIG.items()
                if k not in ("solver_reuse", "matrix_reuse", "gf2_backend")}
        with pytest.raises(ManifestMismatch, match="matrix_reuse") as info:
            manifest.validate_against(
                formula_hash=manifest.formula_hash, sampler="unigen2",
                config=live,
            )
        assert info.value.mismatches == [
            "config.matrix_reuse: manifest=True live=False"
        ]

    def test_galloping_counter_is_refused(self, cnf_path, tmp_path, capsys):
        out, _ = self._cut_run(cnf_path, tmp_path,
                               approxmc_search="galloping")
        capsys.readouterr()
        assert main(["sample", str(cnf_path), "--sampler", "unigen2",
                     "--resume", str(out)]) == 2
        assert "config.approxmc_search" in capsys.readouterr().err
        manifest = RunManifest.load(manifest_path(out))
        live = {k: v for k, v in PARENT_ERA_CONFIG.items()
                if k not in ("solver_reuse", "matrix_reuse", "gf2_backend",
                             "approxmc_search")}
        assert manifest.mismatches_against(
            formula_hash=manifest.formula_hash, sampler="unigen2",
            config=live,
        ) == ["config.approxmc_search: manifest='galloping' live='linear'"]


# ---------------------------------------------------------------------------
class TestResumeCli:
    def test_fresh_out_run_writes_a_complete_manifest(self, cnf_path,
                                                      tmp_path, capsys):
        out = tmp_path / "w.jsonl"
        assert main(_sample_args(cnf_path, out)) == 0
        manifest = RunManifest.load(manifest_path(out))
        assert manifest.status == "complete"
        assert manifest.n == 12 and manifest.chunk_size == 3
        assert manifest.root_seed == 7
        assert manifest.sampler == "unigen2"

    def test_interrupted_run_resumes_byte_identically(self, cnf_path,
                                                      tmp_path, capsys):
        out = tmp_path / "w.jsonl"
        assert main(_sample_args(cnf_path, out)) == 0
        reference = out.read_bytes()
        # Crash simulation: cut mid-line inside chunk 2, rewind status.
        offset = reference.find(b'{"chunk":2')
        out.write_bytes(reference[: offset + 7])
        _mark_running(out)
        assert main(["sample", str(cnf_path), "--sampler", "unigen2",
                     "--resume", str(out)]) == 0
        assert out.read_bytes() == reference
        assert RunManifest.load(manifest_path(out)).status == "complete"
        err = capsys.readouterr().err
        assert "c resume:" in err
        assert "12/12 witnesses" in err

    def test_completed_run_resume_is_a_noop(self, cnf_path, tmp_path,
                                            capsys):
        out = tmp_path / "w.jsonl"
        assert main(_sample_args(cnf_path, out)) == 0
        reference = out.read_bytes()
        assert main(["sample", str(cnf_path), "--sampler", "unigen2",
                     "--resume", str(out)]) == 0
        assert out.read_bytes() == reference
        assert "nothing to do" in capsys.readouterr().err

    def test_second_run_refuses_to_clobber(self, cnf_path, tmp_path,
                                           capsys):
        out = tmp_path / "w.jsonl"
        assert main(_sample_args(cnf_path, out)) == 0
        reference = out.read_bytes()
        assert main(_sample_args(cnf_path, out)) == 2
        assert "refusing to overwrite" in capsys.readouterr().err
        assert out.read_bytes() == reference
        assert main(_sample_args(cnf_path, out, "--overwrite")) == 0

    def test_resume_without_manifest_exits_2(self, cnf_path, tmp_path,
                                             capsys):
        out = tmp_path / "w.jsonl"
        out.write_text('{"chunk":0,"witness":[1,-2,3]}\n')
        assert main(["sample", str(cnf_path), "--sampler", "unigen2",
                     "--resume", str(out)]) == 2
        assert "no run manifest" in capsys.readouterr().err

    def test_resume_mismatch_exits_2(self, cnf_path, tmp_path, capsys):
        out = tmp_path / "w.jsonl"
        assert main(_sample_args(cnf_path, out)) == 0
        _mark_running(out)
        other = tmp_path / "other.cnf"
        other.write_text(OTHER_CNF)
        # Wrong formula.
        assert main(["sample", str(other), "--sampler", "unigen2",
                     "--resume", str(out)]) == 2
        assert "formula" in capsys.readouterr().err
        # Wrong explicit seed.
        assert main(["sample", str(cnf_path), "--sampler", "unigen2",
                     "--seed", "8", "--resume", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        # Wrong sampler.
        assert main(["sample", str(cnf_path), "--sampler", "uniwit",
                     "--resume", str(out)]) == 2
        assert "sampler" in capsys.readouterr().err
        # Wrong epsilon (a config-dict field).
        assert main(["sample", str(cnf_path), "--sampler", "unigen2",
                     "--epsilon", "2.5", "--resume", str(out)]) == 2
        assert "config.epsilon" in capsys.readouterr().err

    def test_resume_conflicts_exit_2(self, cnf_path, tmp_path, capsys):
        out = tmp_path / "w.jsonl"
        assert main(["sample", str(cnf_path), "--resume", str(out),
                     "--overwrite"]) == 2
        assert "pick one" in capsys.readouterr().err
        assert main(["sample", str(cnf_path), "--resume", str(out),
                     "--out", str(tmp_path / "other.jsonl")]) == 2
        assert "drop --out" in capsys.readouterr().err
        assert main(["sample", str(cnf_path), "--resume", str(out),
                     "--gate-online", "--gate-universe", "5"]) == 2
        assert "gate-online" in capsys.readouterr().err

    def test_markerless_dimacs_resume_exits_2(self, cnf_path, tmp_path,
                                              capsys):
        out = tmp_path / "w.out"
        assert main(_sample_args(cnf_path, out)) == 0
        _mark_running(out)
        # Strip the markers: the file is witness-valid but unresumable.
        lines = [l for l in out.read_text().splitlines()
                 if not l.startswith("c ")]
        out.write_text("".join(line + "\n" for line in lines))
        assert main(["sample", str(cnf_path), "--sampler", "unigen2",
                     "--resume", str(out)]) == 2
        assert "markers" in capsys.readouterr().err


@pytest.fixture(scope="session")
def reference_run(tmp_path_factory):
    """One completed jsonl run: (cnf path, out bytes, manifest dict)."""
    root = tmp_path_factory.mktemp("resume-ref")
    cnf = root / "tiny.cnf"
    cnf.write_text(TINY_CNF)
    out = root / "ref.jsonl"
    assert main(_sample_args(cnf, out)) == 0
    manifest = json.loads(manifest_path(out).read_text())
    return cnf, out.read_bytes(), manifest


class TestResumeAnySplitPoint:
    @settings(max_examples=15, deadline=None)
    @given(offset=st.integers(min_value=0, max_value=400))
    def test_any_prefix_resumes_to_the_identical_bytes(self, reference_run,
                                                       offset):
        """The headline property: kill the run after ANY byte prefix and
        ``--resume`` completes the file byte-identically."""
        cnf, reference, manifest = reference_run
        offset = min(offset, len(reference))
        with tempfile.TemporaryDirectory() as scratch:
            out = Path(scratch) / "w.jsonl"
            out.write_bytes(reference[:offset])
            running = dict(manifest, status="running")
            manifest_path(out).write_text(json.dumps(running))
            assert main(["sample", str(cnf), "--sampler", "unigen2",
                         "--resume", str(out)]) == 0
            assert out.read_bytes() == reference


# ---------------------------------------------------------------------------
def _spawn_sample(cnf, out, *extra):
    """A real ``repro sample --out`` coordinator subprocess."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    argv = [sys.executable, "-m", "repro", "sample", str(cnf),
            "--sampler", "unigen2", "--seed", "11", "--chunk-size", "16",
            "-n", "3000", "--out", str(out), "--fsync-every", "1", *extra]
    return subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


def _kill_once_writing(proc, out, timeout_s: float = 60.0):
    """SIGKILL the coordinator once the out file demonstrably has lines."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            return  # finished before we could murder it (still a test)
        try:
            if out.stat().st_size > 200:
                break
        except FileNotFoundError:
            pass
        time.sleep(0.002)
    proc.kill()
    proc.wait(timeout=30)


class TestSigkillChaos:
    """Kill -9 a live ``--out`` run mid-stream; ``--resume`` must complete
    the file to the byte-identical uninterrupted stream — per backend."""

    N, CHUNK, SEED = 3000, 16, 11

    @pytest.fixture
    def reference(self, cnf_path, tmp_path):
        out = tmp_path / "ref.jsonl"
        assert main(["sample", str(cnf_path), "--sampler", "unigen2",
                     "--seed", str(self.SEED), "--chunk-size",
                     str(self.CHUNK), "-n", str(self.N),
                     "--out", str(out)]) == 0
        return out.read_bytes()

    def _chaos_roundtrip(self, cnf_path, tmp_path, reference, spawn_extra,
                         resume_extra):
        out = tmp_path / "w.jsonl"
        proc = _spawn_sample(cnf_path, out, *spawn_extra)
        _kill_once_writing(proc, out)
        assert main(["sample", str(cnf_path), "--sampler", "unigen2",
                     "--resume", str(out), *resume_extra]) == 0
        assert out.read_bytes() == reference
        assert RunManifest.load(manifest_path(out)).status == "complete"

    def test_serial_backend(self, cnf_path, tmp_path, reference):
        self._chaos_roundtrip(cnf_path, tmp_path, reference, [], [])

    def test_pool_backend(self, cnf_path, tmp_path, reference):
        self._chaos_roundtrip(
            cnf_path, tmp_path, reference,
            ["--backend", "pool", "--jobs", "2"],
            ["--backend", "pool", "--jobs", "2"],
        )

    def test_broker_backend(self, cnf_path, tmp_path, reference):
        # The killed coordinator leaves a dirty spool behind; the resumed
        # run gets a fresh one — only the out file carries state forward.
        self._chaos_roundtrip(
            cnf_path, tmp_path, reference,
            ["--broker", str(tmp_path / "spool1"), "--jobs", "1"],
            ["--broker", str(tmp_path / "spool2"), "--jobs", "1"],
        )


# ---------------------------------------------------------------------------
class TestAlphaSpendingSchedule:
    def test_look_alphas_halve(self):
        schedule = AlphaSpendingSchedule(alpha=0.04)
        assert schedule.look_alpha(1) == pytest.approx(0.02)
        assert schedule.look_alpha(2) == pytest.approx(0.01)
        assert schedule.look_alpha(3) == pytest.approx(0.005)

    @given(k=st.integers(min_value=0, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_total_spend_never_exceeds_the_budget(self, k):
        schedule = AlphaSpendingSchedule(alpha=0.01)
        total = sum(schedule.look_alpha(i) for i in range(1, k + 1))
        assert total == pytest.approx(schedule.spent_through(k))
        # Mathematically alpha·(1 − 2^(−k)) < alpha for every k; in
        # floats the partial sum saturates AT alpha once 2^(−k) drops
        # below machine epsilon — never above it.
        assert schedule.spent_through(k) <= schedule.alpha

    def test_cadence_doubles_up_to_the_cap(self):
        schedule = AlphaSpendingSchedule(
            alpha=0.01, first_interval=2, growth=2.0, max_interval=8
        )
        assert [schedule.interval_before(k) for k in range(1, 7)] == \
            [2, 4, 8, 8, 8, 8]

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            AlphaSpendingSchedule(alpha=0.0)
        with pytest.raises(ValueError, match="first_interval"):
            AlphaSpendingSchedule(alpha=0.01, first_interval=0)
        with pytest.raises(ValueError, match="growth"):
            AlphaSpendingSchedule(alpha=0.01, growth=0.5)
        with pytest.raises(ValueError, match="max_interval"):
            AlphaSpendingSchedule(alpha=0.01, first_interval=64,
                                  max_interval=32)
        with pytest.raises(ValueError, match="1-based"):
            AlphaSpendingSchedule(alpha=0.01).look_alpha(0)
        with pytest.raises(ValueError, match="1-based"):
            AlphaSpendingSchedule(alpha=0.01).interval_before(0)


class TestGateUnderSpending:
    def _uniform_stream(self, gate, draws: int):
        # Cycle the 4 assignments of vars {1, 2}: perfectly flat counts.
        for i in range(draws):
            gate.accept(0, _witness(
                1 if i % 4 in (0, 1) else -1,
                2 if i % 4 in (0, 2) else -2,
            ))

    def test_looks_follow_the_geometric_cadence(self):
        # first_interval 4 keeps every look on a multiple of the 4-cycle,
        # so counts are exactly flat at each look and no verdict trips.
        schedule = AlphaSpendingSchedule(
            alpha=0.05, first_interval=4, growth=2.0, max_interval=16
        )
        gate = OnlineUniformityGate(
            4, schedule=schedule, min_expected=0.0, alpha=0.05
        )
        looks_at = []
        for i in range(44):
            before = gate.checks_run
            gate.accept(0, _witness(
                1 if i % 4 in (0, 1) else -1,
                2 if i % 4 in (0, 2) else -2,
            ))
            if gate.checks_run != before:
                looks_at.append(gate.n_draws)
        # Intervals 4, 8, 16, 16 → looks after draws 4, 12, 28, 44.
        assert looks_at == [4, 12, 28, 44]
        assert gate.alpha_spent == pytest.approx(
            schedule.spent_through(4)
        )
        assert gate.alpha_spent < schedule.alpha

    def test_warmup_spends_nothing(self):
        schedule = AlphaSpendingSchedule(alpha=0.05, first_interval=2)
        gate = OnlineUniformityGate(
            4, schedule=schedule, min_expected=1000.0
        )
        self._uniform_stream(gate, 64)
        assert gate.checks_run == 0
        assert gate.alpha_spent == 0.0

    def test_skewed_stream_still_trips_under_spending(self):
        schedule = AlphaSpendingSchedule(alpha=0.01, first_interval=16)
        gate = OnlineUniformityGate(
            4, schedule=schedule, min_expected=1.0
        )
        with pytest.raises(GateTripped, match="at look"):
            for _ in range(4 * 64):
                gate.accept(0, _witness(1, 2))  # one witness, always

    def test_fixed_cadence_spend_is_the_union_bound(self):
        gate = OnlineUniformityGate(4, check_every=4, min_expected=0.0,
                                    alpha=0.01)
        self._uniform_stream(gate, 12)
        assert gate.checks_run == 3
        assert gate.alpha_spent == pytest.approx(3 * 0.01)
