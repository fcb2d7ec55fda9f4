"""Command-line interface: ``python -m repro`` / the ``repro`` script.

Subcommands regenerate every artifact of the paper's evaluation and expose
the sampling lifecycle as a tool:

* ``repro table1`` / ``repro table2`` — the runtime/uniformity comparison
  tables (UniGen vs UniWit) with paper-vs-measured summary;
* ``repro figure1`` — the uniformity histogram comparison (UniGen vs US);
* ``repro ablations`` — the A1–A5 design-choice studies;
* ``repro prepare FILE.cnf --out state.json`` — run Algorithm 1's lines
  1–11 once and cache the artifact;
* ``repro sample FILE.cnf`` — witnesses of a DIMACS file (``c ind`` lines
  supply the sampling set); ``--sampler`` picks any registered algorithm,
  ``--prepared state.json`` reuses a cached artifact, ``--jobs N`` runs
  the chunk plan on the pool backend instead of the serial one (the
  stream is the same), ``--smoke`` runs the
  built-in self-check CI exercises (``--smoke --jobs 2`` adds the pool
  leg);
* ``repro bench --config sweep.json`` — the config-driven benchmark
  runner: registered end-to-end benchmarks swept over parameter
  grids (``unigen-sweep`` measures throughput across sampler × jobs ×
  window), CSVs with skip-existing, ``--emit BENCH_innerloop.json`` folds
  the measured points into a trajectory artifact;
* ``repro broker SPOOL FILE.cnf`` — submit a sampling job to a spool-
  directory chunk queue and wait for ``repro worker`` processes to drain
  it (``--workers N`` also spawns local ones); expired leases are retried
  with their original derived seeds, so the merged stream is identical to
  a single-process run;
* ``repro worker TARGET`` — pull and run chunks from a queue; ``TARGET``
  is a spool directory or a ``tcp://host:port`` brokerd (heartbeats its
  leases; ``--drain`` exits once the job completes);
* ``repro brokerd`` — the long-lived TCP broker daemon: serves many jobs
  concurrently over the newline-JSON line protocol, so workers on other
  hosts join without a shared filesystem;
* ``repro sample --broker TARGET`` — the one-command distributed path:
  submit, spawn ``--jobs`` local workers, collect, purge the spent queue;
* ``repro sample --backend {serial,pool,broker}`` — the streaming
  execution layer: ``--stream`` emits each witness the moment its chunk
  arrives (the coordinator holds O(``--window``) chunks instead of every
  witness), ``--progress N`` logs witnesses/sec and chunks in flight to
  stderr every N seconds;
* ``repro sample --gate-online`` — check uniformity *while* streaming
  (incremental counts, a sequential χ²/ratio check every ``--gate-every``
  draws); a drifting run aborts early with exit code 3, cancelling
  in-flight chunks on every backend.  ``--out witnesses.jsonl`` streams
  witnesses to disk without ever holding the full list;
* ``repro serve`` — the sampling-as-a-service HTTP gateway: prepared-
  formula cache (single-flight, canonical-hash keyed), request
  coalescing onto shared chunk plans, per-tenant token-bucket quotas
  with weighted round-robin dispatch, witnesses streamed back as JSONL;
* ``repro submit FILE.cnf`` / ``repro status [JOB]`` — the gateway
  client verbs (submit-and-stream, job/gateway introspection);
* ``repro count FILE.cnf`` — ApproxMC as a tool;
* ``repro samplers`` — list the sampler registry;
* ``repro benchmarks`` — list the benchmark registry.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from ..api import (
    PreparedFormula,
    SamplerConfig,
    available_samplers,
    get_entry,
    make_sampler,
    prepare,
)
from ..cnf.dimacs import read_dimacs
from ..counting.approxmc import ApproxMC
from ..sat.types import Budget
from ..sinks.base import StreamSink
from ..suite.registry import entries
from .ablations import run_all_ablations
from .figure1 import run_figure1
from .tables import TableConfig, render_paper_comparison, render_rows, run_table


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", choices=("quick", "full"), default="quick")
    parser.add_argument("--seed", type=int, default=2014)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="UniGen (DAC 2014) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for which in ("table1", "table2"):
        p = sub.add_parser(which, help=f"regenerate the paper's {which}")
        _add_common(p)
        p.add_argument("--samples", type=int, default=20,
                       help="UniGen samples per benchmark")
        p.add_argument("--uniwit-samples", type=int, default=5)
        p.add_argument("--bsat-timeout", type=float, default=10.0,
                       help="per-BSAT-call timeout in seconds (paper: 2500)")
        p.add_argument("--instance-timeout", type=float, default=120.0,
                       help="per-benchmark timeout in seconds (paper: 20h)")
        p.add_argument("--names", nargs="*", default=None,
                       help="restrict to specific benchmark names")
        p.add_argument("--no-uniwit", action="store_true")

    p = sub.add_parser("figure1", help="regenerate Figure 1 (uniformity)")
    _add_common(p)
    p.add_argument("--mean-count", type=float, default=25.0,
                   help="N = mean_count * |R_F| (paper: ~244)")
    p.add_argument("--epsilon", type=float, default=6.0)

    p = sub.add_parser("ablations", help="run the A1-A5 ablation studies")
    _add_common(p)

    p = sub.add_parser("benchmarks", help="list the benchmark registry")
    _add_common(p)
    p.add_argument("--names-only", action="store_true",
                   help="print bare benchmark names (feed to --names)")

    p = sub.add_parser("sample", help="sample witnesses of a DIMACS file")
    p.add_argument("cnf_file", nargs="?", default=None)
    p.add_argument("-n", "--num", type=int, default=None,
                   help="witnesses to deliver (failed draws are retried, up"
                        " to 10x n attempts; undelivered ones print BOT);"
                        " default 1, or the manifest's n under --resume")
    p.add_argument("--sampler", default="unigen",
                   help=f"algorithm name, one of {available_samplers()}")
    p.add_argument("--prepared", metavar="STATE_JSON", default=None,
                   help="reuse a cached artifact from `repro prepare --out`"
                        " (skips the easy-case check and ApproxMC)")
    p.add_argument("--epsilon", type=float, default=None,
                   help="uniformity tolerance (default: 6.0, or the value"
                        " recorded in --prepared)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--bsat-timeout", type=float, default=60.0)
    p.add_argument("--xor-count", type=int, default=None,
                   help="XOR count s (required by --sampler xorsample)")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="run the chunk plan with N worker processes on the"
                        " pool backend (default 1: in this process on the"
                        " serial backend); every N draws the same stream")
    p.add_argument("--chunk-size", type=int, default=None,
                   help="witnesses per chunk, each drawn by a fresh sampler"
                        " (default: derived from -n and rounded up to what"
                        " one sampler serves without waste: a whole cell"
                        " for hashed unigen2, the whole run for paws and"
                        " us; never from --jobs or --backend)")
    p.add_argument("--smoke", action="store_true",
                   help="fast self-check of the whole lifecycle on a tiny"
                        " built-in formula (used by CI); with --jobs N also"
                        " exercises the pool backend")
    p.add_argument("--backend", choices=("serial", "pool", "broker"),
                   default=None,
                   help="backend that executes the chunk plan (default:"
                        " broker with --broker, pool with --jobs N > 1,"
                        " else serial); all backends draw the"
                        " byte-identical witness stream for one seed")
    p.add_argument("--stream", action="store_true",
                   help="emit each witness as soon as its chunk arrives"
                        " instead of buffering the full run (the"
                        " coordinator then holds at most --window chunks)")
    p.add_argument("--window", type=int, default=None, metavar="N",
                   help="in-flight chunk bound of the streaming layer"
                        " (default: backend-chosen, 2x jobs on the pool)")
    p.add_argument("--progress", type=float, nargs="?", const=5.0,
                   default=None, metavar="SECS",
                   help="log witnesses/sec and chunks in flight to stderr"
                        " every SECS seconds (default 5)")
    p.add_argument("--gate-online", action="store_true",
                   help="run the uniformity gate online over the stream:"
                        " incremental per-witness counts, a sequential"
                        " chi^2 + min/max-ratio check every --gate-every"
                        " draws; a failing run aborts early (exit code 3)"
                        " and cancels in-flight chunks on every backend")
    p.add_argument("--gate-every", type=int, default=64, metavar="N",
                   help="successful draws between online gate checks"
                        " (default 64; larger = fewer sequential looks)")
    p.add_argument("--gate-universe", type=int, default=None, metavar="M",
                   help="exact |R_F| projected onto the sampling set, the"
                        " gate's cell count (default: taken from an"
                        " easy-case --prepared artifact's witness list;"
                        " hashed artifacts need it spelled out)")
    p.add_argument("--gate-alpha", type=float, default=0.01,
                   help="chi^2 significance of the gate (default 0.01)")
    p.add_argument("--gate-bound", type=float, default=2.0,
                   help="allowed multiplicative deviation of per-witness"
                        " counts from uniform (default 2.0)")
    p.add_argument("--gate-spending", action="store_true",
                   help="alpha-spending mode of the online gate: geometric"
                        " look cadence (--gate-every doubling up to"
                        " --gate-cap) with per-look significance halving,"
                        " so the total false-alarm mass over any run"
                        " length stays below --gate-alpha")
    p.add_argument("--gate-cap", type=int, default=65536, metavar="N",
                   help="largest draws-between-looks interval the"
                        " --gate-spending cadence grows to (default 65536)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="stream witnesses to PATH instead of stdout, one"
                        " per line as it arrives (.jsonl -> JSON records,"
                        " anything else -> DIMACS v lines, with 'c chunk"
                        " K' markers); the file never holds more than the"
                        " draws completed so far, and a run manifest"
                        " (PATH.manifest.json) pins the run identity for"
                        " --resume.  An existing non-empty PATH is refused"
                        " (exit 2) unless --overwrite or --resume says"
                        " what to do with it")
    p.add_argument("--overwrite", action="store_true",
                   help="discard an existing non-empty --out file instead"
                        " of refusing (exit 2) to clobber it")
    p.add_argument("--resume", metavar="PATH", default=None,
                   help="complete an interrupted --out run: validate"
                        " PATH.manifest.json against the live formula and"
                        " flags (any disagreement exits 2), trim the torn"
                        " tail, re-run only the missing chunks under their"
                        " original derived seeds, and append — the"
                        " finished file is byte-identical to an"
                        " uninterrupted run")
    p.add_argument("--fsync-every", type=int, default=None, metavar="N",
                   help="fsync the --out file every N witness lines so a"
                        " checkpoint survives power loss, not just a"
                        " process kill (default: 64 whenever --out writes"
                        " a run manifest; 0 disables)")
    p.add_argument("--broker", metavar="TARGET", default=None,
                   help="sample through a chunk queue: a spool directory"
                        " or tcp://host:port of a `repro brokerd`."
                        " Submits the job, spawns --jobs local `repro"
                        " worker` processes (default 2; 0 = rely on"
                        " externally started workers), merges their"
                        " chunks, and purges the spent queue on clean"
                        " completion")
    p.add_argument("--lease-timeout", type=float, default=30.0,
                   help="seconds a broker chunk lease lives without a"
                        " heartbeat before it is retried (--broker only)")
    p.add_argument("--auth-token", default=None, metavar="SECRET",
                   help="shared secret of an authenticated tcp:// brokerd"
                        " (--broker only; forwarded to spawned workers)")
    p.add_argument("--broker-retry", type=float, default=0.0,
                   metavar="SECS",
                   help="seconds idempotent broker calls ride out an"
                        " unreachable tcp:// brokerd before failing"
                        " (default 0: one immediate retry); forwarded to"
                        " spawned workers — set it when the daemon may be"
                        " restarted on a --spool journal mid-run")
    p.add_argument("--report-json", metavar="PATH", default=None,
                   help="also write the full sampling report (witnesses,"
                        " per-draw results, merged stats) as JSON")

    p = sub.add_parser(
        "bench",
        help="run a config-driven benchmark sweep (CSV + BENCH_*.json)",
    )
    p.add_argument("--config", metavar="CONFIG_JSON",
                   default="benchmarks/configs/innerloop.json",
                   help="JSON sweep config: which registered benchmarks to"
                        " run and which parameter lists to sweep"
                        " (cartesian product)")
    p.add_argument("--out-dir", metavar="DIR", default=None,
                   help="CSV output directory (default: the config's"
                        " out_dir, else benchmarks/out)")
    p.add_argument("--emit", metavar="BENCH_JSON", default=None,
                   help="also fold this run's measured points into one"
                        " trajectory artifact")
    p.add_argument("--no-skip-existing", action="store_true",
                   help="re-measure combinations already present in the"
                        " CSVs instead of skipping them")
    p.add_argument("--list", action="store_true", dest="list_benchmarks",
                   help="list the registered benchmarks and their"
                        " parameters, then exit")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="log each combination as it completes")

    p = sub.add_parser(
        "broker",
        help="submit a sampling job to a chunk queue (spool directory or "
             "tcp:// brokerd) and wait for workers to drain it",
    )
    p.add_argument("spool", help="queue target: a spool directory (created "
                                 "if missing) or tcp://host:port of a "
                                 "`repro brokerd`; `repro worker` "
                                 "processes watch the same target")
    p.add_argument("cnf_file", nargs="?", default=None)
    p.add_argument("-n", "--num", type=int, default=1)
    p.add_argument("--sampler", default="unigen",
                   help=f"algorithm name, one of {available_samplers()}")
    p.add_argument("--prepared", metavar="STATE_JSON", default=None,
                   help="reuse a cached artifact from `repro prepare --out`")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--bsat-timeout", type=float, default=60.0)
    p.add_argument("--xor-count", type=int, default=None)
    p.add_argument("--chunk-size", type=int, default=None)
    p.add_argument("--lease-timeout", type=float, default=30.0,
                   help="seconds a chunk lease lives without a heartbeat "
                        "before the chunk is retried (original seed kept)")
    p.add_argument("--max-deliveries", type=int, default=5,
                   help="total issues of one chunk before the job fails")
    p.add_argument("--poll", type=float, default=0.2,
                   help="seconds between queue polls / expiry scans")
    p.add_argument("--timeout", type=float, default=None,
                   help="overall seconds to wait for the job (default: "
                        "forever)")
    p.add_argument("--workers", type=int, default=0, metavar="N",
                   help="also spawn N local `repro worker` processes "
                        "(default 0: external workers drain the queue)")
    p.add_argument("--auth-token", default=None, metavar="SECRET",
                   help="shared secret of an authenticated tcp:// brokerd "
                        "(forwarded to spawned local workers)")
    p.add_argument("--broker-retry", type=float, default=0.0,
                   metavar="SECS",
                   help="seconds idempotent broker calls ride out an "
                        "unreachable tcp:// brokerd before failing "
                        "(default 0: one immediate retry); forwarded to "
                        "spawned local workers")
    p.add_argument("--purge", action="store_true",
                   help="purge the queue's spent job state after clean "
                        "completion (spool files / brokerd job entry)")
    p.add_argument("--report-json", metavar="PATH", default=None)

    p = sub.add_parser(
        "worker",
        help="pull and run sampling chunks from a queue (spool directory "
             "or tcp:// brokerd)",
    )
    p.add_argument("spool", help="spool directory or tcp://host:port")
    p.add_argument("--worker-id", default=None,
                   help="identity recorded in leases (default: host:pid)")
    p.add_argument("--poll", type=float, default=0.2,
                   help="seconds between polls when the queue is empty")
    p.add_argument("--idle-timeout", type=float, default=None,
                   help="exit after this long without work (default: "
                        "poll forever)")
    p.add_argument("--max-chunks", type=int, default=None,
                   help="exit after completing this many chunks")
    p.add_argument("--drain", action="store_true",
                   help="exit once the current job is complete")
    p.add_argument("--auth-token", default=None, metavar="SECRET",
                   help="shared secret of an authenticated tcp:// brokerd")
    p.add_argument("--broker-retry", type=float, default=0.0,
                   metavar="SECS",
                   help="seconds idempotent broker calls ride out an "
                        "unreachable tcp:// brokerd before failing "
                        "(default 0: one immediate retry) — lets the "
                        "worker survive a brokerd restart on a --spool "
                        "journal")
    # Fault-injection hook for the chaos tests: SIGKILL our own process
    # right after leasing the Nth chunk (mid-chunk, nothing acked).
    p.add_argument("--chaos-kill-after", type=int, default=None,
                   help=argparse.SUPPRESS)

    p = sub.add_parser(
        "brokerd",
        help="run the long-lived TCP broker daemon (newline-JSON line "
             "protocol; serves many jobs concurrently, keyed by job id)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (0.0.0.0 to accept other hosts)")
    p.add_argument("--port", type=int, default=None,
                   help="TCP port (default 7765; 0 picks an ephemeral "
                        "port, printed on startup)")
    p.add_argument("--auth-token", default=None, metavar="SECRET",
                   help="require this shared secret from every connection "
                        "(clients open with a hello op; wrong or missing "
                        "token disconnects)")
    p.add_argument("--spool", metavar="DIR", default=None,
                   help="journal every job to per-job spool directories "
                        "under DIR (created if missing): payloads, leases, "
                        "acks, and results survive a crash, and a restart "
                        "on the same DIR replays them — unacked chunks are "
                        "re-issued with their original derived seeds, so "
                        "the merged stream stays byte-identical")

    p = sub.add_parser(
        "serve",
        help="run the sampling-as-a-service HTTP gateway (prepared-"
             "formula cache, request coalescing, tenant quotas)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (0.0.0.0 to accept other hosts)")
    p.add_argument("--port", type=int, default=8765,
                   help="HTTP port (0 picks an ephemeral port, printed "
                        "on startup)")
    p.add_argument("--backend", choices=("serial", "pool", "broker"),
                   default="serial",
                   help="how coalesced groups execute (default: serial)")
    p.add_argument("--jobs", type=int, default=2,
                   help="pool worker processes (--backend pool)")
    p.add_argument("--broker", metavar="TARGET", default=None,
                   help="tcp://host:port brokerd (--backend broker)")
    p.add_argument("--auth-token", default=None, metavar="SECRET",
                   help="shared secret of the brokerd fleet")
    p.add_argument("--sampler", default="unigen2",
                   help="default sampler for requests that name none")
    p.add_argument("--epsilon", type=float, default=6.0,
                   help="default ε for requests that name none")
    p.add_argument("--chunk-size", type=int, default=8,
                   help="the one chunk grid every request shares (fixed "
                        "so coalesced slices stay byte-deterministic)")
    p.add_argument("--coalesce-window", type=float, default=0.05,
                   metavar="S", help="seconds a fresh group stays open "
                                     "to joining requests")
    p.add_argument("--max-group", type=int, default=32,
                   help="requests per coalesce group before it seals")
    p.add_argument("--max-concurrent-groups", type=int, default=2,
                   help="group runs in flight at once")
    p.add_argument("--cache-size", type=int, default=64,
                   help="prepared-formula cache entries (LRU beyond)")
    p.add_argument("--cache-ttl", type=float, default=None, metavar="S",
                   help="prepared-formula expiry (default: never)")
    p.add_argument("--prepare-seed", type=int, default=0,
                   help="seed for the prepare phase, so cached artifacts "
                        "are reproducible (matches `repro prepare "
                        "--seed`)")
    p.add_argument("--max-n", type=int, default=100_000,
                   help="largest single sample request")
    p.add_argument("--job-ttl", type=float, default=3600.0, metavar="S",
                   help="seconds a finished job's status and witnesses "
                        "stay queryable before the gateway ages it out "
                        "(aged-out ids answer 410; default 3600)")
    p.add_argument("--max-jobs", type=int, default=4096,
                   help="retained job cap: beyond it the oldest finished "
                        "jobs are evicted early (running jobs are never "
                        "evicted; default 4096)")
    p.add_argument("--tenant", action="append", default=[],
                   metavar="NAME:KEY[:burst[:rate[:weight]]]",
                   help="register a tenant: API key KEY admits NAME at "
                        "`rate` req/s (burst `burst`) with dispatch "
                        "weight `weight`; repeatable")
    p.add_argument("--require-key", action="store_true",
                   help="reject requests without a registered API key "
                        "(default: unknown keys share the anonymous "
                        "tenant)")

    p = sub.add_parser(
        "submit",
        help="submit a DIMACS file to a gateway and stream the witnesses",
    )
    p.add_argument("cnf_file")
    p.add_argument("-n", "--num", type=int, default=1,
                   help="number of witnesses to request")
    p.add_argument("--url", default="http://127.0.0.1:8765",
                   help="gateway base URL")
    p.add_argument("--api-key", default=None,
                   help="tenant API key (X-Api-Key header)")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="pin the root seed (only coalesces with requests "
                        "pinning the same seed)")
    p.add_argument("--sampler", default=None,
                   help="sampler name (default: the gateway's)")
    p.add_argument("--no-wait", action="store_true",
                   help="print the job ticket and exit without streaming")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the witness JSONL here instead of stdout")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="seconds to wait for the job to finish")

    p = sub.add_parser(
        "status",
        help="query a gateway job (or, with no job id, the gateway "
             "itself)",
    )
    p.add_argument("job_id", nargs="?", default=None)
    p.add_argument("--url", default="http://127.0.0.1:8765",
                   help="gateway base URL")
    p.add_argument("--api-key", default=None,
                   help="tenant API key (X-Api-Key header)")

    p = sub.add_parser(
        "prepare",
        help="run lines 1-11 once and cache the artifact as JSON",
    )
    p.add_argument("cnf_file")
    p.add_argument("--out", required=True, metavar="STATE_JSON")
    p.add_argument("--epsilon", type=float, default=6.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--bsat-timeout", type=float, default=60.0)

    p = sub.add_parser("samplers", help="list the sampler registry")

    p = sub.add_parser("count", help="approximately count a DIMACS file")
    p.add_argument("cnf_file")
    p.add_argument("--epsilon", type=float, default=0.8)
    p.add_argument("--delta", type=float, default=0.2)
    p.add_argument("--iterations", type=int, default=9)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser(
        "export",
        help="write the benchmark suite as DIMACS files (c-ind + x lines)",
    )
    p.add_argument("out_dir")
    _add_common(p)

    p = sub.add_parser("solve", help="solve a DIMACS file with the CDCL core")
    p.add_argument("cnf_file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--timeout", type=float, default=None)

    p = sub.add_parser(
        "mis", help="extract a minimal independent support of a DIMACS file"
    )
    p.add_argument("cnf_file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--conflicts", type=int, default=50_000,
                   help="per-query conflict budget")

    return parser


def _resolve_sample_target(cnf_file, prepared_path, epsilon):
    """The CNF-or-artifact resolution shared by ``sample`` and ``broker``.

    Returns ``(target, epsilon)``; raises ``ValueError`` when a positional
    CNF disagrees with the formula embedded in the artifact (sampling a
    different file than the artifact was prepared from would silently
    produce witnesses of the wrong formula).
    """
    if prepared_path is None:
        return read_dimacs(cnf_file), epsilon
    target = PreparedFormula.load(prepared_path)
    print(f"c prepared artifact: {target.describe()}", file=sys.stderr)
    if epsilon is None:
        # The artifact records the ε it was built under; adopting it
        # under a different ε is rejected, so default to its.
        epsilon = target.epsilon
    if cnf_file is not None:
        from ..cnf.dimacs import dimacs_body

        if dimacs_body(read_dimacs(cnf_file)) != dimacs_body(target.cnf):
            raise ValueError(
                f"{cnf_file} differs from the formula embedded in "
                f"{prepared_path}; re-run `repro prepare` or drop one of "
                "the two inputs"
            )
    return target, epsilon


def _spawn_local_workers(spool, count: int, poll: float,
                         token: str | None = None,
                         retry_window_s: float = 0.0):
    """Start ``count`` drain-mode ``repro worker`` subprocesses on ``spool``.

    The children inherit our environment plus this package's source root on
    ``PYTHONPATH``, so they resolve the same ``repro`` regardless of how
    the parent was launched.  ``token`` forwards the brokerd shared secret;
    ``retry_window_s`` forwards ``--broker-retry`` so the whole fleet rides
    out the same daemon restarts the coordinator does.
    """
    import os
    import subprocess
    from pathlib import Path

    src_root = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        src_root + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src_root
    )
    argv = [sys.executable, "-m", "repro", "worker", str(spool),
            "--drain", "--poll", str(poll)]
    if token is not None:
        argv += ["--auth-token", token]
    if retry_window_s > 0:
        argv += ["--broker-retry", str(retry_window_s)]
    return [subprocess.Popen(argv, env=env) for _ in range(count)]


def _wait_local_workers(procs) -> None:
    """Reap spawned worker subprocesses without wedging the coordinator."""
    for proc in procs:
        try:
            proc.wait(timeout=10.0)
        except Exception:  # noqa: BLE001 — a stuck worker must not
            proc.kill()  # wedge the coordinator's exit path
            proc.wait()


@contextlib.contextmanager
def _local_workers(spool, count: int, poll: float,
                   token: str | None = None,
                   retry_window_s: float = 0.0):
    """Context manager: spawn drain-mode workers, always reap on exit.

    The one worker-lifecycle implementation both broker CLI paths use —
    the job must already be submitted when this is entered, so a
    submit-time failure never leaves freshly spawned workers serving
    whatever stale job sits in the queue.
    """
    procs = _spawn_local_workers(spool, count, poll, token, retry_window_s)
    try:
        yield procs
    finally:
        _wait_local_workers(procs)


def _jobs_or(args, default: int = 2) -> int:
    """The one place --jobs defaults are resolved (broker worker count,
    pool process count); 0 stays 0 — 'external workers' on the broker
    path, rejected by the pool constructor."""
    return default if args.jobs is None else args.jobs


def _parse_tenant(spec: str):
    """``NAME:KEY[:burst[:rate[:weight]]]`` → ``(api_key, TenantPolicy)``."""
    from ..service.quota import TenantPolicy

    parts = spec.split(":")
    if len(parts) < 2 or not parts[0] or not parts[1]:
        raise ValueError(
            f"--tenant needs NAME:KEY[:burst[:rate[:weight]]], got {spec!r}"
        )
    name, key = parts[0], parts[1]
    try:
        burst = int(parts[2]) if len(parts) > 2 and parts[2] else 8
        rate = float(parts[3]) if len(parts) > 3 and parts[3] else 4.0
        weight = int(parts[4]) if len(parts) > 4 and parts[4] else 1
    except ValueError:
        raise ValueError(f"--tenant {spec!r}: burst/rate/weight must be "
                         "numeric") from None
    return key, TenantPolicy(
        name, burst=burst, refill_per_s=rate, weight=weight
    )


def _reraise_worker_failure(exc):
    """Map a worker-side ``UnsatisfiableError`` back to the real thing so
    UNSAT found by a sample-only sampler's first draw exits like UNSAT
    found while preparing (``s UNSATISFIABLE``, exit 1)."""
    from ..errors import UnsatisfiableError

    if exc.remote_type == "UnsatisfiableError":
        raise UnsatisfiableError(str(exc)) from exc
    raise exc


def _submit_to_broker(backend, plan, target: str) -> None:
    """Enqueue ``plan`` on a broker backend and announce the job.

    Both broker CLI paths submit before any local worker exists: a
    submit-time failure (a stale job still in flight on the spool) must
    exit cleanly, not leave fresh workers serving a foreign job.
    """
    spec = backend.submit_plan(plan)
    print(
        f"c broker: job {spec.job_id[:8]} submitted to {target} "
        f"({plan.n_chunks} chunks × {plan.chunk_size}, "
        f"seed={plan.root_seed}, lease={backend.lease_timeout_s:g}s)",
        file=sys.stderr,
    )


def _gate_universe(args, target) -> int:
    """Resolve the online gate's cell count ``|R_F|``.

    An explicit ``--gate-universe`` wins; an easy-case prepared artifact
    supplies it implicitly (its witness list is the exact universe).  A
    *hashed* artifact's ApproxMC estimate is deliberately NOT used: it is
    only (1±ε)-accurate, and an undercount makes the gate reject the run
    with "universe smaller than observed support" once more distinct
    witnesses than the estimate show up — a configuration failure, not a
    uniformity verdict.
    """
    if args.gate_universe is not None:
        return args.gate_universe
    if isinstance(target, PreparedFormula) and target.is_easy:
        return len(target.easy_witnesses)
    hint = ""
    if isinstance(target, PreparedFormula) and target.approx_count_value:
        hint = (
            f" (the artifact's ApproxMC estimate is "
            f"~{target.approx_count_value}, accurate only to its (1±ε) "
            "tolerance — pass the exact count)"
        )
    raise ValueError(
        "--gate-online needs --gate-universe M (the exact witness count "
        "over the sampling set); only an easy-case --prepared artifact "
        f"can supply it implicitly{hint}"
    )


#: Default --out fsync cadence (witness lines between fsyncs) whenever a
#: run manifest makes the file resume-capable; --fsync-every overrides,
#: 0 disables.  Checkpoints a resume believes in must survive power loss,
#: not just a killed process — page-cache flushes alone do not.
DEFAULT_FSYNC_EVERY = 64


def _build_sinks(args, target):
    """The ``--gate-online`` / ``--out`` sink pipeline.

    Returns ``(sinks, gate, writer)``: the sinks in stream order, and the
    gate and writer (``None`` when their flag is off) surfaced separately
    so the coordinator can read the verdict and fold a resumed file's
    retained draws into its delivered count.
    """
    from ..sinks import (
        DimacsWitnessWriter,
        JsonlWitnessWriter,
        OnlineUniformityGate,
    )
    from ..stats import AlphaSpendingSchedule, witness_key

    gate = None
    writer = None
    sinks = []
    if args.out is not None:
        # The writer sits ahead of the gate on purpose: sinks see each
        # event in composition order, so the file records the very draw a
        # trip is decided on — the partial --out of an aborted run
        # reproduces the tripped verdict exactly.
        writer_cls = (
            JsonlWitnessWriter
            if args.out.endswith(".jsonl")
            else DimacsWitnessWriter
        )
        fsync_every = args.fsync_every
        if fsync_every is None:
            fsync_every = DEFAULT_FSYNC_EVERY
        writer = writer_cls(
            args.out,
            overwrite=args.overwrite,
            resume=args.resume is not None,
            fsync_every=fsync_every,
        )
        sinks.append(writer)
    if args.gate_online:
        # Both a CNF and a PreparedFormula expose the sampling set; empty
        # means "no c-ind projection" and the gate keys on full witnesses.
        svars = list(target.sampling_set or ())
        schedule = None
        if args.gate_spending:
            schedule = AlphaSpendingSchedule(
                alpha=args.gate_alpha,
                first_interval=args.gate_every,
                max_interval=args.gate_cap,
            )
        gate = OnlineUniformityGate(
            _gate_universe(args, target),
            key=(lambda w: witness_key(w, svars)) if svars else None,
            alpha=args.gate_alpha,
            ratio_bound=args.gate_bound,
            check_every=args.gate_every,
            schedule=schedule,
        )
        sinks.append(gate)
    return sinks, gate, writer


def _formula_hash(target) -> str:
    """Canonical hash of the formula behind a CNF-or-artifact target."""
    cnf = target.cnf if isinstance(target, PreparedFormula) else target
    return cnf.canonical_hash()


def _prepare_resume(args, target, config):
    """Load + validate the manifest of ``--resume``, scan the partial file.

    Adopts the manifest's ``n``/``chunk_size``/root seed into the live
    args/config (anything the user *did* spell explicitly was already
    compared), and returns ``(manifest, scan, pending_chunks)`` —
    ``pending_chunks`` is ``None`` when the manifest says the run already
    completed and there is nothing to do.
    """
    from ..runs import RunManifest, manifest_path, out_format, scan_out_file

    manifest = RunManifest.load(manifest_path(args.out))
    manifest.validate_against(
        formula_hash=_formula_hash(target),
        sampler=args.sampler,
        config=config.to_dict(),
        n=args.num,
        seed=args.seed,
        chunk_size=args.chunk_size,
        out_format=out_format(args.out),
    )
    args.num = manifest.n
    args.chunk_size = manifest.chunk_size
    config.seed = manifest.root_seed
    if manifest.status == "complete":
        return manifest, None, None
    scan = scan_out_file(args.out, manifest.out_format)
    if manifest.n_chunks and scan.resume_chunk >= manifest.n_chunks:
        from ..errors import ResumeError

        raise ResumeError(
            f"{args.out} carries chunk {scan.resume_chunk} but the "
            f"manifest's plan has chunks 0..{manifest.n_chunks - 1} — "
            "this is not the file the manifest describes"
        )
    pending = list(range(scan.resume_chunk, manifest.n_chunks))
    return manifest, scan, pending


class _CliSink(StreamSink):
    """The terminal end of ``repro sample``'s stream, after any writer/gate.

    Counts delivered draws, prints each witness at once (``echo``) or
    keeps it for the end-of-run block (``buffer``), keeps per-draw
    results for ``--report-json`` and ticks ``--progress``.
    """

    name = "cli"

    def __init__(self, *, echo: bool, buffer: bool, keep_results: bool,
                 meter=None):
        self.echo = echo
        self.witnesses = [] if buffer else None
        self.results = [] if keep_results else None
        self.meter = meter
        self.delivered = 0

    def accept(self, chunk_index, result) -> None:
        if result.ok:
            self.delivered += 1
            if self.echo:
                _print_witness(result.witness, flush=True)
            elif self.witnesses is not None:
                self.witnesses.append(result.witness)
        if self.results is not None:
            self.results.append(result)
        if self.meter is not None:
            self.meter.update(self.delivered)


def _run_sample(args, target, config) -> int:
    """``repro sample``: one chunk plan on the backend ``main`` picked.

    With ``--stream`` each witness prints the moment its chunk arrives
    and the process holds O(``--window``) chunks (unless
    ``--report-json`` asks for the full per-draw record).  Without
    ``--stream`` the output is byte-identical anyway — the stream is
    buffered and printed at the end.  With ``--gate-online`` the
    uniformity gate rides the stream; a trip cancels the run (pool chunks
    terminated, broker job purged) and exits with code 3 — the partial
    ``--out`` file stays well-formed.

    Every ``--out`` run writes ``<out>.manifest.json`` at start and flips
    it to ``status="complete"`` after a full stream, so ``--resume`` can
    later prove which deterministic stream the partial file belongs to
    and re-run exactly the chunks it is missing.
    """
    import time as _time

    from ..errors import GateTripped
    from ..execution import build_plan, make_backend
    from ..runs import RunManifest, manifest_path, out_format
    from ..sinks import run_stream
    from ..stats import ProgressMeter

    resume = args.resume is not None
    manifest = scan = None
    pending = None
    if resume:
        manifest, scan, pending = _prepare_resume(args, target, config)
        if pending is None:
            print(f"c resume: {args.out} already completed its "
                  f"{manifest.n}-witness run; nothing to do",
                  file=sys.stderr)
            return 0
    plan = build_plan(
        target,
        args.num,
        config,
        sampler=args.sampler,
        chunk_size=args.chunk_size,
        only_chunks=pending,
    )
    if resume:
        kept = (
            f"chunks 0..{scan.resume_chunk - 1}"
            if scan.resume_chunk else "no complete chunks"
        )
        print(
            f"c resume: {args.out} retains {scan.retained_draws} witnesses "
            f"({kept}); re-running {len(pending)} of {manifest.n_chunks} "
            f"chunks (seed={plan.root_seed})",
            file=sys.stderr,
        )
    broker = None
    workers = 0
    # Filled in below once the meter exists; the broker backend calls it
    # every poll, so --progress keeps logging through a stalled stream
    # (no workers, one slow chunk) when no events arrive to pump it.
    meter_box: list = []
    if args.backend == "broker":
        from ..distributed import connect_broker

        broker = connect_broker(args.broker, token=args.auth_token,
                                retry_window_s=args.broker_retry)
        backend = make_backend(
            "broker",
            broker=broker,
            window=args.window,
            lease_timeout_s=args.lease_timeout,
            poll_interval_s=0.1,
            on_progress=lambda _census: (
                meter_box[0].tick() if meter_box else None
            ),
        )
        # --jobs doubles as the local worker count here; 0 means
        # externally started `repro worker`s drain the queue.
        workers = _jobs_or(args)
    elif args.backend == "pool":
        # --jobs 0 means "external workers" only on the broker path; the
        # pool constructor rejects it (ValueError → exit 2) rather than
        # silently forking processes the user asked not to spawn.
        backend = make_backend(
            "pool", jobs=_jobs_or(args), window=args.window
        )
    else:
        backend = make_backend("serial", window=args.window)

    meter = None
    if args.progress is not None:
        meter = ProgressMeter(
            total=args.num,
            interval_s=args.progress,
            in_flight=lambda: backend.in_flight,
        )
        meter_box.append(meter)
    sinks, gate, writer = _build_sinks(args, target)
    if args.out is not None and not resume:
        # The writer just vetted the path (no silent clobbering), so the
        # manifest can safely claim it.  Written before the first chunk
        # runs: a run killed at any instant leaves a manifest that proves
        # which deterministic stream the partial file is a prefix of.
        manifest = RunManifest.for_plan(
            plan,
            formula_hash=_formula_hash(target),
            out_format=out_format(args.out),
        )
        manifest.write(manifest_path(args.out))
    cli = _CliSink(
        echo=args.stream and args.out is None,
        buffer=not args.stream and args.out is None,
        keep_results=bool(args.report_json),
        meter=meter,
    )
    tripped: GateTripped | None = None
    start = _time.monotonic()
    if broker is not None:
        _submit_to_broker(backend, plan, args.broker)
        workers_ctx = _local_workers(
            args.broker, workers, 0.1, args.auth_token, args.broker_retry
        )
    else:
        workers_ctx = contextlib.nullcontext()
    with workers_ctx:
        try:
            # Last in line: a draw the gate trips on is never printed or
            # counted.
            run_stream(backend, plan, *sinks, cli)
        except GateTripped as trip:
            tripped = trip
    wall = _time.monotonic() - start
    delivered = cli.delivered
    if meter is not None:
        meter.finish()
    if tripped is not None:
        print(f"c gate: TRIPPED — {tripped}", file=sys.stderr)
        print(
            f"c aborted early: {delivered} draws consumed, in-flight "
            f"chunks cancelled [backend={args.backend}]",
            file=sys.stderr,
        )
        return 3
    # A resumed writer's retained prefix counts toward the -n contract:
    # those draws were delivered (by the interrupted run) and live in the
    # completed file.
    total = delivered + (writer.resumed_draws if writer is not None else 0)
    # Witnesses already went to stdout (streamed) or to --out unless
    # buffered; the -n contract still marks every undelivered draw with a
    # BOT line on stdout, so a shortfall is machine-visible either way.
    _print_witnesses(cli.witnesses or [], args.num - total)
    stats = backend.stream_stats
    print(
        f"c {total}/{args.num} witnesses via {plan.sampler} "
        f"[backend={args.backend}, window={backend.resolved_window()}, "
        f"{plan.n_chunks} chunks × {plan.chunk_size}, "
        f"seed={plan.root_seed}] in {wall:.2f}s "
        f"({delivered / wall if wall > 0 else 0.0:.1f} witnesses/s, "
        f"success={stats.success_probability:.3f}, "
        f"max_in_flight={backend.max_in_flight})",
        file=sys.stderr,
    )
    if args.out is not None:
        print(f"c wrote {total} witnesses to {args.out}",
              file=sys.stderr)
        # The stream ran to exhaustion and the writer closed (flushed,
        # fsynced): flip the manifest so a later --resume knows there is
        # nothing left to re-run.
        manifest.status = "complete"
        manifest.write(manifest_path(args.out))
    verdict = None
    if gate is not None:
        # The completed-run verdict: byte-identical to the offline
        # uniformity_gate over the same witnesses (same counts core).
        verdict = gate.verdict()
        print(f"c gate: {verdict.describe()}", file=sys.stderr)
    if broker is not None and workers > 0:
        # We owned the whole job lifecycle (spawned the workers, saw them
        # exit) — reclaim the spent spool/brokerd state.  With --jobs 0
        # the queue belongs to external workers; leave it to them.
        broker.purge()
        print(f"c broker: purged spent job state at {args.broker}",
              file=sys.stderr)
    if args.report_json:
        report = backend.build_report(
            plan, results=cli.results, wall_time_seconds=wall
        )
        _maybe_report_json(args.report_json, report.to_dict())
    return 0 if verdict is None or verdict.passed else 3


def _maybe_report_json(path, data: dict) -> None:
    """Write the ``--report-json`` artifact (no-op when the flag is off)."""
    if path is None:
        return
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2)
    print(f"c wrote report {path}", file=sys.stderr)


def _print_witness(witness, flush: bool = False) -> None:
    """One DIMACS-style ``v`` line (every output path shares this)."""
    from ..core.base import witness_to_lits

    lits = " ".join(str(l) for l in witness_to_lits(witness))
    print(f"v {lits} 0", flush=flush)


def _print_witnesses(witnesses, shortfall: int) -> None:
    """DIMACS-style output: one ``v`` line per witness, ``BOT`` per
    requested-but-undelivered one (all sampling paths share this)."""
    for witness in witnesses:
        _print_witness(witness)
    for _ in range(max(0, shortfall)):
        print("BOT")


def _run_smoke(jobs: int | None = None) -> int:
    """``repro sample --smoke``: seconds-fast lifecycle self-check for CI.

    Exercises prepare → serialize → deserialize → every registered sampler
    on a tiny built-in formula, validating each returned witness.  With
    ``jobs`` set, additionally runs one chunk plan on the pool backend at
    that job count and asserts jobs-invariance: the pool must draw exactly
    the witnesses the serial backend draws under the same root seed.
    """
    from ..cnf.formula import CNF
    from ..execution import PoolBackend, SerialBackend, build_plan

    cnf = CNF()
    cnf.add_clause([1, 2, 3])
    cnf.add_clause([-1, -2])
    cnf.add_xor([4, 5, 6], rhs=True)
    cnf.sampling_set = [1, 2, 3, 4, 5, 6]

    config = SamplerConfig(epsilon=6.0, seed=7, xor_count=2)
    artifact = prepare(cnf, config)
    roundtrip = PreparedFormula.from_dict(artifact.to_dict())
    print(f"c prepare: {artifact.describe()}")

    failures = 0
    for name in available_samplers():
        entry = get_entry(name)
        target = roundtrip if entry.supports_prepared else cnf
        sampler = make_sampler(name, target, config)
        witnesses = sampler.sample_until(3, max_attempts=20)
        ok = witnesses and all(cnf.evaluate(w) for w in witnesses)
        if not ok:
            failures += 1
        print(f"c {name:10s} {'ok' if ok else 'FAIL'} "
              f"({len(witnesses)} witnesses)")

    if jobs is not None and jobs > 1:
        plan = build_plan(roundtrip, 8, config)
        serial = SerialBackend().collect(plan)
        pooled = PoolBackend(jobs=jobs).collect(plan)
        ok = (
            pooled.witnesses == serial.witnesses
            and len(pooled.witnesses) == 8
            and all(cnf.evaluate(w) for w in pooled.witnesses)
        )
        if not ok:
            failures += 1
        print(f"c parallel   {'ok' if ok else 'FAIL'} "
              f"(jobs={jobs}, {len(pooled.witnesses)} witnesses, "
              f"jobs-invariant={pooled.witnesses == serial.witnesses})")

    print("c smoke " + ("ok" if failures == 0 else f"FAILED ({failures})"))
    return 0 if failures == 0 else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command in ("table1", "table2"):
        config = TableConfig(
            scale=args.scale,
            unigen_samples=args.samples,
            uniwit_samples=args.uniwit_samples,
            bsat_timeout_s=args.bsat_timeout,
            per_instance_timeout_s=args.instance_timeout,
            seed=args.seed,
            include_uniwit=not args.no_uniwit,
        )
        rows = run_table(args.command, config=config, names=args.names)
        title = (
            f"{args.command} reproduction (scale={args.scale}, "
            f"{config.unigen_samples} UniGen / {config.uniwit_samples} UniWit "
            "samples per row)"
        )
        print(render_rows(rows, title))
        print()
        print(render_paper_comparison(rows, "paper-vs-measured shape summary"))
        return 0

    if args.command == "figure1":
        result = run_figure1(
            scale=args.scale,
            mean_count=args.mean_count,
            epsilon=args.epsilon,
            rng=args.seed,
        )
        print(result.render())
        return 0

    if args.command == "ablations":
        for study in run_all_ablations(scale=args.scale, rng=args.seed):
            print(study.render())
            print()
        return 0

    if args.command == "benchmarks":
        if args.names_only:
            from ..suite.registry import names

            for name in names():
                print(name)
            return 0
        for entry in entries():
            instance = entry.build(args.scale)
            marker = "T1" if entry.in_table1 else "  "
            print(
                f"{marker} {entry.name:16s} family={entry.family:9s} "
                f"|X|={instance.num_vars:6d} |S|={len(instance.sampling_set):3d}  "
                f"{instance.description}"
            )
        return 0

    if args.command == "sample":
        from ..errors import ReproError, UnsatisfiableError, WorkerFailure

        if args.smoke:
            return _run_smoke(jobs=args.jobs)
        if args.cnf_file is None and args.prepared is None:
            print("c error: need a CNF file, --prepared, or --smoke",
                  file=sys.stderr)
            return 2
        if args.resume is not None:
            # --resume PATH *is* the witness file; the manifest beside it
            # supplies n/chunk-size/seed, so --out is redundant at best.
            if args.out is not None and args.out != args.resume:
                print(f"c error: --resume {args.resume} conflicts with "
                      f"--out {args.out} (resume names the witness file "
                      "itself; drop --out)", file=sys.stderr)
                return 2
            if args.overwrite:
                print("c error: --resume completes the existing file; "
                      "--overwrite discards it — pick one", file=sys.stderr)
                return 2
            if args.gate_online:
                print("c error: --gate-online cannot ride a resumed run "
                      "(the gate's counts over the retained prefix cannot "
                      "be replayed); re-run from scratch with --overwrite",
                      file=sys.stderr)
                return 2
            args.out = args.resume
        if args.num is None and args.resume is None:
            args.num = 1  # under --resume the manifest supplies n
        # Every run is a chunk plan; only the backend executing it varies.
        # An explicit --jobs other than 1 (0 included) picks the pool,
        # whose constructor rejects 0 — never a silent single process.
        args.backend = args.backend or (
            "broker" if args.broker is not None
            else "serial" if args.jobs in (None, 1) else "pool"
        )
        if args.backend == "broker" and args.broker is None:
            print("c error: --backend broker needs --broker TARGET "
                  "(a spool directory or tcp://host:port)", file=sys.stderr)
            return 2
        if args.backend != "broker" and args.broker is not None:
            print(f"c error: --broker conflicts with --backend "
                  f"{args.backend}", file=sys.stderr)
            return 2
        if args.backend == "serial" and args.jobs not in (None, 1):
            # Never silently drop requested parallelism (or a requested
            # --jobs 0): serial is inline and single-process by definition.
            print(f"c error: --jobs {args.jobs} conflicts with --backend "
                  "serial (inline, one process)", file=sys.stderr)
            return 2
        try:
            target, epsilon = _resolve_sample_target(
                args.cnf_file, args.prepared, args.epsilon
            )
            config = SamplerConfig(
                epsilon=6.0 if epsilon is None else epsilon,
                seed=args.seed,
                bsat_timeout_s=args.bsat_timeout,
                xor_count=args.xor_count,
            )
            try:
                return _run_sample(args, target, config)
            except WorkerFailure as exc:
                _reraise_worker_failure(exc)
        except UnsatisfiableError:
            print("s UNSATISFIABLE")
            return 1
        except (ReproError, ValueError, OSError) as exc:
            print(f"c error: {exc}", file=sys.stderr)
            return 2

    if args.command == "bench":
        from ..bench import ALGORITHMS, emit_trajectory, load_config, run_config

        if args.list_benchmarks:
            for name in sorted(ALGORITHMS):
                algorithm = ALGORITHMS[name]
                print(f"{name:14s} {algorithm.summary}")
                print(f"{'':14s} defaults: {algorithm.defaults}")
                print(f"{'':14s} key: {', '.join(algorithm.key_cols)}")
            return 0
        say = (lambda msg: print(f"c {msg}", file=sys.stderr)) \
            if args.verbose else None
        try:
            config = load_config(args.config)
            rows = run_config(
                config,
                out_dir=args.out_dir,
                skip_existing_override=(
                    False if args.no_skip_existing else None
                ),
                log=say,
            )
        except (ValueError, OSError) as exc:
            print(f"c error: {exc}", file=sys.stderr)
            return 2
        fresh = sum(1 for row in rows if not row.skipped)
        skipped = len(rows) - fresh
        print(f"c bench: {fresh} measured, {skipped} skipped "
              f"(config={args.config})", file=sys.stderr)
        if args.emit:
            artifact = emit_trajectory(rows, args.emit, args.config)
            print(f"c wrote {args.emit} ({len(artifact['points'])} points)",
                  file=sys.stderr)
        return 0

    if args.command == "broker":
        from ..distributed import connect_broker
        from ..errors import ReproError, UnsatisfiableError, WorkerFailure
        from ..execution import build_plan, make_backend

        if args.cnf_file is None and args.prepared is None:
            print("c error: need a CNF file or --prepared", file=sys.stderr)
            return 2
        try:
            target, epsilon = _resolve_sample_target(
                args.cnf_file, args.prepared, args.epsilon
            )
            config = SamplerConfig(
                epsilon=6.0 if epsilon is None else epsilon,
                seed=args.seed,
                bsat_timeout_s=args.bsat_timeout,
                xor_count=args.xor_count,
            )
            broker = connect_broker(args.spool, token=args.auth_token,
                                    retry_window_s=args.broker_retry)
            plan = build_plan(target, args.num, config, sampler=args.sampler,
                              chunk_size=args.chunk_size)
            backend = make_backend(
                "broker",
                broker=broker,
                lease_timeout_s=args.lease_timeout,
                max_deliveries=args.max_deliveries,
                poll_interval_s=args.poll,
                timeout_s=args.timeout,
            )
            _submit_to_broker(backend, plan, args.spool)
            with _local_workers(args.spool, args.workers, args.poll,
                                args.auth_token, args.broker_retry):
                try:
                    report = backend.collect(plan)
                except WorkerFailure as exc:
                    _reraise_worker_failure(exc)
            if args.purge:
                # Spawned workers have drained and exited by now, so they
                # still observed the finished job before it vanished.
                broker.purge()
                print(f"c broker: purged spent job state at {args.spool}",
                      file=sys.stderr)
        except UnsatisfiableError:
            print("s UNSATISFIABLE")
            return 1
        except (ReproError, ValueError, OSError) as exc:
            print(f"c error: {exc}", file=sys.stderr)
            return 2
        _print_witnesses(report.witnesses, report.shortfall)
        print(f"c {report.describe()}", file=sys.stderr)
        _maybe_report_json(args.report_json, report.to_dict())
        return 0

    if args.command == "brokerd":
        import signal
        import threading

        from ..distributed.tcpbroker import DEFAULT_PORT, BrokerServer

        port = DEFAULT_PORT if args.port is None else args.port
        try:
            server = BrokerServer(
                args.host, port, auth_token=args.auth_token,
                spool=args.spool,
            )
        except OSError as exc:
            print(f"c error: cannot bind {args.host}:{port}: {exc}",
                  file=sys.stderr)
            return 2
        if args.spool is not None:
            print(f"c brokerd journaling to {args.spool} "
                  f"({server.replayed_jobs} jobs replayed)",
                  file=sys.stderr, flush=True)
        print(f"c brokerd listening on {server.url}"
              + (" (authenticated)" if args.auth_token else ""),
              file=sys.stderr, flush=True)

        # Serve from a background thread and park the main thread on an
        # event: `shutdown()` (inside close_gracefully) must run on a
        # different thread than `serve_forever`, and a signal handler runs
        # on the main thread — calling it from the handler while the main
        # thread sat inside serve_forever would deadlock.
        stop = threading.Event()

        def _request_stop(signum, _frame):
            print(f"c brokerd caught {signal.Signals(signum).name}; "
                  "draining connections", file=sys.stderr, flush=True)
            stop.set()

        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, _request_stop)
        server.start()
        while not stop.wait(0.2):
            pass
        server.close_gracefully()
        print("c brokerd drained and closed", file=sys.stderr, flush=True)
        return 0

    if args.command == "serve":
        import signal
        import threading

        from ..service.gateway import GatewayConfig, GatewayThread

        tenants = {}
        try:
            for spec in args.tenant:
                key, policy = _parse_tenant(spec)
                tenants[key] = policy
        except ValueError as exc:
            print(f"c error: {exc}", file=sys.stderr)
            return 2
        if args.backend == "broker" and args.broker is None:
            print("c error: --backend broker needs --broker "
                  "tcp://host:port", file=sys.stderr)
            return 2
        config = GatewayConfig(
            host=args.host,
            port=args.port,
            backend=args.backend,
            jobs=args.jobs,
            broker=args.broker,
            broker_token=args.auth_token,
            sampler=args.sampler,
            epsilon=args.epsilon,
            chunk_size=args.chunk_size,
            coalesce_window_s=args.coalesce_window,
            max_group_members=args.max_group,
            max_concurrent_groups=args.max_concurrent_groups,
            cache_capacity=args.cache_size,
            cache_ttl_s=args.cache_ttl,
            prepare_seed=args.prepare_seed,
            max_n=args.max_n,
            job_ttl_s=args.job_ttl,
            max_jobs=args.max_jobs,
            tenants=tenants,
            allow_anonymous=not args.require_key,
        )
        runner = GatewayThread(config)
        try:
            runner.start()
        except OSError as exc:
            print(f"c error: cannot bind {args.host}:{args.port}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"c gateway listening on {runner.url} "
              f"[backend={args.backend}, chunk-size={args.chunk_size}, "
              f"tenants={len(tenants) or 'open'}]",
              file=sys.stderr, flush=True)

        stop = threading.Event()

        def _request_stop(signum, _frame):
            print(f"c gateway caught {signal.Signals(signum).name}; "
                  "draining", file=sys.stderr, flush=True)
            stop.set()

        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, _request_stop)
        while not stop.wait(0.2):
            pass
        runner.stop()
        print("c gateway drained and closed", file=sys.stderr, flush=True)
        return 0

    if args.command == "submit":
        import json as _json

        from ..service.client import ServiceClient, ServiceError

        try:
            dimacs = open(args.cnf_file, encoding="utf-8").read()
        except OSError as exc:
            print(f"c error: {exc}", file=sys.stderr)
            return 2
        client = ServiceClient(args.url, api_key=args.api_key)
        try:
            ticket = client.sample(
                dimacs,
                args.num,
                epsilon=args.epsilon,
                seed=args.seed,
                sampler=args.sampler,
                name=args.cnf_file,
            )
        except (ServiceError, OSError) as exc:
            print(f"c error: {exc}", file=sys.stderr)
            return 2
        print(f"c submitted {ticket['job_id']} "
              f"(n={args.num}, seed={ticket['root_seed']}, "
              f"chunk-size={ticket['chunk_size']}, "
              f"coalesced={ticket['coalesced']})", file=sys.stderr)
        if args.no_wait:
            print(_json.dumps(ticket))
            return 0
        try:
            out = (open(args.out, "w", encoding="utf-8")
                   if args.out else sys.stdout)
            try:
                delivered = 0
                for record in client.witnesses(ticket["job_id"]):
                    # Re-dumped with the writer's separators, these lines
                    # are byte-identical to the gateway's stream (and to
                    # a JsonlWitnessWriter file).
                    out.write(_json.dumps(
                        record, separators=(",", ":")) + "\n")
                    delivered += 1
                status = client.wait(
                    ticket["job_id"], timeout_s=args.timeout
                )
            finally:
                if args.out:
                    out.close()
        except (ServiceError, TimeoutError, OSError) as exc:
            print(f"c error: {exc}", file=sys.stderr)
            return 1 if isinstance(exc, ServiceError) else 2
        print(f"c job {ticket['job_id']}: {status['state']}, "
              f"{delivered}/{args.num} witnesses"
              + (f" -> {args.out}" if args.out else ""), file=sys.stderr)
        return 0

    if args.command == "status":
        import json as _json

        from ..service.client import ServiceClient, ServiceError

        client = ServiceClient(args.url, api_key=args.api_key)
        try:
            payload = (client.job(args.job_id) if args.job_id
                       else client.stats())
        except (ServiceError, OSError) as exc:
            print(f"c error: {exc}", file=sys.stderr)
            return 2
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0

    if args.command == "worker":
        from ..distributed import connect_broker, run_worker
        from ..errors import ReproError

        try:
            broker = connect_broker(args.spool, token=args.auth_token,
                                    retry_window_s=args.broker_retry)
            report = run_worker(
                broker,
                worker_id=args.worker_id,
                poll_interval_s=args.poll,
                idle_timeout_s=args.idle_timeout,
                max_chunks=args.max_chunks,
                drain=args.drain,
                chaos_kill_after=args.chaos_kill_after,
            )
        except KeyboardInterrupt:  # clean shutdown: lease already nacked
            print("c worker interrupted", file=sys.stderr)
            return 130
        except (ReproError, ValueError, OSError) as exc:
            # ValueError: a malformed tcp:// target from connect_broker —
            # same `c error:` + exit 2 the sibling subcommands give it.
            print(f"c error: {exc}", file=sys.stderr)
            return 2
        print(f"c {report.describe()}", file=sys.stderr)
        return 0

    if args.command == "prepare":
        from ..errors import ReproError, UnsatisfiableError

        config = SamplerConfig(
            epsilon=args.epsilon,
            seed=args.seed,
            bsat_timeout_s=args.bsat_timeout,
        )
        try:
            cnf = read_dimacs(args.cnf_file)
            artifact = prepare(cnf, config)
            artifact.save(args.out)
        except UnsatisfiableError:
            print("s UNSATISFIABLE")
            return 1
        except (ReproError, OSError) as exc:
            print(f"c error: {exc}", file=sys.stderr)
            return 2
        print(f"c wrote {args.out}")
        print(f"c {artifact.describe()}")
        return 0

    if args.command == "samplers":
        for name in available_samplers():
            entry = get_entry(name)
            prep = "prepare+sample" if entry.supports_prepared else "sample-only"
            print(f"{name:10s} [{prep:14s}] {entry.summary}")
        return 0

    if args.command in ("count", "solve", "mis"):
        from ..errors import ReproError

        try:
            cnf = read_dimacs(args.cnf_file)
        except (ReproError, OSError) as exc:
            print(f"c error: {exc}", file=sys.stderr)
            return 2

    if args.command == "count":
        try:
            counter = ApproxMC(
                cnf,
                epsilon=args.epsilon,
                delta=args.delta,
                iterations=args.iterations,
                rng=args.seed,
            )
        except ReproError as exc:  # an out-of-range ε, δ or --iterations
            print(f"c error: {exc}", file=sys.stderr)
            return 2
        result = counter.count()
        if result.count is None:
            print("c ApproxMC failed in every iteration")
            return 1
        tag = "exact" if result.exact else "approximate"
        print(f"s mc {result.count}")
        print(f"c {tag}; iterations={result.iterations} failures={result.failures}")
        return 0

    if args.command == "export":
        from pathlib import Path

        from ..cnf.dimacs import write_dimacs

        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for entry in entries():
            instance = entry.build(args.scale)
            path = out_dir / f"{entry.name}.cnf"
            write_dimacs(instance.cnf, path)
            print(f"wrote {path} (|X|={instance.num_vars}, "
                  f"|S|={len(instance.sampling_set)})")
        return 0

    if args.command == "solve":
        from ..sat.solver import Solver

        budget = Budget(timeout_seconds=args.timeout)
        result = Solver(cnf, rng=args.seed).solve(budget=budget)
        print(f"s {result.status}")
        if result.model:
            lits = [v if result.model[v] else -v for v in sorted(result.model)]
            print("v " + " ".join(str(l) for l in lits) + " 0")
        return 0 if result.status != "UNKNOWN" else 2

    if args.command == "mis":
        from ..support import find_independent_support

        start = cnf.sampling_set
        mis = find_independent_support(
            cnf,
            start=start,
            budget=Budget(max_conflicts=args.conflicts),
            rng=args.seed,
        )
        print("c ind " + " ".join(str(v) for v in mis) + " 0")
        print(f"c |support| = {len(mis)} of {cnf.num_vars} variables")
        return 0

    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
