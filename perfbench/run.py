"""Seeded, self-checking end-to-end benchmark of the ``repro`` sampler.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hashed-unigen --seed 1 \\
        --seconds 50 --trace 0

Every run measures its work in several identical passes.  ``--trace 0``
makes as many as fit in ``--seconds`` of measuring (at least a few),
with the timed set-ups in between, and reports the
end-to-end metrics over all of them.  ``--trace 1`` makes two passes,
traces the second only, and reports the per-layer metrics (see
``spans.py``) and the tracing overhead.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it state the sample counts, the determinism
fingerprints and the span table.

``setup_s`` is the median over several fresh interpreters, each timed from
its spawn until it has parsed, prepared and planned everything the first
draw needs.  The set-ups alternate with the measured passes, and the run
adopts the first interpreter's prepared artifacts rather than preparing
them again.  With ``--trace 1`` the run sets up in-process instead,
traced, and reports no ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def _import_program():
    """Put the checkout's sources first on the path and import them."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        sys.exit(2)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup_child(workload) -> None:
    """Set up from inputs on stdin, announce readiness, hand the state on.

    After ``ready`` come two lines: the set-up digest and the exported
    state, which the parent adopts instead of setting up again.
    """
    inputs = json.load(sys.stdin)
    state = workload.setup(inputs)
    print("ready", flush=True)
    try:
        print(workload.setup_digest(state))
        print(json.dumps(workload.export(state)), flush=True)
    finally:
        workload.teardown(state)


def _timed_setup(args, inputs_text: str):
    """Set up once in a fresh interpreter, timed from spawn until ready.

    Returns the time, the interpreter's set-up digest and its exported
    state.
    """
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-child"]
    start = time.perf_counter()
    with subprocess.Popen(command, stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as child:
        child.stdin.write(inputs_text)
        child.stdin.close()
        ready = child.stdout.readline()
        elapsed = time.perf_counter() - start
        digest = child.stdout.readline().strip()
        exported = json.loads(child.stdout.readline() or "null")
        code = child.wait(timeout=120)
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up interpreter exited {code} before it "
                           "was ready")
    return elapsed, digest, exported


def _pin(cpus, index=None) -> None:
    """Run on the ``index``-th of ``cpus`` in turn, or on all of them.

    A shared host can slow one CPU for a minute or more while the other
    runs at full speed.  Passes that take the CPUs in turn give every
    operation a chance to run on one that is not slowed.
    """
    if cpus and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(
            0, cpus if index is None else {cpus[index % len(cpus)]})


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _quantiles(values) -> tuple[float, float]:
    """Median and 90th percentile (linear interpolation)."""
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), deciles[8]


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _combine(workload, passes):
    """Throughput, latencies and ttfw over the measured passes.

    The passes of a deterministic workload do identical work, so every
    chunk interval and every operation is timed once per pass, and the
    lowest time is kept.  Other tenants of a shared host slow a run in
    bursts, and passes spread over the run are rarely all inside one, so
    this keeps the bursts out of the numbers without changing the work
    measured.  A slow phase that outlasts the run still shows.
    """
    if workload.paired:
        wall = sum(min(t) for t in zip(*(p.segments for p in passes)))
        latencies = [min(t) for t in zip(*(p.latencies for p in passes))]
        return passes[0].delivered / wall, latencies, passes[0].ttfw
    wall = sum(p.wall_s for p in passes)
    return (sum(p.delivered for p in passes) / wall,
            [x for p in passes for x in p.latencies],
            [x for p in passes for x in p.ttfw])


def _end_to_end(workload, passes, setup_times) -> dict:
    rate, latencies, ttfw = _combine(workload, passes)
    p50, p90 = _quantiles(latencies)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"end-to-end: {len(latencies)} latency samples, "
          f"{len(setup_times)} set-up samples, ok_ratio base {attempted} "
          "operations")
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "wit_per_s": _metric(rate, "1/s"),
        "lat_p50_s": _metric(p50, "s"),
        "lat_p90_s": _metric(p90, "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        "ok_ratio": _metric(1.0 - failed / attempted, "ratio"),
    }
    if workload.service:
        metrics["ttfw_p50_s"] = _metric(statistics.median(ttfw), "s")
    return metrics


def _per_layer(workload, tracer, plain, traced) -> dict:
    """Layer metrics from the traced set-up and the traced second pass."""
    from spans import layer_metrics

    values = layer_metrics(tracer, service=workload.service)
    work = traced.wall_s
    values["sinks.bytes"] = (traced.counters.get("sink_bytes", 0), "count")
    values["trace.overhead_share"] = (work / plain.wall_s - 1.0, "share")
    values["trace.unattributed_share"] = (
        (work - tracer.covered) / work if work else 0.0, "share")
    if workload.service:
        hits = traced.counters["cache_hits"]
        lookups = hits + traced.counters["cache_misses"]
        values["service.cache_hit_ratio"] = (hits / lookups, "ratio")
        values["service.coalesce_joins"] = (
            traced.counters["coalesce_joins"], "count")
        values["service.invalid_witnesses"] = (traced.invalid, "count")
    return {name: _metric(v, unit) for name, (v, unit) in values.items()}


def _describe(label: str, run) -> None:
    print(f"{label}: {run.attempted} operations, {run.failed} failed, "
          f"{run.delivered} witnesses ({run.invalid} invalid) in "
          f"{run.wall_s:.3f} s measured (+{run.harness_s:.3f} s checking); "
          f"{len(run.latencies)} latency samples")
    print(f"{label}: counters {json.dumps(run.counters, sort_keys=True)}")
    print(f"{label}: fingerprint {run.fingerprint or '-'}")
    for note in run.notes[:20]:
        print(f"{label}: note: {note}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_child:
        _setup_child(workload)
        return 0

    inputs = workload.inputs(args.seed, args.seconds)
    inputs_text = json.dumps(inputs)
    correct = True
    tracer = None
    state = None
    passes, setup_times, digests = [], [], []
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                         dir=ROOT) as scratch:
            workdir = Path(scratch)
            if args.trace == 0:
                # Set-ups alternate with passes, which spreads both over the
                # run; the first set-up's artifacts are the ones drawn from.
                # Passes go on while the next one, as long as the last,
                # still ends within --seconds of measuring; the set-ups
                # take extra time.
                measuring = last = 0.0
                cpus = (sorted(os.sched_getaffinity(0))
                        if hasattr(os, "sched_getaffinity") else [])
                while (len(setup_times) < workload.setup_repeats
                       or len(passes) < workload.min_passes
                       or (len(passes) != workload.max_passes
                           and measuring + last <= args.seconds)):
                    if len(setup_times) < workload.setup_repeats:
                        _pin(cpus)
                        elapsed, digest, exported = _timed_setup(
                            args, inputs_text)
                        setup_times.append(elapsed)
                        digests.append(digest)
                        if state is None:
                            state = workload.adopt(inputs, exported)
                    if len(passes) != workload.max_passes:
                        _pin(cpus, len(passes))
                        began = time.perf_counter()
                        passes.append(workload.measure(state, workdir))
                        last = time.perf_counter() - began
                        measuring += last
                        _describe(f"pass {len(passes)}", passes[-1])
                _pin(cpus)
                print(f"setup: {len(setup_times)} fresh interpreters, "
                      f"{', '.join(f'{t:.3f}' for t in setup_times)} s")
                if any(d != workload.setup_digest(state) for d in digests):
                    print("setup: interpreters prepared different artifacts")
                    correct = False
            else:
                from spans import Tracer, install, span_table

                tracer = install(Tracer(), service=workload.service)
                try:
                    state = workload.setup(inputs)
                finally:
                    tracer.uninstall()
                passes.append(workload.measure(state, workdir))
                _describe("pass 1", passes[-1])
                install(tracer, service=workload.service)
                tracer.covered = 0.0
                try:
                    passes.append(workload.measure(state, workdir))
                finally:
                    tracer.uninstall()
                _describe("pass 2 (traced)", passes[-1])
    finally:
        if state is not None:
            workload.teardown(state)

    if workload.paired and len({p.fingerprint for p in passes}) != 1:
        print("determinism: the passes drew different streams")
        correct = False
    if any(p.failed for p in passes):
        correct = False
    if tracer is None:
        metrics = _end_to_end(workload, passes, setup_times)
    else:
        for line in span_table(tracer):
            print(line)
        metrics = _per_layer(workload, tracer, *passes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
