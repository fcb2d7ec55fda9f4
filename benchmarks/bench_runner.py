#!/usr/bin/env python
"""Standalone entry point for the config-driven benchmark runner.

Thin wrapper over ``repro bench`` (the registry, sweep, and CSV logic all
live in :mod:`repro.bench.runner`), runnable without installing the
package::

    python benchmarks/bench_runner.py --config benchmarks/configs/smoke.json -v
    python benchmarks/bench_runner.py --config benchmarks/configs/innerloop.json \
        --emit BENCH_innerloop.json

The runner is config-driven: JSON configs under ``benchmarks/configs/``
name which registered benchmarks to run and which parameter lists to
sweep; results append to one CSV per benchmark with skip-existing, so
repeated runs only fill in missing combinations.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.experiments.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main(["bench", *sys.argv[1:]]))
