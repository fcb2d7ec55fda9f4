"""Statistical regression: per-sampler frequency histograms, pinned gold.

The pass/fail uniformity gate is deliberately coarse — a sampler can drift
(an RNG consuming its stream differently, a cell-search change shifting
which member of a cell is kept) while still *passing* the gate, and the
drift only surfaces later as an irreproducible Figure 1.  This suite pins
the exact distribution: for every registered sampler, a committed JSON
fixture records the per-witness frequency histogram a fixed root seed
produces on a small formula, plus the χ² statistic and min/max frequency
ratios computed from it.  The test re-draws and demands

* the histogram matches **exactly** (counts are integers — any mismatch is
  a real behavioural change, not noise),
* the χ² statistic and min/max-over-expected ratios match to 1e-9 across
  platforms (they are pure arithmetic over the counts; the sorted-key
  summation in the counts core makes them order-independent), and
* the χ² p-value matches to 1e-12 relative.  The tail is computed in the
  standard library alone (``repro.stats.uniformity._chi2_sf``), so like
  the statistic it is a function of the counts, the same on every host.

Regenerating after an intentional behaviour change::

    PYTHONPATH=src python tests/test_uniformity_regression.py --regen
"""

import json
import math
import sys
from pathlib import Path

import pytest

from repro.api import SamplerConfig, available_samplers, get_entry, make_sampler, prepare
from repro.cnf import exactly_k_solutions_formula
from repro.stats import (
    chi_square_from_counts,
    frequency_ratio_from_counts,
    witness_key,
)

GOLDEN_DIR = Path(__file__).parent / "golden" / "uniformity"

#: One fixed root seed per suite; bumping it is a fixture regeneration.
SEED = 20140601
N_DRAWS = 240
UNIVERSE = 8
FORMAT_VERSION = 2


def _instance():
    cnf = exactly_k_solutions_formula(5, UNIVERSE)
    cnf.sampling_set = range(1, 6)
    return cnf


def _config():
    # xor_count serves only the xorsample baseline; others ignore it.
    return SamplerConfig(seed=SEED, epsilon=6.0, xor_count=2)


def _key_str(key) -> str:
    return " ".join(str(lit) for lit in key)


def _draw_histogram(name: str) -> dict[str, int]:
    """The per-witness counts ``name`` produces under the fixed seed."""
    cnf = _instance()
    config = _config()
    entry = get_entry(name)
    target = prepare(cnf, config) if entry.supports_prepared else cnf
    sampler = make_sampler(name, target, config)
    witnesses = sampler.sample_until(N_DRAWS, max_attempts=20 * N_DRAWS)
    svars = sorted(cnf.sampling_set)
    histogram: dict[str, int] = {}
    for witness in witnesses:
        key = _key_str(witness_key(witness, svars))
        histogram[key] = histogram.get(key, 0) + 1
    return dict(sorted(histogram.items()))


def _statistics(histogram: dict[str, int]) -> dict:
    """The pinned pure-arithmetic statistics over a histogram."""
    chi = chi_square_from_counts(histogram, UNIVERSE)
    ratio = frequency_ratio_from_counts(histogram, UNIVERSE)
    return {
        "chi_square": chi.statistic,
        "p_value": chi.p_value,
        "min_over_expected": ratio.min_over_expected,
        "max_over_expected": ratio.max_over_expected,
        "coverage": ratio.coverage,
    }


def _assert_statistics_match(name: str, stats: dict, golden: dict) -> None:
    for field, value in stats.items():
        tolerance = (
            {"rel_tol": 1e-12} if field == "p_value"
            else {"rel_tol": 0.0, "abs_tol": 1e-9}
        )
        assert math.isclose(value, golden[field], **tolerance), (
            f"{name}.{field}: {value} != {golden[field]}"
        )


def _fixture(name: str) -> dict:
    histogram = _draw_histogram(name)
    return {
        "format_version": FORMAT_VERSION,
        "sampler": name,
        "seed": SEED,
        "n_requested": N_DRAWS,
        "n_delivered": sum(histogram.values()),
        "universe_size": UNIVERSE,
        "histogram": histogram,
        **_statistics(histogram),
    }


def _golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def test_every_registered_sampler_has_a_golden_fixture():
    """Adding a sampler to the registry must add its fixture (and vice
    versa: a stale fixture for a removed sampler is an error too)."""
    committed = {path.stem for path in GOLDEN_DIR.glob("*.json")}
    assert committed == set(available_samplers())


@pytest.mark.parametrize("name", sorted(available_samplers()))
def test_frequency_histogram_matches_golden(name):
    golden = json.loads(_golden_path(name).read_text())
    assert golden["format_version"] == FORMAT_VERSION
    assert golden["seed"] == SEED and golden["universe_size"] == UNIVERSE

    histogram = _draw_histogram(name)
    assert histogram == golden["histogram"], (
        f"{name} drew a different frequency histogram under seed {SEED} — "
        "RNG or cell-search drift (regen the fixture only if the change "
        "is intentional)"
    )
    _assert_statistics_match(name, _statistics(histogram), golden)


@pytest.mark.parametrize("name", sorted(available_samplers()))
def test_golden_statistics_are_consistent_with_their_histogram(name):
    """The committed floats must be recomputable from the committed counts
    — catches a hand-edited fixture and pins the counts core itself."""
    golden = json.loads(_golden_path(name).read_text())
    _assert_statistics_match(name, _statistics(golden["histogram"]), golden)
    assert sum(golden["histogram"].values()) == golden["n_delivered"]


def _regen() -> None:  # pragma: no cover - maintenance entry point
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for stale in GOLDEN_DIR.glob("*.json"):
        stale.unlink()
    for name in sorted(available_samplers()):
        fixture = _fixture(name)
        _golden_path(name).write_text(json.dumps(fixture, indent=2) + "\n")
        print(f"wrote {_golden_path(name)} "
              f"({fixture['n_delivered']}/{N_DRAWS} draws, "
              f"chi2={fixture['chi_square']:.3f})")


if __name__ == "__main__":  # pragma: no cover
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
