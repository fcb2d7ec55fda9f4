"""A1–A4 ablation benchmarks: each design choice of Section 4 timed
against its ablated variant on the same instance.

* A1: hash over the independent support S vs the full set X;
* A2: amortized prepare() vs re-running lines 1–11 per sample;
* A3: BSAT blocking clauses over S vs over X;
* A4: dense (0.5) vs sparse (0.15) hash rows (guarantee-voiding variant).
"""

import pytest

from repro.core import UniGen
from repro.sat.enumerate import bsat
from repro.suite import build

A1_NAME = "s1196a_7_4"
A2_NAME = "case121"
A3_NAME = "squaring7"
A4_NAME = "LoginService2"


# --- A1: support choice ------------------------------------------------------
@pytest.mark.parametrize("hash_set", ["support_S", "full_X"])
def test_a1_hash_set(benchmark, hash_set):
    instance = build(A1_NAME, "quick")
    sset = (
        list(instance.sampling_set)
        if hash_set == "support_S"
        else list(range(1, instance.num_vars + 1))
    )
    sampler = UniGen(instance.cnf, epsilon=6.0, sampling_set=sset, rng=1,
                     approxmc_search="galloping")
    sampler.prepare()
    benchmark.pedantic(sampler.sample, rounds=3, iterations=1, warmup_rounds=1)
    benchmark.extra_info["avg_xor_len"] = sampler.stats.avg_xor_length
    benchmark.extra_info["hash_set_size"] = len(sset)


# --- A2: amortization --------------------------------------------------------
def test_a2_amortized(benchmark):
    instance = build(A2_NAME, "quick")
    sampler = UniGen(instance.cnf, epsilon=6.0, rng=2,
                     approxmc_search="galloping")
    sampler.prepare()
    benchmark.pedantic(sampler.sample, rounds=5, iterations=1, warmup_rounds=1)


def test_a2_unamortized(benchmark):
    instance = build(A2_NAME, "quick")
    seeds = iter(range(10_000))

    def fresh_sample():
        sampler = UniGen(instance.cnf, epsilon=6.0, rng=next(seeds),
                         approxmc_search="galloping")
        return sampler.sample()  # prepare() re-runs every time

    benchmark.pedantic(fresh_sample, rounds=5, iterations=1, warmup_rounds=1)


# --- A3: blocking clause support ----------------------------------------------
@pytest.mark.parametrize("full_blocking", [False, True],
                         ids=["block_over_S", "block_over_X"])
def test_a3_blocking(benchmark, full_blocking):
    instance = build(A3_NAME, "quick")

    def enumerate_cell():
        return bsat(instance.cnf, 20, block_full_support=full_blocking)

    result = benchmark.pedantic(enumerate_cell, rounds=3, iterations=1)
    assert len(result.models) == 20


# --- A4: hash density ----------------------------------------------------------
@pytest.mark.parametrize("density", [0.5, 0.15], ids=["dense", "sparse"])
def test_a4_density(benchmark, density):
    instance = build(A4_NAME, "quick")
    sampler = UniGen(instance.cnf, epsilon=6.0, rng=4, hash_density=density,
                     approxmc_search="galloping")
    sampler.prepare()
    benchmark.pedantic(sampler.sample, rounds=3, iterations=1, warmup_rounds=1)
    benchmark.extra_info["avg_xor_len"] = sampler.stats.avg_xor_length
    benchmark.extra_info["success"] = sampler.stats.success_probability
