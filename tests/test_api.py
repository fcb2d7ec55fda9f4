"""The unified sampling-engine API: lifecycle, registry, serialization.

Covers the acceptance criteria of the API redesign:

* ``PreparedFormula.from_dict(pf.to_dict())`` reproduces sampling behaviour
  bit-for-bit under a fixed rng seed;
* one ``PreparedFormula`` drives both a UniGen and a UniGen2 without
  re-running ApproxMC (checked through ``stats.bsat_calls``);
* the registry lists all five paper algorithms and rejects unknown names;
* the shared result surface (``SampleResult``, ``sample_batch``,
  ``iter_samples``, the single ``sample_until`` retry loop).
"""

import json

import pytest

from repro.api import (
    PreparedFormula,
    SamplerConfig,
    available_samplers,
    get_entry,
    make_sampler,
    prepare,
)
from repro.cnf import CNF, exactly_k_solutions_formula
from repro.core import UniGen, UniGen2, UniWit, EnumerativeUniformSampler, XorSamplePrime
from repro.errors import SamplingError
from repro.rng import RandomSource
from repro.stats import theorem1_envelope, witness_key


def hashed_instance(k=600, n=11):
    """Large enough that the easy case does NOT apply (ApproxMC runs)."""
    cnf = exactly_k_solutions_formula(n, k)
    cnf.sampling_set = range(1, n + 1)
    return cnf


def easy_instance():
    cnf = exactly_k_solutions_formula(6, 20)
    cnf.sampling_set = range(1, 7)
    return cnf


class TestRegistry:
    def test_all_five_paper_algorithms_registered(self):
        names = available_samplers()
        for required in ("unigen", "unigen2", "uniwit", "xorsample", "us"):
            assert required in names

    def test_unknown_name_rejected_with_listing(self):
        with pytest.raises(ValueError, match="unknown sampler"):
            make_sampler("nope", easy_instance())
        with pytest.raises(ValueError, match="unigen"):
            get_entry("nope")

    def test_factories_build_the_right_classes(self):
        cnf = easy_instance()
        config = SamplerConfig(seed=1, xor_count=2)
        assert isinstance(make_sampler("unigen", cnf, config), UniGen)
        assert isinstance(make_sampler("unigen2", cnf, config), UniGen2)
        assert isinstance(make_sampler("uniwit", cnf, config), UniWit)
        assert isinstance(make_sampler("xorsample", cnf, config), XorSamplePrime)
        assert isinstance(
            make_sampler("us", cnf, config), EnumerativeUniformSampler
        )

    def test_name_normalization_and_aliases(self):
        cnf = easy_instance()
        config = SamplerConfig(seed=1, xor_count=2)
        assert isinstance(make_sampler("UniGen2", cnf, config), UniGen2)
        assert isinstance(make_sampler("XORSample'", cnf, config), XorSamplePrime)

    def test_xorsample_requires_xor_count(self):
        with pytest.raises(ValueError, match="xor_count"):
            make_sampler("xorsample", easy_instance(), SamplerConfig(seed=1))

    def test_prepared_rejected_by_samplers_without_prepare_phase(self):
        pf = prepare(easy_instance(), SamplerConfig(seed=1))
        with pytest.raises(ValueError, match="no prepare phase"):
            make_sampler("uniwit", pf, SamplerConfig(seed=1))


class TestSamplerConfig:
    def test_round_trip(self):
        config = SamplerConfig(
            epsilon=3.5,
            sampling_set=[1, 2, 3],
            seed=9,
            bsat_timeout_s=5.0,
            xor_count=4,
        )
        assert SamplerConfig.from_dict(config.to_dict()) == config

    def test_from_dict_ignores_unknown_keys(self):
        config = SamplerConfig.from_dict({"epsilon": 2.0, "future_knob": 1})
        assert config.epsilon == 2.0

    @pytest.mark.parametrize("retired", [
        {"matrix_reuse": False},
        {"solver_reuse": True, "gf2_backend": "numpy"},
        {"solver_reuse": False, "gf2_backend": None},
    ], ids=["matrix-reuse-off", "neutral-knobs-set", "neutral-knobs-off"])
    def test_from_dict_loads_stream_neutral_retired_keys(self, retired):
        config = SamplerConfig.from_dict({"seed": 3, **retired})
        assert config == SamplerConfig(seed=3)

    def test_from_dict_refuses_the_retired_matrix_reuse_stream(self):
        with pytest.raises(ValueError, match="matrix_reuse"):
            SamplerConfig.from_dict({"matrix_reuse": True, "seed": 3})

    def test_budget_none_when_unlimited(self):
        assert SamplerConfig().budget() is None
        budget = SamplerConfig(bsat_timeout_s=2.0).budget()
        assert budget is not None and budget.timeout_seconds == 2.0


class TestPreparedFormula:
    @pytest.mark.parametrize("builder", [hashed_instance, easy_instance])
    def test_json_round_trip_is_bit_for_bit(self, builder):
        cnf = builder()
        config = SamplerConfig(seed=11)
        pf = prepare(cnf, config)
        # Full JSON text round trip, exactly what `repro prepare --out` does.
        pf2 = PreparedFormula.from_dict(json.loads(json.dumps(pf.to_dict())))
        assert pf2.to_dict() == pf.to_dict()

        a = make_sampler("unigen", pf, config, rng=RandomSource(99))
        b = make_sampler("unigen", pf2, config, rng=RandomSource(99))
        assert [a.sample() for _ in range(20)] == [b.sample() for _ in range(20)]

    def test_save_load(self, tmp_path):
        pf = prepare(hashed_instance(), SamplerConfig(seed=3))
        path = tmp_path / "state.json"
        pf.save(path)
        loaded = PreparedFormula.load(path)
        assert loaded.q == pf.q
        assert loaded.approx_count_value == pf.approx_count_value
        assert loaded.sampling_set == pf.sampling_set

    def test_bad_format_version_rejected(self):
        pf = prepare(easy_instance(), SamplerConfig(seed=1))
        data = pf.to_dict()
        data["format_version"] = 999
        with pytest.raises(SamplingError, match="format version"):
            PreparedFormula.from_dict(data)

    def test_easy_case_artifact(self):
        pf = prepare(easy_instance(), SamplerConfig(seed=2))
        assert pf.is_easy
        assert pf.q is None
        assert len(pf.easy_witnesses) == 20

    def test_hashed_case_artifact_keeps_count_provenance(self):
        pf = prepare(hashed_instance(), SamplerConfig(seed=2))
        assert not pf.is_easy
        assert pf.q is not None
        assert pf.approx_count is not None
        assert pf.approx_count.count == pf.approx_count_value


class TestSharedPreparedState:
    def test_one_artifact_drives_unigen_and_unigen2_without_approxmc(self):
        cnf = hashed_instance()
        config = SamplerConfig(seed=5)
        pf = prepare(cnf, config)

        one = make_sampler("unigen", pf, config, rng=RandomSource(1))
        two = make_sampler("unigen2", pf, config, rng=RandomSource(2))
        # Adoption makes zero BSAT calls: no easy-case check, no ApproxMC.
        one.prepare()
        two.prepare()
        assert one.stats.bsat_calls == 0
        assert two.stats.bsat_calls == 0
        assert one.q == pf.q and two.q == pf.q

        w1 = one.sample()
        batch = two.sample_batch()
        assert w1 is None or cnf.evaluate(w1)
        assert all(cnf.evaluate(w) for w in batch)

    def test_shared_artifact_matches_independent_prepare(self):
        """Samplers over a shared artifact behave identically to ones whose
        artifact was prepared independently (same prepare seed)."""
        cnf = hashed_instance()
        config = SamplerConfig(seed=21)
        shared = prepare(cnf, config)
        independent = prepare(hashed_instance(), config)

        a = make_sampler("unigen", shared, config, rng=RandomSource(7))
        b = make_sampler("unigen", independent, config, rng=RandomSource(7))
        assert [a.sample() for _ in range(15)] == [b.sample() for _ in range(15)]

    def test_shared_artifact_passes_uniformity_envelope(self):
        cnf = exactly_k_solutions_formula(8, 96)
        svars = list(range(1, 9))
        cnf.sampling_set = svars
        config = SamplerConfig(seed=42)
        pf = prepare(cnf, config)
        sampler = make_sampler("unigen2", pf, config, rng=RandomSource(10))
        stream = sampler.sample_until(2000)
        keys = [witness_key(w, svars) for w in stream]
        check = theorem1_envelope(keys, 96, epsilon=6.0, slack=0.6)
        assert check.ok, check.violations[:5]

    def test_mismatched_formula_rejected(self):
        """Adopting an artifact built for a *different* formula must fail —
        silently sampling the wrong witness set would void Theorem 1."""
        pf = prepare(hashed_instance(), SamplerConfig(seed=1))
        other = easy_instance()
        other.sampling_set = range(1, 12)  # same S, different clauses
        with pytest.raises(SamplingError, match="different formula"):
            UniGen(other, prepared=pf)

    def test_same_formula_different_object_accepted(self):
        pf = prepare(hashed_instance(), SamplerConfig(seed=1))
        sampler = UniGen(hashed_instance(), prepared=pf, rng=4)
        assert sampler.sample() is None or sampler.q == pf.q

    def test_mismatched_epsilon_rejected(self):
        pf = prepare(hashed_instance(), SamplerConfig(seed=1, epsilon=6.0))
        with pytest.raises(SamplingError, match="epsilon"):
            make_sampler("unigen", pf, SamplerConfig(seed=1, epsilon=2.0))

    def test_mismatched_sampling_set_rejected(self):
        pf = prepare(hashed_instance(), SamplerConfig(seed=1))
        with pytest.raises(SamplingError, match="sampling set"):
            make_sampler(
                "unigen", pf, SamplerConfig(seed=1, sampling_set=[1, 2, 3])
            )


class TestResultSurface:
    def test_sample_result_provenance_on_hashed_path(self):
        config = SamplerConfig(seed=4)
        sampler = make_sampler("unigen", hashed_instance(), config)
        sampler.prepare()
        for _ in range(10):
            result = sampler.sample_result()
            if result.ok:
                assert sampler.lo_thresh <= result.cell_size <= sampler.hi_thresh
                assert sampler.q - 3 <= result.hash_size <= sampler.q
                assert result.time_seconds >= 0.0
                break
        else:
            pytest.fail("no successful draw in 10 attempts")

    def test_sample_result_on_non_hashing_sampler(self):
        sampler = make_sampler("us", easy_instance(), SamplerConfig(seed=4))
        result = sampler.sample_result()
        assert result.ok
        assert result.cell_size is None and result.hash_size is None

    def test_iter_samples_max_attempts_terminates(self):
        # A wildly over-hashed XORSample' almost always returns ⊥; the
        # attempt bound must make iteration terminate anyway.
        sampler = make_sampler(
            "xorsample", easy_instance(), SamplerConfig(seed=2, xor_count=40)
        )
        got = list(sampler.iter_samples(limit=5, max_attempts=10))
        assert len(got) <= 5
        assert sampler.stats.attempts <= 10

    def test_base_sample_batch_and_iter_samples(self):
        cnf = easy_instance()
        sampler = make_sampler("unigen", cnf, SamplerConfig(seed=6))
        batch = sampler.sample_batch()
        assert len(batch) == 1 and cnf.evaluate(batch[0])
        got = list(sampler.iter_samples(limit=5))
        assert len(got) == 5
        assert all(cnf.evaluate(w) for w in got)

    def test_unified_sample_until_matches_unigen2_stream(self):
        """sample_stream is the base-class retry loop under its old name."""
        cnf = hashed_instance()
        config = SamplerConfig(seed=8)
        pf = prepare(cnf, config)
        a = make_sampler("unigen2", pf, config, rng=RandomSource(3))
        b = make_sampler("unigen2", pf, config, rng=RandomSource(3))
        assert a.sample_stream(25) == b.sample_until(25)


class TestCliLifecycle:
    def _write_cnf(self, tmp_path):
        from repro.cnf import write_dimacs

        cnf = hashed_instance()
        path = tmp_path / "f.cnf"
        write_dimacs(cnf, path)
        return path

    def test_prepare_then_sample_prepared(self, tmp_path, capsys):
        from repro.experiments.cli import main

        cnf_path = self._write_cnf(tmp_path)
        state = tmp_path / "state.json"
        assert main(["prepare", str(cnf_path), "--out", str(state),
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "hashed case" in out and str(state) in out

        assert main(["sample", str(cnf_path), "--prepared", str(state),
                     "-n", "2", "--seed", "2", "--sampler", "unigen2"]) == 0
        out = capsys.readouterr().out
        assert out.count("v ") + out.count("BOT") == 2

    def test_sample_prepared_inherits_artifact_epsilon(self, tmp_path, capsys):
        """An artifact prepared under a non-default ε must be usable without
        re-passing --epsilon on the sample side."""
        from repro.experiments.cli import main

        cnf_path = self._write_cnf(tmp_path)
        state = tmp_path / "state3.json"
        assert main(["prepare", str(cnf_path), "--out", str(state),
                     "--seed", "1", "--epsilon", "3.0"]) == 0
        capsys.readouterr()
        assert main(["sample", "--prepared", str(state),
                     "-n", "1", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("v ") + out.count("BOT") == 1

    def test_benchmarks_names_only(self, capsys):
        from repro.experiments.cli import main
        from repro.suite import names

        assert main(["benchmarks", "--names-only"]) == 0
        listed = capsys.readouterr().out.split()
        assert listed == names()

    def test_sample_prepared_rejects_different_formula(self, tmp_path, capsys):
        from repro.cnf import write_dimacs
        from repro.experiments.cli import main

        cnf_path = self._write_cnf(tmp_path)
        state = tmp_path / "state.json"
        assert main(["prepare", str(cnf_path), "--out", str(state),
                     "--seed", "1"]) == 0
        other = tmp_path / "other.cnf"
        write_dimacs(easy_instance(), other)
        capsys.readouterr()
        assert main(["sample", str(other), "--prepared", str(state)]) == 2
        assert "differs from the formula" in capsys.readouterr().err

    def test_sample_by_name(self, tmp_path, capsys):
        from repro.experiments.cli import main

        cnf_path = self._write_cnf(tmp_path)
        assert main(["sample", str(cnf_path), "--sampler", "us",
                     "-n", "2", "--seed", "3"]) == 0
        assert capsys.readouterr().out.count("v ") == 2

    def test_sample_unknown_sampler_fails_cleanly(self, tmp_path, capsys):
        from repro.experiments.cli import main

        cnf_path = self._write_cnf(tmp_path)
        assert main(["sample", str(cnf_path), "--sampler", "bogus"]) == 2

    def test_sample_without_input_fails_cleanly(self, capsys):
        from repro.experiments.cli import main

        assert main(["sample"]) == 2

    @pytest.mark.parametrize("route", [[], ["--backend", "serial"],
                                       ["--jobs", "1"]])
    def test_sample_rejects_chunk_size_below_one(self, tmp_path, capsys,
                                                 route):
        from repro.experiments.cli import main

        cnf_path = self._write_cnf(tmp_path)
        code = main(["sample", str(cnf_path), "-n", "2", "--seed", "3",
                     "--chunk-size", "-2", *route])
        assert code == 2
        captured = capsys.readouterr()
        assert "chunk_size must be >= 1" in captured.err
        assert "v " not in captured.out

    def test_smoke(self, capsys):
        from repro.experiments.cli import main

        assert main(["sample", "--smoke"]) == 0
        assert "smoke ok" in capsys.readouterr().out

    def test_samplers_listing(self, capsys):
        from repro.experiments.cli import main

        assert main(["samplers"]) == 0
        out = capsys.readouterr().out
        for name in ("unigen", "unigen2", "uniwit", "xorsample", "us"):
            assert name in out
