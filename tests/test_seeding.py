"""Tests for the deterministic fallback RNG streams (repro.seeding)."""

import warnings

import numpy as np
import pytest

from repro.experiments.beam_patterns import measure_laptop_pattern
from repro.experiments.frame_level import (
    capture_with_vubiq,
    run_idle_wigig,
    run_wigig_tcp,
)
from repro.experiments.long_run import run_long_term
from repro.experiments.range_vs_distance import (
    distance_cell,
    phy_rate_timeseries,
    throughput_vs_distance,
)
from repro.phy.channel import ShadowingProcess
from repro.phy.signal import Emission, synthesize_trace
from repro.seeding import FallbackSeedWarning, fallback_rng


class TestFallbackRng:
    def test_each_call_yields_independent_stream(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FallbackSeedWarning)
            a = fallback_rng("test")
            b = fallback_rng("test")
        assert not np.array_equal(a.standard_normal(16), b.standard_normal(16))

    def test_warns_with_owner_name(self):
        with pytest.warns(FallbackSeedWarning, match="my-component"):
            fallback_rng("my-component")


class TestShadowingFallback:
    def test_default_instances_are_not_correlated(self):
        # Two default-constructed processes model *different* links and
        # must not replay one identical stream.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FallbackSeedWarning)
            s1 = ShadowingProcess(std_db=3.0)
            s2 = ShadowingProcess(std_db=3.0)
        v1 = [s1.advance(t * 10.0) for t in range(1, 50)]
        v2 = [s2.advance(t * 10.0) for t in range(1, 50)]
        assert v1 != v2

    def test_missing_rng_is_surfaced(self):
        with pytest.warns(FallbackSeedWarning, match="ShadowingProcess"):
            ShadowingProcess(std_db=3.0)

    def test_explicit_rng_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", FallbackSeedWarning)
            ShadowingProcess(std_db=3.0, rng=np.random.default_rng(1))


class TestSynthesizeTraceFallback:
    def test_default_noise_draws_are_independent(self):
        em = Emission(start_s=1e-4, duration_s=2e-4, amplitude_v=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FallbackSeedWarning)
            t1 = synthesize_trace([em], duration_s=1e-3, noise_floor_v=0.01)
            t2 = synthesize_trace([em], duration_s=1e-3, noise_floor_v=0.01)
        assert not np.array_equal(t1.samples, t2.samples)

    def test_missing_rng_is_surfaced(self):
        em = Emission(start_s=1e-4, duration_s=2e-4, amplitude_v=0.5)
        with pytest.warns(FallbackSeedWarning, match="synthesize_trace"):
            synthesize_trace([em], duration_s=1e-3, noise_floor_v=0.01)

    def test_explicit_rng_does_not_warn(self):
        em = Emission(start_s=1e-4, duration_s=2e-4, amplitude_v=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", FallbackSeedWarning)
            synthesize_trace(
                [em],
                duration_s=1e-3,
                noise_floor_v=0.01,
                rng=np.random.default_rng(2),
            )


def _frames(setup):
    return [(r.start_s, r.duration_s, r.kind.name, r.source) for r in setup.medium.history]


def _idle_capture(seed):
    setup = run_idle_wigig(duration_s=0.01, seed=seed)
    return capture_with_vubiq(setup, 0.0, 0.002, seed=seed).samples.tolist()


def _long_run(seed):
    return run_long_term(duration_s=20 * 60.0, sample_period_s=30.0, seed=seed)


def _rate_timeseries(seed):
    return phy_rate_timeseries(8.0, duration_s=120.0, sample_period_s=2.0, seed=seed)


def _distance_sweep(seed):
    runs, average = throughput_vs_distance(
        distances_m=(10.0, 13.0, 16.0), runs=2, seed=seed
    )
    return [r.throughput_bps.tolist() for r in runs], average.tolist()


def _distance_cell(seed):
    return distance_cell(distance_m=12.0, seed=seed)


def _laptop_pattern(seed):
    return measure_laptop_pattern(positions=8, seed=seed).power_dbm.tolist()


def _wigig_tcp(seed):
    return _frames(run_wigig_tcp(duration_s=0.005, seed=seed))


class TestSeedReach:
    """An experiment's ``seed`` must reach every random draw it makes.

    Each entry point runs twice with one seed and once with another,
    with a missing ``rng=`` hand-off turned into an error: equal seeds
    must give equal results (no OS entropy, no shared stream carried
    between calls) and different seeds different ones (no hard-coded
    seed).
    """

    @pytest.mark.parametrize(
        "entry",
        [
            _rate_timeseries,
            _distance_sweep,
            _distance_cell,
            _long_run,
            _laptop_pattern,
            _wigig_tcp,
            _idle_capture,
        ],
        ids=lambda fn: fn.__name__.lstrip("_"),
    )
    def test_seed_determines_result(self, entry):
        with warnings.catch_warnings():
            warnings.simplefilter("error", FallbackSeedWarning)
            first, again, other = entry(1), entry(1), entry(2)
        assert first == again
        assert first != other
