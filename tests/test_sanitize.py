"""Runtime sanitizer (:mod:`repro.sanitize`)."""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro import sanitize
from repro.analysis import dbmath


@pytest.fixture
def sanitizer():
    """Enabled warn-mode sanitizer, guaranteed disabled afterwards."""
    sanitize.enable("warn")
    sanitize.clear_violations()
    yield sanitize
    sanitize.disable()
    sanitize.clear_violations()


def _unit_broken_pipeline():
    """Toy pipeline with the classic bug: raw linear power fed to a
    log-domain helper."""
    rx_power_linear = 10.0 ** (6.0)  # forgot the conversion to dB
    return dbmath.db_to_linear(rx_power_linear)


class TestChecks:
    def test_linear_into_db_helper_caught_with_stack(self, sanitizer):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sanitize.SanitizerWarning)
            with np.errstate(over="ignore"):
                _unit_broken_pipeline()
        found = sanitizer.violations()
        assert [v.check for v in found] == ["implausible-db"]
        assert found[0].func == "db_to_linear"
        # The call stack points at the offending frame, not the wrapper.
        assert any("_unit_broken_pipeline" in frame for frame in found[0].stack)
        assert not any(sanitize.__file__ in frame for frame in found[0].stack)

    def test_db_into_linear_helper_caught(self, sanitizer):
        with pytest.warns(sanitize.SanitizerWarning):
            dbmath.linear_to_db(-60.0)  # a dB value, not a power
        assert [v.check for v in sanitizer.violations()] == ["negative-linear"]

    def test_unseeded_rng_caught(self, sanitizer):
        with pytest.warns(sanitize.SanitizerWarning):
            np.random.default_rng()
        assert [v.check for v in sanitizer.violations()] == ["unseeded-rng"]

    def test_seeded_rng_and_plausible_values_clean(self, sanitizer):
        np.random.default_rng(42)
        dbmath.db_to_linear(-60.0)
        dbmath.linear_to_db(1e-9)
        dbmath.watts_to_dbm(0.01)
        dbmath.power_sum_db([-50.0, -60.0])
        assert sanitizer.violations() == []

    def test_tiny_negative_power_tolerated(self, sanitizer):
        # Float cancellation noise must not trip the check.
        dbmath.linear_to_db(-1e-12)
        assert sanitizer.violations() == []

    def test_consumable_iterable_still_reaches_original(self, sanitizer):
        total = dbmath.power_sum_db(iter([-50.0, -50.0]))
        assert total == pytest.approx(-50.0 + 10.0 * np.log10(2.0))
        assert sanitizer.violations() == []

    def test_internal_dbmath_calls_not_double_reported(self, sanitizer):
        # power_sum_db calls db_to_linear/linear_to_db internally; a
        # bad input must be reported exactly once, at the entry point.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sanitize.SanitizerWarning)
            with np.errstate(over="ignore"):
                dbmath.power_sum_db([1e9])
        assert len(sanitizer.violations()) == 1


class TestModes:
    def test_raise_mode_fails_at_call_site(self):
        sanitize.enable("raise")
        try:
            with pytest.raises(sanitize.SanitizerError):
                dbmath.db_to_linear_scalar(5e6)
        finally:
            sanitize.disable()
            sanitize.clear_violations()

    def test_enable_is_idempotent_and_switches_mode(self):
        sanitize.enable("warn")
        original = dbmath.db_to_linear.__repro_sanitize_wraps__
        sanitize.enable("raise")  # no double wrap
        assert dbmath.db_to_linear.__repro_sanitize_wraps__ is original
        sanitize.disable()
        sanitize.clear_violations()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            sanitize.enable("loud")


class TestLifecycle:
    def test_disabled_by_default_with_no_wrappers(self):
        assert not sanitize.is_enabled()
        assert not hasattr(dbmath.db_to_linear, "__repro_sanitize_wraps__")
        assert not hasattr(np.random.default_rng, "__repro_sanitize_wraps__")

    def test_disable_restores_every_binding(self):
        import repro.phy.channel  # holds from-imported dbmath copies

        sanitize.enable("warn")
        assert hasattr(dbmath.db_to_linear, "__repro_sanitize_wraps__")
        sanitize.disable()
        for module in (dbmath, repro.phy.channel, np.random):
            for name in dir(module):
                obj = getattr(module, name)
                assert not hasattr(obj, "__repro_sanitize_wraps__"), (
                    f"{module.__name__}.{name} still wrapped"
                )
        # And the restored functions behave (no checking, no warning).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                dbmath.db_to_linear(1e9)
        assert sanitize.violations() == []
        sanitize.clear_violations()

    def test_report_shape_and_write(self, sanitizer, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sanitize.SanitizerWarning)
            dbmath.linear_to_db(-5.0)
        doc = sanitize.report()
        assert doc["enabled"] and doc["mode"] == "warn" and doc["total"] == 1
        path = tmp_path / "report.json"
        sanitize.write_report(str(path))
        on_disk = json.loads(path.read_text())
        assert on_disk["total"] == 1
        assert on_disk["violations"][0]["check"] == "negative-linear"
        assert on_disk["violations"][0]["stack"]

    def test_enable_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "warn")
        try:
            assert sanitize.enable_from_env()
            assert sanitize.is_enabled()
        finally:
            sanitize.disable()
            sanitize.clear_violations()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize.enable_from_env()
        assert not sanitize.is_enabled()


class TestCli:
    def _run(self, code):
        return subprocess.run(
            [sys.executable, "-m", "repro", "sanitize", "--", sys.executable, "-c", code],
            capture_output=True,
            text=True,
        )

    def test_violating_child_fails(self):
        proc = self._run(
            "import warnings; warnings.simplefilter('ignore'); "
            "import repro; from repro.analysis import dbmath; "
            "dbmath.db_to_linear(1e9)"
        )
        assert proc.returncode == 1
        assert "implausible-db" in proc.stdout
        assert "1 violation(s)" in proc.stdout

    def test_clean_child_passes(self):
        proc = self._run(
            "import repro; from repro.analysis import dbmath; "
            "dbmath.db_to_linear(-60.0)"
        )
        assert proc.returncode == 0
        assert "0 violation(s)" in proc.stdout


class TestSimTimeAudit:
    def test_audit_installed_and_removed_with_sanitizer(self):
        from repro.mac import simulator as simulator_mod

        assert simulator_mod._AUDIT is None
        sanitize.enable("warn")
        try:
            assert isinstance(simulator_mod._AUDIT, sanitize.SimTimeAudit)
        finally:
            sanitize.disable()
            sanitize.clear_violations()
        assert simulator_mod._AUDIT is None

    def test_nonfinite_schedule_recorded_before_rejection(self, sanitizer):
        from repro.mac.simulator import Simulator

        sim = Simulator()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sanitize.SanitizerWarning)
            with pytest.raises(ValueError):
                sim.schedule(float("nan"), lambda: None)
        assert [v.check for v in sanitizer.violations()] == [
            "sim-schedule-nonfinite"
        ]

    def test_negative_schedule_recorded(self, sanitizer):
        from repro.mac.simulator import Simulator

        sim = Simulator()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sanitize.SanitizerWarning)
            with pytest.raises(ValueError):
                sim.schedule(-0.5, lambda: None)
        assert [v.check for v in sanitizer.violations()] == ["sim-schedule-past"]

    def test_monotonic_regression_detected(self, sanitizer):
        audit = sanitize.SimTimeAudit()
        sim = object()
        audit.on_event(sim, 1.0)
        audit.on_event(sim, 2.0)
        with pytest.warns(sanitize.SanitizerWarning):
            audit.on_event(sim, 1.5)
        assert [v.check for v in sanitizer.violations()] == [
            "sim-time-regression"
        ]

    def test_clean_run_records_nothing(self, sanitizer):
        from repro.mac.simulator import Simulator

        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(sim.now))
        sim.schedule(2.0, lambda: log.append(sim.now))
        sim.run_until(3.0)
        assert log == [1.0, 2.0]
        assert sanitizer.violations() == []

    def test_event_storm_cap_trips_deterministically(self, monkeypatch):
        # The RL045 pattern at runtime: a handler rescheduling itself at
        # delay 0 never lets time advance.  With the watchdog in raise
        # mode the run fails after exactly the configured cap.
        from repro.mac.simulator import Simulator

        monkeypatch.setenv("REPRO_SANITIZE_STORM_CAP", "25")
        sanitize.enable("raise")
        try:
            sim = Simulator()
            fired = []

            def poll():
                fired.append(sim.now)
                sim.schedule(0.0, poll)

            sim.schedule(1e-3, poll)
            with pytest.raises(sanitize.SanitizerError):
                sim.run_until(1.0)
            # The watchdog trips on the cap-th same-timestamp event
            # before its callback runs, so cap-1 handlers fired.
            assert len(fired) == 24
            assert [v.check for v in sanitize.violations()] == ["sim-event-storm"]
        finally:
            sanitize.disable()
            sanitize.clear_violations()

    def test_storm_pattern_also_flagged_statically(self):
        # Satellite pairing: the same zero-delay self-reschedule that
        # trips the runtime cap above is an RL045 finding for --des.
        from repro.lint.config import LintConfig
        from repro.lint.flow import analyze_files

        src = (
            "class Poller:\n"
            "    def __init__(self, sim):\n"
            "        self.sim = sim\n"
            "    def poll(self):\n"
            "        self.sim.schedule(0.0, self.poll)\n"
        )
        findings, _ = analyze_files(
            [("src/repro/mac/poller.py", src)], LintConfig(), passes=("des",)
        )
        assert [f.code for f in findings] == ["RL045"]

    def test_storm_cap_env_fallback_on_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE_STORM_CAP", "not-a-number")
        sanitize.enable("warn")
        try:
            from repro.mac import simulator as simulator_mod

            cap = simulator_mod._AUDIT.max_events_per_timestamp
            assert cap == sanitize.DEFAULT_EVENT_STORM_CAP
        finally:
            sanitize.disable()
            sanitize.clear_violations()

    def test_forget_resets_per_sim_state(self, sanitizer):
        audit = sanitize.SimTimeAudit()
        sim = object()
        audit.on_event(sim, 2.0)
        audit.forget(sim)
        audit.on_event(sim, 1.0)  # earlier, but state was dropped
        assert sanitizer.violations() == []


class TestUnitAudit:
    """Degree/radian unit auditing on ``math``/``numpy`` trig and
    conversion functions."""

    def test_trig_arg_cap_fires(self, sanitizer):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sanitize.SanitizerWarning)
            math.sin(1.0e6)
        checks = [v.check for v in sanitizer.violations()]
        assert "unit-trig-arg" in checks

    def test_trig_on_degrees_fires(self, sanitizer):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sanitize.SanitizerWarning)
            azimuth_deg = math.degrees(1.0)
            math.cos(azimuth_deg)  # forgot to convert back to radians
        checks = [v.check for v in sanitizer.violations()]
        assert "unit-trig-degrees" in checks

    def test_double_conversion_fires_math_and_numpy(self, sanitizer):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sanitize.SanitizerWarning)
            math.radians(math.radians(30.0))
        checks = [v.check for v in sanitizer.violations()]
        assert checks.count("unit-double-conversion") == 1
        sanitizer.clear_violations()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sanitize.SanitizerWarning)
            np.deg2rad(float(np.deg2rad(45.0)))
        checks = [v.check for v in sanitizer.violations()]
        assert "unit-double-conversion" in checks

    def test_round_trip_is_silent(self, sanitizer):
        # degrees(radians(x)) is a legitimate normalisation round trip.
        back = math.degrees(math.radians(30.0))
        assert back == pytest.approx(30.0)
        assert sanitizer.violations() == []

    def test_arrays_are_not_tracked(self, sanitizer):
        arr = np.deg2rad(np.array([10.0, 20.0]))
        np.deg2rad(arr)  # would be double conversion for scalars
        np.cos(np.array([200.0, 300.0]))
        assert sanitizer.violations() == []

    def test_plausible_radian_usage_is_silent(self, sanitizer):
        theta = math.radians(42.0)
        math.sin(theta)
        math.cos(theta)
        assert sanitizer.violations() == []

    def test_disable_restores_math_and_numpy_bindings(self):
        sanitize.enable("warn")
        assert hasattr(math.sin, "__repro_sanitize_wraps__")
        assert hasattr(np.deg2rad, "__repro_sanitize_wraps__")
        sanitize.disable()
        sanitize.clear_violations()
        assert not hasattr(math.sin, "__repro_sanitize_wraps__")
        assert not hasattr(np.deg2rad, "__repro_sanitize_wraps__")

    def test_trig_cap_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE_TRIG_CAP", "10")
        sanitize.enable("warn")
        sanitize.clear_violations()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", sanitize.SanitizerWarning)
                math.sin(50.0)
            checks = [v.check for v in sanitize.violations()]
            assert "unit-trig-arg" in checks
        finally:
            sanitize.disable()
            sanitize.clear_violations()

    def test_trig_cap_env_fallback_on_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE_TRIG_CAP", "not-a-number")
        sanitize.enable("warn")
        try:
            audit = sanitize._STATE.unit_audit
            assert audit is not None
            assert audit.trig_arg_cap == sanitize.DEFAULT_TRIG_ARG_CAP
        finally:
            sanitize.disable()
            sanitize.clear_violations()

    def test_raise_mode_raises_on_degree_trig(self):
        sanitize.enable("raise")
        try:
            bearing_deg = math.degrees(0.5)
            with pytest.raises(sanitize.SanitizerError):
                math.sin(bearing_deg)
        finally:
            sanitize.disable()
            sanitize.clear_violations()
