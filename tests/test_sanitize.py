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

    def test_enable_wraps_nothing_outside_repro_and_numpy_random(self, sanitizer):
        for module in (math, np):
            for name in dir(module):
                obj = getattr(module, name)
                assert not hasattr(obj, "__repro_sanitize_wraps__"), (
                    f"{module.__name__}.{name} wrapped"
                )

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
