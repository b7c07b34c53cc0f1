"""Tests for the campaign engine: ordering, caching, timeouts, failures.

The cells live in :mod:`tests.campaign_cells` so worker processes can
resolve them by dotted path like production cells.
"""

import pytest

from repro.campaign.cache import ResultCache
from repro.campaign.runner import CampaignRunner, run_campaign
from repro.campaign.spec import CampaignSpec
from repro.campaign.telemetry import read_manifest
from repro.campaign.verify import canonical_rows

DOUBLE = "tests.campaign_cells:double_cell"
COUNTED = "tests.campaign_cells:counted_failure"
KILLER = "tests.campaign_cells:pool_killer"
SCALAR = "tests.campaign_cells:scalar_cell"
BROKEN = "tests.campaign_cells:always_fails"
SLOW = "tests.campaign_cells:slow_cell"
DES = "tests.campaign_cells:des_cell"


def double_campaign(values=(1, 2, 3, 4), seeds=(0, 1)):
    return CampaignSpec(
        name="doubles",
        experiment=DOUBLE,
        base_params={"scale": 3},
        grid={"value": tuple(values)},
        seeds=seeds,
    )


class TestSerialEngine:
    def test_runs_every_cell(self):
        result = run_campaign(double_campaign())
        assert len(result.outcomes) == 8
        assert all(o.status == "completed" for o in result.outcomes)
        for outcome in result.outcomes:
            assert outcome.result["value"] == outcome.spec.param_dict()["value"] * 3

    def test_outcomes_follow_expansion_order(self):
        spec = double_campaign()
        result = run_campaign(spec)
        assert [o.spec for o in result.outcomes] == spec.expand()

    def test_telemetry_counts(self):
        result = run_campaign(double_campaign())
        t = result.telemetry
        assert t.scenarios_total == 8
        assert t.completed == 8
        assert t.cached == 0
        assert t.failed == 0
        assert t.wall_clock_s > 0
        assert t.worker_time_s > 0


class TestParallelEngine:
    def test_matches_serial_bit_for_bit(self):
        """The acceptance-critical property: worker count is invisible."""
        spec = double_campaign(values=tuple(range(10)))
        serial = run_campaign(spec, workers=1)
        parallel = run_campaign(spec, workers=2)
        assert serial.results() == parallel.results()
        assert [o.digest for o in serial.outcomes] == [
            o.digest for o in parallel.outcomes
        ]

    def test_shuffled_submission_keeps_expansion_order(self):
        spec = double_campaign(values=tuple(range(6)))
        shuffled = CampaignRunner(spec, workers=2, shuffle_seed=5).run()
        assert [o.spec for o in shuffled.outcomes] == spec.expand()
        assert canonical_rows(shuffled) == canonical_rows(run_campaign(spec))

    def test_broken_pool_falls_back_to_serial(self):
        """A worker that dies breaks the pool; the rest run in-process."""
        spec = CampaignSpec(
            name="killer", experiment=KILLER, grid={"value": (1, 2, 3)}, seeds=(0, 1)
        )
        parallel = run_campaign(spec, workers=2)
        assert all(o.status == "completed" for o in parallel.outcomes)
        assert canonical_rows(parallel) == canonical_rows(run_campaign(spec))


class TestCaching:
    def test_second_run_fully_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = double_campaign()
        first = run_campaign(spec, cache=cache, workers=2)
        assert first.telemetry.completed == 8
        second = run_campaign(spec, cache=cache, workers=2)
        assert second.telemetry.cached == 8
        assert second.telemetry.completed == 0
        assert second.results() == first.results()

    def test_only_changed_cells_recompute(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_campaign(double_campaign(values=(1, 2, 3)), cache=cache)
        grown = run_campaign(double_campaign(values=(1, 2, 3, 4)), cache=cache)
        assert grown.telemetry.cached == 6  # 3 values x 2 seeds
        assert grown.telemetry.completed == 2  # the new value x 2 seeds

    def test_failed_cells_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = CampaignSpec(name="broken", experiment=BROKEN, seeds=(0,))
        run_campaign(spec, cache=cache)
        assert cache.entry_count() == 0


class TestFailureHandling:
    def test_failures_recorded_not_fatal(self):
        spec = CampaignSpec(name="broken", experiment=BROKEN, seeds=(0, 1))
        result = run_campaign(spec)
        assert len(result.failures()) == 2
        t = result.telemetry
        assert t.failed == 2
        assert len(t.failures) == 2
        assert "always fails" in t.failures[0]["error"]

    def test_mixed_campaign_completes_good_cells(self, tmp_path):
        good = run_campaign(double_campaign(values=(1,), seeds=(0,)))
        assert good.telemetry.completed == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_cell_runs_exactly_once(self, tmp_path, workers):
        spec = CampaignSpec(
            name="counted",
            experiment=COUNTED,
            base_params={"marker_dir": str(tmp_path)},
            seeds=(0,),
        )
        result = run_campaign(spec, workers=workers)
        assert result.outcomes[0].status == "failed"
        assert "fails every time" in result.outcomes[0].error
        assert (tmp_path / "runs").read_text() == "0\n"

    def test_non_dict_result_is_a_failure(self):
        spec = CampaignSpec(
            name="bad-return", experiment=SCALAR, seeds=(0,)
        )
        result = run_campaign(spec)
        assert result.outcomes[0].status == "failed"
        assert "returned int, expected dict" in result.outcomes[0].error
        assert result.telemetry.failed == 1


class TestTimeouts:
    def test_slow_cell_times_out_serially(self):
        spec = CampaignSpec(
            name="slow",
            experiment=SLOW,
            base_params={"sleep_s": 5.0},
            seeds=(0,),
        )
        result = run_campaign(spec, timeout_s=0.3)
        outcome = result.outcomes[0]
        assert outcome.status == "failed"
        assert "ScenarioTimeout" in outcome.error
        t = result.telemetry
        assert t.timeouts == 1
        assert t.wall_clock_s < 4.0  # enforced well before the sleep ends

    def test_slow_cell_times_out_in_workers(self):
        spec = CampaignSpec(
            name="slow",
            experiment=SLOW,
            base_params={"sleep_s": 5.0},
            seeds=(0, 1),
        )
        result = run_campaign(spec, workers=2, timeout_s=0.3)
        assert result.telemetry.timeouts == 2
        assert result.telemetry.wall_clock_s < 4.0

    def test_timeouts_are_not_retried(self, tmp_path):
        spec = CampaignSpec(
            name="slow-counted",
            experiment=COUNTED,
            base_params={"marker_dir": str(tmp_path), "sleep_s": 5.0},
            seeds=(0,),
        )
        result = run_campaign(spec, timeout_s=0.3)
        assert "ScenarioTimeout" in result.outcomes[0].error
        assert result.telemetry.timeouts == 1
        assert (tmp_path / "runs").read_text() == "0\n"


class TestTelemetry:
    def test_des_events_aggregate(self):
        spec = CampaignSpec(
            name="des",
            experiment=DES,
            base_params={"ticks": 40},
            seeds=(0, 1),
        )
        result = run_campaign(spec)
        t = result.telemetry
        assert t.events_simulated == 80
        assert t.events_per_second() > 0

    def test_manifest_roundtrip(self, tmp_path):
        result = run_campaign(double_campaign())
        path = result.telemetry.write_manifest(tmp_path / "manifest.json")
        manifest = read_manifest(path)
        assert manifest["scenarios"]["total"] == 8
        assert manifest["scenarios"]["completed"] == 8
        assert manifest["campaign"] == "doubles"
        assert manifest["campaign_digest"] == result.campaign.digest()
        assert manifest["timing"]["wall_clock_s"] > 0

    def test_manifest_rejects_unknown_schema(self, tmp_path):
        import json

        path = tmp_path / "m.json"
        for version in (3, 999):
            path.write_text(json.dumps({"schema_version": version}))
            with pytest.raises(ValueError, match="unsupported manifest schema"):
                read_manifest(path)


class TestRunnerValidation:
    def test_unknown_cell_fails_gracefully(self):
        spec = CampaignSpec(name="nope", experiment="no_such_cell", seeds=(0,))
        result = run_campaign(spec)
        assert result.outcomes[0].status == "failed"
        assert "no_such_cell" in result.outcomes[0].error
