"""``repro campaign verify``: worker-count determinism.

Cells live in :mod:`tests.campaign_cells` so worker processes resolve
them by dotted path exactly like production cells.
"""

import json

import pytest

from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.campaign.verify import (
    VOLATILE_ROW_KEYS,
    canonical_rows,
    rows_digest,
    verify_campaign,
)
from repro.cli import main
from tests import campaign_cells

DOUBLE = "tests.campaign_cells:double_cell"
CLOCK = "tests.campaign_cells:clock_reading_cell"
BROKEN = "tests.campaign_cells:always_fails"
MEMO = "tests.campaign_cells:memo_cell"


def double_campaign(values=(1, 2, 3, 4), seeds=(0, 1)):
    return CampaignSpec(
        name="doubles",
        experiment=DOUBLE,
        base_params={"scale": 3},
        grid={"value": tuple(values)},
        seeds=seeds,
    )


class TestCanonicalRows:
    def test_volatile_keys_dropped(self):
        report_spec = double_campaign(values=(1,), seeds=(0,))
        report = verify_campaign(report_spec, workers=2)
        assert report.determinism_ok
        # A row's status is deterministic (completed or failed), so it
        # is compared; only the wall-clock timing is dropped.
        assert set(VOLATILE_ROW_KEYS) == {"elapsed_s"}
        text = canonical_rows(run_campaign(report_spec))
        assert '"status":"completed"' in text
        assert "elapsed_s" not in text

    def test_rows_digest_stable(self):
        assert rows_digest("x") == rows_digest("x")
        assert rows_digest("x") != rows_digest("y")


class TestVerifyCampaign:
    @pytest.mark.parametrize("worker_per_cell", [True, False])
    def test_each_cell_runs_once_per_leg(self, tmp_path, worker_per_cell):
        campaign = CampaignSpec(
            name="markers",
            experiment="tests.campaign_cells:marker_cell",
            base_params={"marker_dir": str(tmp_path)},
            grid={"value": (1, 2, 3)},
            seeds=(0, 1),
        )
        cells = [f"{value} {seed}" for value in (1, 2, 3) for seed in (0, 1)]
        # A pool as wide as the grid, or one that queues cells per worker.
        workers = len(cells) if worker_per_cell else 2
        report = verify_campaign(campaign, workers=workers)
        assert report.ok
        runs = (tmp_path / "runs").read_text().splitlines()
        # The serial and the parallel leg each run every cell once.
        assert sorted(runs) == sorted(cells * 2)

    def test_deterministic_campaign_passes(self):
        report = verify_campaign(double_campaign(), workers=4, shuffle_seed=3)
        assert report.determinism_ok
        assert report.ok
        assert report.serial_digest == report.parallel_digest

    def test_clock_cell_fails_determinism(self):
        spec = CampaignSpec(
            name="clock-cells",
            experiment=CLOCK,
            base_params={},
            grid={},
            seeds=(0,),
        )
        report = verify_campaign(spec, workers=2)
        # The wall-clock stamp differs between the two runs.
        assert not report.determinism_ok
        assert report.first_divergence
        assert not report.ok

    def test_module_memo_cell_fails_determinism(self):
        """A memo not keyed on the seed lets the first cell a process runs
        fix the others' results.  The parallel leg runs first, so its
        workers fork from a process that has run no cell; with
        shuffle_seed=2 the first cell submitted is seed 3, while the
        serial leg starts from seed 0."""
        spec = CampaignSpec(
            name="memo-cells", experiment=MEMO, grid={}, seeds=(0, 1, 2, 3)
        )
        campaign_cells._MEMO.clear()
        try:
            report = verify_campaign(spec, workers=2, shuffle_seed=2)
        finally:
            campaign_cells._MEMO.clear()
        assert not report.determinism_ok
        assert "parallel=" in report.first_divergence
        # The cell records no metrics: only the result rows show it.
        assert report.metrics_ok
        assert not report.ok

    def test_failing_cells_compare_deterministically(self):
        spec = CampaignSpec(
            name="broken",
            experiment=BROKEN,
            base_params={},
            grid={},
            seeds=(0, 1),
        )
        report = verify_campaign(spec, workers=2)
        # Failures are recorded identically in both legs, but a campaign
        # whose cells fail does not verify.
        assert report.determinism_ok
        assert not report.ok
        assert report.failed == 2
        assert "always fails" in report.first_failure

    def test_report_dict_shape(self):
        report = verify_campaign(
            double_campaign(values=(1,), seeds=(0,)), workers=2
        )
        doc = report.to_dict()
        for key in (
            "campaign",
            "scenarios",
            "workers",
            "shuffle_seed",
            "serial_digest",
            "parallel_digest",
            "determinism_ok",
            "metrics_ok",
            "profile_ok",
            "failed",
            "ok",
        ):
            assert key in doc
        assert not any(key.startswith(("cache_", "audit")) for key in doc)
        assert doc["ok"] is True
        assert json.dumps(doc)  # JSON-serializable


class TestVerifyCli:
    def test_cli_pass_and_output(self, capsys):
        rc = main(
            [
                "campaign",
                "verify",
                "beam-patterns",
                "--set",
                "positions=8",
                "--workers",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "[MATCH]" in out
        assert "verify: PASS" in out

    def test_cli_json_output(self, capsys):
        rc = main(
            [
                "campaign",
                "verify",
                "beam-patterns",
                "--set",
                "positions=8",
                "--workers",
                "2",
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["determinism_ok"] is True
        assert doc["failed"] == 0

    def test_cli_fails_when_cells_fail(self, capsys):
        """Identical failure rows must not read as a PASS."""
        rc = main(
            [
                "campaign",
                "verify",
                "beam-patterns",
                "--set",
                "positions=8",
                "--set",
                "setup=no-such-setup",
                "--workers",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "failed cells: 3" in out
        assert "no-such-setup" in out
        assert "verify: FAIL" in out
