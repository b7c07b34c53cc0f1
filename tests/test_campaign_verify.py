"""``repro campaign verify``: worker-count determinism + cache-purity audit.

Cells live in :mod:`tests.campaign_cells` so worker processes resolve
them by dotted path exactly like production cells.
"""

import json

import pytest

from repro.campaign.spec import CampaignSpec
from repro.campaign.verify import (
    VOLATILE_ROW_KEYS,
    PurityAudit,
    canonical_rows,
    rows_digest,
    verify_campaign,
)
from repro.cli import main

DOUBLE = "tests.campaign_cells:double_cell"
ENV = "tests.campaign_cells:env_reading_cell"
CLOCK = "tests.campaign_cells:clock_reading_cell"
FILEREAD = "tests.campaign_cells:file_reading_cell"
BROKEN = "tests.campaign_cells:always_fails"


def double_campaign(values=(1, 2, 3, 4), seeds=(0, 1)):
    return CampaignSpec(
        name="doubles",
        experiment=DOUBLE,
        base_params={"scale": 3},
        grid={"value": tuple(values)},
        seeds=seeds,
    )


class TestPurityAudit:
    def test_pure_cell_records_nothing(self):
        from tests.campaign_cells import double_cell

        with PurityAudit() as audit:
            double_cell(value=2, seed=1)
        assert audit.records == []

    def test_env_read_recorded(self, monkeypatch):
        from tests.campaign_cells import env_reading_cell

        monkeypatch.setenv("REPRO_TEST_SCALE", "7")
        with PurityAudit() as audit:
            env_reading_cell(seed=3)
        assert [(r.kind, r.detail) for r in audit.records] == [
            ("env", "REPRO_TEST_SCALE")
        ]

    def test_clock_read_recorded(self):
        from tests.campaign_cells import clock_reading_cell

        with PurityAudit() as audit:
            clock_reading_cell(seed=3)
        assert ("clock", "time.time") in [
            (r.kind, r.detail) for r in audit.records
        ]

    def test_file_read_recorded(self, tmp_path):
        from tests.campaign_cells import file_reading_cell

        calib = tmp_path / "calib.txt"
        calib.write_text("1.5\n")
        with PurityAudit() as audit:
            result = file_reading_cell(calib_path=str(calib), seed=2)
        assert result["value"] == 3.5
        assert ("file", str(calib)) in [(r.kind, r.detail) for r in audit.records]

    def test_allowed_env_not_recorded(self, monkeypatch):
        from tests.campaign_cells import env_reading_cell

        monkeypatch.setenv("REPRO_TEST_SCALE", "7")
        with PurityAudit(allowed_env=("REPRO_TEST_SCALE",)) as audit:
            env_reading_cell(seed=3)
        assert audit.records == []

    def test_patches_restored_on_exit(self):
        import builtins
        import os
        import time

        before = (builtins.open, os.environ, time.time)
        with PurityAudit():
            pass
        assert (builtins.open, os.environ, time.time) == before

    def test_patches_restored_on_exception(self):
        import builtins

        before = builtins.open
        with pytest.raises(RuntimeError):
            with PurityAudit():
                raise RuntimeError("boom")
        assert builtins.open is before

    def test_digest_is_order_independent(self):
        a = PurityAudit()
        a.note("env", "B")
        a.note("file", "A")
        b = PurityAudit()
        b.note("file", "A")
        b.note("env", "B")
        assert a.digest() == b.digest()


class TestCanonicalRows:
    def test_volatile_keys_dropped(self):
        report_spec = double_campaign(values=(1,), seeds=(0,))
        report = verify_campaign(
            report_spec, workers=2, audit=False, cache_check=False
        )
        assert report.determinism_ok
        serial_rows = canonical_rows  # sanity: importable + callable
        assert callable(serial_rows)
        assert set(VOLATILE_ROW_KEYS) == {"elapsed_s", "status"}

    def test_rows_digest_stable(self):
        assert rows_digest("x") == rows_digest("x")
        assert rows_digest("x") != rows_digest("y")


class TestVerifyCampaign:
    @pytest.mark.parametrize("audit", [True, False])
    def test_each_cell_runs_once_per_leg(self, tmp_path, audit):
        campaign = CampaignSpec(
            name="markers",
            experiment="tests.campaign_cells:marker_cell",
            base_params={"marker_dir": str(tmp_path)},
            grid={"value": (1, 2, 3)},
            seeds=(0, 1),
        )
        report = verify_campaign(campaign, workers=2, audit=audit)
        assert report.ok and report.cache_checked and report.cache_all_hits
        runs = (tmp_path / "runs").read_text().splitlines()
        # Audit, serial and parallel legs each run every cell once; the
        # cached replay runs none.
        legs = 3 if audit else 2
        cells = [f"{value} {seed}" for value in (1, 2, 3) for seed in (0, 1)]
        assert sorted(runs) == sorted(cells * legs)

    def test_deterministic_campaign_passes(self):
        report = verify_campaign(double_campaign(), workers=4, shuffle_seed=3)
        assert report.determinism_ok
        assert report.purity_ok
        assert report.cache_ok
        assert report.ok
        assert report.serial_digest == report.parallel_digest == report.cache_digest
        assert report.cache_all_hits
        assert report.audited == min(16, report.scenarios)
        assert report.impure == 0

    def test_impure_cell_fails_purity(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_SCALE", "2")
        spec = CampaignSpec(
            name="env-cells",
            experiment=ENV,
            base_params={},
            grid={},
            seeds=(0, 1),
        )
        report = verify_campaign(spec, workers=2, cache_check=False)
        assert not report.purity_ok
        assert report.impure == 2
        reads = report.audits[0].reads
        assert {"kind": "env", "detail": "REPRO_TEST_SCALE"} in reads
        assert not report.ok

    def test_clock_cell_fails_determinism_and_purity(self):
        spec = CampaignSpec(
            name="clock-cells",
            experiment=CLOCK,
            base_params={},
            grid={},
            seeds=(0,),
        )
        report = verify_campaign(spec, workers=2, cache_check=False)
        # The wall-clock stamp differs between the two runs *and* the
        # audit records the clock read.
        assert not report.determinism_ok
        assert report.first_divergence
        assert not report.purity_ok
        assert not report.ok

    def test_failing_cells_compare_deterministically(self):
        spec = CampaignSpec(
            name="broken",
            experiment=BROKEN,
            base_params={},
            grid={},
            seeds=(0, 1),
        )
        report = verify_campaign(
            spec, workers=2, audit=False, cache_check=False
        )
        # Failures are recorded identically in both legs, but a campaign
        # whose cells fail does not verify.
        assert report.determinism_ok
        assert not report.ok
        assert report.failed == 2
        assert "always fails" in report.first_failure

    def test_audit_limit_respected(self):
        report = verify_campaign(
            double_campaign(), workers=2, audit_limit=3, cache_check=False
        )
        assert report.audited == 3

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
            "audited",
            "impure",
            "purity_ok",
            "cache_checked",
            "cache_all_hits",
            "cache_digest",
            "cache_ok",
            "failed",
            "ok",
        ):
            assert key in doc
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
                "--audit-cells",
                "2",
                "--no-cache-check",
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
                "--no-audit",
                "--no-cache-check",
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["determinism_ok"] is True
        assert doc["audited"] == 0
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
                "--no-audit",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "failed cells: 3" in out
        assert "no-such-setup" in out
        assert "verify: FAIL" in out
