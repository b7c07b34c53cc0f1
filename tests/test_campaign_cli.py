"""End-to-end tests for ``python -m repro campaign`` — including the
acceptance scenario: the beam-pattern semicircle sweep runs across 2
workers, a second invocation is served >= 90% from cache, and the
manifest reports counts, cache hits, failures, and wall-clock.
"""

import json
import pathlib
import shlex

import pytest

from repro.campaign.telemetry import read_manifest
from repro.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

#: ``--set`` overrides that shrink each README campaign to seconds.
README_SHRINK = {
    "beam-patterns": ["--set", "positions=8"],
    "range-vs-distance": [],
}


@pytest.fixture()
def cache_dir(tmp_path):
    return tmp_path / "cache"


def run_beam_campaign(cache_dir, out_dir, workers=2):
    return main(
        [
            "campaign",
            "run",
            "beam-patterns",
            "--workers",
            str(workers),
            "--set",
            "positions=16",
            "--cache-dir",
            str(cache_dir),
            "--output",
            str(out_dir),
        ]
    )


class TestCampaignCli:
    def test_list(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        assert "beam-patterns" in out
        assert "range-vs-distance" in out

    @pytest.mark.parametrize("command", ["run", "verify", "status"])
    @pytest.mark.parametrize(
        "extra, needle",
        [
            (["no-such-campaign"], "available: beam-patterns, interference"),
            (["beam-patterns", "--set", "position=8"], "'position'"),
            (["range-vs-distance", "--set", "runs=10"], "accepted: distance_m"),
            (["beam-patterns", "--set", "seed=3"], "use --seed"),
        ],
        ids=["unknown-campaign", "unknown-key", "runs-key", "seed-key"],
    )
    def test_bad_input_exits_two_before_any_cell(
        self, command, extra, needle, tmp_path, capsys
    ):
        out_dir = tmp_path / "never-written"
        args = ["campaign", command, *extra, "--cache-dir", str(tmp_path / "c")]
        if command == "run":
            args += ["--output", str(out_dir)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert needle in captured.err
        assert not out_dir.exists()
        assert not (tmp_path / "c").exists()

    def test_readme_campaign_commands_run(self, tmp_path, capsys):
        text = README.read_text(encoding="utf-8")
        section = text[text.index("## Running campaigns"):]
        block = section[section.index("```bash"):].split("```")[1]
        commands = [
            shlex.split(line.split("#")[0])[3:]
            for line in block.splitlines()
            if line.startswith("python -m repro campaign")
        ]
        assert [c[1] for c in commands] == ["list", "run", "status", "run", "verify"]
        for i, argv in enumerate(commands):
            if len(argv) > 2:
                argv += README_SHRINK[argv[2]]
                argv += ["--cache-dir", str(tmp_path / "cache")]
            if argv[1] == "run":
                argv += ["--output", str(tmp_path / f"run{i}")]
            assert main(argv) == 0, argv
        capsys.readouterr()

    def test_beam_patterns_two_workers_then_cached(
        self, cache_dir, tmp_path, capsys
    ):
        """The acceptance criteria of the campaign subsystem."""
        first_out = tmp_path / "run1"
        assert run_beam_campaign(cache_dir, first_out, workers=2) == 0
        manifest = read_manifest(first_out / "manifest.json")
        assert manifest["workers"] == 2
        assert manifest["scenarios"]["total"] == 9
        assert manifest["scenarios"]["completed"] == 9
        assert manifest["scenarios"]["cached"] == 0
        assert manifest["scenarios"]["failed"] == 0
        assert manifest["failures"] == []
        assert manifest["timing"]["wall_clock_s"] > 0

        # Second invocation: served >= 90% from cache.
        second_out = tmp_path / "run2"
        assert run_beam_campaign(cache_dir, second_out, workers=2) == 0
        manifest2 = read_manifest(second_out / "manifest.json")
        assert manifest2["scenarios"]["cached"] >= 0.9 * manifest2["scenarios"]["total"]
        assert manifest2["cache_hit_ratio"] >= 0.9

        # Bit-for-bit: cached results equal the computed ones.
        rows1 = [
            json.loads(line)
            for line in (first_out / "results.jsonl").read_text().splitlines()
        ]
        rows2 = [
            json.loads(line)
            for line in (second_out / "results.jsonl").read_text().splitlines()
        ]
        assert [r["result"] for r in rows1] == [r["result"] for r in rows2]

        out = capsys.readouterr().out
        assert "cached" in out
        assert "manifest" in out

    def test_status_reports_cache_coverage(self, cache_dir, tmp_path, capsys):
        args = ["--set", "positions=16", "--cache-dir", str(cache_dir)]
        assert main(["campaign", "status", "beam-patterns", *args]) == 0
        assert "0/9 cells cached" in capsys.readouterr().out
        run_beam_campaign(cache_dir, tmp_path / "run", workers=1)
        capsys.readouterr()
        assert main(["campaign", "status", "beam-patterns", *args]) == 0
        assert "9/9 cells cached" in capsys.readouterr().out

    def test_seed_option_rebases_seeds(self, cache_dir, tmp_path, capsys):
        rc = main(
            [
                "campaign",
                "run",
                "beam-patterns",
                "--seed",
                "100",
                "--set",
                "positions=16",
                "--set",
                "setup=laptop",
                "--workers",
                "1",
                "--cache-dir",
                str(cache_dir),
                "--output",
                str(tmp_path / "seeded"),
            ]
        )
        assert rc == 0
        rows = [
            json.loads(line)
            for line in (tmp_path / "seeded" / "results.jsonl").read_text().splitlines()
        ]
        assert sorted({r["seed"] for r in rows}) == [100, 101, 102]
        assert {r["params"]["setup"] for r in rows} == {"laptop"}


class TestObsCli:
    @pytest.fixture()
    def traced_run(self, cache_dir, tmp_path):
        out = tmp_path / "traced"
        rc = main(
            [
                "campaign",
                "run",
                "beam-patterns",
                "--workers",
                "2",
                "--set",
                "positions=8",
                "--no-cache",
                "--trace",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        return out

    def test_trace_flag_produces_manifest_and_trace(self, capsys, traced_run):
        manifest = read_manifest(traced_run / "manifest.json")
        assert manifest["schema_version"] == 4
        assert manifest["spans_file"] == "trace.json"
        assert (traced_run / "trace.json").is_file()
        counters = manifest["metrics"]["counters"]
        # Runner-level counters are always present on a traced run even
        # if the campaign's cells hit no instrumented hot paths.
        assert counters["campaign.cells.total"] == manifest["scenarios"]["total"]
        assert counters["campaign.cells.completed"] == counters["campaign.cells.total"]
        out = capsys.readouterr().out
        assert "tracing on" in out
        assert "trace" in out

    def test_obs_report(self, traced_run, capsys):
        assert main(["obs", "report", str(traced_run)]) == 0
        out = capsys.readouterr().out
        assert "campaign beam-patterns" in out
        assert "metrics:" in out
        assert "spans:" in out

    def test_obs_report_json_byte_deterministic(self, traced_run, capsys):
        assert main(["obs", "report", str(traced_run), "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["obs", "report", str(traced_run), "--json"]) == 0
        assert capsys.readouterr().out == first
        doc = json.loads(first)
        assert doc["campaign"] == "beam-patterns"
        assert doc["metrics"]["counters"]["campaign.cells.total"] == 9
        assert doc["dropped_spans"] == 0

    def test_obs_export_check(self, traced_run, capsys):
        assert main(["obs", "export", str(traced_run), "--check"]) == 0
        assert "valid trace-event JSON" in capsys.readouterr().out

    def test_obs_export_copies_to_output(self, traced_run, tmp_path, capsys):
        dest = tmp_path / "out" / "perfetto.json"
        assert main(["obs", "export", str(traced_run), "-o", str(dest)]) == 0
        assert dest.is_file()
        assert json.loads(dest.read_text())["traceEvents"]
        assert "perfetto" in capsys.readouterr().out

    def test_missing_run_dir_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert main(["obs", "report", str(missing)]) == 2
        assert main(["obs", "export", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "no manifest.json" in err

    def test_export_without_trace_exits_2(self, cache_dir, tmp_path, capsys):
        out = tmp_path / "untraced"
        assert run_beam_campaign(cache_dir, out, workers=1) == 0
        assert main(["obs", "export", str(out)]) == 2
        assert "--trace" in capsys.readouterr().err

    def test_report_works_without_trace(self, cache_dir, tmp_path, capsys):
        out = tmp_path / "untraced"
        assert run_beam_campaign(cache_dir, out, workers=1) == 0
        assert main(["obs", "report", str(out)]) == 0
        report = capsys.readouterr().out
        assert "no metrics recorded" in report
        assert "no trace.json" in report
