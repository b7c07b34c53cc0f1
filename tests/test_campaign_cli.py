"""End-to-end tests for ``python -m repro campaign`` — including the
acceptance scenario: the beam-pattern semicircle sweep runs across 2
workers, a serial re-run computes the same rows, and the manifest
reports counts, failures, and wall-clock.
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


def run_beam_campaign(out_dir, workers=2):
    return main(
        [
            "campaign",
            "run",
            "beam-patterns",
            "--workers",
            str(workers),
            "--set",
            "positions=16",
            "--output",
            str(out_dir),
        ]
    )


def result_rows(out_dir):
    return [
        json.loads(line)
        for line in (out_dir / "results.jsonl").read_text().splitlines()
    ]


class TestCampaignCli:
    def test_list(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        assert "beam-patterns" in out
        assert "range-vs-distance" in out

    @pytest.mark.parametrize("command", ["run", "verify"])
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
        args = ["campaign", command, *extra]
        if command == "run":
            args += ["--output", str(out_dir)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert needle in captured.err
        assert not out_dir.exists()

    def test_readme_campaign_commands_run(self, tmp_path, capsys):
        text = README.read_text(encoding="utf-8")
        section = text[text.index("## Running campaigns"):]
        block = section[section.index("```bash"):].split("```")[1]
        commands = [
            shlex.split(line.split("#")[0])[3:]
            for line in block.splitlines()
            if line.startswith("python -m repro campaign")
        ]
        assert [c[1] for c in commands] == ["list", "run", "run", "verify"]
        for i, argv in enumerate(commands):
            if len(argv) > 2:
                argv += README_SHRINK[argv[2]]
            if argv[1] == "run":
                argv += ["--output", str(tmp_path / f"run{i}")]
            assert main(argv) == 0, argv
        capsys.readouterr()

    def test_beam_patterns_two_workers_then_serial(self, tmp_path, capsys):
        """The acceptance criteria of the campaign subsystem."""
        first_out = tmp_path / "run1"
        assert run_beam_campaign(first_out, workers=2) == 0
        manifest = read_manifest(first_out / "manifest.json")
        assert manifest["workers"] == 2
        assert manifest["scenarios"]["total"] == 9
        assert manifest["scenarios"]["completed"] == 9
        assert manifest["scenarios"]["failed"] == 0
        assert manifest["failures"] == []
        assert manifest["timing"]["wall_clock_s"] > 0

        # A second invocation computes every cell again, to the same rows.
        second_out = tmp_path / "run2"
        assert run_beam_campaign(second_out, workers=1) == 0
        manifest2 = read_manifest(second_out / "manifest.json")
        assert manifest2["scenarios"]["completed"] == 9
        rows1, rows2 = result_rows(first_out), result_rows(second_out)
        assert {r["status"] for r in rows1 + rows2} == {"completed"}
        assert [r["result"] for r in rows1] == [r["result"] for r in rows2]

        out = capsys.readouterr().out
        assert "9 computed" in out
        assert "manifest" in out

    def test_run_writes_nothing_outside_output(self, tmp_path, monkeypatch, capsys):
        """No result store survives a run except the ``--output`` directory."""
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        assert run_beam_campaign(tmp_path / "out", workers=1) == 0
        capsys.readouterr()
        assert not (tmp_path / ".cache").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    def test_seed_option_rebases_seeds(self, tmp_path, capsys):
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
                "--output",
                str(tmp_path / "seeded"),
            ]
        )
        assert rc == 0
        rows = result_rows(tmp_path / "seeded")
        assert sorted({r["seed"] for r in rows}) == [100, 101, 102]
        assert {r["params"]["setup"] for r in rows} == {"laptop"}


class TestObsCli:
    @pytest.fixture()
    def traced_run(self, tmp_path):
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
                "--trace",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        return out

    def test_trace_flag_produces_manifest_and_trace(self, capsys, traced_run):
        manifest = read_manifest(traced_run / "manifest.json")
        assert manifest["schema_version"] == 5
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
        assert "spans (self vs child time):" in out
        assert "campaign.cell" in out
        assert "trace: trace.json valid" in out

    def test_report_checks_trace_events(self, traced_run, capsys):
        assert main(["obs", "report", str(traced_run)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        events = json.loads((traced_run / "trace.json").read_text())["traceEvents"]
        assert events
        assert f"trace: trace.json valid ({len(events):,} events)" in captured.out

    def test_obs_report_json_byte_deterministic(self, traced_run, capsys):
        assert main(["obs", "report", str(traced_run), "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["obs", "report", str(traced_run), "--json"]) == 0
        assert capsys.readouterr().out == first
        doc = json.loads(first)
        assert doc["campaign"] == "beam-patterns"
        assert doc["metrics"]["counters"]["campaign.cells.total"] == 9
        assert doc["trace"]["problems"] == []
        assert doc["trace"]["dropped_spans"] == 0

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: doc["traceEvents"][-1].update(dur=-1.0),
            lambda doc: doc["traceEvents"].append({"name": "x", "ph": "Q"}),
        ],
        ids=["negative-dur", "unknown-phase"],
    )
    def test_report_rejects_corrupt_trace(self, traced_run, capsys, corrupt):
        path = traced_run / "trace.json"
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        assert main(["obs", "report", str(traced_run)]) == 1
        captured = capsys.readouterr()
        assert "trace: trace.json INVALID (1 problem(s))" in captured.out
        (line,) = captured.err.splitlines()
        assert line.startswith("invalid: traceEvents[")

    def test_report_rejects_trace_that_is_not_json(self, traced_run, capsys):
        (traced_run / "trace.json").write_text('{"traceEvents": [')
        assert main(["obs", "report", str(traced_run), "--json"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["trace"]["problems"]
        assert captured.err.startswith("invalid: trace.json is not JSON")

    def test_missing_run_dir_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert main(["obs", "report", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "no manifest.json" in err

    @pytest.mark.parametrize(
        "command",
        [["report"], ["diff", None]],
        ids=["report", "diff"],
    )
    def test_unsupported_manifest_exits_2(self, tmp_path, capsys, command):
        old = tmp_path / "v4-run"
        old.mkdir()
        (old / "manifest.json").write_text('{"schema_version": 4}')
        argv = ["obs", *(str(old) if arg is None else arg for arg in command), str(old)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {old}: ")
        assert "unsupported manifest schema version 4" in lines[0]

    def test_report_works_without_trace(self, tmp_path, capsys):
        out = tmp_path / "untraced"
        assert run_beam_campaign(out, workers=1) == 0
        assert main(["obs", "report", str(out)]) == 0
        report = capsys.readouterr().out
        # Every campaign run records metrics, traced or not.
        assert "campaign.cells.total" in report
        assert "trace: no trace.json in run directory" in report
