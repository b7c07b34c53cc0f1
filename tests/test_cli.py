"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["patterns"],
            ["sweep", "--duration", "0.05"],
            ["range", "--runs", "3"],
            ["interference", "--distances", "0", "2"],
            ["nlos"],
            ["blockage", "--no-failover"],
            ["recover", "--outage", "0.2"],
            ["spatial", "--links", "2"],
            ["table1"],
            ["campaign", "list"],
            ["campaign", "run", "beam-patterns", "--workers", "2"],
            ["campaign", "verify", "beam-patterns", "--workers", "2"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_every_experiment_command_accepts_seed(self):
        parser = build_parser()
        for argv in (
            ["patterns"],
            ["sweep"],
            ["range"],
            ["interference"],
            ["nlos"],
            ["blockage"],
            ["recover"],
            ["spatial"],
            ["table1"],
        ):
            args = parser.parse_args(argv + ["--seed", "123"])
            assert args.seed == 123

    def test_campaign_run_options_parse(self):
        args = build_parser().parse_args(
            [
                "campaign", "run", "beam-patterns",
                "--workers", "4",
                "--seed", "9",
                "--set", "positions=16",
                "--set", "setup=laptop",
                "--timeout", "30",
            ]
        )
        assert args.workers == 4
        assert args.seed == 9
        assert dict(args.set) == {"positions": 16, "setup": "laptop"}
        assert args.timeout == 30.0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_retired_sanitize_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sanitize", "--", "python", "-c", "pass"])
        assert exc.value.code == 2
        assert "sanitize" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "beam-patterns", "--no-cache"],
            ["run", "beam-patterns", "--cache-dir", "c"],
            ["verify", "beam-patterns", "--no-cache-check"],
            ["verify", "beam-patterns", "--no-audit"],
            ["verify", "beam-patterns", "--audit-cells", "2"],
            ["status", "beam-patterns"],
        ],
        ids=["no-cache", "cache-dir", "no-cache-check", "no-audit",
             "audit-cells", "status"],
    )
    def test_retired_campaign_options_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", *argv])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["top", "run"],
            ["top", "run", "--limit", "5"],
            ["export", "run"],
            ["export", "run", "--check"],
            ["export", "run", "-o", "trace.json"],
        ],
        ids=["top", "top-limit", "export", "export-check", "export-output"],
    )
    def test_retired_obs_commands_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["obs", *argv])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestCommands:
    """Each command runs end to end and prints its headline rows."""

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "1.100 ms" in out
        assert "102.400 ms" in out

    def test_blockage(self, capsys):
        assert main(["blockage"]) == 0
        out = capsys.readouterr().out
        assert "retrains" in out
        assert "outage" in out

    def test_blockage_no_failover_has_outage(self, capsys):
        assert main(["blockage", "--no-failover"]) == 0
        out = capsys.readouterr().out
        outage_line = [l for l in out.splitlines() if "outage" in l][0]
        assert "0 ms" not in outage_line.replace("340 ms", "X")

    def test_range(self, capsys):
        assert main(["range", "--runs", "4"]) == 0
        out = capsys.readouterr().out
        assert "cliffs span" in out

    def test_sweep_fast(self, capsys):
        assert main(["sweep", "--duration", "0.04"]) == 0
        out = capsys.readouterr().out
        assert "934 mbps" in out

    def test_nlos(self, capsys):
        assert main(["nlos"]) == 0
        out = capsys.readouterr().out
        assert "LOS blocked: True" in out

    def test_recover(self, capsys):
        assert main(["recover", "--outage", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "break detected" in out
        assert "traffic resumed" in out

    def test_spatial(self, capsys):
        assert main(["spatial", "--links", "2"]) == 0
        out = capsys.readouterr().out
        assert "schedule:" in out

    def test_seed_makes_runs_reproducible(self, capsys):
        assert main(["range", "--runs", "3", "--seed", "11"]) == 0
        first = capsys.readouterr().out
        assert main(["range", "--runs", "3", "--seed", "11"]) == 0
        assert capsys.readouterr().out == first


class TestSeededDeterminism:
    """Every experiment command, seeded, is byte-identical run to run.

    This is the contract that makes a campaign row reproducible from
    its ``results.jsonl`` entry, and the property the dbmath
    scalar-helper refactor had to preserve (RL003 cleanup).
    """

    @pytest.mark.parametrize(
        "argv",
        [
            ["patterns", "--rotated", "0"],
            ["sweep", "--duration", "0.02"],
            ["interference", "--distances", "0", "1", "--duration", "0.1"],
            ["nlos"],
            ["table1"],
            ["spatial", "--links", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_two_seeded_runs_byte_identical(self, argv, capsys):
        assert main(argv + ["--seed", "37"]) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--seed", "37"]) == 0
        assert capsys.readouterr().out == first
