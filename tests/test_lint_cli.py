"""CLI behavior of ``python -m repro lint``: exit codes, JSON, baseline."""

import json
import pathlib

import pytest

from repro.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

CLEAN_SOURCE = """\
import numpy as np


def draw(seed):
    rng = np.random.default_rng(seed)
    return rng.normal()
"""

DIRTY_SOURCE = """\
import random


def draw():
    return random.random()
"""


@pytest.fixture
def project(tmp_path):
    """A minimal project tree with a pyproject marking the root."""
    (tmp_path / "pyproject.toml").write_text(
        "[tool.repro-lint]\nbaseline = \"lint-baseline.json\"\n"
    )
    pkg = tmp_path / "src" / "repro" / "phy"
    pkg.mkdir(parents=True)
    return tmp_path


def write_module(project, name, source):
    path = project / "src" / "repro" / "phy" / name
    path.write_text(source)
    return path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, project, capsys):
        write_module(project, "clean.py", CLEAN_SOURCE)
        rc = main(["lint", "--root", str(project), str(project / "src")])
        assert rc == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, project, capsys):
        write_module(project, "dirty.py", DIRTY_SOURCE)
        rc = main(["lint", "--root", str(project), str(project / "src")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "RL001" in out
        assert "dirty.py" in out

    def test_missing_path_exits_two(self, project, capsys):
        rc = main(["lint", "--root", str(project), str(project / "nope")])
        assert rc == 2

    def test_default_path_is_src(self, project, capsys, monkeypatch):
        write_module(project, "dirty.py", DIRTY_SOURCE)
        monkeypatch.chdir(project)
        rc = main(["lint"])
        assert rc == 1


class TestJsonOutput:
    def test_json_document_shape(self, project, capsys):
        write_module(project, "dirty.py", DIRTY_SOURCE)
        rc = main(["lint", "--json", "--root", str(project), str(project / "src")])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 1
        assert doc["baselined"] == 0
        (finding,) = doc["findings"]
        assert finding["code"] == "RL001"
        assert finding["path"].endswith("dirty.py")
        assert finding["line"] >= 1
        assert len(finding["fingerprint"]) == 16

    def test_json_clean(self, project, capsys):
        write_module(project, "clean.py", CLEAN_SOURCE)
        rc = main(["lint", "--json", "--root", str(project), str(project / "src")])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "findings": [],
            "count": 0,
            "baselined": 0,
            "fingerprint_version": 2,
        }

    def test_json_schema_locked(self, project, capsys):
        # External tooling correlates --json findings with baseline
        # entries; the v2 fields (scope, col, fingerprint_version) are
        # part of that contract.  Lock the exact key set.
        write_module(project, "dirty.py", DIRTY_SOURCE)
        main(["lint", "--json", "--root", str(project), str(project / "src")])
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc) == ["baselined", "count", "findings", "fingerprint_version"]
        assert doc["fingerprint_version"] == 2
        (finding,) = doc["findings"]
        assert sorted(finding) == [
            "code",
            "col",
            "context",
            "fingerprint",
            "line",
            "message",
            "path",
            "scope",
        ]
        assert finding["scope"] == finding["context"] == "draw"
        assert finding["col"] >= 1


class TestBaseline:
    def test_write_then_baseline_suppresses(self, project, capsys):
        write_module(project, "dirty.py", DIRTY_SOURCE)
        rc = main(
            ["lint", "--write-baseline", "--root", str(project), str(project / "src")]
        )
        assert rc == 0
        baseline = json.loads((project / "lint-baseline.json").read_text())
        assert len(baseline["entries"]) == 1
        assert baseline["entries"][0]["code"] == "RL001"

        rc = main(
            ["lint", "--baseline", "--root", str(project), str(project / "src")]
        )
        assert rc == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_new_finding_fails_despite_baseline(self, project, capsys):
        write_module(project, "dirty.py", DIRTY_SOURCE)
        main(["lint", "--write-baseline", "--root", str(project), str(project / "src")])
        write_module(
            project,
            "newer.py",
            "import random\ny = random.uniform(0.0, 1.0)\n",
        )
        rc = main(["lint", "--baseline", "--root", str(project), str(project / "src")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "newer.py" in out
        assert "dirty.py" not in out.replace("1 baselined", "")

    def test_missing_baseline_treated_as_empty(self, project, capsys):
        write_module(project, "dirty.py", DIRTY_SOURCE)
        rc = main(["lint", "--baseline", "--root", str(project), str(project / "src")])
        assert rc == 1

    def test_corrupt_baseline_exits_two(self, project, capsys):
        write_module(project, "clean.py", CLEAN_SOURCE)
        (project / "lint-baseline.json").write_text("{not json")
        rc = main(["lint", "--baseline", "--root", str(project), str(project / "src")])
        assert rc == 2

    def test_baseline_is_multiset(self, project):
        # Two identical violations need two baseline entries; fixing one
        # but reintroducing it elsewhere must not widen the allowance.
        write_module(
            project,
            "dirty.py",
            "import random\nx = random.random()\nx = random.random()\n",
        )
        main(["lint", "--write-baseline", "--root", str(project), str(project / "src")])
        baseline = json.loads((project / "lint-baseline.json").read_text())
        assert len(baseline["entries"]) == 2
        rc = main(["lint", "--baseline", "--root", str(project), str(project / "src")])
        assert rc == 0


class TestConfig:
    def test_pyproject_per_file_ignores(self, project, capsys):
        (project / "pyproject.toml").write_text(
            "[tool.repro-lint.per-file-ignores]\n"
            '"src/repro/phy/dirty.py" = ["RL001"]\n'
        )
        write_module(project, "dirty.py", DIRTY_SOURCE)
        rc = main(["lint", "--root", str(project), str(project / "src")])
        assert rc == 0

    def test_pyproject_global_disable(self, project):
        (project / "pyproject.toml").write_text(
            "[tool.repro-lint]\ndisable = [\"RL001\"]\n"
        )
        write_module(project, "dirty.py", DIRTY_SOURCE)
        rc = main(["lint", "--root", str(project), str(project / "src")])
        assert rc == 0

    def test_exclude_glob(self, project):
        (project / "pyproject.toml").write_text(
            "[tool.repro-lint]\nexclude = [\"*/generated/*\"]\n"
        )
        gen = project / "src" / "repro" / "phy" / "generated"
        gen.mkdir()
        (gen / "dirty.py").write_text(DIRTY_SOURCE)
        rc = main(["lint", "--root", str(project), str(project / "src")])
        assert rc == 0

    # A misspelling, a key whose pass was retired, and a scope that is
    # now a rule constant: none may silently fall back to the defaults.
    @pytest.mark.parametrize(
        "key",
        [
            "des-package",
            "vec-packages",
            "des-packages",
            "dim-packages",
            "flow-unit-packages",
            "flow-rng-packages",
            "clock-modules",
            "wall-clock-packages",
            "physics-packages",
            "dbmath-modules",
            "rng-entry-points",
        ],
    )
    def test_unknown_key_exits_two(self, project, capsys, key):
        (project / "pyproject.toml").write_text(
            f'[tool.repro-lint]\n{key} = ["repro.phy"]\n'
        )
        write_module(project, "clean.py", CLEAN_SOURCE)
        rc = main(["lint", "--root", str(project), str(project / "src")])
        assert rc == 2
        assert key in capsys.readouterr().err

    def test_list_rules(self, capsys):
        rc = main(["lint", "--list-rules"])
        assert rc == 0
        out = capsys.readouterr().out
        for i in range(1, 9):
            assert f"RL00{i}" in out
        # retired codes
        for i in (
            *range(10, 16),
            *range(20, 26),
            *range(30, 37),
            *range(40, 47),
            *range(50, 57),
        ):
            assert f"RL0{i}" not in out

    # Flags of retired passes are argument errors, not silent no-ops.
    @pytest.mark.parametrize(
        "flags",
        [["--des"], ["--dim"], ["--worklist"], ["--profile", "x.json"], ["--flow"]],
    )
    def test_retired_flag_exits_two(self, project, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["lint", *flags, "--root", str(project), str(project / "src")])
        assert exc.value.code == 2
        assert flags[0] in capsys.readouterr().err


class TestFingerprints:
    def test_identical_findings_in_different_scopes_distinct(self, project):
        # Two byte-identical violations in different functions must get
        # different fingerprints (scope context is part of the hash) so
        # the baseline can track them independently.
        write_module(
            project,
            "dirty.py",
            "import random\n\n\n"
            "def one():\n"
            "    return random.random()\n\n\n"
            "def two():\n"
            "    return random.random()\n",
        )
        main(["lint", "--write-baseline", "--root", str(project), str(project / "src")])
        baseline = json.loads((project / "lint-baseline.json").read_text())
        prints = [e["fingerprint"] for e in baseline["entries"]]
        assert len(prints) == 2 and len(set(prints)) == 2
        contexts = sorted(e["context"] for e in baseline["entries"])
        assert contexts == ["one", "two"]

    def test_fingerprint_survives_line_moves(self, project):
        source = "import random\n\n\ndef one():\n    return random.random()\n"
        write_module(project, "dirty.py", source)
        main(["lint", "--write-baseline", "--root", str(project), str(project / "src")])
        first = json.loads((project / "lint-baseline.json").read_text())
        write_module(project, "dirty.py", "# a comment pushing lines down\n" + source)
        rc = main(["lint", "--baseline", "--root", str(project), str(project / "src")])
        assert rc == 0  # same fingerprint despite the new line number
        entry = first["entries"][0]
        assert entry["context"] == "one"
        assert "col" in entry


class TestStats:
    def test_stats_text_output(self, project, capsys):
        write_module(project, "dirty.py", DIRTY_SOURCE)
        rc = main(["lint", "--stats", "--root", str(project), str(project / "src")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "-- stats --" in out
        assert "RL001: 1" in out
        assert "files analyzed: 1" in out
        assert "wall time:" in out

    def test_stats_json_section(self, project, capsys):
        write_module(project, "dirty.py", DIRTY_SOURCE)
        rc = main(
            ["lint", "--json", "--stats", "--root", str(project), str(project / "src")]
        )
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["stats"]["by_rule"] == {"RL001": 1}
        assert doc["stats"]["files_analyzed"] == 1
        assert doc["stats"]["wall_time_s"] >= 0


class TestJobs:
    """--jobs N parallel linting: identical output for any N."""

    def test_jobs_output_matches_serial(self, project, capsys):
        write_module(project, "dirty.py", DIRTY_SOURCE)
        write_module(
            project,
            "worse.py",
            "import random\na = random.random()\nb = random.random()\n",
        )
        main(["lint", "--json", "--root", str(project), str(project / "src")])
        serial = capsys.readouterr().out
        rc = main(
            ["lint", "--json", "--jobs", "4", "--root", str(project),
             str(project / "src")]
        )
        assert rc == 1
        assert capsys.readouterr().out == serial

    def test_jobs_one_is_serial_path(self, project):
        write_module(project, "dirty.py", DIRTY_SOURCE)
        rc = main(
            ["lint", "--jobs", "1", "--root", str(project), str(project / "src")]
        )
        assert rc == 1


class TestCheckBaseline:
    def test_current_baseline_passes(self, project, capsys):
        write_module(project, "dirty.py", DIRTY_SOURCE)
        main(["lint", "--write-baseline", "--root", str(project), str(project / "src")])
        rc = main(
            ["lint", "--check-baseline", "--root", str(project), str(project / "src")]
        )
        assert rc == 0
        assert "is current" in capsys.readouterr().out

    def test_stale_entry_fails(self, project, capsys):
        write_module(project, "dirty.py", DIRTY_SOURCE)
        main(["lint", "--write-baseline", "--root", str(project), str(project / "src")])
        write_module(project, "dirty.py", CLEAN_SOURCE)  # violation fixed
        rc = main(
            ["lint", "--check-baseline", "--root", str(project), str(project / "src")]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "stale baseline entry" in out
        assert "RL001" in out
        assert "dirty.py" in out

    def test_missing_baseline_is_current(self, project, capsys):
        write_module(project, "clean.py", CLEAN_SOURCE)
        rc = main(
            ["lint", "--check-baseline", "--root", str(project), str(project / "src")]
        )
        assert rc == 0

    def test_corrupt_baseline_exits_two(self, project):
        write_module(project, "clean.py", CLEAN_SOURCE)
        (project / "lint-baseline.json").write_text("{not json")
        rc = main(
            ["lint", "--check-baseline", "--root", str(project), str(project / "src")]
        )
        assert rc == 2


class TestSelfLint:
    """The repository's own source must be clean modulo the baseline."""

    def test_src_tree_clean_against_committed_baseline(self, capsys):
        rc = main(
            [
                "lint",
                "--baseline",
                "--root",
                str(REPO_ROOT),
                str(REPO_ROOT / "src"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0, f"repro lint found new violations:\n{out}"

    def test_committed_baseline_not_stale(self, capsys):
        rc = main(
            [
                "lint",
                "--check-baseline",
                "--root",
                str(REPO_ROOT),
                str(REPO_ROOT / "src"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0, f"stale baseline entries:\n{out}"

    def test_committed_baseline_is_empty(self):
        # Every finding was fixed in-tree and must stay fixed: the committed baseline grandfathers nothing.
        baseline = json.loads((REPO_ROOT / "lint-baseline.json").read_text())
        assert baseline["entries"] == []
        assert baseline["by_code"] == {}
