"""Unified benchmark schema, trajectory report, and regression gate."""

import json

import pytest

from repro.cli import main
from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    bench_entry,
    check_results,
    load_results,
    read_bench,
    render_check,
    render_report,
    validate_bench,
    write_bench,
)


def make_doc(suite="core", entries=None):
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "suite": suite,
        "entries": entries if entries is not None else [
            bench_entry("events_per_s", 1.5e6, "events/s", "higher"),
        ],
    }


class TestSchema:
    def test_bench_entry_shapes_fields(self):
        entry = bench_entry("x", 3, "s", "lower", tolerance=2.5)
        assert entry == {
            "name": "x", "value": 3.0, "unit": "s",
            "direction": "lower", "tolerance": 2.5,
        }

    def test_bench_entry_rejects_bad_direction(self):
        with pytest.raises(ValueError, match="direction"):
            bench_entry("x", 1, "s", "faster")

    def test_bench_entry_rejects_bad_tolerance(self):
        with pytest.raises(ValueError, match="tolerance"):
            bench_entry("x", 1, "s", "lower", tolerance=0.9)

    def test_valid_doc_has_no_problems(self):
        assert validate_bench(make_doc()) == []

    def test_problems_are_specific(self):
        doc = make_doc(entries=[
            {"name": "", "value": "fast", "unit": 3, "direction": "up"},
            bench_entry("dup", 1, "s", "info"),
            bench_entry("dup", 2, "s", "info"),
        ])
        doc["schema_version"] = 99
        problems = validate_bench(doc)
        text = "; ".join(problems)
        assert "schema_version" in text
        assert "entries[0].name" in text
        assert "entries[0].value" in text
        assert "entries[0].unit" in text
        assert "entries[0].direction" in text
        assert "duplicate" in text

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_core.json"
        write_bench(path, "core", make_doc()["entries"])
        doc = read_bench(path)
        assert doc["suite"] == "core"
        assert doc["entries"][0]["value"] == 1.5e6
        # Byte-deterministic serialization.
        first = path.read_bytes()
        write_bench(path, "core", make_doc()["entries"])
        assert path.read_bytes() == first

    def test_write_refuses_invalid(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        with pytest.raises(ValueError, match="refusing to write"):
            write_bench(path, "", [])
        assert not path.exists()

    def test_read_rejects_legacy_flat_format(self, tmp_path):
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps({"events_per_s": 100.0}))
        with pytest.raises(ValueError):
            read_bench(path)


class TestLoadResults:
    def test_loads_sorted_by_suite(self, tmp_path):
        write_bench(tmp_path / "BENCH_b.json", "b", make_doc()["entries"])
        write_bench(tmp_path / "BENCH_a.json", "a", make_doc()["entries"])
        assert list(load_results(tmp_path)) == ["a", "b"]

    def test_duplicate_suite_raises(self, tmp_path):
        write_bench(tmp_path / "BENCH_one.json", "core", make_doc()["entries"])
        write_bench(tmp_path / "BENCH_two.json", "core", make_doc()["entries"])
        with pytest.raises(ValueError, match="duplicate benchmark suite"):
            load_results(tmp_path)

    def test_empty_dir_renders_hint(self, tmp_path):
        assert "no benchmark results" in render_report(load_results(tmp_path))


class TestCheckResults:
    def base(self):
        return {
            "core": make_doc("core", [
                bench_entry("rate", 1000.0, "1/s", "higher"),
                bench_entry("wall", 2.0, "s", "lower"),
                bench_entry("note", 7.0, "x", "info"),
            ])
        }

    def current(self, rate=1000.0, wall=2.0):
        return {
            "core": make_doc("core", [
                bench_entry("rate", rate, "1/s", "higher"),
                bench_entry("wall", wall, "s", "lower"),
                bench_entry("note", 700.0, "x", "info"),
                bench_entry("brand_new", 1.0, "x", "higher"),
            ])
        }

    def test_within_tolerance_passes(self):
        rows = check_results(self.current(rate=500.0, wall=5.0), self.base())
        assert all(r["ok"] for r in rows)

    def test_higher_direction_regression_fails(self):
        rows = check_results(self.current(rate=100.0), self.base())
        bad = [r for r in rows if not r["ok"]]
        assert [r["name"] for r in bad] == ["rate"]
        assert "regressed" in bad[0]["reason"]

    def test_lower_direction_regression_fails(self):
        rows = check_results(self.current(wall=60.0), self.base())
        assert [r["name"] for r in rows if not r["ok"]] == ["wall"]

    def test_info_never_gated(self):
        rows = check_results(self.current(), self.base())
        note = next(r for r in rows if r["name"] == "note")
        assert note["ok"] and "not gated" in note["reason"]

    def test_new_entries_not_gated(self):
        rows = check_results(self.current(), self.base())
        assert "brand_new" not in {r["name"] for r in rows}

    def test_gated_entry_missing_from_current_fails(self):
        current = {"core": make_doc("core", [bench_entry("note", 1, "x", "info")])}
        rows = check_results(current, self.base())
        by_name = {r["name"]: r for r in rows}
        assert not by_name["rate"]["ok"]
        assert "missing from current" in by_name["rate"]["reason"]
        assert by_name["note"]["ok"]

    def test_per_entry_tolerance_overrides(self):
        base = {"core": make_doc("core", [
            bench_entry("rate", 1000.0, "1/s", "higher", tolerance=1.5),
        ])}
        rows = check_results({"core": make_doc("core", [
            bench_entry("rate", 500.0, "1/s", "higher"),
        ])}, base)
        assert not rows[0]["ok"]

    def test_zero_baseline_not_gated(self):
        base = {"core": make_doc("core", [bench_entry("rate", 0.0, "1/s", "higher")])}
        rows = check_results({"core": make_doc("core", [
            bench_entry("rate", 0.0, "1/s", "higher"),
        ])}, base)
        assert rows[0]["ok"] and "not gated" in rows[0]["reason"]

    def test_zero_baseline_of_a_lower_count_gates_any_increase(self):
        base = {"core": make_doc("core", [bench_entry("garbage", 0.0, "objects", "lower")])}
        held = check_results({"core": make_doc("core", [
            bench_entry("garbage", 0.0, "objects", "lower"),
        ])}, base)
        grown = check_results({"core": make_doc("core", [
            bench_entry("garbage", 1.0, "objects", "lower"),
        ])}, base)
        assert held[0]["ok"]
        assert not grown[0]["ok"] and "regressed" in grown[0]["reason"]

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            check_results(self.current(), self.base(), tolerance=1.0)

    def test_render_check_verdict_line(self):
        rows = check_results(self.current(rate=100.0), self.base())
        text = render_check(rows)
        assert "[FAIL]" in text and "1 regression(s)" in text
        ok_text = render_check(check_results(self.current(), self.base()))
        assert "[PASS]" in ok_text


class TestBenchCli:
    @pytest.fixture()
    def dirs(self, tmp_path):
        baseline = tmp_path / "baseline"
        current = tmp_path / "current"
        baseline.mkdir()
        current.mkdir()
        write_bench(baseline / "BENCH_core.json", "core",
                    [bench_entry("rate", 1000.0, "1/s", "higher")])
        return baseline, current

    def test_report_renders_trajectory(self, dirs, capsys):
        baseline, _ = dirs
        assert main(["obs", "bench", "report", "--results", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "benchmark trajectory" in out
        assert "rate" in out

    def test_check_pass_exit_0(self, dirs, capsys):
        baseline, current = dirs
        write_bench(current / "BENCH_core.json", "core",
                    [bench_entry("rate", 900.0, "1/s", "higher")])
        rc = main(["obs", "bench", "check", "--results", str(current),
                   "--baseline", str(baseline)])
        assert rc == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_check_regression_exit_1(self, dirs, capsys):
        baseline, current = dirs
        write_bench(current / "BENCH_core.json", "core",
                    [bench_entry("rate", 10.0, "1/s", "higher")])
        rc = main(["obs", "bench", "check", "--results", str(current),
                   "--baseline", str(baseline)])
        assert rc == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_check_tolerance_flag(self, dirs):
        baseline, current = dirs
        write_bench(current / "BENCH_core.json", "core",
                    [bench_entry("rate", 600.0, "1/s", "higher")])
        assert main(["obs", "bench", "check", "--results", str(current),
                     "--baseline", str(baseline), "--tolerance", "1.5"]) == 1
        assert main(["obs", "bench", "check", "--results", str(current),
                     "--baseline", str(baseline), "--tolerance", "2.0"]) == 0

    def test_check_invalid_baseline_exit_2(self, dirs, capsys):
        baseline, current = dirs
        (baseline / "BENCH_bad.json").write_text("{not json")
        rc = main(["obs", "bench", "check", "--results", str(current),
                   "--baseline", str(baseline)])
        assert rc == 2
        assert capsys.readouterr().err

    def test_check_empty_baseline_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["obs", "bench", "check", "--results", str(empty),
                   "--baseline", str(empty)])
        assert rc == 2
        assert "baseline" in capsys.readouterr().err
