"""Ranked burn-down worklist and profile loading (``--worklist``)."""

import json

import pytest

from repro.lint.config import LintConfig
from repro.lint.flow import analyze_files
from repro.lint.flow.destime import DES_WORKLIST_CODES
from repro.lint.flow.worklist import (
    WorklistEntry,
    build_worklist,
    load_profile,
    render_worklist,
)


class TestWorklist:
    # RL041: float sim-time accumulated in a loop, in a des-packages module.
    SRC = (
        "def sweep(sim, cb, dt):\n"
        "    t = 0.0\n"
        "    for _ in range(10):\n"
        "        t += dt\n"
        "        sim.schedule_at(t, cb)\n"
    )

    def _findings(self):
        findings, _ = analyze_files(
            [
                ("src/repro/mac/toy.py", self.SRC),
                ("src/repro/phy/quiet.py", "X = 1\n"),
            ],
            LintConfig(),
            passes=("des",),
        )
        return findings

    def _worklist(self, **kwargs):
        return build_worklist(self._findings(), codes=DES_WORKLIST_CODES, **kwargs)

    def test_entries_group_per_function(self):
        entries = self._worklist()
        assert len(entries) == 1
        entry = entries[0]
        assert entry.context == "repro.mac.toy.sweep"
        assert entry.codes == {"RL041": 1}
        assert entry.line == 4

    def test_codes_select_eligible_findings(self):
        assert build_worklist(self._findings(), codes=frozenset()) == []

    def test_profile_hotness_and_share(self):
        profile = {"counters.mac.toy.calls": 80.0, "counters.phy.other": 20.0}
        entries = self._worklist(profile=profile)
        assert entries[0].hotness == 80.0
        assert entries[0].share == 1.0

    def test_ordering_is_deterministic(self):
        profile = {"counters.mac.toy.calls": 3.0}
        first = [e.to_dict() for e in self._worklist(profile=profile)]
        second = [e.to_dict() for e in self._worklist(profile=profile)]
        assert first == second

    def test_hotter_entries_sort_first(self):
        cold = WorklistEntry(path="a.py", line=1, context="a", hotness=1.0)
        hot = WorklistEntry(path="b.py", line=1, context="b", hotness=9.0)
        ordered = sorted(
            [cold, hot], key=lambda e: (-e.hotness, e.path, e.line, e.context)
        )
        assert ordered[0] is hot

    def test_render_mentions_profile_and_codes(self):
        text = render_worklist(self._worklist(), "BENCH_x.json", title="DES-time")
        assert text.startswith("DES-time worklist (1 entry, profile: BENCH_x.json)")
        assert "repro.mac.toy.sweep" in text
        assert "RL041" in text


class TestLoadProfile:
    def test_flattens_numeric_leaves(self, tmp_path):
        path = tmp_path / "BENCH_toy.json"
        path.write_text(
            json.dumps(
                {
                    "metrics": {"counters": {"phy.toy.calls": 3, "ok": True}},
                    "samples": [{"t": 1.5}, {"t": 2.5}],
                }
            )
        )
        flat = load_profile(path)
        assert flat["metrics.counters.phy.toy.calls"] == 3.0
        assert flat["samples.t"] == 4.0  # list entries share the prefix
        assert "metrics.counters.ok" not in flat  # bools are skipped

    def test_unreadable_profile_raises(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            load_profile(path)
