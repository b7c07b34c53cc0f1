"""The flow pass table and the shared inference driver."""

import textwrap

from repro.lint.config import LintConfig
from repro.lint.engine import Finding
from repro.lint.flow import PASS_NAMES, PASSES, Reporter, analyze_files
from repro.lint.flow.callgraph import build_call_graph
from repro.lint.flow.symbols import build_symbol_table
from repro.lint.flow.units import UnitPass


def _module(path, src):
    return (path, textwrap.dedent(src))


#: One small project with one finding from every pass: pass -> code.
EXPECTED = {
    "units": "RL012",
    "rng": "RL013",
}

PROJECT = [
    # units: public phy API computing with dB but declaring no unit
    _module("src/repro/phy/strength.py", """
        def strength(x_db):
            return x_db + 3.0
    """),
    # rng: a fixed-seed generator built inside the function
    _module("src/repro/phy/noise.py", """
        import numpy as np


        def sample():
            rng = np.random.default_rng(7)
            return rng.normal()
    """),
]


def _run(passes):
    findings, stats = analyze_files(PROJECT, LintConfig(), passes=passes)
    return findings, stats.to_dict()


class TestPassTable:
    def test_pass_names_follow_the_table(self):
        assert PASS_NAMES == tuple(PASSES) == ("units", "rng")


class TestPassIsolation:
    def test_each_pass_reports_its_own_finding(self):
        for name in PASS_NAMES:
            findings, _ = _run((name,))
            assert [f.code for f in findings] == [EXPECTED[name]], name

    def test_all_passes_equal_the_union_of_single_runs(self):
        together, _ = _run(PASS_NAMES)
        singles = [f for name in PASS_NAMES for f in _run((name,))[0]]
        assert together == sorted(singles, key=Finding.sort_key)

    def test_successive_runs_are_identical(self):
        assert _run(PASS_NAMES) == _run(PASS_NAMES)


class TestInferenceDriver:
    def test_post_fixpoint_analysis_is_built_once(self):
        table = build_symbol_table(PROJECT[:1])
        config = LintConfig()
        unit_pass = UnitPass(table, build_call_graph(table), config, Reporter(config))
        unit_pass.run()
        fn = table.functions["repro.phy.strength.strength"]
        assert unit_pass.analysis(fn) is unit_pass.analysis(fn)
        assert unit_pass.analysis(fn).env["x_db"] == "dB"
