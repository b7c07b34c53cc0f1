"""Interprocedural unit inference (RL010-RL012).

Tests run :func:`repro.lint.flow.analyze_files` over small in-memory
projects.  A stub ``repro/analysis/dbmath.py`` is included so call
sites resolve to the known conversion signatures; the stub itself is
exempt from the checks (it is listed in ``dbmath-modules``), exactly
like the real module.
"""

from repro.lint.config import LintConfig
from repro.lint.flow import analyze_files
from repro.lint.flow.units import (
    AMPLITUDE,
    DB,
    DBM,
    LINEAR,
    NEUTRAL,
    UNIT_SPELLINGS,
    conflicting,
    join,
    parse_annotation,
    unit_from_name,
)

DBMATH_STUB = """\
def db_to_linear(value_db):
    return value_db


def linear_to_db(value):
    return value


def dbm_to_watts(power_dbm):
    return power_dbm


def watts_to_dbm(power_watts):
    return power_watts
"""


#: Every ``unit=`` spelling the linter accepts and the lattice element
#: it declares, recorded from the vocabulary as it stood when the
#: dimension pass (which used to own it) was retired.
KNOWN_SPELLINGS = {
    **dict.fromkeys(["amp", "amplitude", "v", "volts"], AMPLITUDE),
    **dict.fromkeys(
        ["attenuation", "db", "dbi", "gain", "loss", "rssi", "sinr", "snr"], DB
    ),
    "dbm": DBM,
    **dict.fromkeys(["lin", "linear", "linear-power", "mw", "watts"], LINEAR),
    **dict.fromkeys(
        [
            "angle", "bits", "bps", "bytes", "cm", "count", "deg", "degrees",
            "dimensionless", "frac", "fraction", "frequency", "gbps", "ghz",
            "hz", "idx", "index", "j", "k", "kbps", "kelvin", "khz", "km",
            "kmh", "length", "m", "mbps", "meters", "mhz", "mm", "mps", "ms",
            "neutral", "none", "ns", "pct", "prob", "probability", "rad",
            "radians", "ratio", "s", "seconds", "speed", "time", "us",
        ],
        NEUTRAL,
    ),
}

#: Spellings valid in an annotation that do not seed a unit as a name
#: suffix (``x_radians`` carries no dB/linear unit, nor a neutral one).
ANNOTATION_ONLY = {
    "angle", "degrees", "dimensionless", "frequency", "kmh", "length",
    "linear-power", "meters", "mps", "neutral", "none", "radians",
    "seconds", "speed", "time",
}


def _run(files, config=None):
    files = [("src/repro/analysis/dbmath.py", DBMATH_STUB), *files]
    findings, stats = analyze_files(files, config or LintConfig())
    return findings, stats


def _codes(findings):
    return [f.code for f in findings]


class TestLattice:
    def test_cross_family_conflicts(self):
        assert conflicting(DB, LINEAR)
        assert conflicting(DBM, AMPLITUDE)
        assert not conflicting(DB, DBM)  # same log family
        assert not conflicting(LINEAR, LINEAR)

    def test_join_generalizes_within_log_family(self):
        assert join(DB, DBM) == DB
        assert join(LINEAR, LINEAR) == LINEAR
        assert join(DB, LINEAR) is None

    def test_name_suffix_inference(self):
        assert unit_from_name("path_loss_db") == DB
        assert unit_from_name("tx_power_dbm") == DBM
        assert unit_from_name("noise_lin") == LINEAR
        assert unit_from_name("duration_s") not in (DB, DBM, LINEAR, AMPLITUDE)
        assert unit_from_name("widget") is None
        assert unit_from_name("tx_power_dbm_") == DBM  # trailing underscore
        assert unit_from_name("Path_Loss_DB") == DB  # case-insensitive
        assert unit_from_name("gain") == DB  # bare log word
        assert unit_from_name("") is None
        assert unit_from_name(None) is None

    def test_every_suffix_seeds_its_annotation_unit(self):
        for spelling, unit in KNOWN_SPELLINGS.items():
            expected = None if spelling in ANNOTATION_ONLY else unit
            assert unit_from_name(f"x_{spelling}") == expected, spelling


class TestRL010:
    def test_linear_argument_into_db_helper(self):
        source = (
            "from repro.analysis.dbmath import db_to_linear\n\n\n"
            "def broken_lin(power_lin):\n"
            "    return db_to_linear(power_lin)\n"
        )
        findings, _ = _run([("src/repro/phy/toy.py", source)])
        assert _codes(findings) == ["RL010"]
        assert "db_to_linear" in findings[0].message

    def test_matching_argument_is_clean(self):
        source = (
            "from repro.analysis.dbmath import db_to_linear\n\n\n"
            "def fine_lin(power_db):\n"
            "    return db_to_linear(power_db)\n"
        )
        findings, _ = _run([("src/repro/phy/toy.py", source)])
        assert findings == []

    def test_cross_call_arithmetic_mixing(self):
        source = (
            "def path_gain_db():\n"
            "    return 3.0\n\n\n"
            "def combine(noise_lin):\n"
            "    return noise_lin + path_gain_db()\n"
        )
        findings, _ = _run([("src/repro/phy/toy.py", source)])
        assert "RL010" in _codes(findings)

    def test_suffix_vs_suffix_left_to_perfile_rule(self):
        # Both operands carry name suffixes: that is RL004's territory,
        # the flow pass must not double-report it.
        source = "def combine(noise_lin, gain_db):\n    return noise_lin + gain_db\n"
        findings, _ = _run([("src/repro/phy/toy.py", source)])
        assert "RL010" not in _codes(findings)


class TestRL011:
    def test_name_declares_db_but_returns_linear(self):
        source = (
            "from repro.analysis.dbmath import db_to_linear\n\n\n"
            "def reading_db():\n"
            "    return db_to_linear(-3.0)\n"
        )
        findings, _ = _run([("src/repro/phy/toy.py", source)])
        assert "RL011" in _codes(findings)

    def test_interprocedural_return_propagation(self):
        # helper's return unit is only known through the call graph.
        source = (
            "from repro.analysis.dbmath import db_to_linear\n\n\n"
            "def helper():\n"
            "    return db_to_linear(-3.0)\n\n\n"
            "def power_db():\n"
            "    return helper()\n"
        )
        findings, _ = _run([("src/repro/phy/toy.py", source)])
        assert any(
            f.code == "RL011" and "power_db" in (f.context or f.message)
            for f in findings
        )

    def test_annotation_overrides_name(self):
        source = (
            "from repro.analysis.dbmath import db_to_linear\n\n\n"
            "def reading_db():  # replint: unit=linear\n"
            "    return db_to_linear(-3.0)\n"
        )
        findings, _ = _run([("src/repro/phy/toy.py", source)])
        assert "RL011" not in _codes(findings)


class TestRL012:
    def test_public_united_api_without_declaration(self):
        source = "def strength(x_db):\n    return x_db + 3.0\n"
        findings, _ = _run([("src/repro/phy/toy.py", source)])
        assert _codes(findings) == ["RL012"]

    def test_def_line_annotation_satisfies(self):
        source = "def strength(x_db):  # replint: unit=dB\n    return x_db + 3.0\n"
        findings, _ = _run([("src/repro/phy/toy.py", source)])
        assert findings == []

    def test_suffix_satisfies(self):
        source = "def strength_db(x_db):\n    return x_db + 3.0\n"
        findings, _ = _run([("src/repro/phy/toy.py", source)])
        assert findings == []

    def test_object_return_annotation_skipped(self):
        source = (
            "def rotated(gain_db):  # returns a pattern object, not a number\n"
            "    return Pattern(gain_db + 3.0)\n\n\n"
            "class Pattern:\n"
            "    def __init__(self, g):\n"
            "        self.g = g\n"
        )
        annotated = source.replace(
            "def rotated(gain_db):", "def rotated(gain_db) -> 'Pattern':"
        )
        findings, _ = _run([("src/repro/phy/toy.py", annotated)])
        assert "RL012" not in _codes(findings)

    def test_private_and_out_of_scope_modules_skipped(self):
        source = "def _strength(x_db):\n    return x_db + 3.0\n"
        findings, _ = _run([("src/repro/phy/toy.py", source)])
        assert findings == []
        # Same public function outside flow-unit-packages: not flagged.
        public = "def strength(x_db):\n    return x_db + 3.0\n"
        findings, _ = _run([("src/repro/experiments/toy.py", public)])
        assert "RL012" not in _codes(findings)

    def test_neutral_quantities_not_flagged(self):
        source = "def duration(window_s):\n    return window_s * 2.0\n"
        findings, _ = _run([("src/repro/phy/toy.py", source)])
        assert findings == []


class TestAnnotationVocabulary:
    """``unit=`` spellings come from the one table in flow.units."""

    def test_non_power_annotation_declares_the_unit(self):
        source = (
            "def strength(x_db):  # replint: unit=bps\n"
            "    return x_db + 3.0\n"
        )
        findings, _ = _run([("src/repro/phy/toy.py", source)])
        assert "RL012" not in _codes(findings)

    def test_amplitude_spelling_is_read_as_amplitude(self):
        source = (
            "def strength(x_db):  # replint: unit=volts\n"
            "    return x_db + 3.0\n"
        )
        findings, _ = _run([("src/repro/phy/toy.py", source)])
        assert _codes(findings) == ["RL011"]
        assert "amplitude-domain return" in findings[0].message

    def test_every_dims_spelling_is_known_here(self):
        assert set(UNIT_SPELLINGS) == set(KNOWN_SPELLINGS)
        parsed = {spelling: parse_annotation(spelling) for spelling in KNOWN_SPELLINGS}
        assert parsed == KNOWN_SPELLINGS
        assert parse_annotation(" dBm ") == DBM
        assert parse_annotation("Linear-Power") == LINEAR
        assert parse_annotation("furlongs") is None


class TestSuppression:
    def test_inline_disable_counts_as_suppressed(self):
        source = (
            "def strength(x_db):  # replint: disable=RL012\n"
            "    return x_db + 3.0\n"
        )
        findings, stats = _run([("src/repro/phy/toy.py", source)])
        assert findings == []
        assert stats.suppressed == 1

    def test_inline_disable_with_reason(self):
        source = (
            "def strength(x_db):  # replint: disable=RL012 because legacy\n"
            "    return x_db + 3.0\n"
        )
        findings, stats = _run([("src/repro/phy/toy.py", source)])
        assert findings == []
        assert stats.suppressed == 1

    def test_config_disable(self):
        source = "def strength(x_db):\n    return x_db + 3.0\n"
        config = LintConfig(disable=frozenset({"RL012"}))
        findings, _ = _run([("src/repro/phy/toy.py", source)], config)
        assert findings == []


class TestStats:
    def test_stats_shape(self):
        source = "def strength(x_db):\n    return x_db + 3.0\n"
        _, stats = _run([("src/repro/phy/toy.py", source)])
        doc = stats.to_dict()
        assert doc["files"] == 2  # stub + module
        assert doc["functions"] >= 1
        assert doc["by_rule"] == {"RL012": 1}
