"""Physical-dimension & unit-scale pass (RL050-RL056)."""

import textwrap

from repro.lint.config import LintConfig
from repro.lint.flow import DIM_RULES, PASS_NAMES, analyze_files
from repro.lint.flow.dims import (
    DIM_WORKLIST_CODES,
    DIMENSIONLESS,
    Qty,
    conflicting_dim,
    join_qty,
    parse_unit_annotation,
    qty_from_name,
    scale_mismatch,
)
from repro.lint.flow.symbols import build_symbol_table

DIM = ("dim",)


def codes(findings):
    return [f.code for f in findings]


def analyze(*files, config=None):
    findings, _ = analyze_files(list(files), config or LintConfig(), passes=DIM)
    return findings


def geo(src):
    """Wrap a snippet as an in-scope module (dim_packages covers geometry)."""
    return ("src/repro/geometry/toy.py", textwrap.dedent(src))


def mob(src):
    return ("src/repro/mobility/toy.py", textwrap.dedent(src))


class TestRuleCatalog:
    def test_catalog_covers_rl050_to_rl056(self):
        assert sorted(DIM_RULES) == [f"RL05{i}" for i in range(7)]

    def test_dim_is_a_registered_pass(self):
        assert "dim" in PASS_NAMES

    def test_worklist_codes_cover_the_catalog(self):
        assert DIM_WORKLIST_CODES == frozenset(DIM_RULES)


class TestLattice:
    def test_suffix_seeding(self):
        assert qty_from_name("bearing_rad") == Qty("angle", "rad")
        assert qty_from_name("speed_kmh") == Qty("speed", "kmh")
        assert qty_from_name("carrier_ghz") == Qty("frequency", "ghz")
        assert qty_from_name("timeout_ms") == Qty("time", "ms")

    def test_word_seeding_is_scale_free(self):
        assert qty_from_name("azimuth") == Qty("angle")
        assert qty_from_name("wavelength") == Qty("length")

    def test_short_bare_names_are_not_unit_claims(self):
        # Loop counters named ``s`` or ``m`` must not seed seconds/metres.
        assert qty_from_name("s") is None
        assert qty_from_name("m") is None
        assert qty_from_name("km") is None
        # ... but full-word spellings still do.
        assert qty_from_name("radians") == Qty("angle", "rad")

    def test_power_reuses_the_db_axis(self):
        assert qty_from_name("tx_power_dbm") == Qty("power", "dBm")
        assert qty_from_name("path_loss_db") == Qty("power", "dB")

    def test_join_and_conflicts(self):
        rad, deg = Qty("angle", "rad"), Qty("angle", "deg")
        assert join_qty(rad, rad) == rad
        assert join_qty(rad, deg) == Qty("angle")
        assert join_qty(rad, None) == rad
        assert join_qty(rad, DIMENSIONLESS) == rad
        assert join_qty(rad, Qty("time", "s")) is None
        assert conflicting_dim(rad, Qty("time", "s"))
        assert not conflicting_dim(rad, DIMENSIONLESS)
        assert scale_mismatch(rad, deg)
        assert not scale_mismatch(rad, Qty("angle"))

    def test_power_scales_are_owned_by_the_units_pass(self):
        assert not scale_mismatch(Qty("power", "dB"), Qty("power", "dBm"))


class TestAnnotationGrammar:
    def test_scale_dimension_and_power_spellings(self):
        assert parse_unit_annotation("rad") == Qty("angle", "rad")
        assert parse_unit_annotation("GHz") == Qty("frequency", "ghz")
        assert parse_unit_annotation("angle") == Qty("angle")
        assert parse_unit_annotation("dimensionless") == DIMENSIONLESS
        assert parse_unit_annotation("dBm") == Qty("power", "dBm")
        assert parse_unit_annotation("dBi") == Qty("power", "dB")

    def test_unknown_spelling_is_none(self):
        assert parse_unit_annotation("furlongs") is None

    def test_unit_and_shape_round_trip_on_one_line(self):
        # Words after unit= on the same comment do not disturb the unit.
        table = build_symbol_table([geo("""
            def pattern(points_n):  # replint: unit=rad shape=(n,) dtype=float64
                return points_n
        """)])
        module = table.modules["repro.geometry.toy"]
        assert module.unit_annotations == {2: "rad"}

    def test_unknown_unit_annotation_reports_rl053(self):
        findings = analyze(geo("""
            SPAN = 2.0  # replint: unit=furlongs
        """))
        assert codes(findings) == ["RL053"]
        assert "unknown unit 'furlongs'" in findings[0].message

    def test_param_annotation_in_multiline_signature(self):
        # Annotated good twin of the RL053 fixture below.
        findings = analyze(geo("""
            def steer(
                angle,  # replint: unit=deg
            ):
                return angle
        """))
        assert findings == []

    def test_def_line_annotation_declares_the_return(self):
        # ``unit=`` on the def line is the *return* unit (the units.py
        # grammar), never a parameter's — conflicting with the body's
        # inferred scale fires the boundary rule.
        findings = analyze(geo("""
            def heading(x_deg):  # replint: unit=rad
                return x_deg
        """))
        assert codes(findings) == ["RL052"]
        assert "declares a angle:rad return" in findings[0].message

    def test_line_annotation_overrides_value_inference(self):
        findings = analyze(geo("""
            import math
            def f(step_deg):
                # The annotation pins the mixed-name local to degrees.
                span = step_deg  # replint: unit=deg
                return math.sin(math.radians(span))
        """))
        assert findings == []


class TestRL050TrigOnDegrees:
    def test_trig_on_degree_argument(self):
        findings = analyze(geo("""
            import math
            def f(angle_deg):
                return math.sin(angle_deg)
        """))
        assert codes(findings) == ["RL050"]

    def test_good_twin_converts_first(self):
        findings = analyze(geo("""
            import math
            def f(angle_deg):
                return math.sin(math.radians(angle_deg))
        """))
        assert findings == []

    def test_degree_radian_arithmetic_mixing(self):
        findings = analyze(geo("""
            def f(a_deg, b_rad):
                return a_deg + b_rad
        """))
        assert codes(findings) == ["RL050"]

    def test_same_scale_arithmetic_is_silent(self):
        findings = analyze(geo("""
            def f(a_rad, b_rad):
                return a_rad + b_rad
        """))
        assert findings == []

    def test_interprocedural_return_scale(self):
        # The degree scale flows through the helper's return summary.
        findings = analyze(geo("""
            import math
            def half_angle(span_deg):
                return span_deg / 2.0
            def f(span_deg):
                return math.cos(half_angle(span_deg))
        """))
        assert codes(findings) == ["RL050"]


class TestRL051CrossDimension:
    def test_adding_metres_to_seconds(self):
        findings = analyze(geo("""
            def f(dist_m, delay_s):
                return dist_m + delay_s
        """))
        assert codes(findings) == ["RL051"]

    def test_comparing_hz_to_ghz(self):
        findings = analyze(geo("""
            def f(freq_hz, carrier_ghz):
                return freq_hz > carrier_ghz
        """))
        assert codes(findings) == ["RL051"]

    def test_good_twin_derives_a_speed(self):
        findings = analyze(geo("""
            def f(dist_m, delay_s):
                return dist_m / delay_s
        """))
        assert findings == []

    def test_cross_dimension_call_argument(self):
        findings = analyze(geo("""
            def hold(duration_s):
                return duration_s
            def f(dist_m):
                return hold(dist_m)
        """))
        assert codes(findings) == ["RL051"]

    def test_db_vs_dbm_left_to_the_units_pass(self):
        findings = analyze(geo("""
            def f(power_dbm, loss_db):
                return power_dbm - loss_db
        """))
        assert findings == []


class TestRL052ScaleBoundary:
    def test_kmh_into_mps_parameter(self):
        findings = analyze(mob("""
            def drive(speed_mps):
                return speed_mps * 2.0
            def go(speed_kmh):
                return drive(speed_kmh)
        """))
        assert codes(findings) == ["RL052"]

    def test_good_twin_converts_at_the_boundary(self):
        findings = analyze(mob("""
            from repro.geometry.units import kmh_to_ms
            def drive(speed_mps):
                return speed_mps * 2.0
            def go(speed_kmh):
                return drive(kmh_to_ms(speed_kmh))
        """))
        assert findings == []

    def test_ms_into_schedule_delay(self):
        findings = analyze(
            ("src/repro/mac/toy.py", textwrap.dedent("""
                def f(sim, timeout_ms, cb):
                    sim.schedule(timeout_ms, cb)
            """))
        )
        assert codes(findings) == ["RL052"]
        assert "seconds of sim time" in findings[0].message

    def test_seconds_schedule_delay_is_silent(self):
        findings = analyze(
            ("src/repro/mac/toy.py", textwrap.dedent("""
                def f(sim, timeout_s, cb):
                    sim.schedule(timeout_s, cb)
            """))
        )
        assert findings == []


class TestRL053AmbiguousApi:
    def test_bare_ambiguous_public_parameter(self):
        findings = analyze(geo("""
            def steer(angle):
                return angle
        """))
        assert codes(findings) == ["RL053"]

    def test_suffixed_twin_is_silent(self):
        findings = analyze(geo("""
            def steer(angle_rad):
                return angle_rad
        """))
        assert findings == []

    def test_private_functions_are_exempt(self):
        findings = analyze(geo("""
            def _steer(angle):
                return angle
        """))
        assert findings == []

    def test_out_of_scope_module_is_exempt(self):
        findings = analyze(
            ("src/repro/analysis/toy.py", "def steer(angle):\n    return angle\n")
        )
        assert findings == []

    def test_non_numeric_annotation_is_exempt(self):
        findings = analyze(geo("""
            def steer(angle: "AngleSpec"):
                return angle
        """))
        assert findings == []


class TestRL054WavelengthFrequency:
    def test_c_times_frequency(self):
        findings = analyze(geo("""
            SPEED_OF_LIGHT = 299_792_458.0
            def f(freq_hz):
                return SPEED_OF_LIGHT * freq_hz
        """))
        assert codes(findings) == ["RL054"]

    def test_good_twin_c_over_f(self):
        findings = analyze(geo("""
            SPEED_OF_LIGHT = 299_792_458.0
            def wavelength(freq_hz):
                return SPEED_OF_LIGHT / freq_hz
        """))
        assert findings == []

    def test_frequency_assigned_to_wavelength_name(self):
        findings = analyze(geo("""
            def f(freq_ghz):
                wavelength_m = freq_ghz
                return wavelength_m
        """))
        assert codes(findings) == ["RL054"]

    def test_lightspeed_literal_is_recognized(self):
        findings = analyze(geo("""
            def f(freq_hz):
                return 3.0e8 * freq_hz
        """))
        assert codes(findings) == ["RL054"]


class TestRL055AngleWraparound:
    def test_raw_difference_compare(self):
        findings = analyze(geo("""
            def aligned(a_rad, b_rad, limit_rad):
                return abs(a_rad - b_rad) < limit_rad
        """))
        assert codes(findings) == ["RL055"]

    def test_good_twin_uses_angle_between(self):
        findings = analyze(geo("""
            from repro.geometry.vec import angle_between
            def aligned(a_rad, b_rad, limit_rad):
                return angle_between(a_rad, b_rad) < limit_rad
        """))
        assert findings == []

    def test_degree_twin_uses_deg_wrap_180(self):
        findings = analyze(geo("""
            from repro.geometry.units import deg_wrap_180
            def aligned(a_deg, b_deg, limit_deg):
                return abs(deg_wrap_180(a_deg - b_deg)) < limit_deg
        """))
        assert findings == []

    def test_out_of_scope_module_is_exempt(self):
        findings = analyze(
            (
                "src/repro/analysis/toy.py",
                "def f(a_rad, b_rad, limit_rad):\n"
                "    return abs(a_rad - b_rad) < limit_rad\n",
            )
        )
        assert findings == []


class TestRL056RedundantConversion:
    def test_nested_same_direction_conversion(self):
        findings = analyze(geo("""
            import math
            def f(x_deg):
                return math.radians(math.radians(x_deg))
        """))
        assert codes(findings) == ["RL056"]

    def test_cancelling_round_trip(self):
        findings = analyze(geo("""
            import math
            def f(x_deg):
                return math.degrees(math.radians(x_deg))
        """))
        assert codes(findings) == ["RL056"]
        assert "round trip" in findings[0].message

    def test_argument_already_in_output_scale(self):
        findings = analyze(geo("""
            import math
            def f(x_rad):
                return math.radians(x_rad)
        """))
        assert codes(findings) == ["RL056"]

    def test_inline_3_6_magic_constant(self):
        findings = analyze(mob("""
            def f(speed_kmh):
                return speed_kmh / 3.6
        """))
        assert codes(findings) == ["RL056"]
        assert "kmh_to_ms" in findings[0].message

    def test_multiply_then_divide_by_3_6(self):
        findings = analyze(mob("""
            def f(speed_mps):
                return (speed_mps * 3.6) / 3.6
        """))
        assert codes(findings) == ["RL056"]

    def test_good_twin_uses_the_named_helper(self):
        findings = analyze(mob("""
            from repro.geometry.units import kmh_to_ms
            def f(speed_kmh):
                return kmh_to_ms(speed_kmh)
        """))
        assert findings == []

    def test_conversion_helpers_are_the_boundary(self):
        # The helper's own body divides by the constant; it is exempt.
        findings = analyze(
            (
                "src/repro/geometry/units_toy.py",
                textwrap.dedent("""
                    KMH_PER_MPS = 3.6
                    def kmh_to_ms(speed_kmh):
                        return speed_kmh / 3.6
                """),
            )
        )
        assert findings == []


class TestConfigScope:
    def test_dim_packages_config_narrows_rl053(self):
        config = LintConfig(dim_packages=("repro.phy",))
        findings = analyze(
            geo("""
                def steer(angle):
                    return angle
            """),
            config=config,
        )
        assert findings == []

    def test_inline_suppression_applies(self):
        findings = analyze(geo("""
            def steer(angle):  # replint: disable=RL053
                return angle
        """))
        assert findings == []
