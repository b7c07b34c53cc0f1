"""Positive, negative, and suppression fixtures for every lint rule."""

import textwrap

import pytest

from repro.lint import LintConfig, lint_source, rules


def run(source, module="repro.phy.fixture", rel_path=None, config=None):
    rel_path = rel_path or f"src/{module.replace('.', '/')}.py"
    return lint_source(
        textwrap.dedent(source), module=module, rel_path=rel_path, config=config
    )


def codes(findings):
    return [f.code for f in findings]


# ---------------------------------------------------------------------------
# RL001 — unseeded / global RNG
# ---------------------------------------------------------------------------


class TestRL001:
    def test_global_random_module_fires(self):
        found = run(
            """
            import random
            x = random.random()
            """
        )
        assert codes(found) == ["RL001"]

    def test_random_as_alias_fires(self):
        found = run(
            """
            import random as rnd
            x = rnd.gauss(0.0, 1.0)
            """
        )
        assert codes(found) == ["RL001"]

    def test_from_random_import_fires(self):
        found = run(
            """
            from random import randint
            x = randint(0, 5)
            """
        )
        assert codes(found) == ["RL001"]

    def test_legacy_numpy_global_fires(self):
        found = run(
            """
            import numpy as np
            np.random.seed(3)
            x = np.random.rand(5)
            """
        )
        assert codes(found) == ["RL001", "RL001"]

    def test_unseeded_default_rng_fires(self):
        found = run(
            """
            import numpy as np
            rng = np.random.default_rng()
            """
        )
        assert codes(found) == ["RL001"]

    def test_seeded_default_rng_clean(self):
        found = run(
            """
            import numpy as np
            rng = np.random.default_rng(42)
            also = np.random.default_rng(seed=7)
            gen = np.random.Generator(np.random.PCG64(1))
            """
        )
        assert codes(found) == []

    def test_explicit_none_seed_fires(self):
        # default_rng(None) pulls OS entropy exactly like default_rng().
        found = run(
            """
            import numpy as np
            a = np.random.default_rng(None)
            b = np.random.default_rng(seed=None)
            """
        )
        assert codes(found) == ["RL001", "RL001"]

    def test_from_import_none_seed_fires(self):
        found = run(
            """
            from numpy.random import default_rng
            bad = default_rng(None)
            also_bad = default_rng(seed=None)
            good = default_rng(seed=0)
            """
        )
        assert codes(found) == ["RL001", "RL001"]

    def test_from_import_default_rng(self):
        found = run(
            """
            from numpy.random import default_rng
            bad = default_rng()
            good = default_rng(5)
            """
        )
        assert codes(found) == ["RL001"]

    def test_seeded_random_instance_clean(self):
        found = run(
            """
            import random
            rng = random.Random(1234)
            """
        )
        assert codes(found) == []

    def test_suppression_comment_silences(self):
        found = run(
            """
            import random
            x = random.random()  # replint: disable=RL001
            """
        )
        assert codes(found) == []


# ---------------------------------------------------------------------------
# RL002 — wall-clock reads in simulation code
# ---------------------------------------------------------------------------


class TestRL002:
    def test_time_time_fires_in_sim_package(self):
        found = run(
            """
            import time
            def now():
                return time.time()
            """,
            module="repro.mac.fixture",
        )
        assert codes(found) == ["RL002"]

    def test_datetime_now_fires(self):
        found = run(
            """
            import datetime
            stamp = datetime.datetime.now()
            """,
            module="repro.experiments.fixture",
        )
        assert codes(found) == ["RL002"]

    def test_from_datetime_import_fires(self):
        found = run(
            """
            from datetime import datetime
            stamp = datetime.now()
            """,
            module="repro.core.fixture",
        )
        assert codes(found) == ["RL002"]

    def test_perf_counter_fires(self):
        found = run(
            """
            from time import perf_counter
            t0 = perf_counter()
            """,
            module="repro.campaign.fixture",
        )
        assert codes(found) == ["RL002"]

    def test_outside_sim_packages_clean(self):
        found = run(
            """
            import time
            t = time.time()
            """,
            module="repro.io",
        )
        assert codes(found) == []

    def test_per_file_ignore_silences(self):
        config = LintConfig(
            per_file_ignores=(("src/repro/campaign/telemetry.py", frozenset({"RL002"})),)
        )
        found = run(
            """
            import time
            t = time.time()
            """,
            module="repro.campaign.telemetry",
            config=config,
        )
        assert codes(found) == []


class TestClockModuleExemption:
    """The sanctioned clock shim is exempt by module name, nothing else."""

    CLOCK_SOURCE = """
        import time

        def wall_time():
            return time.time()
        """

    def test_shim_module_exempt_by_default(self):
        assert codes(run(self.CLOCK_SOURCE, module="repro.obs.clock")) == []

    def test_identical_source_elsewhere_in_obs_fires(self):
        # repro.obs is a wall-clock-policed package; only the shim
        # module itself gets a pass.
        found = run(self.CLOCK_SOURCE, module="repro.obs.trace")
        assert codes(found) == ["RL002"]

    def test_shim_fires_when_exemption_removed(self, monkeypatch):
        monkeypatch.setattr(rules, "CLOCK_MODULES", ())
        found = run(self.CLOCK_SOURCE, module="repro.obs.clock")
        assert codes(found) == ["RL002"]

    def test_custom_shim_module_honored(self, monkeypatch):
        monkeypatch.setattr(rules, "CLOCK_MODULES", ("repro.mac.myclock",))
        found = run(self.CLOCK_SOURCE, module="repro.mac.myclock")
        assert codes(found) == []

    def test_des_clock_clean(self):
        found = run(
            """
            def schedule(sim):
                return sim.now + 0.1
            """,
            module="repro.mac.fixture",
        )
        assert codes(found) == []


# ---------------------------------------------------------------------------
# RL003 — inline dB conversions
# ---------------------------------------------------------------------------


class TestRL003:
    def test_ten_log10_fires(self):
        found = run(
            """
            import math
            def f(p):
                return 10.0 * math.log10(p)
            """
        )
        assert codes(found) == ["RL003"]

    def test_twenty_log10_fires(self):
        found = run(
            """
            import numpy as np
            def f(r):
                return 20.0 * np.log10(r)
            """
        )
        assert codes(found) == ["RL003"]

    def test_power_conversion_fires(self):
        found = run(
            """
            def f(x_db):
                return 10.0 ** (x_db / 10.0)
            """
        )
        assert codes(found) == ["RL003"]

    def test_amplitude_conversion_fires(self):
        found = run(
            """
            def f(x_db):
                return 10 ** (x_db / 20)
            """
        )
        assert codes(found) == ["RL003"]

    def test_reversed_operand_order_fires(self):
        found = run(
            """
            import math
            def f(p):
                return math.log10(p) * 10.0
            """
        )
        assert codes(found) == ["RL003"]

    def test_dbmath_module_itself_clean(self):
        found = run(
            """
            import math
            def linear_to_db_scalar(v):
                return 10.0 * math.log10(v)
            """,
            module="repro.analysis.dbmath",
        )
        assert codes(found) == []

    def test_helper_usage_clean(self):
        found = run(
            """
            from repro.analysis.dbmath import linear_to_db_scalar
            def f(p):
                return linear_to_db_scalar(p)
            """
        )
        assert codes(found) == []

    def test_unrelated_pow_clean(self):
        found = run(
            """
            def f(x):
                return 2.0 ** (x / 10.0) + 10.0 ** x
            """
        )
        assert codes(found) == []

    def test_suppression_silences(self):
        found = run(
            """
            import math
            def f(p):
                return 10.0 * math.log10(p)  # replint: disable=RL003
            """
        )
        assert codes(found) == []


# ---------------------------------------------------------------------------
# RL004 — log/linear unit mixing
# ---------------------------------------------------------------------------


class TestRL004:
    def test_db_plus_mw_fires(self):
        found = run(
            """
            def f(signal_db, noise_mw):
                return signal_db + noise_mw
            """
        )
        assert codes(found) == ["RL004"]

    def test_dbm_minus_watts_fires(self):
        found = run(
            """
            def f(power_dbm, floor_watts):
                return power_dbm - floor_watts
            """
        )
        assert codes(found) == ["RL004"]

    def test_attribute_operands_fire(self):
        found = run(
            """
            def f(budget, state):
                return budget.noise_db + state.interference_lin
            """
        )
        assert codes(found) == ["RL004"]

    def test_same_domain_clean(self):
        found = run(
            """
            def f(gain_db, loss_db, noise_mw, extra_mw):
                return (gain_db - loss_db, noise_mw + extra_mw)
            """
        )
        assert codes(found) == []

    def test_converted_operand_clean(self):
        found = run(
            """
            from repro.analysis.dbmath import db_to_linear_scalar
            def f(signal_db, noise_mw):
                return db_to_linear_scalar(signal_db) + noise_mw
            """
        )
        assert codes(found) == []

    def test_suppression_silences(self):
        found = run(
            """
            def f(signal_db, noise_mw):
                return signal_db + noise_mw  # replint: disable=RL004
            """
        )
        assert codes(found) == []


# ---------------------------------------------------------------------------
# RL005 — float equality in physics modules
# ---------------------------------------------------------------------------


class TestRL005:
    def test_float_literal_equality_fires(self):
        found = run(
            """
            def f(x):
                return x == 0.3
            """,
            module="repro.phy.fixture",
        )
        assert codes(found) == ["RL005"]

    def test_not_equal_fires(self):
        found = run(
            """
            def f(ratio):
                if ratio != 2.5:
                    return True
            """,
            module="repro.core.fixture",
        )
        assert codes(found) == ["RL005"]

    def test_zero_guard_exempt(self):
        found = run(
            """
            def f(norm):
                if norm == 0.0:
                    raise ValueError("zero vector")
            """,
            module="repro.geometry.fixture",
        )
        assert codes(found) == []

    def test_integer_comparison_clean(self):
        found = run(
            """
            def f(count):
                return count == 3
            """,
            module="repro.phy.fixture",
        )
        assert codes(found) == []

    def test_outside_physics_packages_clean(self):
        found = run(
            """
            def f(x):
                return x == 0.3
            """,
            module="repro.mac.fixture",
        )
        assert codes(found) == []

    def test_suppression_silences(self):
        found = run(
            """
            def f(x):
                return x == 0.3  # replint: disable=RL005
            """,
            module="repro.phy.fixture",
        )
        assert codes(found) == []


# ---------------------------------------------------------------------------
# RL006 — mutable defaults / frozen-spec mutation
# ---------------------------------------------------------------------------


class TestRL006:
    def test_mutable_list_default_fires(self):
        found = run(
            """
            def f(samples=[]):
                return samples
            """
        )
        assert codes(found) == ["RL006"]

    def test_dict_call_default_fires(self):
        found = run(
            """
            def f(options=dict()):
                return options
            """
        )
        assert codes(found) == ["RL006"]

    def test_kwonly_mutable_default_fires(self):
        found = run(
            """
            def f(*, extras={}):
                return extras
            """
        )
        assert codes(found) == ["RL006"]

    def test_none_default_clean(self):
        found = run(
            """
            def f(samples=None, count=0, name="x"):
                return samples or []
            """
        )
        assert codes(found) == []

    def test_spec_attribute_assignment_fires(self):
        found = run(
            """
            from repro.campaign.spec import CampaignSpec
            def mutate(spec: CampaignSpec):
                spec.seeds = (1,)
            """
        )
        assert codes(found) == ["RL006"]

    def test_object_setattr_outside_post_init_fires(self):
        found = run(
            """
            def hack(spec):
                object.__setattr__(spec, "name", "oops")
            """
        )
        assert codes(found) == ["RL006"]

    def test_object_setattr_in_post_init_clean(self):
        found = run(
            """
            class Spec:
                def __post_init__(self):
                    object.__setattr__(self, "params", ())
            """
        )
        assert codes(found) == []

    def test_with_overrides_clean(self):
        found = run(
            """
            from repro.campaign.spec import CampaignSpec
            def pin(spec: CampaignSpec):
                return spec.with_overrides({"runs": 3})
            """
        )
        assert codes(found) == []

    def test_suppression_silences(self):
        found = run(
            """
            def f(samples=[]):  # replint: disable=RL006
                return samples
            """
        )
        assert codes(found) == []


# ---------------------------------------------------------------------------
# RL007 — unordered iteration feeding hashes/serialization
# ---------------------------------------------------------------------------


class TestRL007:
    def test_set_iteration_in_hashing_function_fires(self):
        found = run(
            """
            import hashlib
            def digest(names):
                h = hashlib.sha256()
                for name in set(names):
                    h.update(name.encode())
                return h.hexdigest()
            """
        )
        assert codes(found) == ["RL007"]

    def test_dict_keys_into_json_fires(self):
        found = run(
            """
            import json
            def serialize(d):
                out = [k for k in d.keys()]
                return json.dumps(out)
            """
        )
        assert codes(found) == ["RL007"]

    def test_sorted_iteration_clean(self):
        found = run(
            """
            import hashlib
            def digest(names):
                h = hashlib.sha256()
                for name in sorted(set(names)):
                    h.update(name.encode())
                return h.hexdigest()
            """
        )
        assert codes(found) == []

    def test_sorted_comprehension_clean(self):
        found = run(
            """
            import json
            def serialize(d):
                return json.dumps(sorted(k for k in d.keys()))
            """
        )
        assert codes(found) == []

    def test_no_serialization_clean(self):
        found = run(
            """
            def count(names):
                total = 0
                for name in set(names):
                    total += 1
                return total
            """
        )
        assert codes(found) == []

    def test_suppression_silences(self):
        found = run(
            """
            import json
            def serialize(d):
                out = [k for k in d.keys()]  # replint: disable=RL007
                return json.dumps(out)
            """
        )
        assert codes(found) == []


# ---------------------------------------------------------------------------
# RL008 — swallowed exceptions
# ---------------------------------------------------------------------------


class TestRL008:
    def test_bare_except_fires(self):
        found = run(
            """
            def f():
                try:
                    risky()
                except:
                    raise
            """
        )
        assert codes(found) == ["RL008"]

    def test_broad_except_pass_fires(self):
        found = run(
            """
            def f():
                try:
                    risky()
                except Exception:
                    pass
            """
        )
        assert codes(found) == ["RL008"]

    def test_broad_except_ellipsis_fires(self):
        found = run(
            """
            def f():
                try:
                    risky()
                except BaseException:
                    ...
            """
        )
        assert codes(found) == ["RL008"]

    def test_narrow_except_pass_clean(self):
        found = run(
            """
            def f():
                try:
                    risky()
                except OSError:
                    pass
            """
        )
        assert codes(found) == []

    def test_broad_except_with_handling_clean(self):
        found = run(
            """
            def f(log):
                try:
                    risky()
                except Exception as exc:
                    log.warning("cell failed: %s", exc)
            """
        )
        assert codes(found) == []

    def test_suppression_silences(self):
        found = run(
            """
            def f():
                try:
                    risky()
                except Exception:  # replint: disable=RL008
                    pass
            """
        )
        assert codes(found) == []


# ---------------------------------------------------------------------------
# Engine-level behavior
# ---------------------------------------------------------------------------


class TestEngine:
    def test_parse_error_reported_as_rl000(self):
        found = run("def broken(:\n    pass\n")
        assert codes(found) == ["RL000"]

    def test_disable_all_suppression(self):
        found = run(
            """
            import random
            x = random.random()  # replint: disable=all
            """
        )
        assert codes(found) == []

    def test_multi_code_suppression(self):
        found = run(
            """
            import math
            def f(signal_db, noise_mw):
                return signal_db + noise_mw + 10.0 * math.log10(noise_mw)  # replint: disable=RL003,RL004
            """
        )
        assert codes(found) == []

    def test_suppression_reason_after_codes(self):
        found = run(
            """
            import random
            x = random.random()  # replint: disable=RL001 because legacy
            """
        )
        assert codes(found) == []

    def test_suppression_reason_does_not_widen_codes(self):
        # Text after the code list is a reason, never more codes.
        found = run(
            """
            import random
            x = random.random()  # replint: disable=RL003 not RL001
            """
        )
        assert codes(found) == ["RL001"]

    def test_global_disable_config(self):
        config = LintConfig(disable=frozenset({"RL001"}))
        found = run(
            """
            import random
            x = random.random()
            """,
            config=config,
        )
        assert codes(found) == []

    def test_fingerprint_stable_across_line_moves(self):
        first = run(
            """
            import random
            x = random.random()
            """
        )
        second = run(
            """
            import random

            # a comment pushing the call down
            x = random.random()
            """
        )
        assert first[0].fingerprint == second[0].fingerprint

    def test_fingerprint_changes_with_content(self):
        a = run("import random\nx = random.random()\n")
        b = run("import random\ny = random.random()\n")
        assert a[0].fingerprint != b[0].fingerprint

    def test_findings_sorted_and_rendered(self):
        found = run(
            """
            import random
            b = random.random()
            a = random.random()
            """
        )
        assert [f.line for f in found] == sorted(f.line for f in found)
        rendered = found[0].render()
        assert "RL001" in rendered and ":" in rendered

    def test_every_rule_has_positive_and_negative_fixture(self):
        # Meta-test: the classes above cover RL001..RL008.
        from repro.lint import RULES

        assert sorted(RULES) == [f"RL00{i}" for i in range(1, 9)]
        for i in range(1, 9):
            cls = globals()[f"TestRL00{i}"]
            names = [n for n in dir(cls) if n.startswith("test_")]
            assert any("fires" in n for n in names), f"RL00{i} lacks positive test"
            assert any(
                "clean" in n or "exempt" in n or "silences" in n for n in names
            ), f"RL00{i} lacks negative test"


@pytest.mark.parametrize("code", [f"RL00{i}" for i in range(1, 9)])
def test_rule_metadata_complete(code):
    from repro.lint import RULES

    rule = RULES[code]
    assert rule.summary, f"{code} missing summary"
    assert rule.name, f"{code} missing name"
    assert rule.node_types, f"{code} registers no node types"
