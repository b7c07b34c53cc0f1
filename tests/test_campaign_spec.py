"""Tests for campaign/scenario specs: hashing and expansion."""

import os
import subprocess
import sys

import pytest

from repro.campaign.spec import CampaignSpec, ScenarioSpec, canonicalize


class TestCanonicalize:
    def test_scalars_pass_through(self):
        assert canonicalize("x") == "x"
        assert canonicalize(3) == 3
        assert canonicalize(True) is True
        assert canonicalize(None) is None

    def test_integral_floats_normalize_to_int(self):
        assert canonicalize(2.0) == 2
        assert isinstance(canonicalize(2.0), int)
        assert canonicalize(2.5) == 2.5

    def test_sequences_become_lists(self):
        assert canonicalize((1, 2.0, "a")) == [1, 2, "a"]

    def test_non_data_rejected(self):
        with pytest.raises(TypeError):
            canonicalize(object())
        with pytest.raises(TypeError):
            canonicalize(lambda: None)


class TestScenarioSpec:
    def test_param_order_does_not_matter(self):
        a = ScenarioSpec("exp", {"x": 1, "y": 2}, seed=3)
        b = ScenarioSpec("exp", {"y": 2, "x": 1}, seed=3)
        assert a == b
        assert a.canonical() == b.canonical()
        assert a.digest() == b.digest()

    def test_float_int_equivalence(self):
        a = ScenarioSpec("exp", {"d": 2.0})
        b = ScenarioSpec("exp", {"d": 2})
        assert a.digest() == b.digest()

    def test_identity_fields_distinguish(self):
        base = ScenarioSpec("exp", {"x": 1}, seed=0)
        assert base.digest() != ScenarioSpec("exp2", {"x": 1}).digest()
        assert base.digest() != ScenarioSpec("exp", {"x": 2}).digest()
        assert base.digest() != ScenarioSpec("exp", {"x": 1}, seed=1).digest()

    def test_salt_changes_digest(self):
        spec = ScenarioSpec("exp", {"x": 1})
        assert spec.digest("v1") != spec.digest("v2")

    def test_digest_stable_across_processes(self):
        """Content addresses must not depend on hash randomization."""
        spec = ScenarioSpec("exp", {"x": 1, "label": "dock"}, seed=7)
        code = (
            "from repro.campaign.spec import ScenarioSpec;"
            "print(ScenarioSpec('exp', {'x': 1, 'label': 'dock'}, seed=7)"
            ".digest('salty'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONHASHSEED": "12345"},
        )
        assert out.stdout.strip() == spec.digest("salty")

    def test_param_dict_roundtrip(self):
        spec = ScenarioSpec("exp", {"grid": [1, 2], "name": "a"})
        assert spec.param_dict() == {"grid": [1, 2], "name": "a"}


class TestCampaignSpec:
    def grid_spec(self):
        return CampaignSpec(
            name="t",
            experiment="exp",
            base_params={"fixed": "yes"},
            grid={"a": (1, 2, 3), "b": ("x", "y")},
            seeds=(0, 1),
        )

    def test_scenario_count(self):
        assert self.grid_spec().scenario_count() == 12

    def test_expand_is_full_product(self):
        scenarios = self.grid_spec().expand()
        assert len(scenarios) == 12
        combos = {(s.param_dict()["a"], s.param_dict()["b"], s.seed) for s in scenarios}
        assert len(combos) == 12
        assert all(s.param_dict()["fixed"] == "yes" for s in scenarios)

    def test_expand_deterministic_order(self):
        a = [s.digest() for s in self.grid_spec().expand()]
        b = [s.digest() for s in self.grid_spec().expand()]
        assert a == b

    def test_with_overrides_pins_axis_and_merges_base(self):
        spec = self.grid_spec().with_overrides({"a": 9, "new": 1}, seeds=(5,))
        assert spec.grid_dict()["a"] == [9]
        assert spec.base_param_dict()["new"] == 1
        assert spec.seeds == (5,)
        assert spec.scenario_count() == 2  # a pinned, b has 2 values, 1 seed

    def test_campaign_digest_tracks_content(self):
        assert self.grid_spec().digest() == self.grid_spec().digest()
        assert (
            self.grid_spec().digest()
            != self.grid_spec().with_overrides({"a": 9}).digest()
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(name="t", experiment="exp", seeds=())
