"""Tests for campaign/scenario specs: hashing and expansion."""

import hashlib
import os
import subprocess
import sys

import pytest

from repro.campaign.registry import get_campaign
from repro.campaign.spec import CampaignSpec, ScenarioSpec, canonicalize, grid_cells


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

    def test_digest_is_pinned(self):
        """The address format (newline + canonical JSON) never changes:
        digests already written to ``results.jsonl`` stay valid."""
        spec = ScenarioSpec("exp", {"x": 1})
        assert spec.digest() == (
            "ea9962c04eb592973e7136d42d03d90be884f5d106e99e0c0b9f4d8092d2b70e"
        )

    def test_digest_stable_across_processes(self):
        """Content addresses must not depend on hash randomization."""
        spec = ScenarioSpec("exp", {"x": 1, "label": "dock"}, seed=7)
        code = (
            "from repro.campaign.spec import ScenarioSpec;"
            "print(ScenarioSpec('exp', {'x': 1, 'label': 'dock'}, seed=7)"
            ".digest())"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONHASHSEED": "12345"},
        )
        assert out.stdout.strip() == spec.digest()

    def test_param_dict_roundtrip(self):
        spec = ScenarioSpec("exp", {"grid": [1, 2], "name": "a"})
        assert spec.param_dict() == {"grid": [1, 2], "name": "a"}


class TestCampaignSpec:
    def grid_spec(self):
        return CampaignSpec(
            "t",
            grid_cells(
                "exp", {"fixed": "yes"}, {"b": ("x", "y"), "a": (1, 2, 3)}, seeds=(0, 1)
            ),
        )

    def test_scenario_count(self):
        assert len(self.grid_spec().cells) == 12

    def test_expand_is_full_product(self):
        cells = self.grid_spec().cells
        combos = {(s.param_dict()["a"], s.param_dict()["b"], s.seed) for s in cells}
        assert len(combos) == 12
        assert all(s.param_dict()["fixed"] == "yes" for s in cells)

    def test_expand_deterministic_order(self):
        """Axes sorted by name, values as declared, seeds innermost."""
        order = [
            (s.param_dict()["a"], s.param_dict()["b"], s.seed)
            for s in self.grid_spec().cells
        ]
        assert order == [
            (a, b, seed) for a in (1, 2, 3) for b in ("x", "y") for seed in (0, 1)
        ]

    def test_with_overrides_pins_axis_and_merges_base(self):
        """--set K=V lands on every cell; duplicates keep first-seen order."""
        spec = self.grid_spec().with_overrides({"a": 9, "new": 1})
        assert [(s.param_dict()["b"], s.seed) for s in spec.cells] == [
            ("x", 0), ("x", 1), ("y", 0), ("y", 1)
        ]
        assert all(s.param_dict()["a"] == 9 for s in spec.cells)
        assert all(s.param_dict()["new"] == 1 for s in spec.cells)

    def test_seed_override_shifts_smallest_seed(self):
        cells = (
            ScenarioSpec("exp", {"x": 1}, seed=10),
            ScenarioSpec("exp", {"x": 2}, seed=11),
            ScenarioSpec("exp", {"x": 0}, seed=99),
        )
        spec = CampaignSpec("t", cells).with_overrides(seed=5)
        assert [s.seed for s in spec.cells] == [5, 6, 94]
        assert [s.param_dict() for s in spec.cells] == [c.param_dict() for c in cells]

    def test_campaign_digest_tracks_content(self):
        assert self.grid_spec().digest() == self.grid_spec().digest()
        assert (
            self.grid_spec().digest()
            != self.grid_spec().with_overrides({"a": 9}).digest()
        )
        reordered = CampaignSpec("t", self.grid_spec().cells[::-1])
        assert reordered.digest() != self.grid_spec().digest()

    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec("t", ())
        with pytest.raises(ValueError):
            CampaignSpec("t", grid_cells("exp", seeds=()))


#: SHA-256 over the newline-joined ordered cell digests of each
#: built-in grid campaign, under the overrides CI and the docs use,
#: as the grid-and-seeds spec expanded them before campaigns became
#: tuples of cells.  Keys: campaign name, then ``--set`` / ``--seed``.
PINNED_CELL_ORDER = {
    ("beam-patterns", (), None): (
        9, "4ddc615fd5dcc197150f39d7f1de64c8d48e6607b8a23014f9acbf9efe04bd31"),
    ("beam-patterns", (("positions", 8),), None): (
        9, "6743fc08d64fdb7d541e3af43b33ac5f88b5d27e6652e82ccedd830ffa8e7afd"),
    ("beam-patterns", (("setup", "laptop"),), None): (
        3, "8a909771bb7fd03f8e57c45c9e01af88319e8258a0e585612ed25170f8cd092e"),
    ("beam-patterns", (), 5): (
        9, "d4303f7c8a999a1ef88ae026834c8aec956bd4bc97c30957a04dd4d27107afd4"),
    ("beam-patterns", (("positions", 8),), 5): (
        9, "1cdfab18e902049c556caf462a2eda01f12754358af0122130d8fc27e92a6779"),
    ("range-vs-distance", (), None): (
        200, "fc015edf5d24eb5586b5dd60d1f0c1e0f0e40b2f31e1ffb96e3dad15d9674899"),
    ("range-vs-distance", (("distance_m", 8),), None): (
        10, "096a178a11e9b36df1822de834dbc08e47bf975512b1e3f5468904e49f1d86fc"),
    ("range-vs-distance", (), 5): (
        200, "99d137c8c53ebebe182f046b8332e13af6f606498da28628e3e2bbde565c97d2"),
    ("range-vs-distance", (("distance_m", 8),), 5): (
        10, "90b49f196095fbaba478cc606b773146147255e7ab700bd6623b63029fe8a12e"),
    ("mobility-speed", (), None): (
        6, "6e7ff8843b91be97f458fc87750e472a9963f2344d7cef1d865efeed0dc4baf0"),
    ("mobility-speed", (("approach_m", 3),), None): (
        6, "083d8d112051adb242ca834ccf43a227597e95ae009c15f3c56434707f51d60e"),
    ("mobility-speed", (("speed_kmh", 110), ("approach_m", 3)), None): (
        2, "d2c0f3ad8da2eba6eb236cd45c29ff000cf45dc091326f23ff8c595e7be7eaf9"),
    ("mobility-speed", (), 5): (
        6, "1723866c88b79c8c908385d1e528a099d505560fcb0e9721b9f9a02bbe555d01"),
    ("mobility-handover", (), None): (
        6, "5eb8035c4f312e8ebc0cc89b405df442ec042b37a571bc24a252f0bafa2a9729"),
    ("mobility-handover", (("num_aps", 2),), None): (
        6, "1192936b5dfdd73c59a02e9e57dcd56d0ced32a80083934311652fe48670e909"),
    ("mobility-handover", (("policy", "wifi"),), None): (
        2, "d88cf5a2c581f83937f94ad97a39e150f1344a3a7a24d2129c9931893898c0e5"),
    ("mobility-handover", (), 5): (
        6, "5b69c3378fa0e3f95cc379ba10693d02827792b3fa6af3982136bf923dc123f7"),
}


class TestBuiltinCampaigns:
    @pytest.mark.parametrize(
        "name, sets, seed", sorted(PINNED_CELL_ORDER, key=repr), ids=repr
    )
    def test_grid_campaign_cells_pinned(self, name, sets, seed):
        spec = get_campaign(name)
        if sets or seed is not None:
            spec = spec.with_overrides(dict(sets), seed)
        digests = [cell.digest() for cell in spec.cells]
        count, pinned = PINNED_CELL_ORDER[name, sets, seed]
        assert len(digests) == count
        assert hashlib.sha256("\n".join(digests).encode()).hexdigest() == pinned

    def test_interference_cells_are_figure_22(self):
        """7 offsets aligned then rotated at seed 10+i, two baselines at 99."""
        offsets = (0.0, 0.5, 1.0, 1.6, 2.0, 2.5, 3.0)
        expected = [
            ScenarioSpec(
                "interference_point",
                {"wihd_offset_m": d, "rotated": rotated, "duration_s": 0.3},
                seed=10 + i,
            )
            for rotated in (False, True)
            for i, d in enumerate(offsets)
        ] + [
            ScenarioSpec(
                "interference_point",
                {"wihd_offset_m": 0.0, "rotated": rotated, "with_wihd": False,
                 "duration_s": 0.3},
                seed=99,
            )
            for rotated in (False, True)
        ]
        assert list(get_campaign("interference").cells) == expected

    def test_interference_seed_and_duration_overrides(self):
        """--seed S gives the sweep S+i and the baselines S+89."""
        spec = get_campaign("interference").with_overrides({"duration_s": 0.1}, 37)
        assert [c.seed for c in spec.cells] == [*range(37, 44)] * 2 + [126, 126]
        assert {c.param_dict()["duration_s"] for c in spec.cells} == {0.1}

    def test_interference_aligned_only_drops_duplicates(self):
        spec = get_campaign("interference").with_overrides({"rotated": False})
        assert len(spec.cells) == 8
        assert [c.seed for c in spec.cells] == [*range(10, 17), 99]
