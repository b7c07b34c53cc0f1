"""Tests for the content-addressed result cache."""

import json

import pytest

from repro.campaign.cache import ResultCache
from repro.campaign.spec import ScenarioSpec


@pytest.fixture()
def spec():
    return ScenarioSpec("exp", {"x": 1}, seed=0)


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache", salt="test-salt")


class TestRoundTrip:
    def test_miss_then_hit(self, cache, spec):
        assert cache.get(spec) is None
        assert not cache.contains(spec)
        cache.put(spec, {"answer": 42})
        assert cache.contains(spec)
        assert cache.get(spec) == {"answer": 42}

    def test_different_spec_misses(self, cache, spec):
        cache.put(spec, {"answer": 42})
        assert cache.get(ScenarioSpec("exp", {"x": 2}, seed=0)) is None
        assert cache.get(ScenarioSpec("exp", {"x": 1}, seed=1)) is None

    def test_two_level_layout(self, cache, spec):
        path = cache.put(spec, {"v": 1})
        digest = cache.key(spec)
        assert path.parent.name == digest[:2]
        assert path.name == f"{digest}.json"

    def test_entry_is_self_describing(self, cache, spec):
        path = cache.put(spec, {"v": 1})
        payload = json.loads(path.read_text())
        assert payload["digest"] == cache.key(spec)
        assert payload["salt"] == "test-salt"
        assert payload["spec"]["experiment"] == "exp"
        assert payload["result"] == {"v": 1}


class TestSalting:
    def test_salt_change_invalidates(self, tmp_path, spec):
        old = ResultCache(tmp_path / "c", salt="code-v1")
        old.put(spec, {"v": 1})
        assert old.get(spec) == {"v": 1}
        bumped = ResultCache(tmp_path / "c", salt="code-v2")
        assert bumped.get(spec) is None
        # The old entry still exists; the new salt simply addresses
        # different keys.
        assert bumped.entry_count() == 1

    def test_same_salt_shares_entries(self, tmp_path, spec):
        ResultCache(tmp_path / "c", salt="s").put(spec, {"v": 1})
        assert ResultCache(tmp_path / "c", salt="s").get(spec) == {"v": 1}


class TestRobustness:
    def test_corrupt_entry_is_a_miss_and_removed(self, cache, spec):
        path = cache.put(spec, {"v": 1})
        path.write_text("{not json")
        assert cache.get(spec) is None
        assert not path.exists()

    def test_entry_missing_result_key_is_a_miss(self, cache, spec):
        path = cache.put(spec, {"v": 1})
        path.write_text(json.dumps({"unexpected": True}))
        assert cache.get(spec) is None


class TestMaintenance:
    def fill(self, cache, n):
        for i in range(n):
            cache.put(ScenarioSpec("exp", {"i": i}), {"v": i})

    def test_entry_count(self, cache):
        assert cache.entry_count() == 0
        self.fill(cache, 5)
        assert cache.entry_count() == 5
