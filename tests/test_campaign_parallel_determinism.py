"""Property test: the campaign engine is worker-count invariant.

For any grid/seed combination, ``workers=1`` and ``workers=4`` (with
a shuffled submission order) must produce byte-identical result stores
once the wall-clock timing is projected away — the same
projection ``repro campaign verify`` enforces in CI.
"""

import json
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, grid_cells
from repro.campaign.store import load_results, write_run
from repro.campaign.verify import VOLATILE_ROW_KEYS, canonical_rows

DOUBLE = "tests.campaign_cells:double_cell"
DES = "tests.campaign_cells:des_cell"


def _store_bytes(campaign: CampaignSpec, workers: int, shuffle_seed=None) -> bytes:
    """Run, persist, reload, and canonically serialize a result store."""
    result = CampaignRunner(
        campaign, workers=workers, shuffle_seed=shuffle_seed
    ).run()
    with tempfile.TemporaryDirectory() as tmp:
        out = write_run(result, pathlib.Path(tmp) / "run")
        rows = load_results(out / "results.jsonl")
    for row in rows:
        for key in VOLATILE_ROW_KEYS:
            row.pop(key, None)
    text = "\n".join(
        json.dumps(row, sort_keys=True, separators=(",", ":")) for row in rows
    )
    return text.encode("utf-8")


class TestWorkerCountInvariance:
    @given(
        values=st.lists(
            st.integers(min_value=-20, max_value=20),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        seeds=st.lists(
            st.integers(min_value=0, max_value=99),
            min_size=1,
            max_size=2,
            unique=True,
        ),
        shuffle_seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=4, deadline=None)
    def test_double_cell_store_identical(self, values, seeds, shuffle_seed):
        campaign = CampaignSpec(
            "prop-doubles",
            grid_cells(
                DOUBLE, params={"scale": 3}, grid={"value": tuple(values)}, seeds=seeds
            ),
        )
        serial = _store_bytes(campaign, workers=1)
        parallel = _store_bytes(campaign, workers=4, shuffle_seed=shuffle_seed)
        assert serial == parallel

    @given(
        ticks=st.lists(
            st.integers(min_value=5, max_value=40),
            min_size=1,
            max_size=2,
            unique=True,
        ),
        seed=st.integers(min_value=0, max_value=99),
        shuffle_seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=3, deadline=None)
    def test_des_cell_store_identical(self, ticks, seed, shuffle_seed):
        campaign = CampaignSpec(
            "prop-des",
            grid_cells(DES, grid={"ticks": tuple(ticks)}, seeds=(seed,)),
        )
        serial = _store_bytes(campaign, workers=1)
        parallel = _store_bytes(campaign, workers=4, shuffle_seed=shuffle_seed)
        assert serial == parallel

    def test_canonical_rows_matches_store_projection(self):
        campaign = CampaignSpec(
            "proj-check",
            grid_cells(DOUBLE, params={"scale": 2}, grid={"value": (1, 2)}, seeds=(0,)),
        )
        result = CampaignRunner(campaign, workers=1).run()
        direct = canonical_rows(result).encode("utf-8")
        roundtripped = _store_bytes(campaign, workers=1)
        assert direct == roundtripped
