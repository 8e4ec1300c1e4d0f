"""Committed, re-runnable FULL oracle sweep at sf0.01 (the driver's
correctness scale) — VERDICT r3 item 3.

`tests/test_queries_oracle.py` parametrizes every ORACLES entry at
sf0.001; this target re-runs the whole registry at sf0.01 with the
DRIVER's compare: canonicalize (sort columns by name, round floats,
normalize int/datetime widths, sort rows) then compare a VALUE HASH of
the frame — so it reproduces exactly the evidence CORRECTNESS_r{N}.json
samples, for all 89 oracled queries instead of the 50 the driver draws
per round. Slow (`-m "not sweep"` deselects it); one pytest target
reproduces the sweep:

    python -m pytest tests/test_full_oracle_sweep.py -q
"""

import duckdb
import pandas as pd
import pytest

from pdf_parser_ray.queries import ORACLES, QUERIES
from tests.oracle_compare import canon, value_hash

pytestmark = pytest.mark.sweep

SF_DIR = "/root/testdata/sf0.01"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")
    return c


@pytest.fixture(autouse=True)
def _gc_between_queries():
    """Release each query's Dataset/ObjectRef graph before the next
    one runs: dropped results sit in reference cycles until a full gc
    pass, and the pinned object-store blocks degraded late-list
    queries ~3x in long sessions (same finding as bench.py's
    run_queries)."""
    yield
    import gc
    gc.collect()


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_value_hash_sf001(ray_session, con, name):
    got = QUERIES[name](SF_DIR)
    if not isinstance(got, pd.DataFrame):
        got = got.to_pandas()
    want = con.sql(ORACLES[name]).df()
    assert sorted(got.columns) == sorted(want.columns), (
        f"{name}: column mismatch {sorted(got.columns)} "
        f"vs {sorted(want.columns)}")
    g, w = canon(got), canon(want)
    assert len(g) == len(w), f"{name}: {len(g)} rows vs oracle {len(w)}"
    # value-hash compare, like CORRECTNESS_r{N}.json's hash_match —
    # with the frame-equal fallback so a miss prints WHERE it differs
    if value_hash(g) != value_hash(w):
        pd.testing.assert_frame_equal(g, w, check_dtype=False,
                                      check_exact=False, rtol=0,
                                      atol=1e-6)
        pytest.fail(f"{name}: value hash mismatch but frames equal "
                    "within 1e-6 — tighten the query's rounding so the "
                    "driver's exact hash compare is stable")
