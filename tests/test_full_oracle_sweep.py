"""Committed, re-runnable FULL oracle sweep at sf0.01 (the driver's
correctness scale) — VERDICT r3 item 3.

Every ORACLES entry runs through `tests/oracle_compare.assert_oracle_match`,
the same check `tests/test_queries_oracle.py` runs at sf0.001: the
DRIVER's compare (canonicalize, then compare a VALUE HASH of the
frame), so it reproduces exactly the evidence CORRECTNESS_r{N}.json
samples, for every oracled query instead of the 50 the driver draws
per round. Slow (`-m "not sweep"` deselects it); one pytest target
reproduces the sweep:

    python -m pytest tests/test_full_oracle_sweep.py -q
"""

import pytest

from pdf_parser_ray.queries import ORACLES
from tests.oracle_compare import assert_oracle_match

pytestmark = pytest.mark.sweep

SF_DIR = "/root/testdata/sf0.01"


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_value_hash_sf001(ray_session, gc_between_queries, name):
    assert_oracle_match(SF_DIR, name)
