"""Session-scoped Ray fixture: ONE ray.init per pytest session."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def gc_between_queries():
    """Release each query's Dataset/ObjectRef graph before the next
    one runs: dropped results sit in reference cycles until a full gc
    pass, and the pinned object-store blocks degraded late-list
    queries ~3x in long sessions (same finding as bench.py's
    run_queries)."""
    yield
    import gc
    gc.collect()
