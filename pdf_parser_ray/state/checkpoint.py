"""Per-partition checkpointing: lineage + metrics + resume.

The reference has no checkpointing (SURVEY.md §4); at 100 TB a failed
job must not restart from zero. Layout::

    out/
      _MANIFEST.json                 # n_buckets, key, completed count
      bucket=00013/
        part-00013.parquet           # written atomically (tmp -> rename)
        _lineage.json                # rows, error_rows, key range, char
                                     # metrics (G5 analog), wall seconds
        _SUCCESS                     # commit marker

Resume = re-run the same command: buckets with ``_SUCCESS`` are dropped
from the input BEFORE the shuffle with a vectorized ``is_in`` filter, so
finished work costs one pruned scan, not recomputation. Correct because
the kernel is pure per-row (same input bucket -> same bytes).

Bucketing is a stable content hash of the partition key (vectorized
fixed-key siphash via relational.stable_bucket_series), NOT Python
``hash()`` (which is salted per process) — so bucket membership is
identical across runs and nodes.
"""

from __future__ import annotations

import json
import os
import re
import time
from typing import List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


def stable_bucket_array(keys: pa.Array, n_buckets: int) -> pa.Array:
    """Vectorized stable bucketing (shared scheme with
    relational.stable_bucket_series — deterministic across processes
    for a given pandas version, recorded in the manifest contract)."""
    from ..relational import stable_bucket_series
    return pa.array(stable_bucket_series(keys.to_pandas(), n_buckets),
                    pa.int32())


def add_bucket_column(batch: pa.Table, *, key: str, n_buckets: int,
                      salt_turns: int = 0) -> pa.Table:
    """Bucket by key — or, with ``salt_turns`` > 0, by
    (key, turn_idx // salt_turns): a mega-conversation then spreads
    across many buckets so no single writer task holds more than
    ~salt_turns of its rows (SURVEY.md §4 skew salting). Bucket remains
    a pure row function, so resume semantics are unchanged."""
    if salt_turns:
        from ..relational import stable_bucket_series
        keys = batch.column(key).to_pandas()
        chunk = (batch.column("turn_idx").to_pandas() // salt_turns)
        col = pa.array(stable_bucket_series(
            keys.astype(str) + "#" + chunk.astype(str), n_buckets),
            pa.int32())
    else:
        col = stable_bucket_array(batch.column(key).combine_chunks(),
                                  n_buckets)
    return batch.append_column("bucket", col)


def completed_buckets(out_dir: str, prefix: str = "bucket") -> List[int]:
    """Ids of the committed ``<prefix>=NNNNN`` partitions under
    ``out_dir`` (those holding ``_SUCCESS``). Only names of the form the
    writers produce count, so a writer's leftover
    ``<prefix>=NNNNN.tmp-<pid>`` directory is never taken for one."""
    if not os.path.isdir(out_dir):
        return []
    name_re = re.compile(re.escape(prefix) + r"=(\d{5,})")
    return sorted(
        int(m.group(1)) for m in map(name_re.fullmatch, os.listdir(out_dir))
        if m and os.path.exists(os.path.join(out_dir, m.group(0),
                                             "_SUCCESS")))


def fsync_path(path: str) -> None:
    """fsync one file or directory."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_tree(root: str) -> None:
    """fsync every file and directory under ``root`` (and root
    itself): data about to be made visible by a rename or a registry
    entry must be durable BEFORE it is — otherwise a power loss can
    leave a committed name whose files vanish from page cache."""
    for dirpath, _dirnames, filenames in os.walk(root, topdown=False):
        for name in filenames:
            fsync_path(os.path.join(dirpath, name))
        fsync_path(dirpath)


def write_json_atomic(path: str, obj, **dump_kwargs) -> None:
    """Durable atomic JSON write: the tmp file is fsynced before it
    replaces ``path`` and the directory after, so a reader (or a run
    after a power loss) sees either the old content or the whole new
    one, never a truncated file."""
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(obj, f, **dump_kwargs)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    fsync_path(os.path.dirname(path) or ".")


def _write_bucket(group: pd.DataFrame, out_dir: str) -> pd.DataFrame:
    """map_groups body: write one bucket atomically + lineage sidecar."""
    t0 = time.monotonic()
    bucket = int(group["bucket"].iloc[0])
    bdir = os.path.join(out_dir, f"bucket={bucket:05d}")
    os.makedirs(bdir, exist_ok=True)

    body = group.drop(columns=["bucket"]).sort_values(["conv_id", "turn_idx"])
    tmp = os.path.join(bdir, ".part.tmp.parquet")
    final = os.path.join(bdir, f"part-{bucket:05d}.parquet")
    pq.write_table(pa.Table.from_pandas(body, preserve_index=False), tmp)
    os.replace(tmp, final)  # atomic commit of the data file

    error_rows = int(body["metadata_json"].str.contains(
        '"error":', regex=False).sum()) if "metadata_json" in body else 0
    lineage = {
        "bucket": bucket,
        "rows": int(len(body)),
        "error_rows": error_rows,
        "conversations": int(body["conv_id"].nunique()),
        "conv_id_min": str(body["conv_id"].min()),
        "conv_id_max": str(body["conv_id"].max()),
        # G5 char-count metrics analog (A002_header_footer_2_col.py:334-340)
        "chars_extracted": int(body["extracted_text"].str.len().sum())
        if "extracted_text" in body else None,
        "wall_seconds": round(time.monotonic() - t0, 4),
    }
    with open(os.path.join(bdir, "_lineage.json"), "w") as f:
        json.dump(lineage, f, sort_keys=True)
    with open(os.path.join(bdir, "_SUCCESS"), "w") as f:
        f.write("")
    return pd.DataFrame([lineage])


def checkpointed_write(ds, out_dir: str, *, key: str = "conv_id",
                       n_buckets: int = 32,
                       salt_turns: int = 0) -> pd.DataFrame:
    """Write ``ds`` as resumable bucketed parquet; returns the per-bucket
    lineage metrics (small — one row per bucket).

    The groupby('bucket') is the job's ONE intentional all-to-all
    shuffle; everything upstream is narrow. n_buckets scales with the
    cluster (buckets ≫ nodes keeps stragglers short); it is pinned in
    the manifest so a resume can't silently re-bucket.
    """
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "_MANIFEST.json")
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            manifest = json.load(f)
        if (manifest["n_buckets"] != n_buckets or manifest["key"] != key
                or manifest.get("salt_turns", 0) != salt_turns):
            raise ValueError(
                f"resume mismatch: manifest has n_buckets="
                f"{manifest['n_buckets']} key={manifest['key']!r} "
                f"salt_turns={manifest.get('salt_turns', 0)}")
    else:
        with open(manifest_path, "w") as f:
            json.dump({"n_buckets": n_buckets, "key": key,
                       "salt_turns": salt_turns}, f)

    done = completed_buckets(out_dir)

    bucketed = ds.map_batches(add_bucket_column, batch_format="pyarrow",
                              fn_kwargs={"key": key, "n_buckets": n_buckets,
                                         "salt_turns": salt_turns})
    if done:
        done_arr = pa.array(done, pa.int32())
        bucketed = bucketed.map_batches(
            lambda t: t.filter(pc.invert(pc.is_in(t["bucket"], value_set=done_arr))),
            batch_format="pyarrow")

    import functools
    writer = functools.partial(_write_bucket, out_dir=out_dir)
    metrics_ds = bucketed.groupby("bucket").map_groups(
        writer, batch_format="pandas")
    metrics = metrics_ds.to_pandas()  # one row per bucket: small
    return metrics


def read_lineage(out_dir: str) -> pd.DataFrame:
    rows = []
    for b in completed_buckets(out_dir):
        with open(os.path.join(out_dir, f"bucket={b:05d}", "_lineage.json")) as f:
            rows.append(json.load(f))
    return pd.DataFrame(rows)
