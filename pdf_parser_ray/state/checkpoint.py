"""Per-partition checkpointing (lineage + metrics + resume) and the
one partition commit of the whole state layer.

The reference has no checkpointing (SURVEY.md §4); at 100 TB a failed
job must not restart from zero. Layout::

    out/
      _MANIFEST.json       # n_buckets, key, salt_turns: the bucketing
                           # a resume must repeat
      bucket=00013/        # one rename of bucket=00013.tmp-<pid>/
        part.parquet
        _lineage.json      # rows, error_rows, key range, char metrics
                           # (G5 analog), wall seconds, content hash
        _SUCCESS           # commit marker

`_commit` takes one partition as an Arrow table in its final row
order and writes the part file, the metadata file and ``_SUCCESS``
into a per-writer tmp directory, fsyncs it, and commits it with ONE
directory rename: no committed name ever lacks its marker or
metadata. A final-name directory with its metadata file and a part
file is adopted (its marker restored if lost); any other is rewritten.
The shard exports (state/shards.py) commit through it with
``_meta.json``, after their pandas sort.

The bucket writer never leaves Arrow: ``map_groups`` hands each bucket
over as a ``pyarrow`` table, ``pc.sort_indices`` orders it on
(conv_id, turn_idx) (stable, as pandas' mergesort), Arrow compute
kernels fill the lineage, and the task returns it as JSON text.

Resume = re-run the same command: buckets with ``_SUCCESS`` are dropped
from the input BEFORE the shuffle with a vectorized ``is_in`` filter, so
finished work costs one pruned scan, not recomputation. Correct because
the kernel is pure per-row (same input bucket -> same bytes). Bucket
membership is a fixed-key siphash of the key, NOT Python ``hash()``
(salted per process), so it is identical across runs and nodes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import shutil
import time
from typing import Callable, List, Optional

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

_ROW_GROUP = 65536          # rows per parquet row group / write slice
_HASH_CHUNK = 1 << 20       # bytes per content-hash read


def add_bucket_column(batch: pa.Table, *, key: str, n_buckets: int,
                      salt_turns: int = 0) -> pa.Table:
    """Bucket by a stable content hash of key
    (relational.stable_bucket_series — deterministic across processes
    for a given pandas version) — or, with ``salt_turns`` > 0, of
    (key, turn_idx // salt_turns): a mega-conversation then spreads
    across many buckets so no single writer task holds more than
    ~salt_turns of its rows (SURVEY.md §4 skew salting). Bucket remains
    a pure row function, so resume semantics are unchanged.

    The hash is pinned by golden bucket ids in the tests, so a pandas
    upgrade that moves them fails there instead of silently
    re-bucketing a resume. ``_MANIFEST.json`` does not record a
    ``hash_scheme`` yet: the benchmark's checkpoint check requires the
    manifest to hold exactly ``{n_buckets, key, salt_turns}``, so the
    key waits for the engine-owned hash and a benchmark change that
    admits it."""
    from ..relational import stable_bucket_series
    keys = batch.column(key).to_pandas()
    if salt_turns:
        chunk = batch.column("turn_idx").to_pandas() // salt_turns
        keys = keys.astype(str) + "#" + chunk.astype(str)
    return batch.append_column("bucket", pa.array(
        stable_bucket_series(keys, n_buckets), pa.int32()))


def _holds(pdir: str, name: str) -> bool:
    """Whether partition directory ``pdir`` holds ``name`` and a
    parquet part file."""
    try:
        names = os.listdir(pdir)
    except OSError:
        return False
    return name in names and any(n.endswith(".parquet") for n in names)


def completed_buckets(out_dir: str, prefix: str = "bucket") -> List[int]:
    """Ids of the committed ``<prefix>=NNNNN`` partitions under
    ``out_dir`` (those holding ``_SUCCESS`` and a parquet part file).
    Only names of the form the writers produce count, so a writer's
    leftover ``<prefix>=NNNNN.tmp-<pid>`` directory is never taken for
    one."""
    if not os.path.isdir(out_dir):
        return []
    name_re = re.compile(re.escape(prefix) + r"=(\d{5,})")
    return sorted(
        int(m.group(1)) for m in map(name_re.fullmatch, os.listdir(out_dir))
        if m and _holds(os.path.join(out_dir, m.group(0)), "_SUCCESS"))


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


# ------------------------------------------------------ the commit protocol

def _resume_layout(path: str, identity: dict,
                   derive: Optional[Callable[[], dict]] = None) -> dict:
    """The directory's recorded layout. A first run records
    ``identity`` plus what ``derive()`` computes from the data (sampled
    boundaries); a re-run must request the same identity and reuses the
    recorded derivation, so a resume can never re-partition."""
    if os.path.exists(path):
        with open(path) as f:
            layout = json.load(f)
        recorded = {k: layout.get(k) for k in identity}
        if recorded != identity:
            raise ValueError(f"resume mismatch: directory has {recorded}, "
                             f"requested {identity}")
        return layout
    layout = {**identity, **(derive() if derive else {})}
    write_json_atomic(path, layout)
    return layout


def _resume_partitions(out_dir: str, prefix: str) -> List[int]:
    """Ids of the committed partitions a re-run skips, after removing
    the ``<prefix>=NNNNN.tmp-<pid>`` directories of writers that died
    before their rename (no committed rows a glob may find)."""
    for name in os.listdir(out_dir):
        if name.startswith(f"{prefix}=") and ".tmp-" in name:
            shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)
    return completed_buckets(out_dir, prefix)


def _read_meta(pdir: str, meta_file: str = "_meta.json") -> dict:
    with open(os.path.join(pdir, meta_file)) as f:
        return json.load(f)


def _adopt(pdir: str, meta_file: str) -> Optional[dict]:
    """The metadata of an already committed partition directory, its
    ``_SUCCESS`` marker restored if lost. None when ``pdir`` is absent
    or no whole commit (an older writer died mid-write, or the part
    file was lost); such a directory is removed, to be rewritten."""
    try:
        meta = _read_meta(pdir, meta_file) if _holds(pdir, meta_file) \
            else None
    except ValueError:              # torn by an older, non-atomic writer
        meta = None
    if meta is None:
        shutil.rmtree(pdir, ignore_errors=True)
    elif not os.path.exists(os.path.join(pdir, "_SUCCESS")):
        open(os.path.join(pdir, "_SUCCESS"), "w").close()
        fsync_tree(pdir)
    return meta


def _narrow(schema: pa.Schema) -> pa.Schema:
    """``schema`` with large string and binary types narrowed, as a
    pandas round trip writes them: every part file of a directory
    keeps one schema, whichever writer produced it."""
    narrow = {pa.large_string(): pa.string(), pa.large_binary(): pa.binary()}
    return pa.schema([f.with_type(narrow.get(f.type, f.type))
                      for f in schema], metadata=schema.metadata)


def _commit(table: pa.Table, out_dir: str, prefix: str, pid: int,
            fields: Callable[[str], dict], *,
            meta_file: str = "_meta.json") -> dict:
    """Write partition ``pid`` (``table``, already in its final row
    order) and commit it with one directory rename; returns its
    metadata: ``{prefix: pid, "rows": n, **fields(content_hash)}``,
    stored as ``meta_file``."""
    sdir = os.path.join(out_dir, f"{prefix}={pid:05d}")
    # an earlier (crashed-after-rename or speculatively retried) task
    # already committed this partition — the rename IS the commit
    meta = _adopt(sdir, meta_file)
    if meta is not None:
        return meta
    # unique tmp dir per writer so concurrent retries never collide;
    # only the rename below is the commit point
    tmp = f"{sdir}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    ppath = os.path.join(tmp, "part.parquet")
    schema = _narrow(table.schema)
    with pq.ParquetWriter(ppath, schema) as w:
        for i in range(0, max(table.num_rows, 1), _ROW_GROUP):
            w.write_table(table.slice(i, _ROW_GROUP).cast(schema))
    # content identity = the parquet bytes themselves (the caller's
    # sort makes them partitioning-invariant), hashed streaming
    hasher = hashlib.blake2b(digest_size=16)
    with open(ppath, "rb") as f:
        for chunk in iter(lambda: f.read(_HASH_CHUNK), b""):
            hasher.update(chunk)
    meta = {prefix: pid, "rows": table.num_rows,
            **fields(hasher.hexdigest())}
    with open(os.path.join(tmp, meta_file), "w") as f:
        json.dump(meta, f)
    open(os.path.join(tmp, "_SUCCESS"), "w").close()
    fsync_tree(tmp)
    try:
        os.rename(tmp, sdir)             # the one atomic commit
    except OSError:
        # another writer committed first; keep its partition
        shutil.rmtree(tmp, ignore_errors=True)
        return _read_meta(sdir, meta_file)
    fsync_path(out_dir)
    return meta


# ------------------------------------------------------ the checkpointed write

#: the per-bucket lineage, in ``_lineage.json`` key order
_LINEAGE_COLUMNS = ("bucket", "rows", "error_rows", "conversations",
                   "conv_id_min", "conv_id_max", "chars_extracted",
                   "wall_seconds", "content_hash")


def _write_bucket(group: pa.Table, out_dir: str) -> pa.Table:
    """map_groups body: commit one bucket, sorted on (conv_id,
    turn_idx), with its lineage sidecar; returns the lineage as JSON
    text."""
    t0 = time.monotonic()
    pid = group.column("bucket")[0].as_py()
    body = group.drop_columns(["bucket"])
    body = body.take(pc.sort_indices(body, sort_keys=[
        ("conv_id", "ascending"), ("turn_idx", "ascending")]))
    cols = body.column_names

    def lineage(content_hash: str) -> dict:
        conv_min, conv_max = (
            "nan" if v is None else str(v)           # pandas' empty min
            for v in pc.min_max(body["conv_id"]).values())
        return {
            "error_rows": pc.sum(pc.match_substring(
                body["metadata_json"], '"error":'), min_count=0).as_py()
            if "metadata_json" in cols else 0,
            "conversations": pc.count_distinct(body["conv_id"]).as_py(),
            "conv_id_min": conv_min,
            "conv_id_max": conv_max,
            # G5 char-count metrics analog (A002_header_footer_2_col.py:334-340)
            "chars_extracted": pc.sum(pc.utf8_length(
                body["extracted_text"]), min_count=0).as_py()
            if "extracted_text" in cols else None,
            "wall_seconds": round(time.monotonic() - t0, 4),
            "content_hash": content_hash,
        }

    meta = _commit(body, out_dir, "bucket", pid, lineage,
                   meta_file="_lineage.json")
    return pa.table({"lineage": pa.array([json.dumps(meta)], pa.string())})


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
    _resume_layout(os.path.join(out_dir, "_MANIFEST.json"),
                   {"n_buckets": n_buckets, "key": key,
                    "salt_turns": salt_turns})
    done = _resume_partitions(out_dir, "bucket")

    bucketed = ds.map_batches(add_bucket_column, batch_format="pyarrow",
                              fn_kwargs={"key": key, "n_buckets": n_buckets,
                                         "salt_turns": salt_turns})
    if done:
        done_arr = pa.array(done, pa.int32())
        bucketed = bucketed.map_batches(
            lambda t: t.filter(pc.invert(pc.is_in(t["bucket"], value_set=done_arr))),
            batch_format="pyarrow")

    writer = functools.partial(_write_bucket, out_dir=out_dir)
    written = bucketed.groupby("bucket").map_groups(  # one row per bucket
        writer, batch_format="pyarrow").to_pandas()
    metas = sorted((json.loads(m) for m in written.get("lineage", [])),
                   key=lambda m: m["bucket"])
    # typed columns even when every bucket was already committed
    return pd.DataFrame(metas, columns=list(_LINEAGE_COLUMNS)).astype(
        dict.fromkeys(_LINEAGE_COLUMNS[:4], "int64"))


def read_lineage(out_dir: str) -> pd.DataFrame:
    return pd.DataFrame([_read_meta(os.path.join(out_dir, f"bucket={b:05d}"),
                                    "_lineage.json")
                         for b in completed_buckets(out_dir)])
