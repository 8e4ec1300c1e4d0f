"""Per-partition checkpointing (lineage + metrics + resume) and the
one partition commit of the whole state layer.

The reference has no checkpointing (SURVEY.md §4); at 100 TB a failed
job must not restart from zero. Layout::

    out/
      _MANIFEST.json       # n_buckets, key, salt_turns: the bucketing
                           # a resume must repeat
      bucket=00013/        # one rename of bucket=00013.tmp-<run id>/
        part-<uuid>.parquet  # one sorted part per read block that
        part-<uuid>.parquet  # held rows of this bucket
        _lineage.json      # rows, error_rows, key range, char metrics
                           # (G5 analog), wall seconds, content hash,
                           # and the part file names
        _SUCCESS           # commit marker

The checkpointed write has no shuffle. Its map side is fused into the
read + extract task: the task buckets its block, sorts it once on
(bucket, conv_id, turn_idx) (``pc.sort_indices`` is stable, as pandas'
mergesort), reads each part's lineage off the sorted runs, and writes
one part per bucket it holds into that bucket's staging directory
``bucket=NNNNN.tmp-<run id>/`` under a unique name; it fsyncs every
part in one pass before returning one small record per part. The
calling process then seals each bucket: it deletes staged files no
record lists (a retried attempt's leftovers), writes ``_lineage.json``
and ``_SUCCESS`` and commits the bucket with ONE directory rename. No
task ever holds a whole bucket; the cost is blocks x buckets part
files, each sorted on its own.

`_commit` takes one partition as an Arrow table in its final row
order, writes ``part.parquet`` into a per-writer tmp directory and
seals it the same way; the shard exports (state/shards.py) commit
through it with ``_meta.json``, after their pandas sort. No committed
name ever lacks its marker or metadata. A final-name directory whose
metadata file and every part file it lists are present is adopted
(its marker restored if lost); any other is rewritten.

Resume = re-run the same command: the map side drops the rows of
buckets that hold ``_SUCCESS`` and every listed part with a vectorized
``is_in`` filter, so finished work costs one pruned scan, not a
rewrite. Correct because the kernel is pure per-row (same input bucket
-> same rows). Bucket membership is a fixed-key siphash of the key,
NOT Python ``hash()`` (salted per process), so it is identical across
runs and nodes.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import time
import uuid
from typing import Callable, Dict, List, Optional

import numpy as np
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
    across many buckets so no single bucket, the resume unit, holds
    more than ~salt_turns of its rows (SURVEY.md §4 skew salting).
    The checkpointed write calls it per block, on the map side: no task
    holds a whole bucket, salted or not. Bucket remains a pure row
    function, so resume semantics are unchanged.

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


#: a partition's metadata file: checkpoint buckets, then the exports
_META_FILES = ("_lineage.json", "_meta.json")


def _whole(pdir: str, meta_file: str) -> Optional[dict]:
    """The metadata of partition directory ``pdir`` when it holds
    ``meta_file`` and every part file that lists (``part.parquet`` for
    metadata with no ``parts`` list: the exports' and the older
    single-part checkpoint's); else None."""
    try:
        meta = _read_meta(pdir, meta_file)
    except (OSError, ValueError):   # absent, or torn by an older writer
        return None
    parts = meta.get("parts", ["part.parquet"])
    return meta if all(os.path.isfile(os.path.join(pdir, p))
                       for p in parts) else None


def completed_buckets(out_dir: str, prefix: str = "bucket") -> List[int]:
    """Ids of the committed ``<prefix>=NNNNN`` partitions under
    ``out_dir`` (those holding ``_SUCCESS``, their metadata file and
    every part file it lists). Only names of the form the writers
    produce count, so a writer's leftover ``<prefix>=NNNNN.tmp-<id>``
    directory is never taken for one."""
    if not os.path.isdir(out_dir):
        return []
    name_re = re.compile(re.escape(prefix) + r"=(\d{5,})")
    done = []
    for m in map(name_re.fullmatch, os.listdir(out_dir)):
        pdir = m and os.path.join(out_dir, m.group(0))
        if pdir and os.path.exists(os.path.join(pdir, "_SUCCESS")) and any(
                _whole(pdir, f) is not None for f in _META_FILES):
            done.append(int(m.group(1)))
    return sorted(done)


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
    the ``<prefix>=NNNNN.tmp-<id>`` directories of writers that died
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
    or no whole commit (an older writer died mid-write, or a part file
    it lists was lost); such a directory is removed, to be rewritten."""
    meta = _whole(pdir, meta_file)
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


def _seal(tmp: str, pdir: str, meta: dict, meta_file: str) -> dict:
    """Commit the staged directory ``tmp``, whose part files are
    already durable, as ``pdir``: write ``meta_file`` and ``_SUCCESS``,
    fsync them and the directory, then ONE rename. Returns the committed
    metadata (another writer's, if it committed first). The caller
    fsyncs the parent directory."""
    for name, text in ((meta_file, json.dumps(meta)), ("_SUCCESS", "")):
        with open(os.path.join(tmp, name), "w") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
    fsync_path(tmp)
    try:
        os.rename(tmp, pdir)             # the one atomic commit
    except OSError:
        # another writer committed first; keep its partition
        shutil.rmtree(tmp, ignore_errors=True)
        return _read_meta(pdir, meta_file)
    return meta


def _commit(table: pa.Table, out_dir: str, prefix: str, pid: int,
            fields: Callable[[str], dict], *,
            meta_file: str = "_meta.json") -> dict:
    """Write partition ``pid`` (``table``, already in its final row
    order) as ``part.parquet`` and commit it with one directory rename;
    returns its metadata: ``{prefix: pid, "rows": n,
    **fields(content_hash)}``, stored as ``meta_file``."""
    sdir = os.path.join(out_dir, f"{prefix}={pid:05d}")
    # an earlier (crashed-after-rename or speculatively retried) task
    # already committed this partition — the rename IS the commit
    meta = _adopt(sdir, meta_file)
    if meta is not None:
        return meta
    # unique tmp dir per writer so concurrent retries never collide;
    # only the rename in _seal is the commit point
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
    fsync_path(ppath)
    meta = _seal(tmp, sdir, {prefix: pid, "rows": table.num_rows,
                             **fields(hasher.hexdigest())}, meta_file)
    fsync_path(out_dir)
    return meta


# ------------------------------------------------------ the checkpointed write

#: the per-bucket lineage, in ``_lineage.json`` key order (the file
#: then lists the bucket's ``parts``)
_LINEAGE_COLUMNS = ("bucket", "rows", "error_rows", "conversations",
                   "conv_id_min", "conv_id_max", "chars_extracted",
                   "wall_seconds", "content_hash")


def _staging_dir(out_dir: str, bucket: int, run_id: str) -> str:
    return os.path.join(out_dir, f"bucket={bucket:05d}.tmp-{run_id}")


#: the part encodings: a dictionary only where values repeat (keys and
#: tool tags) and min / max statistics only on the sort keys; a text
#: column's dictionary is built over unique strings, and its statistics
#: would put two whole texts in the footer
_PART_DICTIONARY = ["conv_id", "tool"]
_PART_STATISTICS = ["conv_id", "turn_idx"]


def _run_lineage(table: pa.Table, starts: np.ndarray) -> Dict[str, list]:
    """Each part's lineage figures, read off the runs of ``table``
    (sorted on (bucket, conv_id, turn_idx)) that begin at ``starts``.
    Within a run the nulls sort last, so its non-null conv_ids come
    first, grouped and in byte order."""
    n, cols = table.num_rows, table.column_names

    def run_sums(per_row: pa.ChunkedArray) -> list:
        return np.add.reduceat(per_row.to_numpy(zero_copy_only=False),
                               starts).tolist()

    conv = table["conv_id"].combine_chunks()
    valid = conv.is_valid().to_numpy(zero_copy_only=False)
    # a row opens a conversation when it is valid and is its run's
    # first row or follows another conv_id
    new = valid.copy()
    new[1:] &= ~pc.equal(conv[1:], conv[:-1]).fill_null(False) \
        .to_numpy(zero_copy_only=False)
    new[starts] = valid[starts]
    n_valid = np.add.reduceat(valid, starts)
    # [min, max] = the first and the last valid conv_id of the run
    lo, hi = [None] * len(starts), [None] * len(starts)
    ranged = np.flatnonzero(n_valid)
    firsts = starts[ranged]
    for i, first, last in zip(
            ranged.tolist(), conv.take(firsts).to_pylist(),
            conv.take(firsts + n_valid[ranged] - 1).to_pylist()):
        lo[i], hi[i] = first, last
    return {
        "rows": np.diff(starts, append=n).tolist(),
        "error_rows": run_sums(pc.match_substring(
            table["metadata_json"], '"error":').fill_null(False))
        if "metadata_json" in cols else [0] * len(starts),
        "conversations": np.add.reduceat(new, starts).tolist(),
        "conv_id_min": lo, "conv_id_max": hi,
        "chars_extracted": run_sums(
            pc.utf8_length(table["extracted_text"]).fill_null(0))
        if "extracted_text" in cols else [None] * len(starts),
    }


def _stage_parts(batch: pa.Table, *, out_dir: str, key: str,
                 n_buckets: int, salt_turns: int, done: List[int],
                 run_id: str) -> pa.Table:
    """The map side of the checkpointed write, fused into the read +
    extract task: bucket one block, drop the committed buckets' rows,
    sort the rest once on (bucket, conv_id, turn_idx) and write one
    part per bucket into its staging directory, every part fsynced
    before the task returns. Returns one JSON record per part: its
    bucket and file name, rows, error rows, distinct conv_ids and their
    min / max, characters, content hash (blake2b of the parquet bytes)
    and write seconds."""
    table = add_bucket_column(batch, key=key, n_buckets=n_buckets,
                              salt_turns=salt_turns)
    if done:
        table = table.filter(pc.invert(pc.is_in(
            table["bucket"], value_set=pa.array(done, pa.int32()))))
    if not table.num_rows:
        return pa.table({"part": pa.array([], pa.string())})
    table = table.take(pc.sort_indices(table, sort_keys=[
        ("bucket", "ascending"), ("conv_id", "ascending"),
        ("turn_idx", "ascending")]))
    bucket = table["bucket"].to_numpy()
    starts = np.flatnonzero(np.diff(bucket, prepend=-1))
    lineage = _run_lineage(table, starts)
    body = table.drop_columns(["bucket"])
    body = body.cast(_narrow(body.schema))
    records, paths = [], []
    for i, start in enumerate(starts.tolist()):
        t0 = time.monotonic()
        b = int(bucket[start])
        part = f"part-{uuid.uuid4().hex}.parquet"
        sdir = _staging_dir(out_dir, b, run_id)
        os.makedirs(sdir, exist_ok=True)
        sink = pa.BufferOutputStream()
        pq.write_table(body.slice(start, lineage["rows"][i]), sink,
                       row_group_size=_ROW_GROUP,
                       use_dictionary=_PART_DICTIONARY,
                       write_statistics=_PART_STATISTICS)
        data = sink.getvalue()
        # the staging directory is invisible until the seal, so the part
        # goes straight to its unique name
        paths.append(os.path.join(sdir, part))
        with open(paths[-1], "wb") as f:
            f.write(data)
        records.append({
            "bucket": b, "part": part,
            **{k: v[i] for k, v in lineage.items()},
            "content_hash": hashlib.blake2b(
                data, digest_size=16).hexdigest(),
            "write_seconds": time.monotonic() - t0})
    # one fsync pass once every part is written and closed: the parts
    # are durable before their records leave the task, so before the
    # seal renames anything
    t0 = time.monotonic()
    for path in paths:
        fsync_path(path)
    each = (time.monotonic() - t0) / len(paths)
    return pa.table({"part": pa.array(
        [json.dumps({**r, "write_seconds": r["write_seconds"] + each})
         for r in records], pa.string())})


def _conversations(sdir: str, parts: List[dict]) -> int:
    """Distinct conv_ids over a bucket's parts that hold any. Each
    part's count and [min, max] are exact, so while the parts' ranges at
    most touch, it is the sum of the per-part counts less the shared
    endpoints; once two ranges interleave, the parts' conv_id columns
    are read."""
    total, high = 0, None
    for p in sorted(parts, key=lambda p: (p["conv_id_min"],
                                          p["conv_id_max"])):
        if high is not None and p["conv_id_min"] < high:
            return pc.count_distinct(pa.chunked_array(
                pq.read_table(os.path.join(sdir, q["part"]),
                              columns=["conv_id"]).column(0)
                for q in parts)).as_py()
        total += p["conversations"] - (p["conv_id_min"] == high)
        high = p["conv_id_max"]
    return total


def _seal_bucket(out_dir: str, run_id: str, bucket: int,
                 parts: List[dict]) -> dict:
    """The seal: commit one bucket from its staged parts' records
    and return its lineage. Lineage values are those of one sorted file
    of the bucket's rows, except ``content_hash``: the blake2b over the
    part hashes in part order (sorted by hash), so it depends on the
    read's block boundaries, not only on the rows. ``wall_seconds`` sums
    the parts' write times and the seal's."""
    t0 = time.monotonic()
    sdir = _staging_dir(out_dir, bucket, run_id)
    pdir = os.path.join(out_dir, f"bucket={bucket:05d}")
    # committed already (at most its marker lost): keep its parts
    meta = _adopt(pdir, "_lineage.json")
    if meta is not None:
        shutil.rmtree(sdir, ignore_errors=True)
        return meta
    parts = sorted(parts, key=lambda p: (p["content_hash"], p["part"]))
    names = [p["part"] for p in parts]
    for name in set(os.listdir(sdir)) - set(names):
        os.remove(os.path.join(sdir, name))   # a retried attempt's part
    hasher = hashlib.blake2b(digest_size=16)
    for p in parts:
        hasher.update(bytes.fromhex(p["content_hash"]))
    ranged = [p for p in parts if p["conv_id_min"] is not None]
    chars = [p["chars_extracted"] for p in parts
             if p["chars_extracted"] is not None]
    meta = {
        "bucket": bucket,
        "rows": sum(p["rows"] for p in parts),
        "error_rows": sum(p["error_rows"] for p in parts),
        "conversations": _conversations(sdir, ranged),
        # "nan" for no conv_id at all, as pandas' empty min
        "conv_id_min": str(min(p["conv_id_min"] for p in ranged))
        if ranged else "nan",
        "conv_id_max": str(max(p["conv_id_max"] for p in ranged))
        if ranged else "nan",
        # G5 char-count metrics analog (A002_header_footer_2_col.py:334-340)
        "chars_extracted": sum(chars) if chars else None,
        "wall_seconds": round(sum(p["write_seconds"] for p in parts)
                              + time.monotonic() - t0, 4),
        "content_hash": hasher.hexdigest(),
        "parts": names,
    }
    return _seal(sdir, pdir, meta, "_lineage.json")


def _seal_buckets(out_dir: str, run_id: str, records: List[dict]
                  ) -> List[dict]:
    """Seal every bucket the part ``records`` name, then sweep this
    run's staging directories that no record named."""
    by_bucket: Dict[int, List[dict]] = {}
    for r in records:
        by_bucket.setdefault(r["bucket"], []).append(r)
    metas = [_seal_bucket(out_dir, run_id, b, by_bucket[b])
             for b in sorted(by_bucket)]
    for name in os.listdir(out_dir):
        if name.endswith(f".tmp-{run_id}"):
            shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)
    fsync_path(out_dir)
    return metas


def checkpointed_write(ds, out_dir: str, *, key: str = "conv_id",
                       n_buckets: int = 32,
                       salt_turns: int = 0) -> pd.DataFrame:
    """Write ``ds`` as resumable bucketed parquet; returns the per-bucket
    lineage metrics (small — one row per bucket written or adopted).

    No shuffle: each task of ``ds`` stages its own rows' parts
    (``_stage_parts``, fused into the task, so no task holds more than
    one block of a bucket) and this process seals the buckets from the
    part records it collects. n_buckets is the resume unit's count;
    it is pinned in the manifest so a resume can't silently re-bucket.
    """
    os.makedirs(out_dir, exist_ok=True)
    _resume_layout(os.path.join(out_dir, "_MANIFEST.json"),
                   {"n_buckets": n_buckets, "key": key,
                    "salt_turns": salt_turns})
    run_id = uuid.uuid4().hex[:12]
    staged = ds.map_batches(_stage_parts, batch_format="pyarrow", fn_kwargs={
        "out_dir": out_dir, "key": key, "n_buckets": n_buckets,
        "salt_turns": salt_turns, "run_id": run_id,
        "done": _resume_partitions(out_dir, "bucket")}).to_pandas()
    metas = _seal_buckets(out_dir, run_id,
                          [json.loads(r) for r in staged.get("part", [])])
    # typed columns even when every bucket was already committed
    return pd.DataFrame(metas, columns=list(_LINEAGE_COLUMNS)).astype(
        dict.fromkeys(_LINEAGE_COLUMNS[:4], "int64"))


def read_lineage(out_dir: str) -> pd.DataFrame:
    return pd.DataFrame([_read_meta(os.path.join(out_dir, f"bucket={b:05d}"),
                                    "_lineage.json")
                         for b in completed_buckets(out_dir)])
