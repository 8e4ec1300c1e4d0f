"""Wave-level incremental extraction over an append-only corpus.

Production shape: a crawl/ingest pipeline lands new transcript Parquet
files every day; the extraction job is re-submitted over the WHOLE
file listing and must process only what is new, resume a crashed wave
without duplicating rows, and expose one coherent read surface over
everything extracted so far. (The reference has no incremental mode —
its CLI re-extracts whole PDFs; this is the 100-TB-operations layer on
top of the same per-turn kernel.)

Layout under ``out_dir``:

    _WAVES.json              committed-wave registry (atomic replace)
    wave=00000/_WAVE.json    the wave's input file list (written first)
    wave=00000/bucket=*/     the existing checkpointed bucketed write
    wave=00001/...

Crash protocol: a wave directory is created (with its `_WAVE.json`
file list) BEFORE extraction and its registry entry is appended only
AFTER the checkpointed write completes. A crash in between leaves an
uncommitted wave dir; the next submission with the same pending file
set RESUMES it (the bucketed write skips completed buckets) and then
commits. An uncommitted dir whose recorded file set differs from the
pending one is ambiguous and refused, like checkpoint.py's re-bucket
guard — never silently mixed.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import List, Optional, Sequence, Tuple

import pandas as pd

from .checkpoint import completed_buckets, fsync_tree, write_json_atomic

_REGISTRY = "_WAVES.json"
_WAVE_META = "_WAVE.json"


def _registry_path(out_dir: str) -> str:
    return os.path.join(out_dir, _REGISTRY)


def _read_registry_full(out_dir: str) -> dict:
    p = _registry_path(out_dir)
    if not os.path.exists(p):
        return {"waves": [], "compactions": []}
    with open(p) as f:
        reg = json.load(f)
    reg.setdefault("compactions", [])
    return reg


def read_registry(out_dir: str) -> List[dict]:
    return _read_registry_full(out_dir)["waves"]


def read_compactions(out_dir: str) -> List[dict]:
    return _read_registry_full(out_dir)["compactions"]


def _commit_registry(out_dir: str, waves: List[dict],
                     compactions: List[dict]) -> None:
    """Durable atomic registry replace. Callers must first fsync the
    DATA the new entry points at (`fsync_tree`), so a power loss can
    never surface a registry state newer than its data — the ordering
    prune_superseded relies on before deleting the only copy of a
    superseded generation."""
    write_json_atomic(_registry_path(out_dir),
                      {"waves": waves, "compactions": compactions},
                      sort_keys=True)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


@contextlib.contextmanager
def _registry_lock(out_dir: str, timeout: float = 30.0):
    """Exclusive lock serializing registry read-modify-write: the
    supported concurrency is one daily extractor + one compactor, and
    without this either commit could overwrite the other's entry
    (lockless JSON read-modify-write).

    Two layers, because flock alone is advisory AND node-local: on a
    shared fs that does not forward flock across nodes (NFSv3, some
    FUSE mounts) two writers on different machines would both "hold"
    it. So after the flock, the critical section is fenced by an
    O_CREAT|O_EXCL lease file (atomic create on local fs and NFSv3+).
    A second writer the flock failed to exclude sees the live lease
    and raises LOUDLY after ``timeout`` instead of interleaving the
    read-modify-write. A stale lease from a crashed writer on the
    SAME host (pid provably dead) is reclaimed automatically; a
    foreign-host lease is never stolen — operator removes it after
    confirming the writer is gone."""
    import fcntl
    import socket
    import time
    fd = os.open(os.path.join(out_dir, "_WAVES.lock"),
                 os.O_CREAT | os.O_RDWR)
    lease = os.path.join(out_dir, "_WAVES.lease")
    host = socket.gethostname()
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        deadline = time.monotonic() + timeout
        while True:
            try:
                lfd = os.open(lease,
                              os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                try:
                    with open(lease) as f:
                        info = json.load(f)
                except (OSError, json.JSONDecodeError):
                    info = None   # mid-write or just released; retry
                if (info and info.get("host") == host
                        and not _pid_alive(int(info.get("pid", -1)))):
                    with contextlib.suppress(FileNotFoundError):
                        os.unlink(lease)   # same-host crash: reclaim
                    continue
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"registry lease {lease!r} is held by "
                        f"{info or 'an unreadable writer'} while this "
                        "process holds the flock — either the shared "
                        "filesystem does not forward flock between "
                        "writers (NFSv3/FUSE) and another node is "
                        "mid-commit, or a writer crashed on another "
                        "host. Refusing to interleave the registry "
                        "read-modify-write; remove the lease file "
                        "only after confirming that writer is gone.")
                time.sleep(0.1)
        try:
            os.write(lfd, json.dumps(
                {"host": host, "pid": os.getpid()}).encode())
            os.fsync(lfd)
        finally:
            os.close(lfd)
        try:
            yield
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(lease)
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


def _commit_with(out_dir: str, *, add_wave: Optional[dict] = None,
                 add_compaction: Optional[dict] = None) -> None:
    """Append an entry under the registry lock, against the CURRENT
    registry — a wave or compaction committed by the other writer
    while this one worked is preserved."""
    with _registry_lock(out_dir):
        cur = _read_registry_full(out_dir)
        if add_wave is not None:
            cur["waves"].append(add_wave)
        if add_compaction is not None:
            cur["compactions"].append(add_compaction)
        _commit_registry(out_dir, cur["waves"], cur["compactions"])


def _empty_metrics() -> pd.DataFrame:
    return pd.DataFrame({
        "bucket": pd.array([], dtype="int64"),
        "rows": pd.array([], dtype="int64"),
        "error_rows": pd.array([], dtype="int64")})


def extract_wave(transcript_files: Sequence[str], out_dir: str, *,
                 n_buckets: int = 32, salt_turns: int = 0,
                 override_num_blocks: Optional[int] = None,
                 ) -> Tuple[Optional[int], pd.DataFrame]:
    """Extract the files in ``transcript_files`` that no committed wave
    has processed yet. Returns ``(wave_id, per-bucket metrics)`` for the
    LAST wave this call committed; ``(None, empty)`` when everything
    submitted is already committed (idempotent re-submission). The
    whole current listing can be passed every time — diffing against
    the registry is the point.

    Crash recovery: an uncommitted wave dir whose recorded file set is
    a SUBSET of the pending files is resumed (bucket-wise) and
    committed first, and the remainder then proceeds as the next
    wave in the same call — so a crash that straddles a new file drop
    never wedges the daily re-submission. A recorded set containing
    files NOT in the pending listing is genuinely ambiguous and
    refused. A dir that crashed before its ``_WAVE.json`` landed
    (meta is written atomically, so it is either absent or valid) has
    by construction no extracted data and is adopted for the current
    pending set."""
    from ..pipelines.extraction import run_extraction_from_parquet
    from .checkpoint import read_lineage

    os.makedirs(out_dir, exist_ok=True)
    files = sorted(os.path.abspath(p) for p in transcript_files)
    last: Tuple[Optional[int], pd.DataFrame] = (None, _empty_metrics())
    while True:
        waves = read_registry(out_dir)
        seen = {f for w in waves for f in w["files"]}
        new_files = [f for f in files if f not in seen]
        if not new_files:
            return last

        wave_id = len(waves)
        wdir = os.path.join(out_dir, f"wave={wave_id:05d}")
        meta_path = os.path.join(wdir, _WAVE_META)
        if os.path.exists(meta_path):
            with open(meta_path) as f:
                wave_files = json.load(f)["files"]
            stray = [f for f in wave_files if f not in new_files]
            if stray:
                raise ValueError(
                    f"uncommitted {wdir} was started for a different "
                    f"file set ({len(stray)} of its files are not in "
                    "the pending listing); refusing to mix waves "
                    "(remove the directory or re-submit the original "
                    "listing)")
            # subset (or equal): resume THIS wave over its own files;
            # any remaining pending files become the next loop turn
        else:
            # no meta -> the previous run died before _WAVE.json's
            # atomic replace, so no extraction ever started here;
            # adopt the dir for the current pending set
            wave_files = new_files
            os.makedirs(wdir, exist_ok=True)
            # durable atomic write, so "absent or valid" holds through
            # a power loss (a rename can be durable while un-fsynced
            # content is not, which would leave a truncated meta
            # wedging every re-submission)
            write_json_atomic(meta_path, {"files": wave_files},
                              sort_keys=True)

        metrics = run_extraction_from_parquet(
            wave_files, out_dir=wdir, n_buckets=n_buckets,
            salt_turns=salt_turns,
            override_num_blocks=override_num_blocks)
        if metrics.empty:
            metrics = _empty_metrics()

        # lineage is the wave's TRUE total: on a resume the returned
        # metrics cover only the recomputed buckets. Data durable
        # before the entry that points at it.
        lineage = read_lineage(wdir)
        fsync_tree(wdir)
        _commit_with(out_dir, add_wave={
            "wave": wave_id, "files": wave_files,
            "rows": int(lineage["rows"].sum()) if len(lineage) else 0})
        last = (wave_id, metrics)


def _canonicalize(t):
    """Shared read-surface shape: hive-inferred wave/bucket cast to
    int64 (zero-padded directory strings otherwise), columns in sorted
    name order so the compacted and delta branches union cleanly."""
    import pyarrow as pa
    import pyarrow.compute as pc
    if "compact" in t.column_names:
        # the generation dir's own hive key — layout detail, not data
        t = t.drop_columns(["compact"])
    for name in ("wave", "bucket"):
        idx = t.schema.get_field_index(name)
        if idx >= 0 and not pa.types.is_integer(t.column(idx).type):
            t = t.set_column(idx, name,
                             pc.cast(t.column(idx), pa.int64()))
    return t.select(sorted(t.column_names))


def _wave_bucket_paths(out_dir: str, waves: List[dict]) -> List[str]:
    paths: List[str] = []
    for w in waves:
        wdir = os.path.join(out_dir, f"wave={w['wave']:05d}")
        for b in completed_buckets(wdir):
            bdir = os.path.join(wdir, f"bucket={b:05d}")
            paths.extend(sorted(
                os.path.join(bdir, f) for f in os.listdir(bdir)
                if f.endswith(".parquet")))
    return paths


def _view_parts(out_dir: str, reg: dict,
                columns: Optional[List[str]]) -> list:
    """The committed view AS OF the given registry snapshot: the
    latest compaction generation plus the delta waves after it."""
    import ray.data as rd
    comps = reg["compactions"]
    latest = comps[-1] if comps else None
    parts = []
    if latest is not None:
        cdir = os.path.join(out_dir,
                            f"compact={latest['generation']:05d}")
        cfiles = sorted(os.path.join(cdir, f) for f in os.listdir(cdir)
                        if f.endswith(".parquet"))
        if cfiles:
            parts.append(rd.read_parquet(cfiles, columns=columns)
                         .map_batches(_canonicalize,
                                      batch_format="pyarrow"))
        delta = [w for w in reg["waves"]
                 if w["wave"] > latest["covers_through"]]
    else:
        delta = reg["waves"]
    paths = _wave_bucket_paths(out_dir, delta)
    if paths:
        parts.append(rd.read_parquet(paths, columns=columns)
                     .map_batches(_canonicalize,
                                  batch_format="pyarrow"))
    return parts


def read_waves(out_dir: str, *, columns: Optional[List[str]] = None):
    """One Dataset over everything COMMITTED: the latest compaction
    generation (if any) plus the delta waves committed after it. An
    uncommitted half-written wave or compaction dir is invisible —
    readers only follow the registry. Hive-style path inference
    surfaces the ``wave`` directory key as a provenance column
    alongside the stored ``bucket`` column; both are int64 (stored
    columns in compacted files, cast from the zero-padded directory
    strings on the wave-dir branch) so they join ``waves_lineage`` /
    the registry directly."""
    return _union_view(out_dir, _read_registry_full(out_dir), columns)


def _union_view(out_dir: str, reg: dict,
                columns: Optional[List[str]]):
    parts = _view_parts(out_dir, reg, columns)
    if not parts:
        raise ValueError(f"no committed wave data under {out_dir}")
    ds = parts[0]
    for p in parts[1:]:
        ds = ds.union(p)
    return ds


def compact_waves(out_dir: str, *, prune: bool = False,
                  target_rows_per_file: int = 1_000_000
                  ) -> Optional[dict]:
    """Rewrite everything committed into ONE compacted generation —
    the lakehouse read-optimization for an append-only corpus whose
    daily waves each left n_buckets smallish files: readers then open
    the compacted files plus only the post-compaction delta waves.
    Provenance survives (wave/bucket become stored int64 columns).

    Protocol mirrors extract_wave: the generation dir is fully written
    BEFORE its registry entry lands (durable atomic replace); a crash
    leaves an uncommitted dir that readers never see and the next
    compaction rebuilds (compacted data is derivable, unlike wave
    data). The generation's CONTENT and its covers_through both come
    from ONE registry snapshot, and the commit re-reads the registry —
    so a wave the daily job lands mid-compaction is neither baked into
    the generation nor erased from the registry: it simply stays a
    delta. Superseded generations are NOT deleted unless ``prune``
    (see prune_superseded — an in-flight reader may still be streaming
    the previous generation); wave dirs are always kept (they carry
    the lineage). Compaction itself is single-writer. Returns the
    committed registry entry, or None when the latest generation
    already covers every committed wave (idempotent)."""
    import shutil

    reg = _read_registry_full(out_dir)
    waves, comps = reg["waves"], reg["compactions"]
    if not waves:
        raise ValueError(f"nothing to compact under {out_dir}")
    covers_through = waves[-1]["wave"]
    if comps and comps[-1]["covers_through"] == covers_through:
        # already sealed — but still honor prune: the documented safe
        # workflow is compact today, prune after a grace period
        if prune:
            prune_superseded(out_dir)
        return None
    gen = len(comps)
    cdir = os.path.join(out_dir, f"compact={gen:05d}")
    if os.path.exists(cdir):
        shutil.rmtree(cdir)   # uncommitted leftover: derivable, rebuild
    # the view of THIS snapshot — not a re-read that could bake in a
    # wave committed while the rewrite runs
    ds = _union_view(out_dir, reg, None)
    # the point of compaction is FEWER, bigger files: coalesce the
    # accumulated small wave blocks to ~target_rows_per_file each
    # (block-level rebalance, not a keyed shuffle)
    total = sum(w["rows"] for w in waves)
    ds = ds.repartition(max(1, -(-total // target_rows_per_file)))
    ds.write_parquet(cdir)
    fsync_tree(cdir)   # generation durable BEFORE its entry
    entry = {"generation": gen, "covers_through": covers_through,
             "rows": int(total)}
    # commit against the CURRENT registry under the lock: waves
    # appended since the snapshot survive as deltas of the new
    # generation, and a commit racing this one cannot be overwritten
    _commit_with(out_dir, add_compaction=entry)
    if prune:
        prune_superseded(out_dir)
    return entry


def prune_superseded(out_dir: str) -> List[str]:
    """Delete every compaction generation older than the latest.
    Separate from compact_waves on purpose: an in-flight reader may
    still be streaming the previous generation's files, so run this
    after your own grace period. The registry commit is durable
    (fsynced file + dir) BEFORE any data is deleted, so a crash can
    never leave the registry pointing at a pruned generation. Returns
    the removed directories."""
    import shutil

    comps = _read_registry_full(out_dir)["compactions"]
    removed: List[str] = []
    for old in comps[:-1]:
        d = os.path.join(out_dir, f"compact={old['generation']:05d}")
        if os.path.exists(d):
            shutil.rmtree(d)
            removed.append(d)
    return removed


def waves_lineage(out_dir: str) -> pd.DataFrame:
    """Per-wave, per-bucket lineage for every committed wave."""
    from .checkpoint import read_lineage
    rows = []
    for w in read_registry(out_dir):
        lin = read_lineage(os.path.join(out_dir, f"wave={w['wave']:05d}"))
        lin["wave"] = w["wave"]
        rows.append(lin)
    return (pd.concat(rows, ignore_index=True) if rows
            else pd.DataFrame())
