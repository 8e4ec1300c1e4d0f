"""Deterministic partitioned exports — the terminal op of a data
pipeline: parquet partitions a trainer or a reader can stream, with a
manifest. Four writers share one export (`_export`) and differ only
in how a row picks its partition, how a partition is sorted and what
its manifest records:

* `write_training_shards` — HASH shards of a key column. Membership
  and within-shard order depend only on the key, so the export is
  byte-for-byte reproducible under any input partitioning, task order
  or retry. Within-shard order is (key-hash, key): pseudo-random
  relative to any natural ordering of the data (the "global shuffle"
  a trainer wants) yet fully deterministic.
* `write_sorted_export` — quantile RANGES of one column, globally
  sorted, with per-range [vmin, vmax] for pruned reads.
* `write_zorder_export` — ranges of a two-column Morton code, with
  per-column [vmin, vmax].
* `write_bucketed_export` — hash BUCKETS of a join key, for the
  storage-partitioned join.

Each partition is committed by the state layer's one partition commit
(`state.checkpoint._commit`: one directory rename, `_meta.json` and
`_SUCCESS` inside). A layout file records how rows were partitioned; a
re-run with the same layout skips committed partitions, any other is
refused. The content hash is taken over the parquet bytes.
"""

from __future__ import annotations

import json
import os
from typing import Callable, List, Optional

import numpy as np
import pandas as pd

from .checkpoint import (_ORDER, _PART, _commit, _read_meta,
                         _resume_layout, _resume_partitions,
                         write_json_atomic)


def _shard_hash(s: pd.Series) -> np.ndarray:
    """Deterministic 64-bit hash of the key column (fixed-key siphash
    via pandas, identical across processes)."""
    return pd.util.hash_pandas_object(s, index=False).to_numpy()


def _range_scalar(v):
    """Manifest-storable scalar for a sort-column value (JSON has no
    timestamps: datetimes become int64 epoch-microseconds)."""
    if isinstance(v, (np.datetime64, pd.Timestamp)):
        return int(np.datetime64(v, "us").view("int64"))
    if isinstance(v, (np.integer,)):
        return int(v)
    return float(v)


def _sort_key_array(s: pd.Series) -> np.ndarray:
    """The sort column as a numeric array manifest bounds compare in
    (datetime64 -> epoch us), matching `_range_scalar`."""
    if pd.api.types.is_datetime64_any_dtype(s):
        return s.values.astype("datetime64[us]").view("int64")
    return s.to_numpy()


def _col_kind(s: pd.Series) -> str:
    return ("datetime"
            if pd.api.types.is_datetime64_any_dtype(s) else "numeric")


def _key_float(s: pd.Series) -> np.ndarray:
    """The column as float64 in manifest units with NULL -> NaN: NaN
    fails every bound comparison and `np.searchsorted` places it after
    every boundary, matching pandas' NULLs-last sort."""
    v = _sort_key_array(s).astype(np.float64)
    v[s.isna().to_numpy()] = np.nan
    return v


def _key_bounds(s: pd.Series) -> tuple:
    """(vmin, vmax) of a column's non-NULL values as manifest scalars;
    (None, None) when every value is NULL. A NULL never bounds a
    partition: a NaT reads as int64 min and pandas sorts NULLs last,
    so counting one would make pruned reads skip matching rows."""
    key = _sort_key_array(s)[s.notna().to_numpy()]
    if not len(key):
        return None, None
    return _range_scalar(key.min()), _range_scalar(key.max())


# ------------------------------------------------------ the shared export

def _export(ds, out_dir: str, *, shared_fs: bool, layout_file: str,
            identity: dict, prefix: str, assign: Callable,
            sort_by: List[str], manifest: Callable,
            derive: Optional[Callable[[], dict]] = None,
            fields: Callable = lambda g, h: {"content_hash": h},
            n_buckets: Optional[int] = None) -> pd.DataFrame:
    """Export ``ds`` as committed ``<prefix>=NNNNN/`` partitions.

    ``assign(batch, layout)`` returns each row's partition id and an
    optional extra sort column (``_ORDER``); each partition is sorted
    by ``sort_by`` and its `_meta.json` is ``{prefix: id, "rows": n,
    **fields(rows, content_hash)}``. ``manifest(layout, metas)`` shapes
    `_MANIFEST.json`. Returns the manifest DataFrame, built from the
    rows each writer task returns (newly written partitions) plus the
    committed ``_meta.json`` of partitions skipped on resume — the
    driver never rescans worker output. ``shared_fs``: see
    `write_training_shards`."""
    import ray

    from ..relational import bucketed_map_groups

    if ray.is_initialized() and not shared_fs:
        if sum(1 for n in ray.nodes() if n.get("Alive")) > 1:
            raise ValueError(
                f"this export writes its {prefix}= directories through "
                f"the filesystem path {out_dir!r}; on a multi-node "
                "cluster that path must be shared storage visible to "
                "every node — pass shared_fs=True to assert it is")
    os.makedirs(out_dir, exist_ok=True)
    layout = _resume_layout(os.path.join(out_dir, layout_file), identity,
                            derive)
    done = _resume_partitions(out_dir, prefix)

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        part, order = assign(b, layout)
        b = b.copy(deep=False)
        if order is not None:
            b[_ORDER] = order
        b[_PART] = part
        return b.loc[~b[_PART].isin(done)]

    # one group per partition id: the partition file is written INSIDE
    # the bucketed combine (partition count chosen ≫ nodes bounds skew
    # the same way the checkpoint writer does); each task RETURNS its
    # `_meta.json` as JSON text, so no value changes type on the way
    def run_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"meta": pd.Series(
            [json.dumps(_commit(p, out_dir, prefix, sort_by, fields))
             for _, p in g.groupby(_PART, sort=False)], dtype=object)})

    tagged = ds.map_batches(tag, batch_format="pandas")
    written = bucketed_map_groups(tagged, [_PART], run_bucket,
                                  n_buckets=n_buckets).to_pandas()
    metas = [json.loads(m) for m in written["meta"]] if len(written) else []
    metas += [_read_meta(os.path.join(out_dir, f"{prefix}={p:05d}"))
              for p in done]
    metas.sort(key=lambda m: m[prefix])
    write_json_atomic(os.path.join(out_dir, "_MANIFEST.json"),
                      manifest(layout, metas), indent=1)
    if not metas:
        return pd.DataFrame(columns=[prefix, "rows", "content_hash"])
    return pd.DataFrame(metas).astype({prefix: "int64", "rows": "int64"})


# ------------------------------------------------------------ the writers

def write_training_shards(ds, out_dir: str, *, key_col: str,
                          n_shards: int = 16,
                          shared_fs: bool = False) -> pd.DataFrame:
    """Export ``ds`` as ``n_shards`` deterministic parquet shards
    (``shard=NNNNN/part.parquet``); project columns before the call.

    Returns the manifest DataFrame (shard, rows, content_hash). Skips
    shards whose ``_SUCCESS`` marker already exists (resume); refuses
    to resume into a directory written with a different shard count or
    key column.

    Shard tasks write through the local filesystem path ``out_dir``;
    on a multi-node cluster that path must be on storage shared by
    every node (NFS, fuse-mounted object store) — pass
    ``shared_fs=True`` to assert that, otherwise a >1-node cluster is
    rejected up front instead of silently scattering shards across
    worker-local disks.

    Memory: one task holds one shard's rows (sorting needs them);
    size ``n_shards`` so data_size / n_shards fits a worker heap —
    the parquet itself is written in bounded row-group slices, so
    raising ``n_shards`` is the only knob needed at scale.
    """
    def assign(b: pd.DataFrame, layout: dict):
        h = _shard_hash(b[key_col])
        return (h % n_shards).astype("int32"), h.astype("uint64")

    return _export(ds, out_dir, shared_fs=shared_fs,
                   layout_file="_SHARDS.json",
                   identity={"n_shards": n_shards, "key_col": key_col},
                   prefix="shard", assign=assign, sort_by=[_ORDER, key_col],
                   manifest=lambda layout, metas: metas)


# ------------------------------------------------------- sorted range export

def write_sorted_export(ds, out_dir: str, *, sort_col: str,
                        tiebreak_cols: Optional[List[str]] = None,
                        n_ranges: Optional[int] = None,
                        shared_fs: bool = False) -> pd.DataFrame:
    """GLOBALLY SORTED export: range-partitioned parquet where range
    directories concatenated in order form one totally sorted dataset,
    plus a per-range (vmin, vmax) manifest enabling PRUNED range reads
    (`read_sorted_range`) — the serving-side complement to the
    hash-sharded trainer export above (same commit, resume, and
    shared-filesystem contract).

    Range boundaries come from a deterministic bounded hash-sample of
    the sort column (quantile placement — boundary choice only affects
    balance, never correctness); each range task sorts only its own
    slice, so memory per task is data_size / n_ranges and a global
    `ds.sort` all-to-all is never issued. Byte-determinism of each
    range file requires a total order: pass ``tiebreak_cols`` covering
    duplicates of ``sort_col`` (e.g. a unique id).
    """
    from ..relational import _sample_order_values, default_buckets
    K = n_ranges or default_buckets()

    def derive() -> dict:
        # a NULL never places a boundary (one NaN would make them all
        # NaN); NULL rows go to the last range, as they sort last
        sample = pd.Series(_sample_order_values(ds, sort_col)).dropna()
        snum = _sort_key_array(sample).astype(np.float64)
        bounds = (np.quantile(snum, np.linspace(0, 1, K + 1)[1:-1],
                              method="lower")
                  if len(snum) >= 2 else [])
        return {"kind": _col_kind(sample), "bounds": list(map(float, bounds))}

    def assign(b: pd.DataFrame, layout: dict):
        bounds = np.array(layout["bounds"], dtype=np.float64)
        return np.searchsorted(bounds, _key_float(b[sort_col]),
                               side="right").astype("int32"), None

    def fields(g: pd.DataFrame, content_hash: str) -> dict:
        vmin, vmax = _key_bounds(g[sort_col])
        return {"vmin": vmin, "vmax": vmax, "content_hash": content_hash}

    return _export(ds, out_dir, shared_fs=shared_fs,
                   layout_file="_SORTED.json",
                   identity={"n_ranges": K, "sort_col": sort_col,
                             "tiebreak_cols": list(tiebreak_cols or [])},
                   derive=derive, prefix="range", assign=assign,
                   sort_by=[sort_col, *(tiebreak_cols or [])],
                   fields=fields, n_buckets=K,
                   manifest=lambda layout, metas: {
                       "kind": layout["kind"], "sort_col": sort_col,
                       "ranges": metas})


def _read_part_files(files: List[str], columns: Optional[List[str]]):
    """read_parquet over explicit part files with hive-partition
    inference defused: the range=NNNNN directory names would otherwise
    materialize a spurious partition column (and Ray 2.49's
    partitioning=None path crashes when columns= is also given), so
    when the caller wants all columns we pass the part schema's names
    explicitly."""
    import pyarrow.parquet as pq
    import ray.data as rd
    if columns is None:
        columns = list(pq.read_schema(files[0]).names)
    return rd.read_parquet(files, columns=columns)


def _bound_scalar(kind: str, v):
    """A read bound in manifest units (datetimes -> epoch us)."""
    if v is None:
        return None
    if kind == "datetime":
        return int(np.datetime64(pd.Timestamp(v), "us").view("int64"))
    return float(v)


def _pruned_read(out_dir: str, ranges: List[dict], preds: dict,
                 columns: Optional[List[str]]):
    """Open only the ``range=NNNNN`` files whose manifest bounds
    intersect every predicate, then trim their rows to the exact
    predicate. ``preds``: {col: (kind, lo, hi, vmin field, vmax
    field)}, bounds inclusive, None = open end. A NULL key matches no
    bound, so a range holding only NULL keys is never opened under
    one. Returns (Dataset, n_files_read); (None, 0) if none match."""
    bounded = {c: (_bound_scalar(kind, lo), _bound_scalar(kind, hi),
                   kmin, kmax)
               for c, (kind, lo, hi, kmin, kmax) in preds.items()
               if lo is not None or hi is not None}

    def keep(m: dict) -> bool:
        for lo, hi, kmin, kmax in bounded.values():
            if (m[kmin] is None
                    or (hi is not None and m[kmin] > hi)
                    or (lo is not None and m[kmax] < lo)):
                return False
        return m["rows"] > 0

    files = [os.path.join(out_dir, f"range={m['range']:05d}",
                          "part.parquet")
             for m in ranges if keep(m)]
    if not files:
        return None, 0
    if columns is not None:          # the trim below needs the keys
        columns = [*(c for c in bounded if c not in columns), *columns]
    ds = _read_part_files(files, columns)
    if not bounded:
        return ds, len(files)

    def trim(b: pd.DataFrame) -> pd.DataFrame:
        m = np.ones(len(b), dtype=bool)
        for c, (lo, hi, _, _) in bounded.items():
            v = _key_float(b[c])
            if lo is not None:
                m &= v >= lo
            if hi is not None:
                m &= v <= hi
        return b.loc[m]

    return ds.map_batches(trim, batch_format="pandas"), len(files)


def read_sorted_range(out_dir: str, lo=None, hi=None,
                      columns: Optional[List[str]] = None):
    """Pruned read over a `write_sorted_export` directory: only range
    files whose manifest [vmin, vmax] intersects [lo, hi] are opened
    (both bounds inclusive; None = open end). Returns (Dataset,
    n_files_read) — the count makes pruning observable/testable."""
    with open(os.path.join(out_dir, "_MANIFEST.json")) as f:
        man = json.load(f)
    return _pruned_read(out_dir, man["ranges"], {
        man["sort_col"]: (man["kind"], lo, hi, "vmin", "vmax")}, columns)


# ------------------------------------------------------------- z-order export

def _morton16(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Interleave two 8-bit code arrays into 16-bit Morton (Z-order)
    codes, vectorized magic-number bit spreading; ``a`` takes the odd
    (higher) bit positions."""
    def spread(x: np.ndarray) -> np.ndarray:
        x = x.astype(np.uint16)
        x = (x | (x << np.uint16(4))) & np.uint16(0x0F0F)
        x = (x | (x << np.uint16(2))) & np.uint16(0x3333)
        x = (x | (x << np.uint16(1))) & np.uint16(0x5555)
        return x
    return ((spread(a) << np.uint16(1)) | spread(b)).astype(np.uint16)


def _quantize(v: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Value -> 8-bit rank code against sampled quantile boundaries
    (monotone: order-preserving, so per-file [vmin, vmax] stay valid
    pruning bounds for the ORIGINAL values)."""
    return np.searchsorted(bounds, v.astype(np.float64),
                           side="right").astype(np.uint8)


def _sample_rows(ds, cols: List[str], k: int = 4096) -> pd.DataFrame:
    """Deterministic bounded JOINT sample of ``cols`` (bottom-k by
    fixed-key row hash): per-batch partial bottom-k, driver final
    bottom-k — O(k) driver memory under any partitioning."""
    def partial(b: pd.DataFrame) -> pd.DataFrame:
        v = b[cols].copy(deep=False)
        # hash the WHOLE row tuple: equal hashes then imply equal
        # (c0, c1) pairs, so bottom-k boundary ties cannot make the
        # sampled grid depend on input partitioning
        v["__h"] = pd.util.hash_pandas_object(
            b[cols], index=False).to_numpy()
        return v.nsmallest(k, "__h")

    s = ds.map_batches(partial, batch_format="pandas").to_pandas()
    return s.nsmallest(k, "__h") if len(s) else s


def write_zorder_export(ds, out_dir: str, *, cols: List[str],
                        tiebreak_cols: Optional[List[str]] = None,
                        n_ranges: Optional[int] = None,
                        shared_fs: bool = False) -> pd.DataFrame:
    """Z-ORDER clustered export: rows are range-partitioned by the
    Morton interleaving of two columns' sampled-quantile rank codes,
    so files are simultaneously clustered on BOTH columns and a
    predicate on EITHER prunes file reads via the manifest's per-file
    per-column [vmin, vmax] — the multi-dimensional complement of
    `write_sorted_export` (single-column total order). Same commit,
    resume, manifest and shared-filesystem contract.

    Clustering quality, never correctness, depends on the sampled
    quantile grids (256 levels per column from a bounded joint
    sample); pruning bounds in the manifest are true min/max of the
    original values, so a skewed sample only costs balance.
    """
    from ..relational import default_buckets

    if len(cols) != 2:
        raise ValueError("write_zorder_export clusters exactly 2 columns")
    K = n_ranges or default_buckets()

    def derive() -> dict:
        sample = _sample_rows(ds, list(cols))
        kinds = [(_col_kind(sample[c]) if len(sample) else "numeric")
                 for c in cols]
        grids, codes = [], []
        for c in cols:
            v = (_key_float(sample[c]) if len(sample)
                 else np.array([], dtype=np.float64))
            known = v[~np.isnan(v)]     # a NULL never places a boundary
            g = (np.quantile(known, np.linspace(0, 1, 256)[1:-1],
                             method="lower")
                 if len(known) >= 2 else np.array([], dtype=np.float64))
            g = np.unique(g)
            grids.append(g)
            codes.append(_quantize(v, g))
        z = (_morton16(codes[0], codes[1]).astype(np.int64)
             if len(sample) else np.array([], dtype=np.int64))
        zbounds = (np.quantile(z, np.linspace(0, 1, K + 1)[1:-1],
                               method="lower").astype(np.int64)
                   if len(z) >= 2 else [])
        return {"kinds": kinds,
                "grids": [list(map(float, g)) for g in grids],
                "zbounds": [int(b) for b in zbounds]}

    def assign(b: pd.DataFrame, layout: dict):
        c0, c1 = (_quantize(_key_float(b[c]),
                            np.array(g, dtype=np.float64))
                  for c, g in zip(cols, layout["grids"]))
        z = _morton16(c0, c1).astype(np.int64)
        zbounds = np.array(layout["zbounds"], dtype=np.int64)
        return np.searchsorted(zbounds, z, side="right").astype("int32"), z

    def fields(g: pd.DataFrame, content_hash: str) -> dict:
        meta = {"content_hash": content_hash}
        for c in cols:
            meta[f"vmin__{c}"], meta[f"vmax__{c}"] = _key_bounds(g[c])
        return meta

    return _export(ds, out_dir, shared_fs=shared_fs,
                   layout_file="_ZORDER.json",
                   identity={"n_ranges": K, "cols": list(cols),
                             "tiebreak_cols": list(tiebreak_cols or [])},
                   derive=derive, prefix="range", assign=assign,
                   sort_by=[_ORDER, *cols, *(tiebreak_cols or [])],
                   fields=fields, n_buckets=K,
                   manifest=lambda layout, metas: {
                       "cols": list(cols), "kinds": layout["kinds"],
                       "ranges": metas})


def read_zorder_range(out_dir: str, preds: dict,
                      columns: Optional[List[str]] = None):
    """Pruned read over a `write_zorder_export` directory.

    ``preds``: {col: (lo, hi)} inclusive bounds (None = open end) on
    either or both clustered columns; only range files whose manifest
    per-column [vmin, vmax] intersects EVERY predicate are opened.
    Returns (Dataset filtered to the exact predicate rows,
    n_files_read).
    """
    with open(os.path.join(out_dir, "_MANIFEST.json")) as f:
        man = json.load(f)
    kind_of = dict(zip(man["cols"], man["kinds"]))
    if set(preds) - set(kind_of):
        raise ValueError(f"predicate on non-clustered column(s) "
                         f"{sorted(set(preds) - set(kind_of))}; "
                         f"clustered: {man['cols']}")
    return _pruned_read(out_dir, man["ranges"], {
        c: (kind_of[c], lo, hi, f"vmin__{c}", f"vmax__{c}")
        for c, (lo, hi) in preds.items()}, columns)


# ------------------------------------------------ storage-partitioned join

def write_bucketed_export(ds, out_dir: str, *, key: str,
                          n_buckets: int,
                          tiebreak_cols: Optional[List[str]] = None,
                          shared_fs: bool = False) -> pd.DataFrame:
    """HASH-BUCKETED export: rows land in ``bucket=NNNNN/`` by the
    fixed-key siphash of ``key`` mod ``n_buckets`` — the durable form
    of "pick ONE partitioning key and reuse it": two tables exported
    with the same (hash family, n_buckets) co-locate matching keys ON
    DISK, so `read_bucketed_join` joins them bucket-by-bucket with
    ZERO shuffle at read time (the storage-partitioned join). Same
    commit, resume, `_SUCCESS` markers and content-hash manifest as
    the sorted/z-order exports; `_BUCKETED.json` records the layout
    and a resume or join against a different layout is refused, never
    silently mis-bucketed."""
    def assign(b: pd.DataFrame, layout: dict):
        h = _shard_hash(b[key])
        return (h % np.uint64(n_buckets)).astype("int32"), None

    # what `read_bucketed_join` compares; the layout file adds the
    # tie-break columns a resume must repeat
    join_layout = {"key": key, "n_buckets": int(n_buckets),
                   "hash": "pandas-siphash-v1"}
    return _export(ds, out_dir, shared_fs=shared_fs,
                   layout_file="_BUCKETED.json",
                   identity={**join_layout,
                             "tiebreak_cols": list(tiebreak_cols or [])},
                   prefix="bucket", assign=assign,
                   sort_by=[key, *(tiebreak_cols or [])],
                   n_buckets=n_buckets,
                   manifest=lambda layout, metas: {**join_layout,
                                                   "buckets": metas})


def read_bucketed_join(dir_left: str, dir_right: str, *,
                       how: str = "inner"):
    """STORAGE-PARTITIONED JOIN over two `write_bucketed_export`
    directories: matching keys already share a bucket index on disk,
    so the join is one independent task per bucket — read both sides'
    bucket files, pandas-merge, emit — with ZERO shuffle at read time
    (contrast `relational.hash_join`, which pays the co-partitioning
    exchange per run; here it was paid once at write time and is
    reused by every subsequent join on the same key). Layouts must
    agree exactly (key hash family + n_buckets) — a mismatch is
    refused up front, never silently wrong. NULL keys follow SQL:
    they never match; ``how='left'`` keeps left nulls unmatched."""
    import pyarrow.parquet as pq
    import ray.data as rd

    if how not in ("inner", "left"):
        raise ValueError(f"read_bucketed_join supports inner/left, "
                         f"got {how!r}")
    metas = []
    for d in (dir_left, dir_right):
        p = os.path.join(d, "_BUCKETED.json")
        if not os.path.exists(p):
            raise ValueError(f"{d!r} is not a bucketed export "
                             "(no _BUCKETED.json)")
        with open(p) as f:
            metas.append(json.load(f))
    ml, mr = metas
    if (ml["n_buckets"], ml["hash"]) != (mr["n_buckets"], mr["hash"]):
        raise ValueError(
            f"bucket layout mismatch: {ml} vs {mr} — the "
            "storage-partitioned join needs identical hash family "
            "and bucket count; re-export one side")
    kl, kr, n = ml["key"], mr["key"], int(ml["n_buckets"])

    def join_bucket(b: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for bkt in b["id"].tolist():
            pl = os.path.join(dir_left, f"bucket={bkt:05d}",
                              "part.parquet")
            pr = os.path.join(dir_right, f"bucket={bkt:05d}",
                              "part.parquet")
            lf = (pq.read_table(pl).to_pandas() if os.path.exists(pl)
                  else None)
            rf = (pq.read_table(pr).to_pandas() if os.path.exists(pr)
                  else None)
            if lf is None or not len(lf):
                continue
            if rf is None:
                rf = pd.DataFrame({kr: pd.Series([], dtype=object)})
            rf = rf.rename(columns={kr: kl})
            rf = rf.loc[rf[kl].notna()]      # SQL: nulls never match
            if how == "inner":
                lf = lf.loc[lf[kl].notna()]
            outs.append(lf.merge(rf, on=kl, how=how))
        if not outs:
            return pd.DataFrame()
        return pd.concat(outs, ignore_index=True)

    ids = rd.range(n, override_num_blocks=n)
    ids = ids.map_batches(lambda b: pd.DataFrame({"id": b["id"]}),
                          batch_format="pandas")
    return ids.map_batches(join_bucket, batch_format="pandas")
