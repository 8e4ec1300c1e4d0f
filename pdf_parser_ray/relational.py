"""Scalable relational operators over the star-schema test tables.

The reference has no dataset-level relational ops (SURVEY.md §2.4) —
this module supplies the standard ones the driver's DuckDB-oracle
harness exercises, each built the Ray-Data-first way:

- grouped_agg:      partial aggregation inside map_batches (one row per
                    key per batch) -> tiny groupby of the partials ->
                    finalize. The all-to-all shuffle only ever moves
                    |keys| x |blocks| rows, never the raw table.
- topk:             per-batch top-k partials -> k x |blocks| rows ->
                    final top-k. No global sort.
- broadcast_join:   ray.put the small side ONCE; every actor reads it
                    in __init__ and merges per batch. No shuffle;
                    NULL keys never match.
- hash_join:        both sides large: stable-bucket both sides on the
                    key, union, one groupby('bucket') shuffle, pandas
                    merge per bucket. Buckets ≫ nodes bounds skew.
- distinct:         per-batch dedup partial -> grouped first.

Float results that feed the DuckDB comparison are rounded explicitly
(same ROUND in the SQL) so parallel partial-sum ordering can't leak
into the value hash.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa


# ------------------------------------------------------------------ helpers

def ray_cpus(default: int) -> int:
    """The Ray session's logical CPU count, ``default`` when no session
    is up (plans built before ``ray.init`` keep their fixed size)."""
    import ray
    return int(ray.cluster_resources().get("CPU", default)) \
        if ray.is_initialized() else default


# CPUs every actor pool leaves to the read/shuffle/write stages: a pool
# that holds every CPU deadlocks a downstream all-to-all (observed at
# num_cpus=4: a pool of 4 starves the groupby shuffle indefinitely).
_POOL_RESERVE = 2


def pool_size() -> tuple:
    """Autoscaling (min, max) for an actor pool that leaves
    ``_POOL_RESERVE`` CPUs to the other stages."""
    hi = max(1, ray_cpus(4) - _POOL_RESERVE)
    # min close to max: the autoscaling ramp is too slow for short jobs
    # (observed: a (1, 28) pool reached ~8 actors in a 15 s run, flat
    # 8->32-cpu scaling); the reserve above already guarantees the
    # shuffle/read stages can't be starved even at min == max.
    return (max(1, hi // 2), hi)


def pool_actor_cpus() -> Optional[float]:
    """CPU request of one pool actor: Ray Data's default (one CPU)
    above ``_POOL_RESERVE`` CPUs. On a smaller host one actor per pool
    already holds a whole CPU, so two chained pools (``hash_join``
    after ``hash_join``) hold every CPU and the tasks feeding them never
    run; there each actor asks for (CPUs - 1) / 2, which leaves one
    whole CPU to those tasks: 0.5 on 2 CPUs, none on 1."""
    cpus = ray_cpus(4)
    return None if cpus > _POOL_RESERVE else (cpus - 1) / 2


def read_table(sf_dir: str, name: str, columns: Optional[List[str]] = None,
               override_num_blocks: Optional[int] = None):
    """Pruned parquet read (columns pushed to the scan).

    Ray's default parallelism splits even tiny tables into cpus x 2
    blocks, which makes every downstream task pay fixed overhead for a
    few hundred rows; pass ``override_num_blocks`` for known-small
    tables."""
    import os

    import ray.data as rd
    path = f"{sf_dir}/{name}.parquet"
    if override_num_blocks is None:
        # ~512 KiB of compressed file per block (a few MiB in memory),
        # min 1, capped at 4x CPUs: tiny dimension tables become one
        # block instead of cpus x 2 splinters, mid-size tables still fan
        # out across cores (at real scale many files drive parallelism
        # and this override is left unset)
        override_num_blocks = max(1, min(4 * ray_cpus(8),
                                         os.path.getsize(path) >> 19))
    return rd.read_parquet(path, columns=columns,
                           override_num_blocks=override_num_blocks)


# ------------------------------------------------- bucketed group-combine

def stable_bucket_series(s: pd.Series, n_buckets: int) -> np.ndarray:
    """Vectorized deterministic bucket ids for a key Series
    (pd.util.hash_pandas_object: fixed-key siphash, identical across
    processes/nodes for a given pandas version)."""
    return (pd.util.hash_pandas_object(s, index=False)
            .to_numpy() % n_buckets).astype(np.int32)


def default_buckets() -> int:
    return min(64, max(8, 2 * ray_cpus(8)))


def bucketed_map_groups(ds, keys: List[str], fn, *, n_buckets: int = None,
                        batch_size=65536):
    """Group-combine that scales with KEY CARDINALITY.

    Ray's sort-based ``groupby(keys).aggregate/map_groups`` costs ~2 ms
    of per-group Python overhead in the reduce (measured: 5 000 distinct
    keys -> 10 s, 5 keys -> 1 s on identical data). So: hash the key
    tuple into ``n_buckets`` buckets (pd.util.hash_pandas_object —
    deterministic across processes), shuffle on the LOW-cardinality
    bucket id, and run ``fn`` once per bucket with every row of its
    keys — fn does a vectorized pandas combine inside. Same key always
    lands in the same bucket, so per-bucket results are final.

    batch_size keeps an explicit 65536 cap (unlike the whole-block
    defaults elsewhere): the add_bucket map feeds the sort-based
    shuffle directly, and an alternating-subprocess A/B on the
    incremental-dedup band stage measured whole-block batches 10-20%
    SLOWER here (the pandas row-hash over one giant block delays the
    first shuffle input), while the Arrow-tokenize pipelines were
    indifferent to this cap.
    """
    K = n_buckets or default_buckets()

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy(deep=False)
        df["__b"] = (pd.util.hash_pandas_object(df[keys], index=False)
                     .to_numpy() % K).astype("int32")
        return df

    def run(g: pd.DataFrame) -> pd.DataFrame:
        return fn(g.drop(columns="__b"))

    return (ds.map_batches(add_bucket, batch_format="pandas",
                           batch_size=batch_size)
            .groupby("__b").map_groups(run, batch_format="pandas"))


# -------------------------------------------------------------- grouped agg

def grouped_agg_ds(ds, keys: List[str],
                   specs: Dict[str, Tuple[str, Optional[str]]],
                   batch_size=None):
    """Partial+final grouped aggregation, returned as a DATASET.

    specs: out_col -> (agg, in_col); agg in {sum, count, min, max, mean}.
    count with in_col=None counts rows.
    """
    partial_cols: List[Tuple[str, str, str]] = []  # (partial_name, kind, out)
    for out, (agg, col) in specs.items():
        if agg in ("sum", "mean"):
            partial_cols.append((f"s__{out}", "sum", out))
        if agg == "mean":
            partial_cols.append((f"c__{out}", "count", out))
        if agg == "count":
            partial_cols.append((f"n__{out}", "count", out))
        if agg == "min":
            partial_cols.append((f"mn__{out}", "min", out))
        if agg == "max":
            partial_cols.append((f"mx__{out}", "max", out))

    def partial(t: pa.Table) -> pa.Table:
        """Arrow-native partial aggregation: pyarrow's C++ hash
        group-by, no pandas conversion on the hot path. Semantics are
        pinned to the previous pandas partial: null keys form their
        own group (SQL GROUP BY), sum of an all-null slice is 0
        (min_count=0), count counts non-null, min/max skip nulls."""
        import pyarrow.compute as pc

        need = set()
        for out, (agg, col) in specs.items():
            if agg in ("sum", "mean"):
                need.add(("sum", col))
            if agg == "mean":
                need.add(("count", col))
            if agg == "count":
                need.add(("count_all", None) if col is None
                         else ("count", col))
            if agg == "min":
                need.add(("min", col))
            if agg == "max":
                need.add(("max", col))
        aggs = []
        for fn, col in need:
            if fn == "count_all":
                aggs.append(([], "count_all"))
            elif fn == "sum":
                aggs.append((col, "sum",
                             pc.ScalarAggregateOptions(min_count=0)))
            elif fn == "count":
                aggs.append((col, "count"))
            else:
                aggs.append((col, fn))
        res = pa.TableGroupBy(t, keys).aggregate(aggs)

        def src_name(kind, out):
            agg, col = specs[out]
            if kind == "sum":
                return f"{col}_sum"
            if kind == "count":
                return "count_all" if col is None else f"{col}_count"
            return f"{col}_{'min' if kind == 'min' else 'max'}"

        cols = [res.column(src_name(kind, out))
                for _, kind, out in partial_cols]
        names = [pname for pname, _, _ in partial_cols]
        for k in keys:
            names.append(k)
            cols.append(res.column(k))
        return pa.Table.from_arrays(cols, names=names)

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=batch_size)

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        gg = g.groupby(keys, sort=False, observed=True, dropna=False)
        out = {}
        for pname, kind, _out in partial_cols:
            if kind in ("sum", "count"):
                out[pname] = gg[pname].sum()
            elif kind == "min":
                out[pname] = gg[pname].min()
            elif kind == "max":
                out[pname] = gg[pname].max()
        return pd.DataFrame(out).reset_index()

    final_ds = bucketed_map_groups(partials, keys, combine)

    def finalize(final: pd.DataFrame) -> pd.DataFrame:
        result = final[keys].copy()
        for out, (agg, col) in specs.items():
            if agg == "sum":
                result[out] = final[f"s__{out}"]
            elif agg == "count":
                result[out] = final[f"n__{out}"].astype("int64")
            elif agg == "mean":
                result[out] = final[f"s__{out}"] / final[f"c__{out}"]
            elif agg == "min":
                result[out] = final[f"mn__{out}"]
            elif agg == "max":
                result[out] = final[f"mx__{out}"]
        return result

    # finalize is row-wise (per-key rows are final after the combine),
    # so the result STAYS distributed — right for high-cardinality
    # keys (per-order, per-document aggregates) whose output is itself
    # a large table
    return final_ds.map_batches(finalize, batch_format="pandas")


def grouped_agg(ds, keys: List[str],
                specs: Dict[str, Tuple[str, Optional[str]]],
                batch_size=None) -> pd.DataFrame:
    """grouped_agg_ds collected to driver pandas — for low-cardinality
    grouped results (the common reporting case).

    EMPTY-INPUT contract: a zero-row input yields a frame that still
    carries every key and output column (a zero-block dataset loses
    its schema through the shuffle, so the named empty frame is
    rebuilt here — grouping nothing is an empty report, not a
    downstream KeyError). Counts/sums type int64, means float64, keys
    object — dtypes are moot at zero rows, the NAMES are the
    contract."""
    df = grouped_agg_ds(ds, keys, specs, batch_size).to_pandas()
    if len(df.columns):
        return df
    cols: Dict[str, "pd.api.extensions.ExtensionArray"] = {}
    for k in keys:
        cols[k] = pd.array([], dtype="object")
    for out, (agg, _col) in specs.items():
        cols[out] = pd.array(
            [], dtype="float64" if agg == "mean" else "int64")
    return pd.DataFrame(cols)


# ------------------------------------------------------------------- top-k

def topk(ds, sort_cols: List[str], ascending: List[bool], k: int,
         columns: Optional[List[str]] = None,
         batch_size=None) -> pd.DataFrame:
    """Distributed top-k without a global sort: per-batch partial top-k
    (k rows per block max), then a driver-side final top-k over the
    tiny partial set."""
    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        if columns:
            batch = batch[columns]
        return batch.sort_values(sort_cols, ascending=ascending,
                                 kind="mergesort").head(k)

    partials = ds.map_batches(partial, batch_format="pandas",
                              batch_size=batch_size).to_pandas()
    if not len(partials.columns):
        # a fully-EMPTY input loses its columns through to_pandas();
        # rebuild the typed empty frame so the final sort can still
        # reference sort_cols (top-k of nothing is an empty frame,
        # not a KeyError)
        sch = ds.schema()
        if sch is not None and sch.names:
            partials = pa.schema(
                [(n, _as_arrow(t)) for n, t in
                 zip(sch.names, sch.types)]).empty_table().to_pandas()
            if columns:
                partials = partials[columns]
        else:
            # schema unknown (zero-block dataset): an empty frame
            # with the requested columns still sorts and heads to an
            # empty result; dtypes are moot at zero rows
            partials = pd.DataFrame(
                {c: pd.array([], dtype="object")
                 for c in (columns or sort_cols)})
    return (partials.sort_values(sort_cols, ascending=ascending,
                                 kind="mergesort")
            .head(k).reset_index(drop=True))


def _as_arrow(t):
    """Ray Schema types are Arrow DataTypes for Arrow blocks but numpy
    dtypes / the Python ``object`` class for pandas-backed datasets."""
    if isinstance(t, pa.DataType):
        return t
    if t is object:
        return pa.string()
    return pa.from_numpy_dtype(np.dtype(t))


# ------------------------------------------------- broadcast byte budget

_BROADCAST_OBJ_BYTES = 256 << 20


def guard_broadcast_bytes(nbytes: int, what: str, remedy: str) -> None:
    """Loud scale guard for every ray.put of a driver-built object:
    a broadcast that outgrows the budget fails with the documented
    remediation instead of OOMing the driver or the workers."""
    if nbytes > _BROADCAST_OBJ_BYTES:
        raise ValueError(
            f"{what} would broadcast {nbytes / 2**20:.0f} MiB, over the "
            f"{_BROADCAST_OBJ_BYTES >> 20} MiB driver-broadcast budget; "
            f"{remedy}")


# -------------------------------------------------------------------- joins

class _EquiJoiner:
    """Map-side equi-join against a broadcast non-preserved side:
    fetched once per actor in __init__ (a pandas frame re-unpickles on
    every ray.get, so actor-pool amortization matters here), null keys
    dropped there (SQL: NULL never matches; the probe side's own null
    keys then stay unmatched), int keys restored if null-dropping left
    them float."""

    def __init__(self, ref, on, how, all_names, probe_is_left,
                 probe_key_is_int):
        import ray
        s = ray.get(ref)
        s = s[s[on].notna()]
        if probe_key_is_int and pd.api.types.is_float_dtype(s[on]):
            s = s.copy()
            s[on] = s[on].astype("int64")
        self.small = s
        self.on, self.how = on, how
        self.all_names = all_names
        self.probe_is_left = probe_is_left

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        if self.probe_is_left:
            out = batch.merge(self.small, on=self.on, how=self.how)
        else:
            # probe is the right table; the broadcast side is left
            out = self.small.merge(
                batch, on=self.on,
                how="right" if self.how == "right" else "inner")
        return out.reindex(columns=self.all_names)


def _broadcast_equi_join(probe, ref, *, on, how, probe_is_left,
                         all_names, probe_key_is_int):
    # size the pool to the cluster (leaving shuffle headroom); a hard
    # (1, 2) cap would throttle the big-side merge to 2 actors
    return probe.map_batches(
        _EquiJoiner, batch_format="pandas",
        concurrency=(1, pool_size()[1]), num_cpus=pool_actor_cpus(),
        fn_constructor_args=(ref, on, how, all_names, probe_is_left,
                             probe_key_is_int))


def broadcast_join(ds, small_df: pd.DataFrame, on: str,
                   how: str = "inner"):
    """Map-side join of ``ds`` against a driver-built frame, through
    the same _EquiJoiner as hash_join's broadcast path: NULL keys never
    match (SQL semantics; a plain pandas merge joins NaN to NaN)."""
    import ray
    if how not in ("inner", "left"):
        raise ValueError(
            f"broadcast_join supports inner/left, got {how!r}")
    guard_broadcast_bytes(
        int(small_df.memory_usage(deep=True).sum()),
        "broadcast_join small side",
        "use hash_join (co-partitioned) for two large sides")
    schema = ds.schema()
    names = list(schema.names)
    small_only = [c for c in small_df.columns if c != on]
    if set(names) & set(small_only):
        raise ValueError(
            f"column overlap besides key: {set(names) & set(small_only)}")
    key_t = _as_arrow(schema.types[names.index(on)])
    return _broadcast_equi_join(
        ds, ray.put(small_df), on=on, how=how, probe_is_left=True,
        all_names=names + small_only,
        probe_key_is_int=pa.types.is_integer(key_t))


def hash_join(left, right, on: str, how: str = "inner",
              n_buckets: int = 32) -> "ray.data.Dataset":
    """Partitioned hash join for two LARGE sides.

    Both sides get a stable bucket from the join key, are unioned into
    one superset schema (missing columns null-filled), and a single
    groupby('bucket') shuffle co-locates matching keys; each bucket is
    merged with pandas. Bucket count ≫ nodes keeps skew bounded; salt
    hot keys by raising n_buckets.

    NULL join keys follow SQL semantics: they never match. Null-key
    rows are dropped up front from any side that is not preserved by
    the join type; a preserved side ('left' under how='left'/'outer',
    'right' under how='right'/'outer') keeps them and emits unmatched
    output rows.
    """
    if how not in ("inner", "left", "right", "outer"):
        raise ValueError(
            f"hash_join supports inner/left/right/outer, got {how!r}")
    keep_null = {"inner": (), "left": ("l",),
                 "right": ("r",), "outer": ("l", "r")}[how]

    l_schema, r_schema = left.schema(), right.schema()
    l_names = [n for n in l_schema.names]
    r_names = [n for n in r_schema.names]
    overlap = (set(l_names) & set(r_names)) - {on}
    if overlap:
        raise ValueError(f"column overlap besides key: {overlap}")

    # adaptive strategy (same rule as asof/interval joins): a side
    # that is NOT row-preserved by the join type and fits the
    # broadcast budget ships once to the object store and the join
    # runs map-side over the other side — zero shuffles, the
    # dimension-table case. A preserved side can never broadcast (its
    # unmatched rows need global knowledge); 'outer' preserves both.
    r_only = [n for n in r_names if n != on]
    all_names = l_names + r_only
    if how in ("inner", "left"):
        ref, right = _maybe_broadcast_right(right)
        if ref is not None:
            key_t = l_schema.types[l_names.index(on)]
            return _broadcast_equi_join(
                left, ref, on=on, how=how, probe_is_left=True,
                all_names=all_names,
                probe_key_is_int=pa.types.is_integer(_as_arrow(key_t)))
    if how in ("inner", "right"):
        ref, left = _maybe_broadcast_right(left)
        if ref is not None:
            key_t = r_schema.types[r_names.index(on)]
            return _broadcast_equi_join(
                right, ref, on=on, how=how, probe_is_left=False,
                all_names=all_names,
                probe_key_is_int=pa.types.is_integer(_as_arrow(key_t)))

    types = {n: _as_arrow(t) for n, t in zip(l_schema.names, l_schema.types)}
    types.update((n, _as_arrow(t))
                 for n, t in zip(r_schema.names, r_schema.types))

    def prep(side_names, side_tag):
        def fn(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            if side_tag not in keep_null:
                # SQL: NULL never matches. Float NaN counts as NULL —
                # an int64-null key becomes NaN through pandas anyway,
                # and DuckDB's pandas ingestion makes the same call
                col = t.column(on)
                mask = pc.is_valid(col)
                if pa.types.is_floating(col.type):
                    mask = pc.and_(mask, pc.invert(pc.is_nan(col)))
                t = t.filter(mask)
            n = t.num_rows
            key_s = t.column(on).to_pandas()
            bucket = pa.array(stable_bucket_series(key_s, n_buckets))
            cols, names = [], []
            for name in all_names:
                names.append(name)
                if name in side_names:
                    cols.append(t.column(name))
                else:
                    cols.append(pa.nulls(n, types[name]))
            names += ["__side", "bucket"]
            cols += [pa.array([side_tag] * n, pa.string()), bucket]
            return pa.Table.from_arrays(cols, names=names)
        return fn

    lp = left.map_batches(prep(set(l_names), "l"), batch_format="pyarrow")
    rp = right.map_batches(prep(set(r_names), "r"), batch_format="pyarrow")
    # coalesce before the shuffle: the sort-based groupby pays a fixed
    # cost per input block, so don't feed it cpus x 2 splinter blocks
    both = lp.union(rp).repartition(n_buckets)

    def join_bucket(t: pa.Table) -> pd.DataFrame:
        # split sides on the ARROW table and convert each to pandas
        # separately: converting the whole null-filled bucket would
        # float-coerce the other side's int columns (silent corruption
        # above 2^53). Outer-join unmatched columns still become
        # NaN/float — that is SQL nullability, not corruption.
        import pyarrow.compute as pc
        side = t.column("__side")
        l = t.filter(pc.equal(side, "l")).select(l_names).to_pandas()
        r = t.filter(pc.equal(side, "r")).select([on] + r_only).to_pandas()
        if how != "outer":
            # at most one side still holds null keys, and the other
            # side has none, so pandas' NaN-matches-NaN merge quirk
            # cannot fire: null-key rows come out unmatched
            return l.merge(r, on=on, how=how)
        # outer: BOTH sides may hold null keys and pandas would match
        # NaN to NaN — merge the non-null parts, append null-key rows
        # of each side as unmatched (reindex null-fills the other side)
        l_null, r_null = l[l[on].isna()], r[r[on].isna()]
        m = l[l[on].notna()].merge(r[r[on].notna()], on=on, how="outer")
        parts = [m]
        if len(l_null):
            parts.append(l_null.reindex(columns=m.columns))
        if len(r_null):
            parts.append(r_null.reindex(columns=m.columns))
        return pd.concat(parts, ignore_index=True) if len(parts) > 1 else m

    return both.groupby("bucket").map_groups(join_bucket,
                                             batch_format="pyarrow")


def semi_join(ds, key_set, on: str, *, anti: bool = False,
              batch_size=None):
    """Semi / anti join against a broadcast key set (SURVEY guide
    pattern: broadcast the key set — or a Bloom filter of it at real
    scale — and filter inside map_batches; no shuffle)."""
    import ray
    keys = frozenset(key_set)
    guard_broadcast_bytes(
        len(keys) * 64,        # conservative per-entry set overhead
        "semi/anti-join key set",
        "ship a Bloom filter of the keys (stages.sketches) or use a "
        "co-partitioned filter (stages.dedup._id_filter)")
    ref = ray.put(keys)

    class Filter:
        def __init__(self):
            self.keys = ray.get(ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            mask = batch[on].isin(self.keys)
            return batch[~mask] if anti else batch[mask]

    return ds.map_batches(Filter, batch_format="pandas",
                          batch_size=batch_size,
                          concurrency=(1, pool_size()[1]),
                          num_cpus=pool_actor_cpus())


def anti_join(ds, key_set, on: str, **kw):
    return semi_join(ds, key_set, on, anti=True, **kw)


# ----------------------------------------------------------------- distinct

def distinct_ds(ds, columns: List[str], batch_size=None):
    """Exact distinct as a DATASET: per-batch dedup partial, then
    grouped first — only unique-per-block rows enter the shuffle, and
    the result stays distributed (no driver materialization)."""
    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[columns].drop_duplicates()

    partials = ds.map_batches(partial, batch_format="pandas",
                              batch_size=batch_size)
    return bucketed_map_groups(partials, columns,
                               lambda g: g.drop_duplicates())


def distinct(ds, columns: List[str], batch_size=None) -> pd.DataFrame:
    """distinct_ds collected to driver pandas (small-result use only).
    Empty input yields a named empty frame (see grouped_agg)."""
    df = (distinct_ds(ds, columns, batch_size)
          .to_pandas().reset_index(drop=True))
    if not len(df.columns):
        df = pd.DataFrame({c: pd.array([], dtype="object")
                           for c in columns})
    return df


# ------------------------------------------------------ ordered global scan

def _sample_order_values(ds, order_col: str, k: int = 4096) -> np.ndarray:
    """Deterministic bounded sample of ``order_col``: per-batch
    bottom-k rows by fixed-key siphash of the value, then a driver
    final bottom-k — a uniform hash-ordered sample with bounded
    driver memory (k rows), independent of input partitioning."""
    def partial(b: pd.DataFrame) -> pd.DataFrame:
        v = b[[order_col]].copy(deep=False)
        v["__h"] = pd.util.hash_pandas_object(v[order_col],
                                              index=False).to_numpy()
        return v.nsmallest(k, "__h")

    s = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if s.empty:
        return np.array([])
    return s.nsmallest(k, "__h")[order_col].to_numpy()


def ordered_exclusive_cumsum(ds, *, order_col: str, value_col: str,
                             out_col: str = "cum",
                             n_ranges: Optional[int] = None,
                             boundaries: str = "quantile"):
    """GLOBAL exclusive running sum in ``order_col`` order — the
    ordered-scan primitive (sequence packing, global ranking) without
    a global sort:

    1. value-range partition on ``order_col`` — boundary placement
       only affects BALANCE, never the result. ``boundaries=
       'quantile'`` (default, the scale path) takes them from a
       deterministic bounded hash-sample of the data, so a skewed key
       space still splits into even ranges; ``'range'`` splits the
       global [min, max] evenly (one aggregate instead of a sample
       scan),
    2. per-range sums -> driver-side exclusive prefix over
       ``n_ranges`` SCALARS (the only driver state),
    3. per-range local sort + cumsum plus the range's prefix offset —
       one bucketed shuffle.

    ``order_col`` values must be unique (duplicate order keys make an
    exclusive ordered sum ambiguous, in SQL too). Returns ``ds`` plus
    ``out_col``, distributed.
    """
    K = n_ranges or default_buckets()
    if boundaries == "quantile":
        sample = _sample_order_values(ds, order_col)
        if len(sample) < 2:
            bounds = np.array([])
        else:
            bounds = np.quantile(sample.astype(np.float64),
                                 np.linspace(0, 1, K + 1)[1:-1],
                                 method="lower")
    elif boundaries == "range":
        from ray.data.aggregate import Max, Min
        agg = ds.aggregate(Min(order_col), Max(order_col))
        if agg is None:
            return ds
        lo, hi = agg[f"min({order_col})"], agg[f"max({order_col})"]
        bounds = np.linspace(float(lo), float(hi), K + 1)[1:-1]
    else:
        raise ValueError(f"boundaries must be 'quantile' or 'range', "
                         f"got {boundaries!r}")

    def add_rng(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy(deep=False)
        b["__rng"] = np.searchsorted(
            bounds, b[order_col].to_numpy(dtype=np.float64),
            side="right").astype(np.int32)
        return b

    ds2 = ds.map_batches(add_rng, batch_format="pandas")
    sums = grouped_agg(ds2, ["__rng"], {"s": ("sum", value_col)})
    s = sums.sort_values("__rng")
    int_vals = pd.api.types.is_integer_dtype(s["s"])
    # python-int accumulation keeps integer prefixes exact past 2^53
    offsets = np.zeros(K, dtype=np.int64 if int_vals else np.float64)
    run = 0 if int_vals else 0.0
    for r, v in zip(s["__rng"], s["s"]):
        offsets[int(r)] = run
        run += v

    def scan(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for r, gg in g.groupby("__rng", sort=False):
            gg = gg.sort_values(order_col, kind="mergesort")
            v = gg[value_col].to_numpy()
            out = gg.drop(columns="__rng").copy(deep=False)
            out[out_col] = np.cumsum(v) - v + offsets[int(r)]
            outs.append(out)
        return pd.concat(outs, ignore_index=True) if outs else \
            g.drop(columns="__rng")

    return bucketed_map_groups(ds2, ["__rng"], scan)


def ordered_global_rank(ds, order_cols: List[str], *,
                        out_col: str = "rank",
                        n_ranges: Optional[int] = None):
    """GLOBAL 0-based ROW_NUMBER in ``order_cols`` order without a
    global sort all-to-all: value-range partition on the FIRST order
    column (quantile boundaries from a bounded deterministic sample —
    placement affects balance only; equal primary values always land
    in the same range via searchsorted side='right', so a tie can
    never straddle a range boundary), per-range counts reduce to an
    exclusive driver prefix over ``n_ranges`` SCALARS, then each range
    sorts only its own slice by the full ``order_cols`` tiebreak and
    adds its prefix offset. The composite (order_cols) must be a total
    order (unique tuples) for the rank to be well-defined — same
    contract as SQL ROW_NUMBER with a deterministic ORDER BY.

    Returns ``ds`` plus ``out_col`` (int64), distributed; memory per
    task is one range slice (data_size / n_ranges).
    """
    primary = order_cols[0]
    K = n_ranges or default_buckets()
    sample = _sample_order_values(ds, primary)
    if len(sample) < 2:
        bounds = np.array([])
    else:
        bounds = np.quantile(sample.astype(np.float64),
                             np.linspace(0, 1, K + 1)[1:-1],
                             method="lower")

    def add_rng(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy(deep=False)
        b["__rng"] = np.searchsorted(
            bounds, b[primary].to_numpy(dtype=np.float64),
            side="right").astype(np.int32)
        return b

    ds2 = ds.map_batches(add_rng, batch_format="pandas")
    cnt = grouped_agg(ds2, ["__rng"], {"n": ("count", None)})
    cnt = cnt.sort_values("__rng")
    offsets = np.zeros(K + 1, dtype=np.int64)
    run = 0
    for r, c in zip(cnt["__rng"], cnt["n"]):
        offsets[int(r)] = run
        run += int(c)

    def rank_range(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for r, gg in g.groupby("__rng", sort=False):
            gg = gg.sort_values(order_cols, kind="mergesort")
            out = gg.drop(columns="__rng").copy(deep=False)
            out[out_col] = offsets[int(r)] + np.arange(len(gg),
                                                       dtype=np.int64)
            outs.append(out)
        return pd.concat(outs, ignore_index=True) if outs else \
            g.drop(columns="__rng")

    return bucketed_map_groups(ds2, ["__rng"], rank_range)


def grouped_global_rank(ds, part_cols: List[str],
                        order_cols: List[str], *,
                        out_col: str = "rank",
                        n_ranges: Optional[int] = None):
    """0-based ROW_NUMBER() OVER (PARTITION BY part_cols ORDER BY
    order_cols), distributed — the per-partition generalization of
    ordered_global_rank. Same shape: value-range partition on the
    FIRST order column (ties never straddle a range), but the
    exclusive prefix is computed PER PARTITION over the per-(part,
    range) counts — driver state is n_parts x n_ranges scalars, so
    ``part_cols`` must be a low-cardinality partition key (languages,
    sources, event types), never a per-row id. Each range then sorts
    only its own slice by (part_cols + order_cols) and adds its
    partition's prefix offset. (part_cols + order_cols) must be a
    total order (unique tuples) — the SQL ROW_NUMBER contract."""
    primary = order_cols[0]
    K = n_ranges or default_buckets()
    sample = _sample_order_values(ds, primary)
    if len(sample) < 2:
        bounds = np.array([])
    else:
        bounds = np.quantile(sample.astype(np.float64),
                             np.linspace(0, 1, K + 1)[1:-1],
                             method="lower")

    def add_rng(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy(deep=False)
        b["__rng"] = np.searchsorted(
            bounds, b[primary].to_numpy(dtype=np.float64),
            side="right").astype(np.int32)
        return b

    ds2 = ds.map_batches(add_rng, batch_format="pandas")
    cnt = grouped_agg(ds2, part_cols + ["__rng"],
                      {"n": ("count", None)})
    cnt = cnt.sort_values(part_cols + ["__rng"])
    # per-partition exclusive prefix over ranges; the (small) offset
    # frame rides into every range task via the closure
    cnt["__off"] = (cnt.groupby(part_cols, sort=False)["n"]
                    .transform(lambda s: s.cumsum().shift(
                        fill_value=0)).astype(np.int64))
    off_frame = cnt[part_cols + ["__rng", "__off"]]

    def rank_range(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for r, gg in g.groupby("__rng", sort=False):
            gg = gg.sort_values(part_cols + order_cols,
                                kind="mergesort")
            off = off_frame.loc[off_frame["__rng"] == int(r),
                                part_cols + ["__off"]]
            m = gg.merge(off, on=part_cols, how="left")
            pos = (m.groupby(part_cols, sort=False).cumcount()
                   .to_numpy(np.int64))
            out = m.drop(columns=["__rng", "__off"]).copy(deep=False)
            out[out_col] = m["__off"].to_numpy(np.int64) + pos
            outs.append(out)
        return pd.concat(outs, ignore_index=True) if outs else \
            g.drop(columns="__rng")

    return bucketed_map_groups(ds2, ["__rng"], rank_range)


def quantile_exact(ds, col: str, qs: List[float], *,
                   band_budget_rows: int = 2_000_000,
                   max_rounds: int = 8) -> List[float]:
    """EXACT ``quantile_cont`` over a numeric column, distributed — a
    deterministic sample-bracketed selection (Floyd–Rivest-style):

    1. one scan: non-null count ``n`` + a bounded hash-ordered sample
       (`_sample_order_values`),
    2. target ranks ``h = q*(n-1)`` -> order statistics ``floor(h)`` /
       ``ceil(h)``,
    3. the sample brackets those ranks with slack; one counting scan
       verifies the bracket (count-below + band count) and widens it
       if the sample misestimated,
    4. only the bracketed value band (<= ``band_budget_rows``) is
       collected and sorted on the driver; if the band is larger, the
       scan window narrows to the band and repeats — each round
       shrinks the band by the sample's rank resolution (~32x), so
       even adversarial distributions converge in a few scans,
    5. interpolation matches SQL: ``v0 + (v1 - v0) * (h - floor(h))``.

    Driver state is the sample plus the final band — never O(n). NaN /
    null values are excluded (SQL aggregate semantics). Returns one
    value per requested quantile (None when the column is empty).

    Cost model: ~2 scans (count + collect) per WELL-SEPARATED quantile
    per round — a handful of gates/cuts is the intended use; for full
    decile tables prefer one pass over `ordered_global_rank` instead.
    Scans re-execute the upstream pipeline (lazy); materialize a slim
    (key, value) projection first when the upstream is expensive, as
    docs_quality_gate does.
    """
    if not qs:
        return []

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        v = b[col].to_numpy(dtype=np.float64, na_value=np.nan)
        return pd.DataFrame({col: v[~np.isnan(v)]})

    vals = ds.map_batches(prep, batch_format="pandas")
    n = vals.count()
    if n == 0:
        return [None] * len(qs)

    hs = [float(q) * (n - 1) for q in qs]
    full_sample = np.sort(_sample_order_values(vals, col))
    # exact global extrema: brackets stay FINITE even at the sample's
    # ends, so the tie-run shortcut below can always fire
    from ray.data.aggregate import Max, Min
    agg = vals.aggregate(Min(col), Max(col))
    gmin, gmax = float(agg[f"min({col})"]), float(agg[f"max({col})"])
    found: dict = {}

    def band_filter(b: pd.DataFrame, blo: float, bhi: float) -> pd.DataFrame:
        v = b[col].to_numpy()
        return pd.DataFrame({col: v[(v >= blo) & (v <= bhi)]})

    def select_pair(r0: int, r1: int) -> None:
        """Resolve the ADJACENT order statistics r0 <= r1 <= r0+1 in
        their own shrinking window — separate windows per quantile are
        what lets far-apart quantiles each converge (one shared band
        could never shrink below their rank separation)."""
        lo_rank, window, sample, wn = 0, vals, full_sample, n
        wlo, whi = gmin, gmax      # exact value bounds of the window
        for _ in range(max_rounds):
            rel0, rel1 = r0 - lo_rank, r1 - lo_rank
            m = len(sample)
            if m == wn:
                # the bounded sample caps at 4096 rows, so m == wn means
                # every window row IS in the sample — resolve exactly
                # with no further scans
                found[r0] = float(sample[rel0])
                found[r1] = float(sample[rel1])
                return
            slack = max(1, m // 32)
            lo_i = max(0, int(np.floor(rel0 / max(wn, 1) * (m - 1))) - slack)
            hi_i = min(m - 1,
                       int(np.ceil(rel1 / max(wn, 1) * (m - 1))) + slack)
            while True:
                # the sample's ends are not the window extrema — fall
                # back to the exact (finite) window bounds there
                blo = wlo if lo_i == 0 else float(sample[lo_i])
                bhi = whi if hi_i == m - 1 else float(sample[hi_i])

                def counts(b: pd.DataFrame, blo=blo,
                           bhi=bhi) -> pd.DataFrame:
                    v = b[col].to_numpy()
                    return pd.DataFrame(
                        {"below": [int((v < blo).sum())],
                         "band": [int(((v >= blo) & (v <= bhi)).sum())],
                         "eq_lo": [int((v == blo).sum())],
                         "eq_hi": [int((v == bhi).sum())]})

                c = (window.map_batches(counts, batch_format="pandas")
                     .to_pandas().sum())
                below, band = int(c["below"]), int(c["band"])
                eq_lo, eq_hi = int(c["eq_lo"]), int(c["eq_hi"])
                if (below <= rel0 and below + band > rel1) or \
                        (lo_i == 0 and hi_i == m - 1):
                    break
                lo_i = max(0, lo_i - 2 * slack)    # sample misestimated
                hi_i = min(m - 1, hi_i + 2 * slack)  # the rank: widen

            if blo == bhi:
                # a tie run larger than the budget: every value in the
                # band IS the order statistic — no collect needed
                found[r0] = found[r1] = float(blo)
                return
            # ranks inside the bracket-EDGE tie runs are exact from the
            # counts alone — this is what makes adjacent giant tie runs
            # (each > budget, bracket pinned to the two values) converge
            def edge_val(rel: int):
                if rel < below + eq_lo:
                    return float(blo)
                if rel >= below + band - eq_hi:
                    return float(bhi)
                return None
            v0, v1 = edge_val(rel0), edge_val(rel1)
            if v0 is not None:
                found[r0] = v0
            if v1 is not None:
                found[r1] = v1
            if v0 is not None and v1 is not None:
                return
            # one of the pair resolved at a bracket edge: chase only the
            # unresolved rank from here on (the resolved one would fall
            # outside the narrowed window and go rank-negative)
            if v0 is not None:
                r0 = r1
            elif v1 is not None:
                r1 = r0
            if band <= band_budget_rows:
                got = np.sort(window.map_batches(
                    lambda b, blo=blo, bhi=bhi: band_filter(b, blo, bhi),
                    batch_format="pandas").to_pandas()[col].to_numpy())
                found[r0] = float(got[r0 - lo_rank - below])
                found[r1] = float(got[r1 - lo_rank - below])
                return
            # unresolved ranks are strictly interior — narrow to the
            # OPEN interval (blo, bhi): the edge runs (>= 1 row each)
            # leave the window, so progress is guaranteed even when
            # they exceed the budget
            def interior_filter(b: pd.DataFrame, blo=blo,
                                bhi=bhi) -> pd.DataFrame:
                v = b[col].to_numpy()
                return pd.DataFrame({col: v[(v > blo) & (v < bhi)]})

            interior = band - eq_lo - eq_hi
            if interior <= band_budget_rows:
                got = np.sort(window.map_batches(
                    interior_filter,
                    batch_format="pandas").to_pandas()[col].to_numpy())
                base = lo_rank + below + eq_lo
                if v0 is None:
                    found[r0] = float(got[r0 - base])
                if v1 is None:
                    found[r1] = float(got[r1 - base])
                return
            window = window.map_batches(interior_filter,
                                        batch_format="pandas")
            lo_rank += below + eq_lo
            wn = interior
            wlo, whi = blo, bhi
            sample = np.sort(_sample_order_values(window, col))
        raise RuntimeError(
            f"quantile_exact did not converge in {max_rounds} rounds "
            f"(band still > {band_budget_rows} rows); raise the budget "
            f"or max_rounds")

    for h in hs:
        r0, r1 = int(np.floor(h)), int(np.ceil(h))
        if r0 not in found or r1 not in found:
            select_pair(r0, r1)

    out = []
    for q, h in zip(qs, hs):
        r0, r1 = int(np.floor(h)), int(np.ceil(h))
        v0, v1 = found[r0], found[r1]
        out.append(v0 + (v1 - v0) * (h - r0))
    return out


# --------------------------------------------- co-partitioned non-equi joins

def _require_schema(ds, side: str):
    """Joins need column names up front. An empty dataset that went
    through repartition() reports schema None (Ray drops it); surface
    that clearly instead of an AttributeError deep inside the join."""
    s = ds.schema()
    if s is None:
        raise ValueError(
            f"{side} dataset has no schema (an empty dataset loses its "
            "schema through repartition(); construct empty inputs from "
            "a typed Arrow table instead)")
    return s

def _cogroup(left, right, keys: List[str], fn, *, n_buckets: int = 32,
             drop_null_keys_left: bool = True):
    """Shared plumbing for the non-equi joins: tag both sides, union
    into one superset schema (Arrow-null filled), shuffle once on the
    stable key hash, and run ``fn`` per bucket on the ARROW table with
    both sides present (rows carry ``__side`` = 'l'/'r'). fn splits the
    sides and converts each to pandas separately, so the other side's
    null-filled columns never force a lossy int->float coercion on
    real values. Rows with a NULL key are dropped up front on both
    sides (SQL semantics: NULL never matches). Key columns may be
    shared between the two sides; all other column names must be
    disjoint."""
    l_schema, r_schema = left.schema(), right.schema()
    l_names = list(l_schema.names)
    r_names = list(r_schema.names)
    overlap = (set(l_names) & set(r_names)) - set(keys)
    if overlap:
        raise ValueError(f"column overlap besides keys: {overlap}")
    types = {n: _as_arrow(t) for n, t in zip(l_names, l_schema.types)}
    types.update((n, _as_arrow(t))
                 for n, t in zip(r_names, r_schema.types))
    all_names = l_names + [n for n in r_names if n not in l_names]

    def prep(side_names, side_tag):
        def prep_fn(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            if side_tag == "r" or drop_null_keys_left:
                for k in keys:      # SQL: NULL keys never match
                    t = t.filter(pc.is_valid(t.column(k)))
            n = t.num_rows
            key_df = pd.DataFrame(
                {k: t.column(k).to_pandas() for k in keys})
            bucket = pa.array(stable_bucket_series(key_df, n_buckets))
            cols, names = [], []
            for name in all_names:
                names.append(name)
                cols.append(t.column(name) if name in side_names
                            else pa.nulls(n, types[name]))
            names += ["__side", "bucket"]
            cols += [pa.array([side_tag] * n, pa.string()), bucket]
            return pa.Table.from_arrays(cols, names=names)
        return prep_fn

    lp = left.map_batches(prep(set(l_names), "l"), batch_format="pyarrow")
    rp = right.map_batches(prep(set(r_names), "r"), batch_format="pyarrow")
    both = lp.union(rp).repartition(n_buckets)
    return both.groupby("bucket").map_groups(fn, batch_format="pyarrow")


def _split_sides(t: pa.Table, l_names: List[str],
                 r_names: List[str]) -> Tuple[pd.DataFrame, pd.DataFrame]:
    """Bucket table -> (left_df, right_df), each converted to pandas
    SEPARATELY so null-filled other-side columns are never part of the
    conversion (keeps int64 exact above 2^53; genuine source nulls
    pass through with ordinary pandas semantics)."""
    import pyarrow.compute as pc
    side = t.column("__side")
    l = t.filter(pc.equal(side, "l")).select(l_names).to_pandas()
    r = t.filter(pc.equal(side, "r")).select(r_names).to_pandas()
    return l, r


def _gather_asof(l: pd.DataFrame, r: pd.DataFrame, *, by: str,
                 left_on: str, right_on: str,
                 how: str = "inner") -> pd.DataFrame:
    """merge_asof that attaches right columns by GATHER instead of
    merge: the asof match only carries a right row-number, and payload
    columns are taken with iloc afterwards — so their dtypes (and
    int64 values beyond float precision) survive untouched. Rows with
    a NULL timestamp on either side are dropped first (SQL: a
    comparison with NULL is never true). Deterministic under ties:
    the right side is fully sorted, so the winner among equal
    (by, right_on) rows is the lexicographically greatest payload."""
    l_all = l
    l = l.dropna(subset=[left_on, by]).sort_values(left_on,
                                                   kind="mergesort")
    # tiebreak sort for deterministic winners among equal (by, ts) rows
    # — but only on plain numpy scalar dtypes: object columns and
    # extension dtypes (e.g. Ray's tensor arrays holding embeddings)
    # are not orderable and must never become sort keys
    tiebreak = [c for c in r.columns
                if c != right_on and isinstance(r[c].dtype, np.dtype)
                and r[c].dtype.kind in "biufcmM"]
    r = (r.dropna(subset=[right_on])
         .sort_values([right_on] + tiebreak, kind="mergesort")
         .reset_index(drop=True))
    probe = pd.merge_asof(
        l, r[[by, right_on]].assign(__ri=np.arange(len(r), dtype=np.int64)),
        left_on=left_on, right_on=right_on, by=by, direction="backward",
        suffixes=("", "__r"))
    payload_cols = [c for c in r.columns if c != by]
    if how == "left":
        # keep every left row (including NULL-key/NULL-ts rows, which
        # SQL retains unmatched); right payloads null-fill, so integer
        # payload columns take SQL-nullable (float/NaN) form
        out_l = l.reset_index(drop=True)
        ri = probe["__ri"].to_numpy()
        # reindex with integer labels only: -1 is absent from the
        # RangeIndex, so unmatched rows come back all-null
        labels = np.where(np.isnan(ri), -1, ri).astype(np.int64)
        out_r = (r[payload_cols].reindex(labels)
                 .reset_index(drop=True))
        matched_part = pd.concat([out_l, out_r], axis=1)
        null_l = l_all[l_all[left_on].isna() | l_all[by].isna()]
        if len(null_l):
            null_part = null_l.reset_index(drop=True)
            # null-fill by reindexing the right frame with the absent -1
            # label: promotes int->float and datetime->NaT exactly like
            # the matched-part reindex above, and works for an empty
            # right frame too (pd.Series([pd.NA]*n, dtype=int64) raises)
            filler = (r[payload_cols]
                      .reindex([-1] * len(null_part))
                      .reset_index(drop=True))
            null_part = pd.concat([null_part, filler], axis=1)
            matched_part = pd.concat([matched_part, null_part],
                                     ignore_index=True)
        return matched_part
    matched = probe["__ri"].notna().to_numpy()
    ri = probe.loc[matched, "__ri"].to_numpy(dtype=np.int64)
    out_l = l[matched].reset_index(drop=True)
    out_r = r.iloc[ri][payload_cols].reset_index(drop=True)
    return pd.concat([out_l, out_r], axis=1)


_BROADCAST_JOIN_BYTES = 64 << 20


def _maybe_broadcast_right(right, *, prepare=None):
    """THE adaptive broadcast-small-side decision, shared by every
    operator that attaches a small side map-side (non-equi joins, the
    boilerplate drop-set, line-dedup winners): if the side fits the
    broadcast budget, materialize it ONCE into the object store and
    return a (ref, materialized-Dataset) handle — probes then join
    map-side with zero shuffles (the dimension-table case). Returns
    (None, mat) when the side is big and the caller's salted /
    co-partitioned path should run. ``prepare`` transforms the pandas
    frame ONCE on the driver before the put (type coercions, key
    arrays) instead of per probe batch."""
    import ray
    mat = right.materialize()
    if mat.size_bytes() is not None \
            and mat.size_bytes() <= _BROADCAST_JOIN_BYTES:
        df = mat.to_pandas()
        if not len(df.columns):
            # a fully-EMPTY side loses its columns through
            # to_pandas(); rebuild the typed empty frame from the
            # Dataset schema so map-side joiners can still reference
            # the key column (SQL: empty side -> zero matches, not a
            # KeyError)
            sch = mat.schema()
            if sch is not None and sch.names:
                df = pa.schema(
                    [(n, _as_arrow(t)) for n, t in
                     zip(sch.names, sch.types)]
                ).empty_table().to_pandas()
        if prepare is not None:
            df = prepare(df)
        return ray.put(df), mat
    return None, mat


def asof_join(left, right, *, by: str, left_ts: str, right_ts: str,
              how: str = "inner", n_buckets: int = 32):
    """Distributed AS-OF join: for each left row, attach the right row
    with the greatest ``right_ts`` <= ``left_ts`` for the same ``by``
    key. ``how='inner'`` (default) drops left rows with no prior right
    row; ``how='left'`` keeps them with null right columns (integer
    right payloads then take SQL-nullable float/NaN form). NULL keys
    and NULL timestamps never match, like SQL — under ``how='left'``
    such left rows are retained unmatched.

    Ray Data has no as-of join; this is the documented composition.
    Adaptive strategy: a right side under the 64 MiB broadcast budget
    is shipped once and every probe batch joins MAP-SIDE (zero
    shuffles — the dimension-table case); a large right side takes the
    co-partitioned path — both sides hashed on ``by`` (one shuffle),
    then a vectorized ``pandas.merge_asof`` per bucket with
    gather-based payload attachment (dtype- and precision-exact).
    Partitioning assumption of the shuffle path: all rows of one key
    land in one bucket, so per-key history must fit a worker; use
    asof_join_salted when a key's history outgrows a block."""
    import ray

    if left_ts == right_ts:
        raise ValueError("left_ts and right_ts must be distinct names")

    l_names = list(_require_schema(left, "left").names)
    r_names = list(_require_schema(right, "right").names)

    ref, right_mat = _maybe_broadcast_right(right)
    if ref is not None:
        def map_side(b: pd.DataFrame) -> pd.DataFrame:
            r = ray.get(ref)
            if how == "inner":
                b = b.dropna(subset=[by])
            return _gather_asof(b, r, by=by, left_on=left_ts,
                                right_on=right_ts, how=how)
        return left.map_batches(map_side, batch_format="pandas")

    def join_bucket(t: pa.Table) -> pd.DataFrame:
        l, r = _split_sides(t, l_names, r_names)
        return _gather_asof(l, r, by=by, left_on=left_ts,
                            right_on=right_ts, how=how)

    return _cogroup(left, right_mat, [by], join_bucket,
                    n_buckets=n_buckets,
                    drop_null_keys_left=(how == "inner"))


def interval_join(probe, intervals, *, by: str, ts_col: str,
                  start_col: str, end_col: str, n_buckets: int = 32):
    """Distributed interval-containment (range) join: each probe row is
    matched to the interval with ``start <= ts <= end`` for its ``by``
    key (NULL keys/timestamps never match). Intervals must be
    non-overlapping per key (the session-window contract), making the
    match unique. Same adaptive strategy as asof_join: an interval set
    under the broadcast budget joins map-side with zero shuffles; a
    large one takes the co-partitioned shuffle (salted variant for
    mega keys)."""
    import ray

    p_names = list(_require_schema(probe, "probe").names)
    i_names = list(_require_schema(intervals, "intervals").names)

    def containment(p: pd.DataFrame, iv: pd.DataFrame) -> pd.DataFrame:
        m = _gather_asof(p, iv, by=by, left_on=ts_col,
                         right_on=start_col)
        return m[m[end_col].notna() & (m[ts_col] <= m[end_col])]

    ref, intervals_mat = _maybe_broadcast_right(intervals)
    if ref is not None:
        def map_side(b: pd.DataFrame) -> pd.DataFrame:
            iv = ray.get(ref)
            return containment(b.dropna(subset=[by]), iv)
        return probe.map_batches(map_side, batch_format="pandas")

    def join_bucket(t: pa.Table) -> pd.DataFrame:
        p, iv = _split_sides(t, p_names, i_names)
        return containment(p, iv)

    return _cogroup(probe, intervals_mat, [by], join_bucket,
                    n_buckets=n_buckets)


def asof_join_salted(left, right, *, by: str, left_ts: str, right_ts: str,
                     salt_window, n_buckets: int = 64):
    """AS-OF join with TIME-RANGE SALTING for mega-key histories.

    The plain asof_join co-partitions on hash(by), so one key's entire
    history must fit a single bucket — untenable when one user/conv
    owns a giant stream. This variant additionally splits both sides
    into ``salt_window`` time ranges and co-partitions on
    (key, range), so a hot key's history spreads over many buckets.

    Correctness across range boundaries: a probe early in range R may
    have its match in an earlier range, so each (key, range) receives
    one CARRY row — the latest right row from any earlier range. The
    whole carry computation is DISTRIBUTED in one co-partitioned stage
    keyed on ``by``: per-batch range dedup + per-batch latest-row
    candidates flow in, and inside each key bucket the true
    per-(key, range) latest is finalized, carry edges are derived with
    a strict-backward ``merge_asof`` over the range sets, and rows are
    replicated to their destination ranges by a vectorized merge. The
    driver never holds anything proportional to keys x ranges; the
    bucket stage holds O(ranges-per-key) rows per key — the small
    quantity salting creates (time span / window), not row count.

    Output equals asof_join exactly (property-tested, including ties
    on (key, right_ts)); inner semantics, NULL keys/timestamps never
    match.
    """
    if left_ts == right_ts:
        raise ValueError("left_ts and right_ts must be distinct names")
    l_names = list(_require_schema(left, "left").names)
    r_names = list(_require_schema(right, "right").names)
    W = int(pd.Timedelta(salt_window).value)

    def add_rng(ts_col):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            b = b.dropna(subset=[ts_col, by])
            b = b.copy(deep=False)
            b["__rng"] = (b[ts_col].astype("int64") // W).astype("int64")
            return b
        return f

    l2 = left.map_batches(add_rng(left_ts), batch_format="pandas")
    r2 = right.map_batches(add_rng(right_ts), batch_format="pandas")

    # latest right row per (key, range): the only candidate any later
    # range could need (mergeable: per batch here, finalized in the
    # carry bucket). Tiebreak among equal (key, range, right_ts) rows
    # MUST match _gather_asof's (right_ts + numeric payload
    # lexicographic, greatest wins) so the carried winner is the row
    # the plain join would attach.
    def latest_partial(b: pd.DataFrame) -> pd.DataFrame:
        tiebreak = [c for c in b.columns
                    if c != right_ts and isinstance(b[c].dtype, np.dtype)
                    and b[c].dtype.kind in "biufcmM"]
        b = b.sort_values([right_ts] + tiebreak, kind="mergesort")
        return b.groupby([by, "__rng"], sort=False, as_index=False,
                         observed=True).tail(1)

    latest_cand = r2.map_batches(latest_partial, batch_format="pandas")

    # target (key, range) pairs from BOTH sides — per-batch dedup only;
    # cross-batch duplicates are dropped inside the bucket
    def ranges_of(b: pd.DataFrame) -> pd.DataFrame:
        return b[[by, "__rng"]].drop_duplicates()

    targets = (l2.map_batches(ranges_of, batch_format="pandas")
               .union(r2.map_batches(ranges_of, batch_format="pandas"))
               .map_batches(lambda b: b.rename(columns={"__rng": "__dst"}),
                            batch_format="pandas"))

    def carry_bucket(t: pa.Table) -> pd.DataFrame:
        tg, lt = _split_sides(t, [by, "__dst"], r_names + ["__rng"])
        lt = latest_partial(lt)              # finalize per (key, range)
        tg = tg.drop_duplicates().sort_values("__dst", kind="mergesort")
        srcs = (lt[[by, "__rng"]].rename(columns={"__rng": "__src"})
                .sort_values("__src", kind="mergesort"))
        # greatest source range STRICTLY before each destination range
        m = pd.merge_asof(tg, srcs, left_on="__dst", right_on="__src",
                          by=by, direction="backward",
                          allow_exact_matches=False)
        m = m.dropna(subset=["__src"])
        if m.empty:
            return lt.iloc[0:0]
        m = m.astype({"__src": "int64"}).rename(columns={"__src": "__rng"})
        # vectorized replication: one output row per (latest row, dst)
        out = lt.merge(m, on=[by, "__rng"], how="inner")
        out = out.drop(columns="__rng").rename(columns={"__dst": "__rng"})
        return out[r_names + ["__rng"]]

    carries = _cogroup(targets, latest_cand, [by], carry_bucket,
                       n_buckets=n_buckets)
    rights_aug = r2.union(carries)

    def join_bucket(t: pa.Table) -> pd.DataFrame:
        l, r = _split_sides(t, l_names + ["__rng"], r_names + ["__rng"])
        m = _gather_asof(l.drop(columns="__rng"), r.drop(columns="__rng"),
                         by=by, left_on=left_ts, right_on=right_ts)
        return m

    return _cogroup(l2, rights_aug, [by, "__rng"], join_bucket,
                    n_buckets=n_buckets)


def interval_join_salted(probe, intervals, *, by: str, ts_col: str,
                         start_col: str, end_col: str, salt_window,
                         n_buckets: int = 64):
    """interval_join with TIME-RANGE SALTING: probes partition by their
    own time range; each interval is replicated into EVERY range it
    overlaps (replication factor = span / salt_window, bounded — pick
    the window at or above the typical interval span). No carry rows
    are needed: containment can only match an interval overlapping the
    probe's range, and that copy is present by construction.
    Property-tested equal to the plain interval_join."""
    p_names = list(_require_schema(probe, "probe").names)
    i_names = list(_require_schema(intervals, "intervals").names)
    W = int(pd.Timedelta(salt_window).value)

    def probe_rng(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=[ts_col, by]).copy(deep=False)
        b["__rng"] = (b[ts_col].astype("int64") // W).astype("int64")
        return b

    def replicate_intervals(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=[start_col, end_col, by])
        if b.empty:
            out = b.copy(deep=False)
            out["__rng"] = pd.array([], dtype="int64")
            return out
        lo = (b[start_col].astype("int64") // W).to_numpy()
        hi = (b[end_col].astype("int64") // W).to_numpy()
        reps = (hi - lo + 1).astype(np.int64)
        idx = np.repeat(np.arange(len(b)), reps)
        rng = np.concatenate([np.arange(a, z + 1)
                              for a, z in zip(lo, hi)])
        out = b.iloc[idx].copy(deep=False)
        out["__rng"] = rng.astype(np.int64)
        return out

    p2 = probe.map_batches(probe_rng, batch_format="pandas")
    i2 = intervals.map_batches(replicate_intervals, batch_format="pandas")

    def join_bucket(t: pa.Table) -> pd.DataFrame:
        p, iv = _split_sides(t, p_names + ["__rng"], i_names + ["__rng"])
        m = _gather_asof(p.drop(columns="__rng"), iv.drop(columns="__rng"),
                         by=by, left_on=ts_col, right_on=start_col)
        return m[m[end_col].notna() & (m[ts_col] <= m[end_col])]

    return _cogroup(p2, i2, [by, "__rng"], join_bucket,
                    n_buckets=n_buckets)
