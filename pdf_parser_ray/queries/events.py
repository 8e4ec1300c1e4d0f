"""Event-stream queries: windows and time series (sessions, running
sums, moving averages, LAG/LEAD, NTILE, pivots, gap fill, rollups,
funnels, cohorts), as-of and interval joins, exact quantiles, and the
sketch family (HyperLogLog, count-min, bottom-k samples) checked
against exact SQL."""

from __future__ import annotations

import functools
import json
import shutil
import tempfile

import numpy as np
import pandas as pd
import ray
from ray.data.aggregate import Max, Min

from ..relational import (asof_join, bucketed_map_groups, distinct,
                          distinct_ds, grouped_agg, grouped_agg_ds,
                          guard_broadcast_bytes, interval_join,
                          ordered_global_rank, read_table)
from ..stages.sketches import (approx_distinct, approx_distinct_grouped,
                               bottomk_sample, cms_bucket, cms_partial_rows,
                               sample_quantile, weighted_sample)
from ..state.shards import (read_sorted_range, read_zorder_range,
                            write_sorted_export, write_zorder_export)
from ._common import _cents, _d, query


@query(oracle="""
        SELECT event_type, COUNT(*) AS n_events,
               CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS DOUBLE)
                 / 100.0 AS sum_value,
               CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS DOUBLE)
                 / 100.0 / COUNT(*) AS avg_value,
               MAX(value) AS max_value
        FROM events GROUP BY event_type ORDER BY event_type
    """)
def events_type_stats(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "events", ["event_type", "value"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": b["event_type"].values,
                             "v_c": _cents(b["value"]),
                             "value": b["value"].values})

    g = grouped_agg(ds.map_batches(prep, batch_format="pandas"),
                    ["event_type"], {"n_events": ("count", None),
                                     "s": ("sum", "v_c"),
                                     "max_value": ("max", "value")})
    out = g[["event_type", "n_events"]].copy()
    out["sum_value"] = _d(g["s"]) / 100.0
    out["avg_value"] = _d(g["s"]) / 100.0 / g["n_events"]
    out["max_value"] = g["max_value"]
    return out.sort_values("event_type").reset_index(drop=True)


@query(oracle="""
        SELECT date_trunc('hour', ts) AS hour, COUNT(*) AS n_events
        FROM events GROUP BY 1 ORDER BY 1
    """)
def events_hourly_counts(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "events", ["ts"])

    def add_hour(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"hour": b["ts"].dt.floor("h")})

    out = grouped_agg(ds.map_batches(add_hour, batch_format="pandas"),
                      ["hour"], {"n_events": ("count", None)})
    return out.sort_values("hour").reset_index(drop=True)


@query(oracle="""
        SELECT user_id,
               CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS DOUBLE)
                 / 100.0 AS total_value
        FROM events GROUP BY user_id
        ORDER BY total_value DESC, user_id LIMIT 10
    """)
def events_user_topk(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "events", ["user_id", "value"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"user_id": b["user_id"].values,
                             "v_c": _cents(b["value"])})

    g = grouped_agg(ds.map_batches(prep, batch_format="pandas"),
                    ["user_id"], {"s": ("sum", "v_c")})
    g["total_value"] = _d(g["s"]) / 100.0
    return (g[["user_id", "total_value"]]
            .sort_values(["total_value", "user_id"],
                         ascending=[False, True])
            .head(10).reset_index(drop=True))


@query(oracle="""
        SELECT user_id, date_trunc('hour', ts) AS hour,
               COUNT(*) AS n_events,
               CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS DOUBLE)
                 / 100.0 AS sum_value
        FROM events GROUP BY user_id, hour ORDER BY user_id, hour
    """)
def events_user_hourly(sf_dir: str) -> pd.DataFrame:
    """Tumbling-window (1h) aggregate per user — the engine's windowed
    aggregation operator (SURVEY.md §2.9: Ray Data has no event-time
    windows; tumbling windows are a grouped aggregate on the truncated
    timestamp)."""
    ds = read_table(sf_dir, "events", ["user_id", "ts", "value"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"user_id": b["user_id"].values,
                             "hour": b["ts"].dt.floor("h").values,
                             "v_c": _cents(b["value"])})

    g = grouped_agg(ds.map_batches(prep, batch_format="pandas"),
                    ["user_id", "hour"], {"n_events": ("count", None),
                                          "s": ("sum", "v_c")})
    out = g[["user_id", "hour", "n_events"]].copy()
    out["sum_value"] = _d(g["s"]) / 100.0
    return out.sort_values(["user_id", "hour"]).reset_index(drop=True)


def _sessions_ds(sf_dir: str):
    """Session windows (30-min inactivity gap) per user as a DATASET:
    bucketed per-user combine, vectorized diff+cumsum inside the
    bucket. Ordering ties on equal ts are gap-safe (diff 0 < gap ->
    same session), so the result is deterministic under any stable tie
    order."""
    ds = read_table(sf_dir, "events", ["user_id", "ts"])
    gap = pd.Timedelta(minutes=30)

    def sessions(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts"], kind="mergesort")
        new_user = df["user_id"] != df["user_id"].shift()
        gap_break = (df["ts"] - df["ts"].shift()) > gap
        df = df.assign(session_id=(new_user | gap_break).groupby(
            df["user_id"], observed=True).cumsum().astype("int64"))
        g = df.groupby(["user_id", "session_id"], sort=False)
        return pd.DataFrame({
            "n_events": g.size().astype("int64"),
            "session_start": g["ts"].min(),
            "session_end": g["ts"].max(),
        }).reset_index()

    return bucketed_map_groups(ds, ["user_id"], sessions)


@query(oracle="""
        WITH d AS (
          SELECT user_id, ts,
                 CASE WHEN lag(ts) OVER w IS NULL
                        OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                      THEN 1 ELSE 0 END AS is_new
          FROM events
          WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
        s AS (
          SELECT user_id, ts,
                 CAST(SUM(is_new) OVER (PARTITION BY user_id ORDER BY ts
                                        ROWS UNBOUNDED PRECEDING)
                      AS BIGINT) AS session_id
          FROM d)
        SELECT user_id, session_id, COUNT(*) AS n_events,
               MIN(ts) AS session_start, MAX(ts) AS session_end
        FROM s GROUP BY user_id, session_id
        ORDER BY user_id, session_id
    """)
def events_sessions(sf_dir: str) -> pd.DataFrame:
    out = _sessions_ds(sf_dir).to_pandas()
    out["n_events"] = out["n_events"].astype("int64")
    return out.sort_values(["user_id", "session_id"]).reset_index(drop=True)


@query(oracle="""
        SELECT event_id, user_id, ts,
               CAST(SUM(CAST(ROUND(value * 100) AS BIGINT))
                    OVER (PARTITION BY user_id ORDER BY ts, event_id
                          ROWS UNBOUNDED PRECEDING) AS DOUBLE) / 100.0
                 AS running_value
        FROM events ORDER BY user_id, ts
    """)
def events_running_sum(sf_dir: str) -> pd.DataFrame:
    """Per-user running cumulative value (streaming-state analog):
    bucketed per-user combine, vectorized sort + int64-cents cumsum.
    Deterministic total order (ts, event_id) on both sides."""
    ds = read_table(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def running(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        v_c = _cents(df["value"])
        csum = (pd.Series(v_c, index=df.index)
                .groupby(df["user_id"], observed=True).cumsum())
        return pd.DataFrame({
            "event_id": df["event_id"].values,
            "user_id": df["user_id"].values,
            "ts": df["ts"].values,
            "running_value": csum.astype("float64").values / 100.0,
        })

    out = bucketed_map_groups(ds, ["user_id"], running).to_pandas()
    return (out.sort_values(["user_id", "ts", "event_id"])
            .reset_index(drop=True))


@query(oracle="""
        SELECT user_id, event_id, value
        FROM events
        QUALIFY row_number() OVER (PARTITION BY user_id
                                   ORDER BY value DESC, event_id) <= 3
        ORDER BY user_id, event_id
    """)
def events_top_per_user(sf_dir: str) -> pd.DataFrame:
    """Grouped top-k (top 3 events by value per user), tie-broken by
    event_id — a per-group window operator."""
    ds = read_table(sf_dir, "events", ["event_id", "user_id", "value"])

    def topn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "value", "event_id"],
                            ascending=[True, False, True],
                            kind="mergesort")
        return df.groupby("user_id", sort=False, observed=True).head(3)

    out = bucketed_map_groups(ds, ["user_id"], topn).to_pandas()
    return (out[["user_id", "event_id", "value"]]
            .sort_values(["user_id", "event_id"]).reset_index(drop=True))


@query(oracle="""
        SELECT event_id, user_id, ts, value,
               COALESCE(value - LAG(value) OVER w, 0.0) AS value_delta,
               COALESCE(date_diff('microsecond', ts, LEAD(ts) OVER w),
                        -1) AS next_gap_us
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        ORDER BY user_id, ts, event_id
    """)
def events_value_delta(sf_dir: str) -> pd.DataFrame:
    """Per-user LAG/LEAD window: previous-event value delta and
    next-event gap in exact integer microseconds, ordered by
    (ts, event_id) within user — one bucketed per-user shuffle, all
    window arithmetic vectorized inside the group stage. First/last
    rows use explicit sentinels (delta 0.0, gap -1) instead of NULLs
    so the result is hash-comparable without NULL-semantics coupling.
    """
    ds = read_table(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def win(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        g = df.groupby("user_id", sort=False, observed=True)
        prev_v = g["value"].shift(1)
        next_ts = g["ts"].shift(-1)
        delta = (df["value"] - prev_v).fillna(0.0)
        td = (next_ts - df["ts"]).values.astype("timedelta64[us]")
        gap = td.view("int64").copy()
        gap[np.isnat(td)] = -1
        return pd.DataFrame({
            "event_id": df["event_id"].values,
            "user_id": df["user_id"].values,
            "ts": df["ts"].values,
            "value": df["value"].values,
            "value_delta": delta.values,
            "next_gap_us": gap,
        })

    out = bucketed_map_groups(ds, ["user_id"], win).to_pandas()
    return (out.sort_values(["user_id", "ts", "event_id"])
            .reset_index(drop=True))


@query(oracle="""
        SELECT * FROM (
        SELECT 'event_id' AS col, CAST(COUNT(*) AS BIGINT) AS n_rows,
               CAST(SUM(CASE WHEN event_id IS NULL THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_nulls,
               CAST(COUNT(DISTINCT event_id) AS BIGINT) AS n_distinct,
               TRUE AS hll_within_5pct
        FROM events
        UNION ALL
        SELECT 'ts' AS col, CAST(COUNT(*) AS BIGINT) AS n_rows,
               CAST(SUM(CASE WHEN ts IS NULL THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_nulls,
               CAST(COUNT(DISTINCT ts) AS BIGINT) AS n_distinct,
               TRUE AS hll_within_5pct
        FROM events
        UNION ALL
        SELECT 'user_id' AS col, CAST(COUNT(*) AS BIGINT) AS n_rows,
               CAST(SUM(CASE WHEN user_id IS NULL THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_nulls,
               CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_distinct,
               TRUE AS hll_within_5pct
        FROM events
        UNION ALL
        SELECT 'event_type' AS col, CAST(COUNT(*) AS BIGINT) AS n_rows,
               CAST(SUM(CASE WHEN event_type IS NULL THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_nulls,
               CAST(COUNT(DISTINCT event_type) AS BIGINT) AS n_distinct,
               TRUE AS hll_within_5pct
        FROM events
        UNION ALL
        SELECT 'value' AS col, CAST(COUNT(*) AS BIGINT) AS n_rows,
               CAST(SUM(CASE WHEN value IS NULL THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_nulls,
               CAST(COUNT(DISTINCT value) AS BIGINT) AS n_distinct,
               TRUE AS hll_within_5pct
        FROM events
        UNION ALL
        SELECT 'props' AS col, CAST(COUNT(*) AS BIGINT) AS n_rows,
               CAST(SUM(CASE WHEN props IS NULL THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_nulls,
               CAST(COUNT(DISTINCT props) AS BIGINT) AS n_distinct,
               TRUE AS hll_within_5pct
        FROM events
        ) ORDER BY col
    """)
def events_profile(sf_dir: str) -> pd.DataFrame:
    """Dataset PROFILER (the schema-QA pass every ingest runs): per
    column — row count, null count, EXACT distinct count (distributed
    per-batch-unique -> bucketed distinct; the mergeable-partial shape
    that never ships raw rows), and a live HyperLogLog cross-check
    (the scale path when exact distinct is too wide) asserted within
    5%. One profile row per column, all integer-exact plus the sketch
    bound as a verified TRUE."""
    cols = ["event_id", "ts", "user_id", "event_type", "value", "props"]
    ds = read_table(sf_dir, "events", cols).materialize()

    def null_partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "col": cols,
            "n": np.int64(len(b)),
            "nulls": [int(b[c].isna().sum()) for c in cols]})

    totals = grouped_agg(
        ds.map_batches(null_partial, batch_format="pandas"),
        ["col"], {"n_rows": ("sum", "n"), "n_nulls": ("sum", "nulls")})
    rows = []
    for c in cols:
        nd = distinct_ds(ds.map_batches(lambda b, c=c: b[[c]],
                                        batch_format="pandas"),
                         [c]).count()
        est = approx_distinct(ds, c)
        t = totals[totals["col"] == c].iloc[0]
        rows.append({"col": c,
                     "n_rows": int(t["n_rows"]),
                     "n_nulls": int(t["n_nulls"]),
                     "n_distinct": int(nd),
                     "hll_within_5pct":
                     bool(abs(est - nd) <= 0.05 * max(nd, 1))})
    return (pd.DataFrame(rows)
            .astype({"n_rows": "int64", "n_nulls": "int64",
                     "n_distinct": "int64"})
            .sort_values("col").reset_index(drop=True))


@query(oracle="""
        WITH c AS (SELECT date_trunc('hour', ts) AS hour,
                          CAST(ROUND(value * 100) AS BIGINT) AS v_c
                   FROM events)
        SELECT hour, CAST(COUNT(*) AS BIGINT) AS n_events,
               CAST(quantile_cont(v_c, 0.95) * 100 AS BIGINT)
                 / 100.0 / 100.0 AS p95
        FROM c GROUP BY hour ORDER BY hour
    """)
def events_hourly_p95(sf_dir: str) -> pd.DataFrame:
    """Hourly P95 of event value — the SLO/latency-style windowed
    quantile report: exact per-(hour) quantile_cont from the
    cardinality-bounded int-cents histogram (the events_quantiles
    machinery keyed by time bucket), integer arithmetic until the two
    final exact float divisions mirrored in the SQL window oracle."""
    ds = read_table(sf_dir, "events", ["ts", "value"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"hour": b["ts"].dt.floor("h"),
                             "v_c": _cents(b["value"])})

    hist = grouped_agg(ds.map_batches(prep, batch_format="pandas"),
                       ["hour", "v_c"], {"cnt": ("count", None)})
    rows = []
    for hour, g in hist.groupby("hour", sort=True):
        g = g.sort_values("v_c")
        counts = g["cnt"].to_numpy()
        values = g["v_c"].to_numpy(dtype=np.int64)
        n = int(counts.sum())
        cum = counts.cumsum()
        h100 = (n - 1) * 95
        lo_rank, f100 = divmod(h100, 100)
        hi_rank = lo_rank + (1 if f100 else 0)
        lo = int(values[np.searchsorted(cum, lo_rank + 1)])
        hi = int(values[np.searchsorted(cum, hi_rank + 1)])
        rows.append({"hour": hour,
                     "n_events": np.int64(n),
                     "p95": float(lo * (100 - f100) + hi * f100)
                     / 100.0 / 100.0})
    return (pd.DataFrame(rows).astype({"n_events": "int64"})
            .sort_values("hour").reset_index(drop=True))


@query(oracle="""
        WITH h AS (SELECT date_trunc('hour', ts) AS hour,
                          CAST(COUNT(*) AS BIGINT) AS n
                   FROM events GROUP BY hour),
        m AS (SELECT CAST(COUNT(*) AS BIGINT) AS k,
                     CAST(SUM(n) AS BIGINT) AS s1,
                     CAST(SUM(n * n) AS BIGINT) AS s2 FROM h)
        SELECT hour, n AS n_events,
               CASE WHEN (CAST(s2 AS DOUBLE) / k
                          - (CAST(s1 AS DOUBLE) / k)
                            * (CAST(s1 AS DOUBLE) / k)) > 0
                    THEN ROUND((n - (CAST(s1 AS DOUBLE) / k))
                               / sqrt(CAST(s2 AS DOUBLE) / k
                                      - (CAST(s1 AS DOUBLE) / k)
                                        * (CAST(s1 AS DOUBLE) / k)), 6)
                    ELSE 0.0 END AS z,
               CASE WHEN (CAST(s2 AS DOUBLE) / k
                          - (CAST(s1 AS DOUBLE) / k)
                            * (CAST(s1 AS DOUBLE) / k)) > 0
                    THEN ABS((n - (CAST(s1 AS DOUBLE) / k))
                             / sqrt(CAST(s2 AS DOUBLE) / k
                                    - (CAST(s1 AS DOUBLE) / k)
                                      * (CAST(s1 AS DOUBLE) / k))) > 2.0
                    ELSE FALSE END AS is_anomaly
        FROM h CROSS JOIN m ORDER BY hour
    """)
def events_hourly_anomaly(sf_dir: str) -> pd.DataFrame:
    """Hourly-volume ANOMALY report (the pipeline-monitoring stat): a
    z-score per hour against the mean/population-stddev of all hourly
    counts, flagging |z| > 2. The distributed part is the hourly
    count aggregate; the moments come from its cardinality-bounded
    result in EXACT integer arithmetic (sum, sum of squares), and the
    float expression mirrors the SQL term for term so z is bit-equal.
    Hours with no events are absent on both sides (gap-fill is its own
    query)."""
    ds = read_table(sf_dir, "events", ["ts"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"hour": b["ts"].dt.floor("h")})

    g = grouped_agg(ds.map_batches(prep, batch_format="pandas"),
                    ["hour"], {"n": ("count", None)})
    n = g["n"].to_numpy(dtype=np.int64)
    k = len(g)
    s1 = int(n.sum())
    s2 = int((n * n).sum())
    mean = float(s1) / float(k)
    var = float(s2) / float(k) - mean * mean   # population variance
    # float-compare the variance (not an integer identity) so the SQL
    # CASE takes the same branch bit-for-bit
    z = ((n.astype(np.float64) - mean) / np.sqrt(var) if var > 0
         else np.zeros(k, dtype=np.float64))
    out = pd.DataFrame({"hour": g["hour"].values,
                        "n_events": n,
                        "z": np.round(z, 6),
                        "is_anomaly": np.abs(z) > 2.0})
    return (out.astype({"n_events": "int64"})
            .sort_values("hour").reset_index(drop=True))


@query(oracle="""
        WITH f AS (SELECT user_id,
                          date_trunc('week', MIN(ts)) AS cohort_week
                   FROM events GROUP BY user_id),
        act AS (SELECT DISTINCT e.user_id, f.cohort_week,
                       CAST(date_diff('day',
                            CAST(f.cohort_week AS DATE),
                            CAST(date_trunc('week', e.ts) AS DATE)) // 7
                            AS BIGINT) AS week_offset
                FROM events e JOIN f USING (user_id))
        SELECT CAST(cohort_week AS TIMESTAMP) AS cohort_week,
               week_offset,
               CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
        FROM act GROUP BY cohort_week, week_offset
        ORDER BY cohort_week, week_offset
    """)
def events_cohort_retention(sf_dir: str) -> pd.DataFrame:
    """Cohort retention matrix: users are cohorted by the Monday week
    of their FIRST event; each (cohort_week, week_offset) cell counts
    distinct users active that many weeks later. Distributed: grouped
    min per user (partial+final), the small user->cohort map broadcast
    (at web scale: co-partitioned join by user_id — the broadcast is
    guarded), then per-batch distinct partials feed one bucketed
    distinct-count combine. Date arithmetic in exact integer days."""

    ds = read_table(sf_dir, "events", ["user_id", "ts"])

    def first_partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("user_id", as_index=False, sort=False)["ts"].min()
        return g

    firsts = grouped_agg(ds.map_batches(first_partial,
                                        batch_format="pandas"),
                         ["user_id"], {"first_ts": ("min", "ts")})
    cohort = firsts["first_ts"].dt.floor("D") - pd.to_timedelta(
        firsts["first_ts"].dt.weekday, unit="D")
    uid = firsts["user_id"].to_numpy(dtype=np.int64)
    order = np.argsort(uid, kind="stable")
    cw = cohort.to_numpy().astype("datetime64[D]").view("int64")
    guard_broadcast_bytes(2 * uid.nbytes, "user->cohort map",
                          "co-partition the cohort attach by user_id "
                          "instead of broadcasting")
    ref = ray.put((uid[order], cw[order]))

    def cells(b: pd.DataFrame) -> pd.DataFrame:
        uids, cws = ray.get(ref)
        u = b["user_id"].to_numpy(dtype=np.int64)
        c = cws[np.searchsorted(uids, u)]
        week = (b["ts"].dt.floor("D")
                - pd.to_timedelta(b["ts"].dt.weekday, unit="D")) \
            .to_numpy().astype("datetime64[D]").view("int64")
        off = (week - c) // 7
        return (pd.DataFrame({"cohort_week": c, "week_offset": off,
                              "user_id": u})
                .drop_duplicates())

    cell_rows = ds.map_batches(cells, batch_format="pandas")
    out = bucketed_map_groups(
        cell_rows, ["cohort_week", "week_offset"],
        lambda g: (g.drop_duplicates()
                   .groupby(["cohort_week", "week_offset"],
                            as_index=False, sort=False)
                   .agg(n_users=("user_id", "nunique")))).to_pandas()
    out["cohort_week"] = pd.to_datetime(
        out["cohort_week"].to_numpy().astype("datetime64[D]"))
    return (out.astype({"week_offset": "int64", "n_users": "int64"})
            .sort_values(["cohort_week", "week_offset"])
            .reset_index(drop=True))


@query(oracle="""
        WITH w AS (
          SELECT COALESCE(LAG(event_type) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id),
                 '(start)') AS prev_type,
                 event_type
          FROM events)
        SELECT prev_type, event_type,
               CAST(COUNT(*) AS BIGINT) AS n_transitions
        FROM w GROUP BY prev_type, event_type
        ORDER BY prev_type, event_type
    """)
def events_transition_matrix(sf_dir: str) -> pd.DataFrame:
    """Per-user event-type TRANSITION MATRIX (the Markov/path-analysis
    aggregate behind funnel mining): LAG(event_type) within each user's
    (ts, event_id) order, then a grouped count over (prev_type, type).
    One bucketed per-user shuffle computes every lag vectorized; the
    transition counts combine partially (25-cell result at any scale).
    Session starts (no previous event) are counted under
    prev_type='(start)'."""
    ds = read_table(sf_dir, "events", ["event_id", "user_id", "ts",
                                       "event_type"])

    def win(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort")
        prev = (df.groupby("user_id", sort=False, observed=True)
                ["event_type"].shift(1).fillna("(start)"))
        return (pd.DataFrame({"prev_type": prev.values,
                              "event_type": df["event_type"].values})
                .groupby(["prev_type", "event_type"], sort=False)
                .size().reset_index(name="n"))

    part = bucketed_map_groups(ds, ["user_id"], win)
    out = grouped_agg(part, ["prev_type", "event_type"],
                      {"n_transitions": ("sum", "n")})
    if not len(out):
        return pd.DataFrame({
            "prev_type": pd.array([], dtype=str),
            "event_type": pd.array([], dtype=str),
            "n_transitions": pd.array([], dtype="int64")})
    return (out.astype({"n_transitions": "int64"})
            .sort_values(["prev_type", "event_type"])
            .reset_index(drop=True))


_PAGERANK_SCALE = 10 ** 9


_PAGERANK_ITERS = 6


# The PageRank oracle is GENERATED: one chained CTE per power
# iteration (standard SQL forbids aggregates in a recursive CTE's
# recursive term), each mirroring the engine's exact fixed-point
# integer recurrence — per-edge floor BEFORE the inflow sum, HUGEINT
# products (rank * w overflows int64 at corpus scale), all-positive
# operands so // floors on both sides.
def _pagerank_oracle_sql() -> str:
    scale, iters = _PAGERANK_SCALE, _PAGERANK_ITERS
    base = (f"(15 * CAST({scale} AS HUGEINT)) "
            f"// (100 * (SELECT COUNT(*) FROM nodes))")
    ctes = [f"""r0 AS (
      SELECT v, (SELECT CAST({scale} AS HUGEINT) // COUNT(*)
                 FROM nodes) AS rank
      FROM nodes)"""]
    for k in range(1, iters + 1):
        ctes.append(f"""r{k} AS (
      SELECT n.v AS v,
             {base} + (85 * COALESCE(SUM((p.rank * e.w) // o.wo),
                                     CAST(0 AS HUGEINT))) // 100
               AS rank
      FROM nodes n
      LEFT JOIN edges e ON e.dst = n.v
      LEFT JOIN r{k - 1} p ON p.v = e.src
      LEFT JOIN wout o ON o.src = e.src
      GROUP BY n.v)""")
    chain = ",\n    ".join(ctes)
    return f"""
    WITH lagw AS (
      SELECT COALESCE(LAG(event_type) OVER (
               PARTITION BY user_id ORDER BY ts, event_id),
             '(start)') AS src,
             event_type AS dst
      FROM events),
    edges AS (SELECT src, dst, CAST(COUNT(*) AS HUGEINT) AS w
              FROM lagw WHERE src <> '(start)' GROUP BY src, dst),
    nodes AS (SELECT DISTINCT event_type AS v FROM events),
    wout AS (SELECT src, SUM(w) AS wo FROM edges GROUP BY src),
    {chain}
    SELECT v AS event_type, CAST(rank AS BIGINT) AS rank_scaled
    FROM r{iters} ORDER BY event_type
"""


@query(oracle=_pagerank_oracle_sql())
def events_type_pagerank(sf_dir: str) -> pd.DataFrame:
    """PageRank over the event-type transition graph — the iterative
    GRAPH algorithm class (with connected components in the dedup
    keep-set): nodes are the distinct event types, edge weights the
    per-user LAG transition counts (the heavy distributed part —
    reused wholesale from events_transition_matrix's bucketed
    per-user shuffle; '(start)' rows excluded), then 6 power
    iterations over the cardinality-bounded matrix (|types|^2 cells
    at any corpus scale). The recurrence is EXACT FIXED-POINT INTEGER
    arithmetic so the oracle can mirror it hash-exactly: ranks live
    in 1e9-scaled units, every division is a floor (Python int //,
    DuckDB // over HUGEINT — both floor for the all-positive
    operands here), per-edge contribution floor(rank[src] * w /
    wout[src]) is floored BEFORE the sum, and damping is
    rank' = floor(0.15*SCALE/n) + floor(85 * inflow / 100).
    Dangling-node mass is dropped (the documented simplified
    variant), so total mass is non-increasing — asserted in-query.
    The oracle unrolls the 6 iterations as generated chained CTEs
    (aggregates are illegal in a recursive CTE's recursive term)."""
    tm = events_transition_matrix(sf_dir)
    # nodes from the DST side only: every event is the destination of
    # exactly one transition row (its own arrival), so dst values
    # cover the full type vocabulary — and, unlike the src side, they
    # can never BE the LAG sentinel, so a corpus whose vocabulary
    # contains the literal string '(start)' still gets the oracle's
    # node set (DISTINCT event_type). Edges from such a type are
    # dropped by the sentinel filter on BOTH sides identically (the
    # oracle's lagw CTE uses the same COALESCE sentinel).
    nodes = sorted(set(tm["event_type"]))
    n = len(nodes)
    if n == 0:
        return pd.DataFrame({"event_type": pd.array([], dtype=str),
                             "rank_scaled": pd.array([], dtype="int64")})
    ed = tm[tm["prev_type"] != "(start)"]
    edges = [(s, d, int(w)) for s, d, w in
             zip(ed["prev_type"], ed["event_type"],
                 ed["n_transitions"])]
    wout: dict = {}
    for s, _, w in edges:
        wout[s] = wout.get(s, 0) + w
    base = (15 * _PAGERANK_SCALE) // (100 * n)
    rank = {v: _PAGERANK_SCALE // n for v in nodes}
    for _ in range(_PAGERANK_ITERS):
        inflow = {v: 0 for v in nodes}
        for s, d, w in edges:
            inflow[d] += (rank[s] * w) // wout[s]
        rank = {v: base + (85 * inflow[v]) // 100 for v in nodes}
        assert sum(rank.values()) <= _PAGERANK_SCALE, \
            "pagerank mass must not grow"
    return pd.DataFrame({
        "event_type": nodes,
        "rank_scaled": pd.array([rank[v] for v in nodes],
                                dtype="int64")})


@query(oracle="""
    WITH d AS (SELECT DISTINCT user_id, event_type FROM events)
    SELECT a.event_type AS type_a, b.event_type AS type_b,
           CAST(COUNT(*) AS BIGINT) AS n_users
    FROM d a JOIN d b
      ON a.user_id = b.user_id AND a.event_type < b.event_type
    GROUP BY type_a, type_b
    ORDER BY type_a, type_b
""")
def events_type_cooccurrence(sf_dir: str) -> pd.DataFrame:
    """Event-type CO-OCCURRENCE counts — 'users who did X also did Y',
    the collaborative-filtering / market-basket prep aggregate: for
    every unordered type pair (a < b), the number of distinct users
    who performed both. One bucketed per-user shuffle; inside each
    bucket the user x type DISTINCT reduce and the pair explosion are
    vectorized pandas merges, and per-bucket pair counts are FINAL
    (same user never spans buckets), so at most |types|^2 rows per
    bucket reach the tiny combine — scale-safe for any corpus with a
    bounded type vocabulary (salting the basket side is the escape
    hatch for unbounded vocabularies, as in the conv-level near-dup)."""
    ds = read_table(sf_dir, "events", ["user_id", "event_type"])

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df[["user_id", "event_type"]].drop_duplicates()
        m = d.merge(d, on="user_id")
        m = m[m["event_type_x"] < m["event_type_y"]]
        return (m.groupby(["event_type_x", "event_type_y"],
                          sort=False)
                .size().reset_index(name="n"))

    part = bucketed_map_groups(ds, ["user_id"], pairs)
    out = grouped_agg(part, ["event_type_x", "event_type_y"],
                      {"n_users": ("sum", "n")})
    if not len(out):
        return pd.DataFrame({
            "type_a": pd.array([], dtype=str),
            "type_b": pd.array([], dtype=str),
            "n_users": pd.array([], dtype="int64")})
    out = out.rename(columns={"event_type_x": "type_a",
                              "event_type_y": "type_b"})
    return (out.astype({"n_users": "int64"})
            .sort_values(["type_a", "type_b"])
            .reset_index(drop=True))


@query(oracle="""
        SELECT date_trunc('hour', ts) AS hour,
               COUNT(*) FILTER (WHERE event_type = 'click') AS click,
               COUNT(*) FILTER (WHERE event_type = 'error') AS error,
               COUNT(*) FILTER (WHERE event_type = 'purchase')
                 AS purchase,
               COUNT(*) FILTER (WHERE event_type = 'signup') AS signup,
               COUNT(*) FILTER (WHERE event_type = 'view') AS view
        FROM events GROUP BY hour ORDER BY hour
    """)
def events_hourly_pivot(sf_dir: str) -> pd.DataFrame:
    """PIVOT (long -> wide): hourly counts per event type as one wide
    row per hour. The heavy part — the (hour, type) aggregate — runs
    distributed with partial combines; the pivot itself reshapes only
    the aggregated series (hours x 5 types), which is small by
    construction at any input scale."""
    ds = read_table(sf_dir, "events", ["ts", "event_type"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame({"hour": b["ts"].dt.floor("h"),
                          "event_type": b["event_type"]})
        return (d.groupby(["hour", "event_type"], sort=False,
                          observed=True).size().reset_index(name="c"))

    g = grouped_agg(ds.map_batches(partial, batch_format="pandas"),
                    ["hour", "event_type"], {"n": ("sum", "c")})
    wide = (g.pivot(index="hour", columns="event_type", values="n")
            .fillna(0).astype("int64"))
    wide = wide.reindex(
        columns=["click", "error", "purchase", "signup", "view"],
        fill_value=0).reset_index()
    wide.columns.name = None
    return wide.sort_values("hour").reset_index(drop=True)


@query(oracle="""
        WITH b AS (SELECT date_trunc('hour', min(ts)) AS lo,
                          date_trunc('hour', max(ts)) AS hi
                   FROM events),
        spine AS (SELECT unnest(generate_series(lo, hi,
                                                INTERVAL 1 HOUR))
                    AS hour FROM b),
        e AS (SELECT date_trunc('hour', ts) AS hour, COUNT(*) AS n
              FROM events WHERE event_type = 'error' GROUP BY 1)
        SELECT s.hour,
               CAST(COALESCE(last_value(e.n IGNORE NULLS)
                             OVER (ORDER BY s.hour
                                   ROWS UNBOUNDED PRECEDING), 0)
                    AS BIGINT) AS n_events,
               e.n IS NOT NULL AS observed
        FROM spine s LEFT JOIN e ON s.hour = e.hour
        ORDER BY s.hour
    """)
def events_hourly_gap_fill(sf_dir: str) -> pd.DataFrame:
    """Time-series GAP FILL: the hourly 'error' count series densified
    to EVERY hour between the global min and max hour (missing hours
    emitted with n_events 0 and filled forward from the last observed
    count). The spine bounds come from one distributed min/max
    aggregate; the spine itself is hours-long (tiny by construction),
    so densify + forward-fill run on the aggregated series."""
    ds = read_table(sf_dir, "events", ["ts", "event_type"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        d = b.loc[b["event_type"] == "error"]
        return (pd.DataFrame({"hour": d["ts"].dt.floor("h")})
                .groupby("hour", sort=False).size()
                .reset_index(name="c"))

    g = grouped_agg(ds.map_batches(partial, batch_format="pandas"),
                    ["hour"], {"n_events": ("sum", "c")})
    agg = ds.aggregate(Min("ts"), Max("ts"))
    lo = pd.Timestamp(agg["min(ts)"]).floor("h")
    hi = pd.Timestamp(agg["max(ts)"]).floor("h")
    spine = pd.DataFrame({"hour": pd.date_range(lo, hi, freq="h")})
    out = spine.merge(g, on="hour", how="left")
    out["observed"] = out["n_events"].notna()
    out["n_events"] = (out["n_events"].ffill().fillna(0)
                       .astype("int64"))
    return out.sort_values("hour").reset_index(drop=True)


@query(oracle="""
        WITH c AS (SELECT event_type, date_trunc('hour', ts) AS hour,
                          CAST(ROUND(value * 100) AS BIGINT) AS v_c
                   FROM events)
        SELECT event_type, hour, COUNT(*) AS n_events,
               CAST(SUM(v_c) AS DOUBLE) / 100.0 AS sum_value,
               CAST(GROUPING(event_type) AS BIGINT) AS g_type,
               CAST(GROUPING(hour) AS BIGINT) AS g_hour
        FROM c GROUP BY ROLLUP (event_type, hour)
        ORDER BY g_type, g_hour, event_type, hour
    """)
def events_rollup(sf_dir: str) -> pd.DataFrame:
    """GROUPING SETS / ROLLUP over (event_type, hour): counts and
    exact-cents value sums at all three levels. The FINEST level is
    the one distributed aggregation (grouped_agg partial+final); the
    coarser levels re-aggregate its cardinality-bounded result (types
    x hours rows) — int64-cents sums re-sum exactly, so every level is
    bit-equal to DuckDB's ROLLUP at any parallelism. GROUPING flags
    (g_type, g_hour) disambiguate rolled-up NULLs from data NULLs."""
    ds = read_table(sf_dir, "events", ["event_type", "ts", "value"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": b["event_type"].values,
                             "hour": b["ts"].dt.floor("h"),
                             "v_c": _cents(b["value"])})

    fine = grouped_agg(ds.map_batches(prep, batch_format="pandas"),
                       ["event_type", "hour"],
                       {"n_events": ("count", None), "s": ("sum", "v_c")})

    hour_dtype = fine["hour"].dtype

    def lvl(df, g_type, g_hour):
        out = pd.DataFrame({
            "event_type": (df["event_type"] if not g_type
                           else pd.Series([None] * len(df),
                                          dtype="object")),
            "hour": (df["hour"] if not g_hour
                     else pd.Series([pd.NaT] * len(df),
                                    dtype=hour_dtype)),
            "n_events": df["n_events"].astype("int64").to_numpy(),
            "sum_value": _d(df["s"]) / 100.0,
            "g_type": np.int64(g_type), "g_hour": np.int64(g_hour)})
        return out

    by_type = (fine.groupby("event_type", sort=False)
               .agg(n_events=("n_events", "sum"), s=("s", "sum"))
               .reset_index())
    total = pd.DataFrame({"event_type": [None],
                          "n_events": [fine["n_events"].sum()],
                          "s": [fine["s"].sum()]})
    out = pd.concat([lvl(fine, 0, 0), lvl(by_type, 0, 1),
                     lvl(total, 1, 1)], ignore_index=True)
    return (out.sort_values(["g_type", "g_hour", "event_type", "hour"])
            .reset_index(drop=True))


@query(oracle="""
        WITH t1 AS (SELECT user_id, MIN(ts) AS first_view
                    FROM events WHERE event_type = 'view' GROUP BY 1),
        t2 AS (SELECT e.user_id, MIN(e.ts) AS first_click_after
               FROM events e JOIN t1 USING (user_id)
               WHERE e.event_type = 'click' AND e.ts > t1.first_view
               GROUP BY 1),
        t3 AS (SELECT e.user_id, MIN(e.ts) AS first_purchase_after
               FROM events e JOIN t2 USING (user_id)
               WHERE e.event_type = 'purchase'
                 AND e.ts > t2.first_click_after
               GROUP BY 1),
        u AS (SELECT DISTINCT user_id FROM events)
        SELECT u.user_id, t1.first_view, t2.first_click_after,
               t3.first_purchase_after,
               CAST(CASE WHEN t3.user_id IS NOT NULL THEN 3
                         WHEN t2.user_id IS NOT NULL THEN 2
                         WHEN t1.user_id IS NOT NULL THEN 1
                         ELSE 0 END AS BIGINT) AS funnel_stage
        FROM u LEFT JOIN t1 USING (user_id)
               LEFT JOIN t2 USING (user_id)
               LEFT JOIN t3 USING (user_id)
        ORDER BY u.user_id
    """)
def events_funnel(sf_dir: str) -> pd.DataFrame:
    """Per-user staged-conversion FUNNEL (view -> click -> purchase,
    each stage strictly after the previous one's first occurrence).
    One bucketed per-user shuffle; inside each bucket the three stage
    timestamps come from vectorized grouped mins + merges (no per-user
    Python loop). SQL-exact vs a chain of filtered MIN() joins."""
    ds = read_table(sf_dir, "events", ["user_id", "event_type", "ts"])

    def funnel(g: pd.DataFrame) -> pd.DataFrame:
        t1 = (g[g["event_type"] == "view"]
              .groupby("user_id")["ts"].min().rename("first_view"))
        c = g[g["event_type"] == "click"].merge(
            t1, left_on="user_id", right_index=True)
        t2 = (c[c["ts"] > c["first_view"]]
              .groupby("user_id")["ts"].min()
              .rename("first_click_after"))
        p = g[g["event_type"] == "purchase"].merge(
            t2, left_on="user_id", right_index=True)
        t3 = (p[p["ts"] > p["first_click_after"]]
              .groupby("user_id")["ts"].min()
              .rename("first_purchase_after"))
        out = pd.DataFrame({"user_id": np.unique(g["user_id"])})
        out = (out.merge(t1, left_on="user_id", right_index=True,
                         how="left")
               .merge(t2, left_on="user_id", right_index=True, how="left")
               .merge(t3, left_on="user_id", right_index=True, how="left"))
        out["funnel_stage"] = np.where(
            out["first_purchase_after"].notna(), 3,
            np.where(out["first_click_after"].notna(), 2,
                     np.where(out["first_view"].notna(), 1, 0))
        ).astype("int64")
        return out

    out = bucketed_map_groups(ds, ["user_id"], funnel).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


@query(oracle="""
        SELECT event_id, user_id, ts,
               COUNT(*) OVER w AS w_count,
               CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) OVER w
                    AS DOUBLE) / 100.0 AS w_sum
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts
                     RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                           AND CURRENT ROW)
        ORDER BY user_id, ts, event_id
    """)
def events_sliding_window(sf_dir: str) -> pd.DataFrame:
    """Per-event trailing RANGE window (count + exact-cents sum of
    value over [ts - 1 hour, ts] within user, peers-at-equal-ts
    included — SQL RANGE-frame semantics, not ROWS): one bucketed
    per-user shuffle; inside each bucket the frame bounds come from
    two vectorized searchsorteds per user segment over the sorted
    timestamp array and the sum from an int64-cents prefix cumsum —
    no per-row loop, no quadratic window expansion. (The outer loop is
    per user SEGMENT — microseconds each; with millions of users per
    bucket the composite-key searchsorted variant removes it, at the
    cost of range-compressing timestamps per segment.)"""
    ds = read_table(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    ONE_HOUR_US = 3_600_000_000

    def win(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        ts_us = df["ts"].values.astype("datetime64[us]").view("int64")
        cents = _cents(df["value"])
        uid = df["user_id"].to_numpy()
        seg = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        seg = np.r_[seg, len(uid)]
        n_out = np.empty(len(uid), dtype=np.int64)
        s_out = np.empty(len(uid), dtype=np.int64)
        for a, b in zip(seg[:-1], seg[1:]):
            t = ts_us[a:b]
            lo = np.searchsorted(t, t - ONE_HOUR_US, side="left")
            hi = np.searchsorted(t, t, side="right")  # peer-inclusive
            csum = np.r_[0, np.cumsum(cents[a:b])]
            n_out[a:b] = hi - lo
            s_out[a:b] = csum[hi] - csum[lo]
        return pd.DataFrame({
            "event_id": df["event_id"].values,
            "user_id": uid,
            "ts": df["ts"].values,
            "w_count": n_out,
            "w_sum": s_out.astype("float64") / 100.0,
        })

    out = bucketed_map_groups(ds, ["user_id"], win).to_pandas()
    return (out.sort_values(["user_id", "ts", "event_id"])
            .reset_index(drop=True))


@query(oracle="""
        SELECT event_id, value,
               NTILE(4) OVER (ORDER BY value, event_id) AS quartile
        FROM events ORDER BY event_id
    """)
def events_ntile(sf_dir: str) -> pd.DataFrame:
    """Global NTILE(4) over (value, event_id) — a GLOBAL-order window
    function computed distributed: ordered_global_rank gives each row
    its 0-based global row number (range partition on value + scalar
    prefix, no global sort), then the SQL NTILE bucket formula (first
    n%k buckets one row larger) is a pure vectorized map."""
    ds = read_table(sf_dir, "events", ["event_id", "value"])
    n = ds.count()
    k = 4
    q, r = divmod(n, k)

    def tile(b: pd.DataFrame) -> pd.DataFrame:
        rn = b["rank"].to_numpy()
        big = q + 1
        # SQL NTILE: first r buckets hold q+1 rows, the rest q
        t = np.where(rn < r * big, rn // max(big, 1) + 1,
                     r + (rn - r * big) // max(q, 1) + 1)
        return pd.DataFrame({"event_id": b["event_id"].values,
                             "value": b["value"].values,
                             "quartile": t.astype("int64")})

    ranked = ordered_global_rank(ds, ["value", "event_id"])
    out = ranked.map_batches(tile, batch_format="pandas").to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


@query(oracle="""
    WITH pu AS (
      SELECT user_id,
             MAX(CAST(floor(epoch(ts)) AS BIGINT)) AS last_s,
             CAST(COUNT(*) AS BIGINT) AS freq,
             SUM(CAST(ROUND(value * 100) AS BIGINT)) AS spend_c
      FROM events GROUP BY user_id),
    r AS (
      SELECT user_id,
             ((SELECT MAX(last_s) FROM pu) - last_s) // 86400
               AS recency_days,
             freq, spend_c
      FROM pu),
    t AS (
      SELECT NTILE(4) OVER (ORDER BY recency_days, user_id) AS r_q,
             NTILE(4) OVER (ORDER BY freq, user_id)         AS f_q,
             NTILE(4) OVER (ORDER BY spend_c, user_id)      AS m_q
      FROM r)
    SELECT r_q, f_q, m_q, CAST(COUNT(*) AS BIGINT) AS n_users
    FROM t GROUP BY r_q, f_q, m_q ORDER BY r_q, f_q, m_q
""")
def events_user_rfm(sf_dir: str) -> pd.DataFrame:
    """RFM (recency / frequency / monetary) user segmentation — the
    classic cohort/marketing segmentation, and a three-way consumer
    of the distributed NTILE primitive: per-user (seconds since last
    event, event count, spend in exact cents) via ONE bucketed
    combine, then three chained ordered_global_rank passes (value-
    range partition + prefix scalars — no global sort, no whole-
    corpus task; each pass preserves the row's other columns so no
    user-keyed re-join is needed), each followed by the SQL NTILE(4)
    bucket formula, then the 4x4x4 segment histogram (<= 64 rows at
    any corpus scale). The recency anchor is the corpus max ts
    (self-contained — no wall clock enters the surface);
    recency_days floors integer-second arithmetic mirrored by
    DuckDB's floor(epoch())."""
    ds = read_table(sf_dir, "events", ["user_id", "ts", "value"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": b["user_id"].values,
            "ts_s": (b["ts"].astype("datetime64[ns]")
                     .astype("int64") // 1_000_000_000),
            "one": np.ones(len(b), dtype=np.int64),
            "val_c": _cents(b["value"])})

    per_user = grouped_agg_ds(
        ds.map_batches(prep, batch_format="pandas"),
        ["user_id"], {"last_s": ("max", "ts_s"),
                      "freq": ("sum", "one"),
                      "spend_c": ("sum", "val_c")}).materialize()
    n = per_user.count()
    cols = ["r_q", "f_q", "m_q", "n_users"]
    if n == 0:
        return pd.DataFrame({c: pd.array([], dtype="int64")
                             for c in cols})
    anchor = int(per_user.max("last_s"))
    k = 4
    nq, nr = divmod(n, k)

    def rec(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy(deep=False)
        b["recency_days"] = ((anchor
                              - b["last_s"].to_numpy(np.int64))
                             // 86400)
        b["one"] = np.ones(len(b), dtype=np.int64)  # 1 row == 1 user
        return b

    def tile_col(rank_col: str, out: str):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            rn = b[rank_col].to_numpy()
            big = nq + 1
            # SQL NTILE: first n%k buckets hold one extra row
            t = np.where(rn < nr * big, rn // max(big, 1) + 1,
                         nr + (rn - nr * big) // max(nq, 1) + 1)
            b = b.copy(deep=False)
            b[out] = t.astype("int64")
            return b
        return f

    pu = per_user.map_batches(rec, batch_format="pandas")
    for order, rank_col, out in (
            (["recency_days", "user_id"], "rr", "r_q"),
            (["freq", "user_id"], "fr", "f_q"),
            (["spend_c", "user_id"], "mr", "m_q")):
        pu = ordered_global_rank(pu, order, out_col=rank_col)
        # materialize between passes: each rank pass consumes its
        # input several times (order-value sample + range counts +
        # the ranked output), so an unmaterialized chain re-executes
        # every earlier pass's shuffle multiplicatively
        pu = pu.map_batches(tile_col(rank_col, out),
                            batch_format="pandas").materialize()
    seg = grouped_agg(pu, ["r_q", "f_q", "m_q"],
                      {"n_users": ("sum", "one")})
    return (seg.astype({c: "int64" for c in cols})[cols]
            .sort_values(["r_q", "f_q", "m_q"])
            .reset_index(drop=True))


@query(oracle="""
        WITH h AS (SELECT date_trunc('hour', ts) AS hour,
                          COUNT(*) AS n_events
                   FROM events GROUP BY 1)
        SELECT hour, n_events,
               AVG(n_events) OVER (ORDER BY hour
                                   ROWS BETWEEN 2 PRECEDING
                                   AND CURRENT ROW) AS moving_avg
        FROM h ORDER BY hour
    """)
def events_hourly_moving_avg(sf_dir: str) -> pd.DataFrame:
    """3-hour trailing moving average over the hourly count series:
    the heavy aggregation is distributed; the rolling window runs on
    the already-tiny hour series."""
    hourly = events_hourly_counts(sf_dir).sort_values("hour")
    hourly["moving_avg"] = (hourly["n_events"]
                            .rolling(3, min_periods=1).mean())
    return hourly.reset_index(drop=True)


@query(oracle="""
        SELECT a.event_id, a.user_id, a.ts, b.view_ts,
               date_diff('microsecond', b.view_ts, a.ts) AS lag_us
        FROM (SELECT event_id, user_id, ts FROM events
              WHERE event_type = 'purchase') a
        ASOF JOIN (SELECT user_id, ts AS view_ts FROM events
                   WHERE event_type = 'view') b
          ON a.user_id = b.user_id AND a.ts >= b.view_ts
        ORDER BY a.event_id
    """)
def events_asof_join(sf_dir: str) -> pd.DataFrame:
    """AS-OF join (relational.asof_join): each purchase event attached
    to the user's most recent prior-or-equal view event; lag in exact
    integer microseconds. Inner semantics (purchases with no prior view
    drop out) so no null column ever float-coerces."""
    ds = read_table(sf_dir, "events",
                    ["event_id", "user_id", "event_type", "ts"])
    left = ds.map_batches(
        lambda b: b[b["event_type"] == "purchase"]
        [["event_id", "user_id", "ts"]], batch_format="pandas")
    right = ds.map_batches(
        lambda b: b[b["event_type"] == "view"][["user_id", "ts"]]
        .rename(columns={"ts": "view_ts"}), batch_format="pandas")
    out = asof_join(left, right, by="user_id",
                    left_ts="ts", right_ts="view_ts").to_pandas()
    out["lag_us"] = ((out["ts"] - out["view_ts"])
                     // pd.Timedelta(microseconds=1)).astype("int64")
    return out.sort_values("event_id").reset_index(drop=True)


@query(oracle="""
        SELECT * FROM (
          SELECT a.event_id, a.user_id, a.ts, b.view_ts,
                 date_diff('microsecond', b.view_ts, a.ts) AS lag_us
          FROM (SELECT event_id, user_id, ts FROM events
                WHERE event_type = 'purchase') a
          ASOF JOIN (SELECT user_id, ts AS view_ts FROM events
                     WHERE event_type = 'view') b
            ON a.user_id = b.user_id AND a.ts >= b.view_ts)
        WHERE lag_us <= 3600000000
        ORDER BY event_id
    """)
def events_asof_window(sf_dir: str) -> pd.DataFrame:
    """AS-OF join with an ATTRIBUTION WINDOW (ads-style last-touch
    within 1 hour): the most recent prior view only counts when it is
    at most an hour old — since the as-of match is the closest prior
    event, windowing is an exact post-filter on the match lag, applied
    distributed inside the same pipeline (no extra shuffle)."""
    W_US = 3_600_000_000
    ds = read_table(sf_dir, "events",
                    ["event_id", "user_id", "event_type", "ts"])
    left = ds.map_batches(
        lambda b: b[b["event_type"] == "purchase"]
        [["event_id", "user_id", "ts"]], batch_format="pandas")
    right = ds.map_batches(
        lambda b: b[b["event_type"] == "view"][["user_id", "ts"]]
        .rename(columns={"ts": "view_ts"}), batch_format="pandas")

    def windowed(b: pd.DataFrame) -> pd.DataFrame:
        lag = ((b["ts"] - b["view_ts"])
               // pd.Timedelta(microseconds=1)).astype("int64")
        b = b.assign(lag_us=lag)
        return b[b["lag_us"] <= W_US]

    out = (asof_join(left, right, by="user_id",
                     left_ts="ts", right_ts="view_ts")
           .map_batches(windowed, batch_format="pandas").to_pandas())
    return out.sort_values("event_id").reset_index(drop=True)


@query(oracle="""
        SELECT a.event_id, a.user_id, a.ts, b.view_ts
        FROM (SELECT event_id, user_id, ts FROM events
              WHERE event_type = 'purchase') a
        ASOF LEFT JOIN (SELECT user_id, ts AS view_ts FROM events
                        WHERE event_type = 'view') b
          ON a.user_id = b.user_id AND a.ts >= b.view_ts
        ORDER BY a.event_id
    """)
def events_asof_left(sf_dir: str) -> pd.DataFrame:
    """LEFT-outer AS-OF join: every purchase kept, with the most recent
    prior view timestamp or NULL — matching DuckDB ASOF LEFT JOIN
    bit-exact (the nullable payload is a timestamp, which stays
    dtype-exact through null-filling)."""
    ds = read_table(sf_dir, "events",
                    ["event_id", "user_id", "event_type", "ts"])
    left = ds.map_batches(
        lambda b: b[b["event_type"] == "purchase"]
        [["event_id", "user_id", "ts"]], batch_format="pandas")
    right = ds.map_batches(
        lambda b: b[b["event_type"] == "view"][["user_id", "ts"]]
        .rename(columns={"ts": "view_ts"}), batch_format="pandas")
    out = asof_join(left, right, by="user_id", left_ts="ts",
                    right_ts="view_ts", how="left").to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


@query(oracle="""
        WITH d AS (
          SELECT user_id, ts,
                 CASE WHEN lag(ts) OVER w IS NULL
                        OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                      THEN 1 ELSE 0 END AS is_new
          FROM events
          WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
        s AS (
          SELECT user_id, ts,
                 CAST(SUM(is_new) OVER (PARTITION BY user_id ORDER BY ts
                                        ROWS UNBOUNDED PRECEDING)
                      AS BIGINT) AS session_id
          FROM d),
        sess AS (
          SELECT user_id, session_id,
                 MIN(ts) AS session_start, MAX(ts) AS session_end
          FROM s GROUP BY user_id, session_id),
        p AS (
          SELECT user_id, ts,
                 CAST(ROUND(value * 100) AS BIGINT) AS v_c
          FROM events WHERE event_type = 'purchase')
        SELECT sess.user_id, sess.session_id,
               COUNT(*) AS n_purchases,
               CAST(SUM(p.v_c) AS DOUBLE) / 100.0 AS purchase_value
        FROM sess JOIN p
          ON p.user_id = sess.user_id
         AND p.ts BETWEEN sess.session_start AND sess.session_end
        GROUP BY sess.user_id, sess.session_id
        ORDER BY sess.user_id, sess.session_id
    """)
def events_session_attrib(sf_dir: str) -> pd.DataFrame:
    """Interval/range join (relational.interval_join): purchase events
    matched into their containing session window, then per-session
    purchase count + exact-cents revenue. Exercises the containment
    join against intervals derived by the engine itself; the oracle
    recomputes the same sessions CTE in SQL."""
    probe = read_table(sf_dir, "events",
                       ["event_id", "user_id", "event_type", "ts", "value"]) \
        .map_batches(
            lambda b: pd.DataFrame({
                "user_id": b.loc[b["event_type"] == "purchase", "user_id"],
                "p_ts": b.loc[b["event_type"] == "purchase", "ts"],
                "v_c": _cents(b.loc[b["event_type"] == "purchase", "value"]),
            }), batch_format="pandas")
    joined = interval_join(probe, _sessions_ds(sf_dir), by="user_id",
                           ts_col="p_ts", start_col="session_start",
                           end_col="session_end")
    g = grouped_agg(joined, ["user_id", "session_id"],
                    {"n_purchases": ("count", None), "s": ("sum", "v_c")})
    out = g[["user_id", "session_id", "n_purchases"]].copy()
    out["purchase_value"] = _d(g["s"]) / 100.0
    return (out.sort_values(["user_id", "session_id"])
            .reset_index(drop=True))


@query(oracle="""
        SELECT event_type, COUNT(DISTINCT user_id) AS n_users,
               TRUE AS hll_within_5pct
        FROM events GROUP BY event_type ORDER BY event_type
    """)
def events_distinct_users_by_type(sf_dir: str) -> pd.DataFrame:
    """Per-group approximate distinct (grouped HyperLogLog,
    stages.sketches.approx_distinct_grouped) with a BOUNDS ORACLE:
    the emitted count is the exact distributed COUNT(DISTINCT) (via a
    (type, user) distinct shuffle, SQL-equal) and `hll_within_5pct`
    asserts the O(4 KiB)-per-group register sketch — which never
    shuffles user ids at all — lands within 5% (p=12, ~1.6% standard
    error)."""
    ds = read_table(sf_dir, "events", ["event_type", "user_id"])
    pairs = distinct(ds, ["event_type", "user_id"])
    exact = (pairs.groupby("event_type", observed=True).size()
             .reset_index(name="n_users"))
    exact["n_users"] = exact["n_users"].astype("int64")
    est = approx_distinct_grouped(ds, group_col="event_type",
                                  col="user_id")
    e = dict(zip(est["event_type"], est["est"]))
    exact = exact.sort_values("event_type").reset_index(drop=True)
    exact["hll_within_5pct"] = pd.array(
        [abs(e.get(t, 0) - n) <= 0.05 * n
         for t, n in zip(exact["event_type"], exact["n_users"])],
        dtype="bool")
    return exact


@query(oracle="""
        WITH k AS (SELECT event_type,
                          CAST(props->>'k' AS BIGINT) AS k
                   FROM events)
        SELECT event_type, COUNT(*) AS n,
               CAST(SUM(k) AS BIGINT) AS sum_k, MAX(k) AS max_k,
               CAST(SUM(k) AS DOUBLE) / COUNT(*) AS avg_k
        FROM k GROUP BY event_type ORDER BY event_type
    """)
def events_props_stats(sf_dir: str) -> pd.DataFrame:
    """JSON scalar extraction (F8 analog) at dataset level: parse the
    open-schema props column per batch (orjson-less stdlib json is the
    per-row cost; the groupby is the usual partial+final)."""
    ds = read_table(sf_dir, "events", ["event_type", "props"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        ks = [int(json.loads(p)["k"]) for p in b["props"]]
        return pd.DataFrame({"event_type": b["event_type"].values,
                             "k": pd.array(ks, dtype="int64")})

    g = grouped_agg(ds.map_batches(prep, batch_format="pandas"),
                    ["event_type"], {"n": ("count", None),
                                     "sum_k": ("sum", "k"),
                                     "max_k": ("max", "k")})
    out = g[["event_type", "n"]].copy()
    out["sum_k"] = g["sum_k"].astype("int64")
    out["max_k"] = g["max_k"].astype("int64")
    out["avg_k"] = _d(g["sum_k"]) / g["n"]
    return out.sort_values("event_type").reset_index(drop=True)


def _type_cents_hist(sf_dir: str) -> pd.DataFrame:
    """The shared (event_type, v_c) -> cnt int-cents value histogram
    behind the order-statistics family (median, quantiles, MAD,
    winsorized stats): ONE partial-agg groupby whose cardinality is
    bounded by distinct cent values per type, not corpus rows — a
    change to cent rounding or histogram semantics lands in all four
    consumers at once."""
    ds = read_table(sf_dir, "events", ["event_type", "value"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": b["event_type"].values,
                             "v_c": _cents(b["value"])})

    return grouped_agg(ds.map_batches(prep, batch_format="pandas"),
                       ["event_type", "v_c"], {"cnt": ("count", None)})


@query(oracle="""
        WITH v AS (SELECT event_type,
                          CAST(ROUND(value * 100) AS BIGINT) AS vc
                   FROM events),
        r AS (SELECT event_type, vc,
                     row_number() OVER (PARTITION BY event_type
                                        ORDER BY vc) - 1 AS rn,
                     COUNT(*) OVER (PARTITION BY event_type) AS n
              FROM v)
        SELECT event_type,
               CAST(SUM(CASE WHEN rn = (n - 1) // 2 THEN vc ELSE 0 END)
                    + SUM(CASE WHEN rn = n // 2 THEN vc ELSE 0 END)
                    AS DOUBLE) / 2.0 / 100.0 AS median_value
        FROM r GROUP BY event_type ORDER BY event_type
    """)
def events_median_by_type(sf_dir: str) -> pd.DataFrame:
    """Exact distributed median per event_type WITHOUT a global sort:
    the 2-decimal values collapse to an int-cents histogram
    ((type, value_c) -> count, cardinality bounded by distinct values,
    not rows) via partial-agg groupby; the order statistics come from
    the tiny cumulative histogram. Integer arithmetic end-to-end, so
    the result is bit-equal to the SQL window-function oracle."""
    hist = _type_cents_hist(sf_dir)
    rows = []
    for etype, g in hist.groupby("event_type", sort=True):
        g = g.sort_values("v_c")
        counts = g["cnt"].to_numpy()
        values = g["v_c"].to_numpy()
        n = int(counts.sum())
        cum = counts.cumsum()
        lo_rank = (n - 1) // 2          # floor((n-1)/2)
        hi_rank = n // 2                # ceil((n-1)/2)
        lo = int(values[np.searchsorted(cum, lo_rank + 1)])
        hi = int(values[np.searchsorted(cum, hi_rank + 1)])
        rows.append({"event_type": etype,
                     "median_value": float(lo + hi) / 2.0 / 100.0})
    return pd.DataFrame(rows).reset_index(drop=True)


@query(oracle="""
    WITH v AS (SELECT event_type,
                      CAST(ROUND(value * 100) AS BIGINT) AS vc
               FROM events),
    r AS (SELECT event_type, vc,
                 row_number() OVER (PARTITION BY event_type
                                    ORDER BY vc) - 1 AS rn,
                 COUNT(*) OVER (PARTITION BY event_type) AS n
          FROM v),
    cuts AS (SELECT event_type,
                    MAX(CASE WHEN rn = ((n - 1) * 5) // 100
                             THEN vc END) AS lo,
                    MAX(CASE WHEN rn = ((n - 1) * 95) // 100
                             THEN vc END) AS hi
             FROM r GROUP BY event_type)
    SELECT v.event_type,
           CAST(COUNT(*) AS BIGINT) AS n_events,
           c.lo AS lo_c, c.hi AS hi_c,
           CAST(SUM(CASE WHEN vc < c.lo THEN c.lo
                         WHEN vc > c.hi THEN c.hi
                         ELSE vc END) AS BIGINT) AS wsum_c,
           CAST(SUM(CASE WHEN vc < c.lo THEN 1 ELSE 0 END)
                AS BIGINT) AS n_clip_lo,
           CAST(SUM(CASE WHEN vc > c.hi THEN 1 ELSE 0 END)
                AS BIGINT) AS n_clip_hi
    FROM v JOIN cuts c USING (event_type)
    GROUP BY v.event_type, c.lo, c.hi
    ORDER BY v.event_type
""")
def events_winsorized_stats(sf_dir: str) -> pd.DataFrame:
    """WINSORIZED (p5/p95-clipped) per-type statistics — the robust
    aggregation used to keep long-tail outliers from dominating spend
    metrics: cut values by exact rank (0-based rank (n-1)*k//100, the
    'lower' discrete quantile), every value clipped into [lo, hi],
    then clipped sum and clip counts. ONE distributed pass builds the
    same int-cents value histogram as the median/quantile family;
    cuts, clipped sums and counts all derive from that histogram
    driver-side (cardinality = distinct cent values per type, the
    documented median bound) — no second pass over the corpus.
    All-integer surface, DuckDB-mirrored rank arithmetic."""
    hist = _type_cents_hist(sf_dir)
    rows = []
    for etype, g in hist.groupby("event_type", sort=True):
        g = g.sort_values("v_c")
        counts = g["cnt"].to_numpy(np.int64)
        values = g["v_c"].to_numpy(np.int64)
        n = int(counts.sum())
        cum = counts.cumsum()
        # value at 0-based rank r: first histogram row whose
        # cumulative count exceeds r
        lo = int(values[np.searchsorted(cum, (n - 1) * 5 // 100,
                                        side="right")])
        hi = int(values[np.searchsorted(cum, (n - 1) * 95 // 100,
                                        side="right")])
        clipped = np.clip(values, lo, hi)
        rows.append({
            "event_type": etype,
            "n_events": n,
            "lo_c": lo, "hi_c": hi,
            "wsum_c": int((clipped * counts).sum()),
            "n_clip_lo": int(counts[values < lo].sum()),
            "n_clip_hi": int(counts[values > hi].sum())})
    cols = ["event_type", "n_events", "lo_c", "hi_c", "wsum_c",
            "n_clip_lo", "n_clip_hi"]
    if not rows:
        out = {"event_type": pd.array([], dtype=str)}
        out.update({c: pd.array([], dtype="int64")
                    for c in cols[1:]})
        return pd.DataFrame(out)
    return pd.DataFrame(rows)[cols].astype(
        {c: "int64" for c in cols[1:]})


@query(oracle="""
        WITH v AS (SELECT event_type,
                          CAST(ROUND(value * 100) AS BIGINT) AS vc
                   FROM events),
        r AS (SELECT event_type, vc,
                     row_number() OVER (PARTITION BY event_type
                                        ORDER BY vc) - 1 AS rn,
                     COUNT(*) OVER (PARTITION BY event_type) AS n
              FROM v)
        SELECT event_type,
               CAST(SUM(CASE WHEN rn = ((n - 1) * 25) // 100 THEN vc * (100 - (((n - 1) * 25) % 100)) ELSE 0 END)
                    + SUM(CASE WHEN rn = CASE WHEN ((n - 1) * 25) % 100 = 0 THEN ((n - 1) * 25) // 100 ELSE ((n - 1) * 25) // 100 + 1 END THEN vc * (((n - 1) * 25) % 100) ELSE 0 END)
                    AS DOUBLE) / 100.0 / 100.0 AS p25,
               CAST(SUM(CASE WHEN rn = ((n - 1) * 50) // 100 THEN vc * (100 - (((n - 1) * 50) % 100)) ELSE 0 END)
                    + SUM(CASE WHEN rn = CASE WHEN ((n - 1) * 50) % 100 = 0 THEN ((n - 1) * 50) // 100 ELSE ((n - 1) * 50) // 100 + 1 END THEN vc * (((n - 1) * 50) % 100) ELSE 0 END)
                    AS DOUBLE) / 100.0 / 100.0 AS p50,
               CAST(SUM(CASE WHEN rn = ((n - 1) * 75) // 100 THEN vc * (100 - (((n - 1) * 75) % 100)) ELSE 0 END)
                    + SUM(CASE WHEN rn = CASE WHEN ((n - 1) * 75) % 100 = 0 THEN ((n - 1) * 75) // 100 ELSE ((n - 1) * 75) // 100 + 1 END THEN vc * (((n - 1) * 75) % 100) ELSE 0 END)
                    AS DOUBLE) / 100.0 / 100.0 AS p75,
               CAST(SUM(CASE WHEN rn = ((n - 1) * 95) // 100 THEN vc * (100 - (((n - 1) * 95) % 100)) ELSE 0 END)
                    + SUM(CASE WHEN rn = CASE WHEN ((n - 1) * 95) % 100 = 0 THEN ((n - 1) * 95) // 100 ELSE ((n - 1) * 95) // 100 + 1 END THEN vc * (((n - 1) * 95) % 100) ELSE 0 END)
                    AS DOUBLE) / 100.0 / 100.0 AS p95
        FROM r GROUP BY event_type ORDER BY event_type
    """)
def events_quantiles_by_type(sf_dir: str) -> pd.DataFrame:
    """Exact distributed quantiles (p25/p50/p75/p95) per event_type
    from the same int-cents histogram as the median — the interpolation
    fraction for q=k/100 is the exact rational ((n-1)*k % 100)/100, so
    the whole computation stays in int64 until two final /100.0 double
    divisions mirrored verbatim in the SQL oracle."""
    hist = _type_cents_hist(sf_dir)
    rows = []
    for etype, g in hist.groupby("event_type", sort=True):
        g = g.sort_values("v_c")
        counts = g["cnt"].to_numpy()
        values = g["v_c"].to_numpy()
        n = int(counts.sum())
        cum = counts.cumsum()
        rec = {"event_type": etype}
        for k in (25, 50, 75, 95):
            pos = (n - 1) * k
            rank_lo, f100 = pos // 100, pos % 100
            rank_hi = rank_lo if f100 == 0 else rank_lo + 1
            lo = int(values[np.searchsorted(cum, rank_lo + 1)])
            hi = int(values[np.searchsorted(cum, rank_hi + 1)])
            rec[f"p{k}"] = float(lo * (100 - f100) + hi * f100) / 100.0 / 100.0
        rows.append(rec)
    return pd.DataFrame(rows).reset_index(drop=True)


@query(oracle="""
        WITH c AS (SELECT event_type,
                          CAST(ROUND(value * 100) AS BIGINT) AS v_c
                   FROM events),
        m AS (SELECT event_type,
                     CAST(quantile_cont(v_c, 0.5) * 2 AS BIGINT) AS med_hc
              FROM c GROUP BY event_type),
        d AS (SELECT c.event_type, ABS(2 * c.v_c - m.med_hc) AS dev_hc
              FROM c JOIN m USING (event_type))
        SELECT event_type, quantile_cont(dev_hc, 0.5) / 200.0 AS mad_value
        FROM d GROUP BY event_type ORDER BY event_type
    """)
def events_value_mad_by_type(sf_dir: str) -> pd.DataFrame:
    """Exact median-absolute-deviation per event_type — the robust
    dispersion statistic quality-gating pipelines use where stddev is
    skew-poisoned. BOTH medians (the center and the deviation median)
    come from the SAME cardinality-bounded int-cents histogram, so the
    data is scanned once and the second median costs no shuffle at all:
    the deviation histogram is a driver-side relabeling
    (dev_hc = |2*v_c - med_hc|, half-cent units keep the possibly-.5
    median integral) of the tiny (type, value) -> count table.
    Integer arithmetic until two final exact float divisions, mirrored
    verbatim in the SQL oracle."""
    hist = _type_cents_hist(sf_dir)

    def _hist_median_x2(values: np.ndarray, counts: np.ndarray) -> int:
        """2x the continuous median of a sorted int histogram (exact
        int: lo + hi order statistics)."""
        n = int(counts.sum())
        cum = counts.cumsum()
        lo = int(values[np.searchsorted(cum, (n - 1) // 2 + 1)])
        hi = int(values[np.searchsorted(cum, n // 2 + 1)])
        return lo + hi

    rows = []
    for etype, g in hist.groupby("event_type", sort=True):
        g = g.sort_values("v_c")
        counts = g["cnt"].to_numpy()
        values = g["v_c"].to_numpy(dtype=np.int64)
        med_hc = _hist_median_x2(values, counts)      # half-cent units
        dev = np.abs(2 * values - med_hc)             # still half-cents
        order = np.argsort(dev, kind="stable")
        dev_s, cnt_s = dev[order], counts[order]
        # collapse duplicate deviation labels (v below and above the
        # median can map to the same |dev|)
        uniq, start = np.unique(dev_s, return_index=True)
        sums = np.add.reduceat(cnt_s, start)
        mad_x2_hc = _hist_median_x2(uniq, sums)
        rows.append({"event_type": etype,
                     "mad_value": float(mad_x2_hc) / 2.0 / 200.0})
    return pd.DataFrame(rows).reset_index(drop=True)


@query(oracle="""
        SELECT CAST(COUNT(DISTINCT user_id) AS BIGINT)
                 AS exact_distinct_users,
               TRUE AS within_5pct
        FROM events
    """)
def events_approx_distinct_users(sf_dir: str) -> pd.DataFrame:
    """HyperLogLog distinct-count sketch (p=12, ~1.6% stderr) with a
    BOUNDS ORACLE: the output carries the exact distinct count
    (computed distributed, matched bit-exact against DuckDB) plus a
    within-5%% assertion on the sketch — so the driver's hash compare
    validates both the exact path and the sketch's error bound instead
    of recording `no_oracle`."""
    ds = read_table(sf_dir, "events", ["user_id"])
    approx = approx_distinct(ds, "user_id")
    exact = len(distinct(ds, ["user_id"]))
    return pd.DataFrame({
        "exact_distinct_users": pd.array([exact], dtype="int64"),
        "within_5pct": pd.array([abs(approx - exact) <= 0.05 * exact],
                                dtype="bool"),
    })


@query(oracle="""
        WITH v AS (SELECT event_type,
                          CAST(ROUND(value * 100) AS BIGINT) AS vc
                   FROM events),
        r AS (SELECT event_type, vc,
                     row_number() OVER (PARTITION BY event_type
                                        ORDER BY vc) - 1 AS rn,
                     COUNT(*) OVER (PARTITION BY event_type) AS n
              FROM v)
        SELECT event_type,
               CAST(SUM(CASE WHEN rn = (n - 1) // 2 THEN vc ELSE 0 END)
                    + SUM(CASE WHEN rn = n // 2 THEN vc ELSE 0 END)
                    AS DOUBLE) / 2.0 / 100.0 AS median_value,
               TRUE AS sketch_within_10pct
        FROM r GROUP BY event_type ORDER BY event_type
    """)
def events_median_sketch(sf_dir: str) -> pd.DataFrame:
    """Bottom-k sample sketch (mergeable deterministic min-hash-k
    sample, stages.sketches.bottomk_sample) estimating the per-type
    median, with a BOUNDS ORACLE: the emitted median is the exact
    distributed-histogram value (bit-equal to the SQL window oracle)
    and `sketch_within_10pct` asserts the k=4096 sample's estimate
    lands within 10% relative error."""
    exact = events_median_by_type(sf_dir)
    ds = read_table(sf_dir, "events", ["event_id", "event_type", "value"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_id": b["event_id"].values,
                             "event_type": b["event_type"].values,
                             "v_c": _cents(b["value"])})

    sample = bottomk_sample(ds.map_batches(prep, batch_format="pandas"),
                            value_col="v_c", id_col="event_id",
                            group_col="event_type", k=4096)
    ok = []
    for etype, med in zip(exact["event_type"], exact["median_value"]):
        est = sample_quantile(
            sample.loc[sample["g"] == etype, "v"].to_numpy(), 0.5) / 100.0
        ok.append(abs(est - med) <= 0.10 * abs(med) + 0.02)
    out = exact.copy()
    out["sketch_within_10pct"] = pd.array(ok, dtype="bool")
    return out


@query(oracle="""
        WITH h AS (SELECT event_id, user_id, value,
                          ((CAST(event_id AS HUGEINT) * 2654435761)
                           % 4294967296 + 0.5)
                            / 4294967296.0 AS u
                   FROM events WHERE value > 0),
        s AS (SELECT event_id, user_id, value
              FROM h ORDER BY -ln(u) / value, event_id LIMIT 100)
        SELECT event_id, user_id, value FROM s ORDER BY event_id
    """)
def events_weighted_sample(sf_dir: str) -> pd.DataFrame:
    """Value-weighted sample of 100 events without replacement
    (stages.sketches.weighted_sample): higher-value events
    proportionally more likely, yet fully deterministic and
    SQL-reproducible — the oracle computes the identical
    -ln(hash-u)/weight keys and takes the same bottom-k."""
    ds = read_table(sf_dir, "events", ["event_id", "user_id", "value"])
    out = weighted_sample(ds, weight_col="value", id_col="event_id", k=100)
    return (out[["event_id", "user_id", "value"]]
            .sort_values("event_id").reset_index(drop=True))


@query(oracle="""
        SELECT DISTINCT event_type FROM events ORDER BY event_type
    """)
def events_distinct_types(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "events", ["event_type"])
    return distinct(ds, ["event_type"]).sort_values(
        "event_type").reset_index(drop=True)


@query(oracle="""
        SELECT DISTINCT user_id, event_type FROM events
        ORDER BY user_id, event_type
    """)
def events_dedup_user_type(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "events", ["user_id", "event_type"])
    return (distinct(ds, ["user_id", "event_type"])
            .sort_values(["user_id", "event_type"]).reset_index(drop=True))


@query(oracle="""
        WITH g AS (
          SELECT user_id,
                 SUM(CAST(ROUND(value * 100) AS BIGINT)) AS s_c
          FROM events GROUP BY user_id)
        SELECT user_id, s_c / 100.0 AS total_spend,
               CUME_DIST() OVER (ORDER BY s_c) AS cume_dist
        FROM g ORDER BY user_id
    """)
def events_user_spend_cume(sf_dir: str) -> pd.DataFrame:
    """Per-user spend CUME_DIST — the percentile-rank curve behind
    'top-X%% users' cuts: per-user exact-cents totals (one distributed
    aggregation), then the cumulative distribution computed from the
    cardinality-bounded per-user result as exact rational
    rank/n (bit-equal to the SQL window)."""
    ds = read_table(sf_dir, "events", ["user_id", "value"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"user_id": b["user_id"].values,
                             "v_c": _cents(b["value"])})

    g = grouped_agg(ds.map_batches(prep, batch_format="pandas"),
                    ["user_id"], {"s": ("sum", "v_c")})
    g = g.sort_values(["s", "user_id"]).reset_index(drop=True)
    n = len(g)
    s = g["s"].to_numpy(dtype=np.int64)
    # CUME_DIST = (# rows with value <= current) / n — ties share the
    # highest rank of their run
    hi = np.searchsorted(s, s, side="right")
    g["total_spend"] = _d(g["s"]) / 100.0
    g["cume_dist"] = hi.astype(np.float64) / float(n)
    return (g[["user_id", "total_spend", "cume_dist"]]
            .astype({"user_id": "int64"})
            .sort_values("user_id").reset_index(drop=True))


@query(oracle="""
        SELECT event_id, user_id, ts, value FROM events
        WHERE ts BETWEEN TIMESTAMP '2024-01-10'
                     AND TIMESTAMP '2024-01-15'
        ORDER BY ts, event_id
    """)
def events_sorted_export(sf_dir: str) -> pd.DataFrame:
    """GLOBALLY SORTED range-partitioned export + PRUNED range read
    (state.shards.write_sorted_export / read_sorted_range): events are
    exported sorted by (ts, event_id) into 8 quantile-boundary range
    files with a (vmin, vmax) manifest, then a 5-day window is read
    back opening ONLY the intersecting files (asserted) — the
    sorted-serving complement of the hash-sharded trainer export.
    Oracle: plain SQL BETWEEN over the original table."""

    ds = read_table(sf_dir, "events",
                    ["event_id", "user_id", "ts", "value"])
    out = tempfile.mkdtemp(prefix="sorted_export_")
    try:
        man = write_sorted_export(ds, out, sort_col="ts",
                                  tiebreak_cols=["event_id"], n_ranges=8)
        got, n_files = read_sorted_range(out, "2024-01-10", "2024-01-15")
        assert n_files < len(man), \
            f"manifest pruning read all {n_files} files"
        pdf = got.to_pandas()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return (pdf[["event_id", "user_id", "ts", "value"]]
            .sort_values(["ts", "event_id"]).reset_index(drop=True))


@query(oracle="""
        SELECT event_type,
               CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT)
                 AS sum_value_c,
               TRUE AS pruned
        FROM events
        WHERE user_id <= (SELECT CAST(MAX(user_id) AS BIGINT) // 5
                          FROM events)
          AND value <= 60.0
        GROUP BY event_type ORDER BY event_type
    """)
def events_zorder_pruned_read(sf_dir: str) -> pd.DataFrame:
    """Z-ORDER clustered export + TWO-COLUMN pruned read
    (state.shards.write_zorder_export / read_zorder_range): events are
    clustered by the Morton interleaving of (user_id, value) rank codes
    into 16 range files carrying per-file per-column [vmin, vmax], then
    a rectangle predicate (user_id <= max/5, value <= 60) is answered
    opening only the intersecting files — multi-dimensional pruning a
    single-column sort cannot give (a ts-sorted layout prunes nothing
    for this predicate). The pruned result is aggregated and matched
    bit-exact against plain SQL over the original table; `pruned`
    asserts files were actually skipped, so the oracle validates both
    the clustering's correctness and its usefulness."""

    ds = read_table(sf_dir, "events",
                    ["event_id", "user_id", "event_type", "value"])
    hi_user = int(ds.map_batches(
        lambda b: pd.DataFrame({"m": [b["user_id"].max()]}),
        batch_format="pandas").to_pandas()["m"].max()) // 5
    out = tempfile.mkdtemp(prefix="zorder_export_")
    try:
        man = write_zorder_export(ds, out, cols=["user_id", "value"],
                                  tiebreak_cols=["event_id"],
                                  n_ranges=16)
        got, n_files = read_zorder_range(
            out, {"user_id": (None, hi_user), "value": (None, 60.0)})
        pruned = n_files < len(man)
        if got is None:
            # no range file intersects the predicate: every file was
            # pruned — the correct answer is the empty aggregate, not
            # an AttributeError on None.map_batches
            agg = pd.DataFrame({
                "event_type": pd.Series([], dtype=object),
                "n": pd.Series([], dtype="int64"),
                "sum_value_c": pd.Series([], dtype="int64")})
        else:
            agg = grouped_agg(
                got.map_batches(
                    lambda b: pd.DataFrame({
                        "event_type": b["event_type"].values,
                        "v_c": _cents(b["value"])}),
                    batch_format="pandas"),
                ["event_type"], {"n": ("count", None),
                                 "sum_value_c": ("sum", "v_c")})
    finally:
        shutil.rmtree(out, ignore_errors=True)
    agg["n"] = agg["n"].astype("int64")
    agg["sum_value_c"] = agg["sum_value_c"].astype("int64")
    agg["pruned"] = bool(pruned)
    return agg.sort_values("event_type").reset_index(drop=True)


# The corr/slope oracle mirrors the engine's expression tree exactly:
# exact integer sufficient statistics (every sum < 2^53 here, so the
# int->double casts are lossless), then the identical sequence of
# double multiplies/subtracts/divides — bit-equal before ROUND.
@query(oracle="""
    WITH s AS (SELECT event_type,
                      CAST(EXTRACT(hour FROM ts) AS BIGINT) AS x,
                      CAST(ROUND(value * 100) AS BIGINT) AS y
               FROM events),
    a AS (SELECT event_type, COUNT(*) AS n,
                 SUM(x) AS sx, SUM(y) AS sy, SUM(x * y) AS sxy,
                 SUM(x * x) AS sxx, SUM(y * y) AS syy
          FROM s GROUP BY event_type)
    SELECT event_type, CAST(n AS BIGINT) AS n_events,
           ROUND((CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
                  - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
                 / sqrt((CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
                         - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE))
                        * (CAST(n AS DOUBLE) * CAST(syy AS DOUBLE)
                           - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE))),
                 6) AS corr_value_hour,
           ROUND((CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
                  - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
                 / (CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
                    - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE)),
                 6) AS slope_cents_per_hour
    FROM a ORDER BY event_type
""")
def events_value_hour_corr(sf_dir: str) -> pd.DataFrame:
    """Per-type Pearson correlation and OLS slope of event value
    (exact cents) against hour-of-day — the one-pass
    SUFFICIENT-STATISTICS aggregate (n, Σx, Σy, Σxy, Σx², Σy², all
    exact int64) that generalizes to any distributed corr/covariance/
    regression: partials combine associatively, so the result is
    parallelism-invariant, and the tiny per-type final is driver-side.
    The float expression tree over the exact sums is mirrored term for
    term in the SQL oracle (every sum here is < 2^53, so the
    int->double casts are exact on both sides). Scale note: Σy² is the
    first sum to threaten int64 (~4e9 rows/type at these cent
    magnitudes); past that the partial would split into two int64
    limbs, the same trick the packed-uint64 co-count combine uses."""
    ds = read_table(sf_dir, "events", ["event_type", "ts", "value"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        x = b["ts"].dt.hour.to_numpy(np.int64)
        y = _cents(b["value"])
        return pd.DataFrame({"event_type": b["event_type"].values,
                             "x": x, "y": y, "xy": x * y,
                             "xx": x * x, "yy": y * y})

    g = grouped_agg(ds.map_batches(prep, batch_format="pandas"),
                    ["event_type"],
                    {"n": ("count", None), "sx": ("sum", "x"),
                     "sy": ("sum", "y"), "sxy": ("sum", "xy"),
                     "sxx": ("sum", "xx"), "syy": ("sum", "yy")})
    if g.empty:                   # no events — typed empty report
        return pd.DataFrame({
            "event_type": pd.Series(dtype="object"),
            "n_events": pd.Series(dtype="int64"),
            "corr_value_hour": pd.Series(dtype="float64"),
            "slope_cents_per_hour": pd.Series(dtype="float64")})
    # the exact-mirror contract needs every sum to cast to double
    # losslessly; Σy² breaks that first at extreme scale (int64 would
    # wrap even earlier, silently) — fail loudly, don't drift quietly
    for col in ("sx", "sy", "sxy", "sxx", "syy"):
        assert g[col].abs().max() < 2 ** 53, (
            f"{col} exceeds 2^53: the int->double cast is no longer "
            "exact — split this sum into two int64 limbs (see the "
            "packed-uint64 co-count combine) before trusting corr")
    n = g["n"].to_numpy(dtype=np.float64)
    sx = g["sx"].to_numpy(dtype=np.float64)
    sy = g["sy"].to_numpy(dtype=np.float64)
    sxy = g["sxy"].to_numpy(dtype=np.float64)
    sxx = g["sxx"].to_numpy(dtype=np.float64)
    syy = g["syy"].to_numpy(dtype=np.float64)
    cov = n * sxy - sx * sy
    vx = n * sxx - sx * sx
    vy = n * syy - sy * sy
    # zero-variance groups (single event, constant column): the exact
    # integer sums make cov exactly 0 there too, and the SQL oracle's
    # x/0 yields NULL — mirror it with NaN instead of crashing the
    # whole report on an assert
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where((vx > 0) & (vy > 0),
                        cov / np.sqrt(vx * vy), np.nan)
        slope = np.where(vx > 0, cov / vx, np.nan)
    out = pd.DataFrame({
        "event_type": g["event_type"],
        "n_events": g["n"].astype("int64"),
        "corr_value_hour": np.round(corr, 6),
        "slope_cents_per_hour": np.round(slope, 6)})
    return out.sort_values("event_type").reset_index(drop=True)


# PSI oracle: identical integer split/bin/smoothing arithmetic, the
# same (c+1)/(N+10) rationals, and a dense type x window x bin grid so
# empty bins contribute their smoothed mass exactly like the engine's
# zero-filled count matrix.
@query(oracle="""
    WITH r AS (SELECT MIN(epoch_us(ts)) AS lo, MAX(epoch_us(ts)) AS hi
               FROM events),
    b AS (SELECT event_type,
                 CASE WHEN epoch_us(ts) >= (r.lo + r.hi) // 2
                      THEN 1 ELSE 0 END AS w,
                 LEAST(9, GREATEST(0,
                     CAST(ROUND(value * 100) AS BIGINT) // 5000))
                   AS bin
          FROM events, r),
    c AS (SELECT event_type, w, bin, COUNT(*) AS n
          FROM b GROUP BY 1, 2, 3),
    grid AS (SELECT g.event_type, ws.w, bins.bin
             FROM (SELECT DISTINCT event_type FROM events) g
             CROSS JOIN (SELECT unnest([0, 1]) AS w) ws
             CROSS JOIN (SELECT unnest(range(10)) AS bin) bins),
    dense AS (SELECT grid.event_type, grid.w, grid.bin,
                    COALESCE(c.n, 0) AS n
             FROM grid LEFT JOIN c
               ON grid.event_type = c.event_type
              AND grid.w = c.w AND grid.bin = c.bin),
    tot AS (SELECT event_type, w, SUM(n) AS nt
            FROM dense GROUP BY 1, 2),
    pq AS (SELECT f0.event_type, f0.bin,
                  CAST(f0.n + 1 AS DOUBLE)
                    / CAST(t0.nt + 10 AS DOUBLE) AS p,
                  CAST(f1.n + 1 AS DOUBLE)
                    / CAST(t1.nt + 10 AS DOUBLE) AS q,
                  t0.nt AS n_first, t1.nt AS n_second
           FROM dense f0
           JOIN dense f1 ON f0.event_type = f1.event_type
                       AND f0.bin = f1.bin AND f0.w = 0 AND f1.w = 1
           JOIN tot t0 ON t0.event_type = f0.event_type AND t0.w = 0
           JOIN tot t1 ON t1.event_type = f0.event_type AND t1.w = 1)
    SELECT event_type,
           CAST(MAX(n_first) AS BIGINT) AS n_first,
           CAST(MAX(n_second) AS BIGINT) AS n_second,
           ROUND(SUM((p - q) * ln(p / q)), 6) AS psi
    FROM pq GROUP BY event_type ORDER BY event_type
""")
def events_value_drift_psi(sf_dir: str) -> pd.DataFrame:
    """Per-type distribution DRIFT between the first and second half
    of the event stream — the Population Stability Index check a
    production pipeline runs on every ingest wave before letting new
    data into a training mix. The stream splits at the exact integer
    midpoint of the epoch-microsecond range (one tiny min/max
    aggregate), values land in 10 fixed exact-cents bins, and the
    binned counts are ONE partial-before-shuffle aggregation with
    cardinality types x 2 x 10 — so the driver does only the final
    PSI arithmetic. Add-one smoothing keeps empty bins rational
    (exact ints on both sides); the PSI float expression is mirrored
    term for term in the SQL oracle."""
    N_BINS, BIN_W = 10, 5000
    ds = read_table(sf_dir, "events", ["ts", "event_type", "value"])
    rng = grouped_agg(
        ds.map_batches(
            lambda b: pd.DataFrame(
                {"k": np.int64(0),
                 "us": b["ts"].to_numpy(dtype="datetime64[us]")
                 .astype(np.int64)}),
            batch_format="pandas"),
        ["k"], {"lo": ("min", "us"), "hi": ("max", "us")})
    if rng.empty:                 # no events — typed empty report
        return pd.DataFrame({
            "event_type": pd.Series(dtype="object"),
            "n_first": pd.Series(dtype="int64"),
            "n_second": pd.Series(dtype="int64"),
            "psi": pd.Series(dtype="float64")})
    split_us = (int(rng["lo"].iloc[0]) + int(rng["hi"].iloc[0])) // 2

    def binned(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
        c = _cents(b["value"])
        return pd.DataFrame({
            "event_type": b["event_type"].values,
            "w": (us >= split_us).astype(np.int64),
            "bin": np.minimum(N_BINS - 1,
                              np.maximum(0, c // BIN_W))})

    g = grouped_agg(ds.map_batches(binned, batch_format="pandas"),
                    ["event_type", "w", "bin"],
                    {"n": ("count", None)})
    types = sorted(g["event_type"].unique())
    recs = []
    for t in types:
        sub = g[g["event_type"] == t]
        cnt = np.zeros((2, N_BINS), dtype=np.int64)
        cnt[sub["w"].to_numpy(dtype=np.int64),
            sub["bin"].to_numpy(dtype=np.int64)] = \
            sub["n"].to_numpy(dtype=np.int64)
        n_a, n_b = int(cnt[0].sum()), int(cnt[1].sum())
        # add-one smoothing: (c+1)/(N+bins) — exact rationals, no
        # zero-bin infinities, denominators mirrored in the oracle
        p = (cnt[0] + 1).astype(np.float64) / np.float64(n_a + N_BINS)
        q = (cnt[1] + 1).astype(np.float64) / np.float64(n_b + N_BINS)
        psi = float(np.sum((p - q) * np.log(p / q)))
        recs.append({"event_type": t, "n_first": n_a, "n_second": n_b,
                     "psi": round(psi, 6)})
    return (pd.DataFrame(recs)
            .astype({"n_first": "int64", "n_second": "int64"})
            .sort_values("event_type").reset_index(drop=True))


# The WAU oracle pays the same explode as a day-spine self-join; the
# window is the 6 preceding OBSERVED days plus the current one.
@query(oracle="""
    WITH du AS (SELECT DISTINCT date_trunc('day', ts) AS day, user_id
                FROM events),
    days AS (SELECT DISTINCT day FROM du),
    win AS (SELECT d.day AS day, du.user_id
            FROM days d JOIN du
              ON du.day BETWEEN d.day - INTERVAL 6 DAY AND d.day)
    SELECT w.day,
           (SELECT COUNT(*) FROM du WHERE du.day = w.day) AS dau,
           COUNT(DISTINCT w.user_id) AS wau
    FROM win w GROUP BY w.day ORDER BY w.day
""")
def events_rolling_wau(sf_dir: str) -> pd.DataFrame:
    """Rolling 7-day active users per day (DAU + WAU) — the
    window-DISTINCT shape none of the other aggregates cover: a
    distinct count over a sliding set union, not a sum (a user active
    on 3 of the 7 days counts once). Plan: one distinct pass to
    (day, user), then each row explodes to the <= 7 OBSERVED window
    days it serves (searchsorted against the broadcast day spine —
    day count is calendar-bounded, unlike users), and one more
    bucketed distinct + count gives WAU. Every stage's cardinality is
    bounded by days x users, never events; the x7 explode is the
    exact price the SQL self-join pays, made explicit."""

    ds = read_table(sf_dir, "events", ["ts", "user_id"])

    def du_partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "day": b["ts"].dt.floor("D"),
            "user_id": b["user_id"].values}).drop_duplicates()

    du = distinct_ds(ds.map_batches(du_partial, batch_format="pandas"),
                     ["day", "user_id"])
    du = du.materialize()          # two consumers: spine + explode
    dau = grouped_agg(du, ["day"], {"dau": ("count", None)})
    days_arr = np.sort(dau["day"].to_numpy(dtype="datetime64[ns]"))
    guard_broadcast_bytes(8 * len(days_arr), "observed-day spine",
                          "chunk the spine by date range")
    spine = ray.put(days_arr)

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        days = ray.get(spine)
        d = b["day"].to_numpy(dtype="datetime64[ns]")
        lo = np.searchsorted(days, d, side="left")
        hi = np.searchsorted(days, d + np.timedelta64(6, "D"),
                             side="right")
        cnt = hi - lo
        total = int(cnt.sum())
        idx = (np.arange(total, dtype=np.int64)
               - np.repeat(np.cumsum(cnt) - cnt, cnt))
        return pd.DataFrame({
            "day": days[np.repeat(lo, cnt) + idx],
            "user_id": np.repeat(b["user_id"].to_numpy(np.int64), cnt)})

    win = distinct_ds(du.map_batches(explode, batch_format="pandas"),
                      ["day", "user_id"])
    wau = grouped_agg(win, ["day"], {"wau": ("count", None)})
    out = dau.merge(wau, on="day", how="inner")
    out["dau"] = out["dau"].astype("int64")
    out["wau"] = out["wau"].astype("int64")
    return (out[["day", "dau", "wau"]]
            .sort_values("day").reset_index(drop=True))


# events_user_cms_topk: both sides derive the sketch from the SAME
# md5_number_upper("r:user") % width buckets over per-user exact
# counts (summing a user's occurrences before or after bucketing is
# the same integer), so est_n is reproducible to the bit; the LIMIT
# boundary orders by (n DESC, user_id), identical on both sides.
@query(oracle=r"""
    WITH cnt AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n
                 FROM events GROUP BY user_id),
    rows_ AS (SELECT unnest(range(4)) AS r),
    sk AS (SELECT r,
                  CAST(md5_number_upper(CAST(r AS VARCHAR) || ':'
                       || CAST(user_id AS VARCHAR)) % 1024 AS BIGINT)
                    AS bucket,
                  CAST(SUM(n) AS BIGINT) AS c
           FROM cnt CROSS JOIN rows_ GROUP BY r, bucket),
    top AS (SELECT user_id, n FROM cnt
            ORDER BY n DESC, user_id LIMIT 20),
    est AS (SELECT t.user_id, t.n,
                   CAST(MIN(sk.c) AS BIGINT) AS est
            FROM top t CROSS JOIN rows_ rr
            JOIN sk ON sk.r = rr.r
                   AND sk.bucket = CAST(md5_number_upper(
                         CAST(rr.r AS VARCHAR) || ':'
                         || CAST(t.user_id AS VARCHAR)) % 1024
                       AS BIGINT)
            GROUP BY t.user_id, t.n)
    SELECT user_id, n AS exact_n, est AS est_n,
           CAST(est >= n AS BIGINT) AS overcount_ok
    FROM est ORDER BY user_id
""")
def events_user_cms_topk(sf_dir: str) -> pd.DataFrame:
    """Count-Min sketch point estimates for the heavy users (Cormode
    & Muthukrishnan 2005) — the streaming frequency sketch the suite
    lacked (Bloom/HLL/bottom-k/Misra-Gries exist; CMS adds bounded
    OVERcount point queries a heavy-hitter pipeline reads directly).
    Shape: per-batch fixed-size (r, bucket, c) partials (<= depth x
    width rows regardless of batch size; the bucket hash runs once
    per DISTINCT key, stages/sketches.cms_partial_rows) -> the
    (<= 4096-row) sketch combine via grouped_agg_ds -> exact top-20
    by (count DESC, user_id) computed Dataset-side (sort + limit —
    the exact counts never land on the driver beyond the report
    rows). est >= exact is a CMS structural guarantee, ASSERTED
    in-query and emitted as overcount_ok; the oracle recomputes both
    sides from the same md5_number_upper bucket arithmetic
    (the DSIR/winnow mirroring contract) — all int64, no floats."""

    depth, width, topk = 4, 1024, 20
    ds = read_table(sf_dir, "events", ["user_id"])
    top = (grouped_agg_ds(ds, ["user_id"], {"n": ("count", None)})
           .sort(["n", "user_id"], descending=[True, False])
           .limit(topk).to_pandas())
    if not len(top):
        # zero events: no sketch to build (an empty partials Dataset
        # has no columns to combine on)
        return pd.DataFrame({"user_id": pd.array([], dtype="int64"),
                             "exact_n": pd.array([], dtype="int64"),
                             "est_n": pd.array([], dtype="int64"),
                             "overcount_ok": pd.array([],
                                                      dtype="int64")})
    sk = grouped_agg_ds(
        ds.map_batches(
            functools.partial(cms_partial_rows, col="user_id",
                              depth=depth, width=width),
            batch_format="pandas"),
        ["r", "bucket"], {"c": ("sum", "c")}).to_pandas()
    cms = {(int(r), int(bkt)): int(c)
           for r, bkt, c in zip(sk["r"], sk["bucket"], sk["c"])}
    users = top["user_id"].to_numpy(dtype=np.int64)
    exact = top["n"].to_numpy(dtype=np.int64)
    est = np.fromiter(
        (min(cms[(r, cms_bucket(r, int(u), width))]
             for r in range(depth)) for u in users),
        np.int64, count=len(users))
    if (est < exact).any():
        raise AssertionError(
            "CMS undercount — min-over-rows of summed bucket counts "
            "can never be below a key's true count")
    return (pd.DataFrame({"user_id": users, "exact_n": exact,
                          "est_n": est,
                          "overcount_ok":
                              (est >= exact).astype(np.int64)})
            .sort_values("user_id").reset_index(drop=True))
