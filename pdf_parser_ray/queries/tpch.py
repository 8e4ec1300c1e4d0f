"""Relational / TPC-H-style queries over the star-schema tables:
pricing and revenue aggregates, semi/anti and outer joins, top-k,
foreign-key audits and the bucketed storage-partitioned join. Money
is aggregated in exact int64 cents (see ``_common._cents``)."""

from __future__ import annotations

import shutil
import tempfile

import numpy as np
import pandas as pd
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..relational import (anti_join, broadcast_join, bucketed_map_groups,
                          distinct, distinct_ds, grouped_agg, grouped_agg_ds,
                          guard_broadcast_bytes, hash_join, pool_actor_cpus,
                          pool_size, read_table, semi_join, topk)
from ..stages.sketches import (bloom_from_dataset, bloom_semi_join,
                               weighted_sample)
from ..state.shards import read_bucketed_join, write_bucketed_export
from ._common import _cents, _d, query


@query(oracle="""
        WITH c AS (
          SELECT l_returnflag, l_linestatus,
                 CAST(ROUND(l_quantity * 100) AS BIGINT)      AS qty_c,
                 CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS price_c,
                 CAST(ROUND(l_discount * 100) AS BIGINT)      AS disc_c,
                 CAST(ROUND(l_tax * 100) AS BIGINT)           AS tax_c
          FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-02')
        SELECT l_returnflag, l_linestatus,
               CAST(SUM(qty_c) AS DOUBLE) / 100.0   AS sum_qty,
               CAST(SUM(price_c) AS DOUBLE) / 100.0 AS sum_base_price,
               CAST(SUM(price_c * (100 - disc_c)) AS DOUBLE) / 10000.0
                 AS sum_disc_price,
               CAST(SUM(price_c * (100 - disc_c) * (100 + tax_c)) AS DOUBLE)
                 / 1000000.0 AS sum_charge,
               CAST(SUM(qty_c) AS DOUBLE) / 100.0 / COUNT(*)   AS avg_qty,
               CAST(SUM(price_c) AS DOUBLE) / 100.0 / COUNT(*) AS avg_price,
               CAST(SUM(disc_c) AS DOUBLE) / 100.0 / COUNT(*)  AS avg_disc,
               COUNT(*) AS count_order
        FROM c GROUP BY l_returnflag, l_linestatus
        ORDER BY l_returnflag, l_linestatus
    """)
def q1_pricing_summary(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "lineitem",
                    ["l_returnflag", "l_linestatus", "l_quantity",
                     "l_extendedprice", "l_discount", "l_tax", "l_shipdate"])
    cutoff = pd.Timestamp("1998-09-02")

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["l_shipdate"] <= cutoff]
        qty_c = _cents(b["l_quantity"])
        price_c = _cents(b["l_extendedprice"])
        disc_c = _cents(b["l_discount"])
        tax_c = _cents(b["l_tax"])
        disc_price_e4 = price_c * (100 - disc_c)
        return pd.DataFrame({
            "l_returnflag": b["l_returnflag"].values,
            "l_linestatus": b["l_linestatus"].values,
            "qty_c": qty_c, "price_c": price_c, "disc_c": disc_c,
            "dp_e4": disc_price_e4,
            "ch_e6": disc_price_e4 * (100 + tax_c)})

    g = grouped_agg(ds.map_batches(prep, batch_format="pandas"),
                    ["l_returnflag", "l_linestatus"], {
                        "s_qty": ("sum", "qty_c"),
                        "s_price": ("sum", "price_c"),
                        "s_disc": ("sum", "disc_c"),
                        "s_dp": ("sum", "dp_e4"),
                        "s_ch": ("sum", "ch_e6"),
                        "count_order": ("count", None)})
    n = g["count_order"]
    out = g[["l_returnflag", "l_linestatus"]].copy()
    out["sum_qty"] = _d(g["s_qty"]) / 100.0
    out["sum_base_price"] = _d(g["s_price"]) / 100.0
    out["sum_disc_price"] = _d(g["s_dp"]) / 10000.0
    out["sum_charge"] = _d(g["s_ch"]) / 1000000.0
    out["avg_qty"] = _d(g["s_qty"]) / 100.0 / n
    out["avg_price"] = _d(g["s_price"]) / 100.0 / n
    out["avg_disc"] = _d(g["s_disc"]) / 100.0 / n
    out["count_order"] = n
    return out.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


@query(oracle="""
        SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice
        FROM lineitem
        WHERE l_shipdate >= TIMESTAMP '1997-01-01'
          AND l_shipdate <  TIMESTAMP '1998-01-01'
          AND l_quantity > 45
    """)
def lineitem_filter_project(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "lineitem",
                    ["l_orderkey", "l_linenumber", "l_quantity",
                     "l_extendedprice", "l_shipdate"])
    lo, hi = pd.Timestamp("1997-01-01"), pd.Timestamp("1998-01-01")

    def f(t):
        m = pc.and_(pc.and_(pc.greater_equal(t["l_shipdate"], lo),
                            pc.less(t["l_shipdate"], hi)),
                    pc.greater(t["l_quantity"], 45.0))
        return t.filter(m).select(["l_orderkey", "l_linenumber",
                                   "l_quantity", "l_extendedprice"])

    return ds.map_batches(f, batch_format="pyarrow").to_pandas()


@query(oracle="""
        SELECT o_orderpriority, COUNT(*) AS n_orders
        FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority
    """)
def orders_priority_count(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "orders", ["o_orderpriority"])
    out = grouped_agg(ds, ["o_orderpriority"],
                      {"n_orders": ("count", None)})
    return out.sort_values("o_orderpriority").reset_index(drop=True)


@query(oracle="""
        SELECT COALESCE(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                            * CAST(ROUND(l_discount * 100) AS BIGINT)),
                        0) / 10000.0 AS revenue
        FROM lineitem
        WHERE l_shipdate >= DATE '1995-06-01'
          AND l_shipdate <  DATE '1996-06-01'
          AND CAST(ROUND(l_discount * 100) AS BIGINT) BETWEEN 5 AND 7
          AND l_quantity < 24
    """)
def q6_forecast_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q6 shape: pure filter + global aggregate — the pushdown
    showcase (only 4 columns leave storage, the date/discount/quantity
    filters run vectorized per batch, one scalar leaves each task).
    Integer e4 cents end to end."""
    ds = read_table(sf_dir, "lineitem",
                    ["l_shipdate", "l_discount", "l_quantity",
                     "l_extendedprice"])
    # the synthetic corpus spans 1995-2001, so the classic 1994 window
    # is shifted one year in (same shape, nonzero selectivity)
    lo, hi = pd.Timestamp("1995-06-01"), pd.Timestamp("1996-06-01")

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        disc_c = _cents(b["l_discount"])
        m = ((b["l_shipdate"] >= lo) & (b["l_shipdate"] < hi)
             & (disc_c >= 5) & (disc_c <= 7)
             & (b["l_quantity"] < 24))
        return pd.DataFrame({
            "rev_e4": _cents(b["l_extendedprice"])[m.to_numpy()]
            * disc_c[m.to_numpy()]})

    g = grouped_agg(
        ds.map_batches(prep, batch_format="pandas")
        .map_batches(lambda b: b.assign(k=np.int64(0)),
                     batch_format="pandas"),
        ["k"], {"s": ("sum", "rev_e4")})
    total = int(g["s"].iloc[0]) if len(g) and "s" in g.columns else 0
    return pd.DataFrame({"revenue": [float(total) / 10000.0]})


# q4/q12/q14 shapes: the date windows are shifted into the synthetic
# corpus's 1995-2001 span; qualifying predicates substitute existing
# columns for the ones the synthetic lineitem lacks (returnflag for
# commit/receipt dates, orderstatus for shipmode) — the SHAPES
# (EXISTS semi join, preagg-before-join conditional rollup, promo
# revenue ratio) are the point. Integer arithmetic mirrored exactly.
@query(oracle="""
    SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS order_count
    FROM orders
    WHERE o_orderdate >= DATE '1996-07-01'
      AND o_orderdate <  DATE '1996-10-01'
      AND EXISTS (SELECT 1 FROM lineitem
                  WHERE l_orderkey = o_orderkey
                    AND l_returnflag = 'R')
    GROUP BY o_orderpriority ORDER BY o_orderpriority
""")
def q4_priority_semi_join(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q4 shape: orders placed in one quarter with AT LEAST ONE
    qualifying lineitem (here l_returnflag = 'R' — the synthetic
    lineitem has no commit/receipt dates), counted by priority. The
    EXISTS is a distinct-then-broadcast semi join: the qualifying
    orderkeys reduce to a distinct Dataset (partial per-batch unique,
    one key-hash shuffle) and ship once via the guarded broadcast set
    (at real scale the byte guard trips first — swap in the Bloom
    prefilter of parts_bloom_prefilter or a co-partitioned semi
    join); the window-filtered orders probe it map-side, then the
    5-row priority rollup is the usual partial+final."""
    lo, hi = pd.Timestamp("1996-07-01"), pd.Timestamp("1996-10-01")
    li = read_table(sf_dir, "lineitem", ["l_orderkey", "l_returnflag"])
    rkeys = distinct(
        li.map_batches(lambda b: b[b["l_returnflag"] == "R"]
                       [["l_orderkey"]], batch_format="pandas"),
        ["l_orderkey"])["l_orderkey"]
    orders = read_table(sf_dir, "orders",
                        ["o_orderkey", "o_orderdate", "o_orderpriority"])
    win = orders.map_batches(
        lambda b: b[(b["o_orderdate"] >= lo) & (b["o_orderdate"] < hi)],
        batch_format="pandas")
    out = grouped_agg(semi_join(win, rkeys, on="o_orderkey"),
                      ["o_orderpriority"],
                      {"order_count": ("count", None)})
    if not len(out) or "order_count" not in out.columns:
        return pd.DataFrame({
            "o_orderpriority": pd.array([], dtype=str),
            "order_count": pd.array([], dtype="int64")})
    out["order_count"] = out["order_count"].astype("int64")
    return out.sort_values("o_orderpriority", ignore_index=True)


@query(oracle="""
    WITH f AS (
      SELECT l_orderkey, COUNT(*) AS nlines FROM lineitem
      WHERE l_shipdate >= DATE '1997-01-01'
        AND l_shipdate <  DATE '1998-01-01'
      GROUP BY l_orderkey)
    SELECT o_orderstatus,
           CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                         THEN nlines ELSE 0 END) AS BIGINT) AS high_lines,
           CAST(SUM(CASE WHEN o_orderpriority NOT IN
                         ('1-URGENT', '2-HIGH')
                         THEN nlines ELSE 0 END) AS BIGINT) AS low_lines
    FROM orders JOIN f ON o_orderkey = l_orderkey
    GROUP BY o_orderstatus ORDER BY o_orderstatus
""")
def q12_status_line_priority(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q12 shape (two large sides, conditional rollup): 1997
    lineitems pre-aggregate to (orderkey, nlines) BEFORE the join —
    the combine-before-shuffle rule, a distributed high-cardinality
    grouped_agg_ds — then the adaptive partitioned hash join attaches
    order status/priority and a 3-row status rollup splits line
    counts into high (1-URGENT / 2-HIGH) vs low priority, mirroring
    Q12's CASE sums. The synthetic lineitem has no l_shipmode, so
    o_orderstatus plays the grouping column."""
    lo, hi = pd.Timestamp("1997-01-01"), pd.Timestamp("1998-01-01")
    li = read_table(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    per_order = grouped_agg_ds(
        li.map_batches(
            lambda b: b[(b["l_shipdate"] >= lo) & (b["l_shipdate"] < hi)]
            [["l_orderkey"]], batch_format="pandas"),
        ["l_orderkey"], {"nlines": ("count", None)}).map_batches(
        lambda b: b.rename(columns={"l_orderkey": "o_orderkey"}),
        batch_format="pandas")
    # pin the preagg (orders-cardinality, already combined): the join
    # probes both schemas and an all-filtered window would otherwise
    # hand hash_join a schemaless empty pipeline
    per_order = per_order.materialize()
    empty12 = pd.DataFrame({
        "o_orderstatus": pd.array([], dtype=str),
        "high_lines": pd.array([], dtype="int64"),
        "low_lines": pd.array([], dtype="int64")})
    if per_order.count() == 0:
        return empty12
    orders = read_table(sf_dir, "orders",
                        ["o_orderkey", "o_orderstatus",
                         "o_orderpriority"])
    joined = hash_join(per_order, orders, on="o_orderkey", how="inner")

    def split(b: pd.DataFrame) -> pd.DataFrame:
        hi_m = b["o_orderpriority"].isin(("1-URGENT", "2-HIGH"))
        n = b["nlines"].astype("int64")
        return pd.DataFrame({"o_orderstatus": b["o_orderstatus"].values,
                             "high_lines": n.where(hi_m, 0).to_numpy(),
                             "low_lines": n.where(~hi_m, 0).to_numpy()})

    out = grouped_agg(joined.map_batches(split, batch_format="pandas"),
                      ["o_orderstatus"],
                      {"high_lines": ("sum", "high_lines"),
                       "low_lines": ("sum", "low_lines")})
    if not len(out) or "high_lines" not in out.columns:
        return empty12
    out = out.astype({"high_lines": "int64", "low_lines": "int64"})
    return out.sort_values("o_orderstatus", ignore_index=True)


@query(oracle="""
    WITH f AS (
      SELECT CAST(ROUND(l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)) AS rev_e4,
             p_type
      FROM lineitem JOIN part ON p_partkey = l_partkey
      WHERE l_shipdate >= DATE '1996-06-01'
        AND l_shipdate <  DATE '1996-07-01'),
    t AS (SELECT COALESCE(SUM(CASE WHEN p_type = 'PROMO'
                               THEN rev_e4 ELSE 0 END), 0) AS promo_e4,
                 COALESCE(SUM(rev_e4), 0) AS total_e4 FROM f)
    SELECT CAST(promo_e4 AS BIGINT) AS promo_e4,
           CAST(total_e4 AS BIGINT) AS total_e4,
           CAST(CASE WHEN total_e4 > 0
                     THEN promo_e4 * 1000 // total_e4
                     ELSE 0 END AS BIGINT) AS share_milli
    FROM t
""")
def q14_promo_share(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q14 shape (promo revenue share over one shipdate month):
    the part dimension reduces driver-side to the PROMO key set
    (guarded broadcast — the strategy-lookup pattern, zero shuffles),
    lineitems in the window flag membership per batch, and one
    global sum of integer e4 revenue partials yields the share. All
    arithmetic integer cents mirrored by the oracle: rev_e4 =
    round(price*100) * (100 - round(discount*100)), share emitted as
    milli-units via '//' so no float division is hash-compared."""

    lo, hi = pd.Timestamp("1996-06-01"), pd.Timestamp("1996-07-01")
    part = read_table(sf_dir, "part",
                      ["p_partkey", "p_type"]).to_pandas()
    known = frozenset(part["p_partkey"])
    promo = frozenset(part.loc[part["p_type"] == "PROMO", "p_partkey"])
    guard_broadcast_bytes(len(known) * 64, "q14 part key sets",
                          "bucket the part dim and co-partition")
    ref = ray.put((known, promo))
    li = read_table(sf_dir, "lineitem",
                    ["l_partkey", "l_shipdate", "l_extendedprice",
                     "l_discount"])

    class Prep:
        """Per-actor broadcast cache (the semi_join.Filter pattern:
        the key sets deserialize once per actor, not per batch)."""

        def __init__(self):
            self.known, self.promo = ray.get(ref)

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            m = (b["l_shipdate"] >= lo) & (b["l_shipdate"] < hi)
            b = b[m]
            # inner-join semantics, matching the oracle: a lineitem
            # whose partkey has no part row contributes to NEITHER sum
            b = b[b["l_partkey"].isin(self.known)]
            rev = (_cents(b["l_extendedprice"])
                   * (100 - _cents(b["l_discount"])))
            is_promo = b["l_partkey"].isin(self.promo).to_numpy()
            return pd.DataFrame({
                "k": np.zeros(len(b), dtype=np.int64),
                "promo_e4": np.where(is_promo, rev, 0),
                "total_e4": rev})

    g = grouped_agg(li.map_batches(Prep, batch_format="pandas",
                                   concurrency=(1, pool_size()[1]),
                                   num_cpus=pool_actor_cpus()),
                    ["k"],
                    {"promo_e4": ("sum", "promo_e4"),
                     "total_e4": ("sum", "total_e4")})
    pe = int(g["promo_e4"].iloc[0]) if len(g) else 0
    te = int(g["total_e4"].iloc[0]) if len(g) else 0
    return pd.DataFrame({
        "promo_e4": [pe], "total_e4": [te],
        "share_milli": [pe * 1000 // te if te > 0 else 0]}
    ).astype("int64")


@query(oracle="""
    WITH g AS (
      SELECT CAST(floor(epoch(o_orderdate)) AS BIGINT) AS s,
             LAG(CAST(floor(epoch(o_orderdate)) AS BIGINT)) OVER (
               PARTITION BY o_custkey
               ORDER BY o_orderdate, o_orderkey) AS ps
      FROM orders)
    SELECT ((s - ps) // 86400) // 7 AS gap_week_bucket,
           CAST(COUNT(*) AS BIGINT) AS n_gaps
    FROM g WHERE ps IS NOT NULL
    GROUP BY gap_week_bucket ORDER BY gap_week_bucket
""")
def orders_interorder_gap(sf_dir: str) -> pd.DataFrame:
    """Inter-order gap histogram — the repurchase-interval statistic
    behind retention/CLV models: per customer, the day gaps between
    consecutive orders (LAG in (o_orderdate, o_orderkey) order — tie
    pairs gap 0 under any tie-break, and both sides order
    identically), bucketed by week. One bucketed per-customer shuffle
    computes every lag vectorized with per-bucket count partials;
    only the (week_bucket, n) histogram — bounded by the date range,
    never customers — reaches the combine. Integer seconds -> integer
    day -> integer week arithmetic, DuckDB-mirrored."""
    ds = read_table(sf_dir, "orders",
                    ["o_orderkey", "o_custkey", "o_orderdate"])

    def gaps(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["o_custkey", "o_orderdate", "o_orderkey"],
                            kind="mergesort")
        s = (df["o_orderdate"].astype("datetime64[ns]")
             .astype("int64") // 1_000_000_000)
        prev = (df.assign(__s=s.values)
                .groupby("o_custkey", sort=False, observed=True)
                ["__s"].shift(1))
        m = prev.notna()
        gap_days = ((s[m].to_numpy(np.int64)
                     - prev[m].to_numpy(np.int64)) // 86400)
        return (pd.DataFrame({"gap_week_bucket": gap_days // 7})
                .groupby("gap_week_bucket", sort=False)
                .size().reset_index(name="n"))

    part = bucketed_map_groups(ds, ["o_custkey"], gaps)
    out = grouped_agg(part, ["gap_week_bucket"],
                      {"n_gaps": ("sum", "n")})
    return (out.astype({"gap_week_bucket": "int64",
                        "n_gaps": "int64"})
            .sort_values("gap_week_bucket").reset_index(drop=True))


@query(oracle="""
    SELECT c_custkey, c_name,
           SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
               * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)))
             / 10000.0 AS revenue,
           n_name, c_acctbal
    FROM customer, orders, lineitem, nation
    WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
      AND o_orderdate >= DATE '1995-10-01'
      AND o_orderdate <  DATE '1996-01-01'
      AND l_returnflag = 'R' AND c_nationkey = n_nationkey
    GROUP BY c_custkey, c_name, n_name, c_acctbal
    ORDER BY revenue DESC, c_custkey LIMIT 20
""")
def q10_returned_items(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q10 shape — the returned-item revenue report: which
    customers returned the most in a quarter. The heavy side
    (lineitem filtered to l_returnflag='R') partial-sums revenue per
    ORDER before any join (grouped_agg_ds), the quarter's orders
    attach co-partitioned on orderkey, the per-customer rollup is a
    second bucketed combine that STAYS a Dataset, and the top-20 cut
    is the partial-top-k primitive — only the 20 winners' customer /
    nation detail rows are fetched (filter-read + a 20-row driver
    merge), never a customer-table join. Revenue in exact integer e4
    cents (the q1/q5 arithmetic); top 20 by (revenue desc,
    c_custkey)."""
    lo, hi = pd.Timestamp("1995-10-01"), pd.Timestamp("1996-01-01")
    orders = read_table(sf_dir, "orders",
                        ["o_orderkey", "o_custkey", "o_orderdate"])
    orders_f = orders.map_batches(
        lambda b: b.loc[(b["o_orderdate"] >= lo)
                        & (b["o_orderdate"] < hi),
                        ["o_orderkey", "o_custkey"]].rename(
            columns={"o_orderkey": "l_orderkey"}),
        batch_format="pandas")
    li = read_table(sf_dir, "lineitem",
                    ["l_orderkey", "l_returnflag", "l_extendedprice",
                     "l_discount"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["l_returnflag"] == "R"]
        return pd.DataFrame({
            "l_orderkey": b["l_orderkey"].values,
            "rev_e4": _cents(b["l_extendedprice"])
            * (100 - _cents(b["l_discount"]))})

    per_order = grouped_agg_ds(
        li.map_batches(prep, batch_format="pandas"),
        ["l_orderkey"], {"rev_e4": ("sum", "rev_e4")})
    joined = hash_join(per_order, orders_f, on="l_orderkey",
                       how="inner")
    per_cust = grouped_agg_ds(joined, ["o_custkey"],
                              {"rev_e4": ("sum", "rev_e4")})
    top = topk(per_cust, ["rev_e4", "o_custkey"], [False, True], 20)
    if not len(top):
        return pd.DataFrame({
            "c_custkey": pd.array([], dtype="int64"),
            "c_name": pd.array([], dtype=str),
            "revenue": pd.array([], dtype="float64"),
            "n_name": pd.array([], dtype=str),
            "c_acctbal": pd.array([], dtype="float64")})
    keys = set(int(k) for k in top["o_custkey"])
    cust = read_table(sf_dir, "customer",
                      ["c_custkey", "c_name", "c_nationkey",
                       "c_acctbal"]).map_batches(
        lambda b: b[b["c_custkey"].isin(keys)],
        batch_format="pandas").to_pandas()
    nation = read_table(sf_dir, "nation",
                        ["n_nationkey", "n_name"]).to_pandas()
    out = (top.rename(columns={"o_custkey": "c_custkey"})
           .merge(cust, on="c_custkey")
           .merge(nation, left_on="c_nationkey",
                  right_on="n_nationkey"))
    out["revenue"] = _d(out["rev_e4"]) / 10000.0
    return (out[["c_custkey", "c_name", "revenue", "n_name",
                 "c_acctbal"]]
            .astype({"c_custkey": "int64"})
            .sort_values(["revenue", "c_custkey"],
                         ascending=[False, True])
            .reset_index(drop=True))


@query(oracle="""
        SELECT n_name,
               SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)))
                 / 10000.0 AS revenue
        FROM customer, orders, lineitem, supplier, nation, region
        WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
          AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
          AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
          AND r_name = 'ASIA'
          AND o_orderdate >= DATE '1995-01-01'
          AND o_orderdate <  DATE '1996-01-01'
        GROUP BY n_name ORDER BY revenue DESC, n_name
    """)
def q5_local_supplier_volume(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q5 shape — the six-table join graph (region -> nation ->
    customer -> orders -> lineitem -> supplier, with the
    supplier-nation = customer-nation equality): every dimension side
    (region/nation/customer key maps, supplier->nation map) is a
    BROADCAST lookup applied inside map_batches, so the only shuffles
    are the orders semi-attach and one co-partitioned hash join of the
    two fact-sized datasets (lineitem x orders). Revenue in exact
    integer e4 cents."""

    # ASIA nations
    region = read_table(sf_dir, "region",
                        ["r_regionkey", "r_name"]).to_pandas()
    asia = set(region.loc[region["r_name"] == "ASIA", "r_regionkey"])
    nation = read_table(sf_dir, "nation",
                        ["n_nationkey", "n_name", "n_regionkey"]) \
        .to_pandas()
    nat = nation[nation["n_regionkey"].isin(asia)]
    nkey_to_name = dict(zip(nat["n_nationkey"], nat["n_name"]))
    # customers in those nations: custkey -> nationkey (broadcast)
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    cmap = (cust.map_batches(
        lambda b: b[b["c_nationkey"].isin(set(nkey_to_name))],
        batch_format="pandas").to_pandas())
    guard_broadcast_bytes(16 * len(cmap), "q5 customer->nation map",
                          "co-partition the orders x customer attach")
    ck = cmap["c_custkey"].to_numpy(dtype=np.int64)
    cn = cmap["c_nationkey"].to_numpy(dtype=np.int64)
    order_ck = np.argsort(ck, kind="stable")
    cust_ref = ray.put((ck[order_ck], cn[order_ck]))
    # suppliers: suppkey -> nationkey (broadcast)
    supp = read_table(sf_dir, "supplier",
                      ["s_suppkey", "s_nationkey"]).to_pandas()
    sk = supp["s_suppkey"].to_numpy(dtype=np.int64)
    sn = supp["s_nationkey"].to_numpy(dtype=np.int64)
    order_sk = np.argsort(sk, kind="stable")
    supp_ref = ray.put((sk[order_sk], sn[order_sk]))

    lo, hi = pd.Timestamp("1995-01-01"), pd.Timestamp("1996-01-01")
    orders = read_table(sf_dir, "orders",
                        ["o_orderkey", "o_custkey", "o_orderdate"])

    def ord_prep(b: pd.DataFrame) -> pd.DataFrame:
        b = b[(b["o_orderdate"] >= lo) & (b["o_orderdate"] < hi)]
        cks, cns = ray.get(cust_ref)
        ok = b["o_custkey"].to_numpy(dtype=np.int64)
        pos = np.searchsorted(cks, ok)
        hit = (pos < len(cks)) & (cks[np.minimum(pos, len(cks) - 1)]
                                  == ok) if len(cks) else \
            np.zeros(len(ok), dtype=bool)
        b = b[hit]
        b = b.assign(cust_nation=cns[np.searchsorted(
            cks, b["o_custkey"].to_numpy(dtype=np.int64))])
        return b[["o_orderkey", "cust_nation"]].rename(
            columns={"o_orderkey": "l_orderkey"})

    orders_f = orders.map_batches(ord_prep, batch_format="pandas")

    li = read_table(sf_dir, "lineitem",
                    ["l_orderkey", "l_suppkey", "l_extendedprice",
                     "l_discount"])

    def li_prep(b: pd.DataFrame) -> pd.DataFrame:
        sks, sns = ray.get(supp_ref)
        lsk = b["l_suppkey"].to_numpy(np.int64)
        pos = np.minimum(np.searchsorted(sks, lsk), len(sks) - 1)
        # FK check: a suppkey absent from supplier must fail loudly,
        # not be attributed to the nearest supplier. (ord_prep's miss
        # mask FILTERS instead — its customer map is region-pruned, so
        # a miss there means "non-ASIA customer, drop the row", not a
        # violation. Do not harmonize the two.)
        if not (sks[pos] == lsk).all():
            bad = lsk[sks[pos] != lsk][:5]
            raise ValueError(
                f"lineitem FK violation: l_suppkey values {bad.tolist()}"
                " not present in supplier")
        return pd.DataFrame({
            "l_orderkey": b["l_orderkey"].values,
            "supp_nation": sns[pos],
            "rev_e4": _cents(b["l_extendedprice"])
            * (100 - _cents(b["l_discount"]))})

    joined = hash_join(li.map_batches(li_prep, batch_format="pandas"),
                       orders_f, on="l_orderkey", how="inner")

    def local_only(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["supp_nation"] == b["cust_nation"]]
        return pd.DataFrame({"n_nationkey": b["supp_nation"].values,
                             "rev_e4": b["rev_e4"].values})

    g = grouped_agg(joined.map_batches(local_only,
                                       batch_format="pandas"),
                    ["n_nationkey"], {"s": ("sum", "rev_e4")})
    g["n_name"] = g["n_nationkey"].map(nkey_to_name)
    g["revenue"] = _d(g["s"]) / 10000.0
    return (g[["n_name", "revenue"]]
            .sort_values(["revenue", "n_name"], ascending=[False, True])
            .reset_index(drop=True))


@query(oracle="""
        WITH s AS (
          SELECT l_orderkey,
                 SUM(CAST(ROUND(l_quantity * 100) AS BIGINT)) AS qty_c
          FROM lineitem GROUP BY l_orderkey
          HAVING SUM(CAST(ROUND(l_quantity * 100) AS BIGINT)) > 15000)
        SELECT c_name, c_custkey, o_orderkey, o_orderdate,
               o_totalprice, qty_c / 100.0 AS total_qty
        FROM s JOIN orders ON o_orderkey = l_orderkey
               JOIN customer ON c_custkey = o_custkey
        ORDER BY total_qty DESC, o_orderkey LIMIT 20
    """)
def q18_large_orders(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q18 shape — GROUP-HAVING driving a semi join: orders
    whose lineitem quantity total exceeds 150, with customer and
    order details attached. The heavy side (lineitem) partial-sums
    per order BEFORE any join; only the HAVING winners (a tiny set by
    construction) flow into the joins, with the orders attach
    co-partitioned and the customer attach a broadcast of just the
    winning custkeys. Quantities in int cents, top 20 by
    (total_qty desc, o_orderkey)."""
    li = read_table(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"l_orderkey": b["l_orderkey"].values,
                             "qty_c": _cents(b["l_quantity"])})

    sums = grouped_agg_ds(li.map_batches(prep, batch_format="pandas"),
                          ["l_orderkey"], {"qty_c": ("sum", "qty_c")})
    winners = sums.map_batches(
        lambda b: b[b["qty_c"] > 150 * 100] if "qty_c" in b.columns
        else b, batch_format="pandas")
    orders = read_table(sf_dir, "orders",
                        ["o_orderkey", "o_custkey", "o_orderdate",
                         "o_totalprice"])
    j = hash_join(
        orders.map_batches(lambda b: b.rename(
            columns={"o_orderkey": "l_orderkey"}),
            batch_format="pandas"),
        winners, on="l_orderkey", how="inner").to_pandas()
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_name"])
    cmap = (semi_join(cust, set(j["o_custkey"]), on="c_custkey")
            .to_pandas())
    out = j.merge(cmap, left_on="o_custkey", right_on="c_custkey")
    out["total_qty"] = _d(out["qty_c"]) / 100.0
    return (out[["c_name", "c_custkey", "l_orderkey", "o_orderdate",
                 "o_totalprice", "total_qty"]]
            .rename(columns={"l_orderkey": "o_orderkey"})
            .sort_values(["total_qty", "o_orderkey"],
                         ascending=[False, True])
            .head(20).reset_index(drop=True))


@query(oracle="""
        SELECT o_custkey,
               CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS DOUBLE)
                 / 100.0 AS total_spend
        FROM orders GROUP BY o_custkey
        ORDER BY total_spend DESC, o_custkey LIMIT 10
    """)
def top_customers_by_spend(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"o_custkey": b["o_custkey"].values,
                             "price_c": _cents(b["o_totalprice"])})

    g = grouped_agg(ds.map_batches(prep, batch_format="pandas"),
                    ["o_custkey"], {"s": ("sum", "price_c")})
    g["total_spend"] = _d(g["s"]) / 100.0
    return (g[["o_custkey", "total_spend"]]
            .sort_values(["total_spend", "o_custkey"],
                         ascending=[False, True])
            .head(10).reset_index(drop=True))


@query(oracle="""
        SELECT l_orderkey,
               CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                        * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)))
                    AS DOUBLE) / 10000.0 AS revenue,
               o_orderdate
        FROM customer JOIN orders ON c_custkey = o_custkey
                      JOIN lineitem ON l_orderkey = o_orderkey
        WHERE c_mktsegment = 'BUILDING'
          AND o_orderdate < TIMESTAMP '1998-03-15'
          AND l_shipdate  > TIMESTAMP '1998-03-15'
        GROUP BY l_orderkey, o_orderdate
        ORDER BY revenue DESC, l_orderkey LIMIT 10
    """)
def q3_shipping_topk(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q3 shape, scale-safe end to end: the customer dim's
    BUILDING key set is the only driver-held object (a dimension-table
    broadcast for the orders semi-join); lineitem revenue is
    partial-aggregated to one row per order, the date attach is a
    co-partitioned hash join of the two large per-order datasets, and
    the top-k runs as per-batch partials. No fact table ever
    materializes on the driver."""
    cutoff = pd.Timestamp("1998-03-15")
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    building = (cust.map_batches(
        lambda b: b.loc[b["c_mktsegment"] == "BUILDING", ["c_custkey"]],
        batch_format="pandas").to_pandas()["c_custkey"])
    orders = read_table(sf_dir, "orders",
                        ["o_orderkey", "o_custkey", "o_orderdate"])
    orders_f = semi_join(
        orders.map_batches(lambda b: b[b["o_orderdate"] < cutoff],
                           batch_format="pandas"),
        building, "o_custkey").map_batches(
        lambda b: b[["o_orderkey", "o_orderdate"]].rename(
            columns={"o_orderkey": "l_orderkey"}),
        batch_format="pandas")

    li = read_table(sf_dir, "lineitem",
                    ["l_orderkey", "l_extendedprice", "l_discount",
                     "l_shipdate"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["l_shipdate"] > cutoff]
        return pd.DataFrame({
            "l_orderkey": b["l_orderkey"].values,
            "rev_e4": _cents(b["l_extendedprice"])
            * (100 - _cents(b["l_discount"]))})

    rev = grouped_agg_ds(li.map_batches(prep, batch_format="pandas"),
                         ["l_orderkey"], {"rev_e4": ("sum", "rev_e4")})
    joined = hash_join(rev, orders_f, on="l_orderkey", how="inner")

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_orderkey": b["l_orderkey"].values,
            "revenue": _d(b["rev_e4"]) / 10000.0,
            "o_orderdate": b["o_orderdate"].values})

    return topk(joined.map_batches(finalize, batch_format="pandas"),
                ["revenue", "l_orderkey"], [False, True],
                10).reset_index(drop=True)


@query(oracle="""
        SELECT COALESCE(c.c_custkey, o.c_custkey) AS custkey,
               COALESCE(c.c_acctbal, 0.0) AS acctbal,
               COALESCE(o.n_orders, 0) AS n_orders,
               COALESCE(o.total_spend, 0.0) AS total_spend
        FROM (SELECT c_custkey, c_acctbal FROM customer
              WHERE c_mktsegment = 'BUILDING') c
        FULL OUTER JOIN
             (SELECT o_custkey AS c_custkey, COUNT(*) AS n_orders,
                     CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                          AS DOUBLE) / 100.0 AS total_spend
              FROM orders WHERE o_totalprice > 200000.0
              GROUP BY o_custkey) o
        ON c.c_custkey = o.c_custkey
        ORDER BY custkey
    """)
def customer_orders_full_outer(sf_dir: str) -> pd.DataFrame:
    """FULL OUTER hash join of two derived large sides: the
    BUILDING-segment customer dim against per-customer high-value
    order aggregates. Both sides have unmatched rows (BUILDING
    customers with no qualifying order; non-BUILDING customers with
    qualifying orders) — exercised co-partitioned, never broadcast.
    Unmatched numerics are COALESCEd to 0 in BOTH engines so the
    value-hash compares deterministically (no NaN-vs-NULL skew)."""
    cust = read_table(sf_dir, "customer",
                      ["c_custkey", "c_mktsegment", "c_acctbal"])
    bldg = cust.map_batches(
        lambda b: b.loc[b["c_mktsegment"] == "BUILDING",
                        ["c_custkey", "c_acctbal"]],
        batch_format="pandas")
    orders = read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        big = b[b["o_totalprice"] > 200_000.0]
        return pd.DataFrame({"c_custkey": big["o_custkey"].values,
                             "price_c": _cents(big["o_totalprice"])})

    agg = grouped_agg_ds(orders.map_batches(prep, batch_format="pandas"),
                         ["c_custkey"], {"n_orders": ("count", None),
                                         "spend_c": ("sum", "price_c")})
    out = hash_join(bldg, agg, on="c_custkey", how="outer").to_pandas()
    return (pd.DataFrame({
        "custkey": out["c_custkey"].to_numpy(dtype=np.int64),
        "acctbal": out["c_acctbal"].fillna(0.0),
        "n_orders": out["n_orders"].fillna(0).astype("int64"),
        "total_spend": _d(out["spend_c"].fillna(0)) / 100.0,
    }).sort_values("custkey").reset_index(drop=True))


@query(oracle="""
        SELECT n_name, COUNT(*) AS n_customers,
               CAST(SUM(CAST(ROUND(c_acctbal * 100) AS BIGINT)) AS DOUBLE)
                 / 100.0 / COUNT(*) AS avg_acctbal
        FROM customer JOIN nation ON c_nationkey = n_nationkey
        GROUP BY n_name ORDER BY n_name
    """)
def customer_nation_stats(sf_dir: str) -> pd.DataFrame:
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"]).to_pandas()
    nation = nation.rename(columns={"n_nationkey": "c_nationkey"})
    cust = read_table(sf_dir, "customer", ["c_nationkey", "c_acctbal"])
    joined = broadcast_join(cust, nation, on="c_nationkey")

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n_name": b["n_name"].values,
                             "bal_c": _cents(b["c_acctbal"])})

    g = grouped_agg(joined.map_batches(prep, batch_format="pandas"),
                    ["n_name"], {"n_customers": ("count", None),
                                 "s": ("sum", "bal_c")})
    out = g[["n_name", "n_customers"]].copy()
    out["avg_acctbal"] = _d(g["s"]) / 100.0 / g["n_customers"]
    return out.sort_values("n_name").reset_index(drop=True)


@query(oracle="""
        SELECT c_mktsegment, COUNT(*) AS n_orders,
               CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS DOUBLE)
                 / 100.0 AS total_price
        FROM orders JOIN customer ON o_custkey = c_custkey
        GROUP BY c_mktsegment ORDER BY c_mktsegment
    """)
def orders_customer_join_stats(sf_dir: str) -> pd.DataFrame:
    """Partitioned hash join (both sides treated as large)."""
    orders = read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = read_table(sf_dir, "customer",
                      ["c_custkey", "c_mktsegment"]).rename_columns(
                          {"c_custkey": "o_custkey"})
    joined = hash_join(orders, cust, on="o_custkey", n_buckets=16)

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"c_mktsegment": b["c_mktsegment"].values,
                             "price_c": _cents(b["o_totalprice"])})

    g = grouped_agg(joined.map_batches(prep, batch_format="pandas"),
                    ["c_mktsegment"], {"n_orders": ("count", None),
                                       "s": ("sum", "price_c")})
    out = g[["c_mktsegment", "n_orders"]].copy()
    out["total_price"] = _d(g["s"]) / 100.0
    return out.sort_values("c_mktsegment").reset_index(drop=True)


@query(oracle="""
        WITH old AS (SELECT o_orderkey AS k,
                            CAST(ROUND(o_totalprice * 100) AS BIGINT)
                              AS old_c
                     FROM orders),
        new AS (
          SELECT o_orderkey AS k,
                 CAST(ROUND(o_totalprice * 100) AS BIGINT)
                   + CASE WHEN o_orderkey % 13 = 0 THEN 100 ELSE 0 END
                   AS new_c
          FROM orders WHERE o_orderkey % 97 <> 0
          UNION ALL
          SELECT o_orderkey + 10000000 AS k,
                 CAST(ROUND(o_totalprice * 100) AS BIGINT) AS new_c
          FROM orders WHERE o_orderkey % 101 = 0),
        d AS (SELECT COALESCE(old.k, new.k) AS k,
                     CASE WHEN old.k IS NULL THEN 'added'
                          WHEN new.k IS NULL THEN 'removed'
                          WHEN old_c <> new_c THEN 'changed'
                          ELSE 'same' END AS status
              FROM old FULL OUTER JOIN new ON old.k = new.k)
        SELECT status, COUNT(*) AS n, MIN(k) AS min_key,
               MAX(k) AS max_key
        FROM d GROUP BY status ORDER BY status
    """)
def orders_version_diff(sf_dir: str) -> pd.DataFrame:
    """CDC-style DATASET DIFF between two table versions — the
    incremental-ingest primitive (what changed since the last run?):
    'new' is a deterministic mutation of orders (keys %97==0 removed,
    %13==0 repriced +1.00, fresh keys key+10_000_000 for %101==0
    added), both versions stay distributed, and the diff is one
    co-partitioned FULL OUTER hash join on the key with per-row
    classification (added / removed / changed / same) — value equality
    compared in exact int64 cents. Output: per-status row counts plus
    key-range fingerprints (classification then aggregates
    distributed; only 4 summary rows ever reach the driver)."""
    old = read_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def prep_old(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": b["o_orderkey"].values,
                             "old_c": _cents(b["o_totalprice"])})

    def prep_new(b: pd.DataFrame) -> pd.DataFrame:
        keep = b.loc[b["o_orderkey"] % 97 != 0]
        c = _cents(keep["o_totalprice"])
        c = c + np.where(keep["o_orderkey"] % 13 == 0, 100, 0)
        new = pd.DataFrame({"k": keep["o_orderkey"].values, "new_c": c})
        adds = b.loc[b["o_orderkey"] % 101 == 0]
        added = pd.DataFrame({
            "k": adds["o_orderkey"].values + 10_000_000,
            "new_c": _cents(adds["o_totalprice"])})
        return pd.concat([new, added], ignore_index=True)

    j = hash_join(old.map_batches(prep_old, batch_format="pandas"),
                  read_table(sf_dir, "orders",
                             ["o_orderkey", "o_totalprice"])
                  .map_batches(prep_new, batch_format="pandas"),
                  on="k", how="outer")

    def classify(b: pd.DataFrame) -> pd.DataFrame:
        old_c, new_c = b["old_c"], b["new_c"]
        status = np.where(old_c.isna(), "added",
                          np.where(new_c.isna(), "removed",
                                   np.where(old_c != new_c, "changed",
                                            "same")))
        return pd.DataFrame({"status": status, "k": b["k"].values})

    g = grouped_agg(j.map_batches(classify, batch_format="pandas"),
                    ["status"], {"n": ("count", None),
                                 "min_key": ("min", "k"),
                                 "max_key": ("max", "k")})
    g["n"] = g["n"].astype("int64")
    g["min_key"] = g["min_key"].astype("int64")
    g["max_key"] = g["max_key"].astype("int64")
    return g.sort_values("status").reset_index(drop=True)


@query(oracle="""
        WITH j AS (SELECT l.l_orderkey, l.l_linenumber, l.l_extendedprice,
                          o.o_orderdate, o.o_totalprice,
                          l.l_orderkey * 10 + l.l_linenumber AS li_id
                   FROM lineitem l JOIN orders o
                     ON l.l_orderkey = o.o_orderkey),
        h AS (SELECT *, ((CAST(li_id AS HUGEINT) * 2654435761)
                         % 4294967296 + 0.5)
                        / 4294967296.0 AS u
              FROM j WHERE l_extendedprice > 0),
        s AS (SELECT l_orderkey, l_linenumber, l_extendedprice,
                     o_orderdate, o_totalprice
              FROM h ORDER BY -ln(u) / l_extendedprice, li_id LIMIT 50)
        SELECT * FROM s ORDER BY l_orderkey, l_linenumber
    """)
def lineitem_join_sample(sf_dir: str) -> pd.DataFrame:
    """Weighted sampling pushed BELOW a join (the streaming
    sampling-over-joins optimization): a price-weighted sample of the
    orders x lineitem join is taken by sampling ONLY the lineitem side
    (the weight lives there and the FK join is key-preserving: every
    lineitem matches exactly one order), then joining just the k
    winners to orders via broadcast — the full join is never computed.
    The oracle samples the materialized join with the identical
    deterministic keys, proving the pushdown is exact."""
    li = read_table(sf_dir, "lineitem",
                    ["l_orderkey", "l_linenumber", "l_extendedprice"])

    def add_key(b: pd.DataFrame) -> pd.DataFrame:
        # composite id: (orderkey, linenumber) packed into one int64,
        # mirrored exactly in the oracle SQL
        b = b.copy(deep=False)
        b["li_id"] = (b["l_orderkey"].to_numpy(dtype=np.int64) * 10
                      + b["l_linenumber"].to_numpy(dtype=np.int64))
        return b

    sample = weighted_sample(li.map_batches(add_key, batch_format="pandas"),
                             weight_col="l_extendedprice", id_col="li_id",
                             k=50)
    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_orderdate",
                                           "o_totalprice"])
    joined = broadcast_join(
        orders.map_batches(
            lambda b: b.rename(columns={"o_orderkey": "l_orderkey"}),
            batch_format="pandas"),
        sample.drop(columns="li_id"), on="l_orderkey").to_pandas()
    return (joined[["l_orderkey", "l_linenumber", "l_extendedprice",
                    "o_orderdate", "o_totalprice"]]
            .sort_values(["l_orderkey", "l_linenumber"])
            .reset_index(drop=True))


def _heavy_partkeys(sf_dir: str) -> set:
    """Distinct partkeys appearing in a quantity > 49 lineitem (the
    shared probe-key set for the semi/anti join pair)."""
    li = read_table(sf_dir, "lineitem", ["l_partkey", "l_quantity"])
    heavy = distinct(
        li.map_batches(lambda b: b[b["l_quantity"] > 49][["l_partkey"]],
                       batch_format="pandas"),
        ["l_partkey"])
    return set(heavy["l_partkey"])


@query(oracle="""
        SELECT * FROM (
        SELECT 'lineitem.l_orderkey->orders.o_orderkey' AS fk_edge,
               CAST(COUNT(DISTINCT l_orderkey) AS BIGINT) AS n_child_keys,
               CAST(COUNT(DISTINCT CASE WHEN l_orderkey NOT IN
                    (SELECT o_orderkey FROM orders) THEN l_orderkey END) AS BIGINT)
                 AS n_orphan_keys
        FROM lineitem
        UNION ALL
        SELECT 'orders.o_custkey->customer.c_custkey' AS fk_edge,
               CAST(COUNT(DISTINCT o_custkey) AS BIGINT) AS n_child_keys,
               CAST(COUNT(DISTINCT CASE WHEN o_custkey NOT IN
                    (SELECT c_custkey FROM customer) THEN o_custkey END) AS BIGINT)
                 AS n_orphan_keys
        FROM orders
        UNION ALL
        SELECT 'customer.c_nationkey->nation.n_nationkey' AS fk_edge,
               CAST(COUNT(DISTINCT c_nationkey) AS BIGINT) AS n_child_keys,
               CAST(COUNT(DISTINCT CASE WHEN c_nationkey NOT IN
                    (SELECT n_nationkey FROM nation) THEN c_nationkey END) AS BIGINT)
                 AS n_orphan_keys
        FROM customer
        UNION ALL
        SELECT 'supplier.s_nationkey->nation.n_nationkey' AS fk_edge,
               CAST(COUNT(DISTINCT s_nationkey) AS BIGINT) AS n_child_keys,
               CAST(COUNT(DISTINCT CASE WHEN s_nationkey NOT IN
                    (SELECT n_nationkey FROM nation) THEN s_nationkey END) AS BIGINT)
                 AS n_orphan_keys
        FROM supplier
        UNION ALL
        SELECT 'nation.n_regionkey->region.r_regionkey' AS fk_edge,
               CAST(COUNT(DISTINCT n_regionkey) AS BIGINT) AS n_child_keys,
               CAST(COUNT(DISTINCT CASE WHEN n_regionkey NOT IN
                    (SELECT r_regionkey FROM region) THEN n_regionkey END) AS BIGINT)
                 AS n_orphan_keys
        FROM nation
        ) ORDER BY fk_edge
    """)
def tpch_fk_audit(sf_dir: str) -> pd.DataFrame:
    """Referential-integrity AUDIT across the schema's FK graph — the
    ingest-gate check a warehouse runs before trusting joins: for each
    child->parent edge, how many child rows reference a missing
    parent. Each edge is a distributed distinct of the child key
    column (per-batch unique partial) anti-joined against the parent
    key set; dimension parents broadcast, the lineitem->orders edge
    counts orphan KEYS (bounded by distinct cardinality) the same way.
    All counts integer-exact."""

    edges = [
        ("lineitem", "l_orderkey", "orders", "o_orderkey"),
        ("orders", "o_custkey", "customer", "c_custkey"),
        ("customer", "c_nationkey", "nation", "n_nationkey"),
        ("supplier", "s_nationkey", "nation", "n_nationkey"),
        ("nation", "n_regionkey", "region", "r_regionkey"),
    ]
    rows = []
    for child, ck, parent, pk in edges:
        # two consumers (orphan scan + count): pin the distinct once
        child_keys = distinct_ds(read_table(sf_dir, child, [ck]),
                                 [ck]).materialize()
        parent_keys = set(
            distinct(read_table(sf_dir, parent, [pk]), [pk])[pk])
        orphans = child_keys.map_batches(
            lambda b, ck=ck, pks=parent_keys:
            pd.DataFrame({"k": [int((~b[ck].isin(pks)).sum())]}),
            batch_format="pandas").to_pandas()["k"].sum()
        rows.append({"fk_edge": f"{child}.{ck}->{parent}.{pk}",
                     "n_child_keys": None,  # filled below
                     "n_orphan_keys": int(orphans)})
        rows[-1]["n_child_keys"] = int(child_keys.count())
    return (pd.DataFrame(rows)
            .astype({"n_child_keys": "int64", "n_orphan_keys": "int64"})
            .sort_values("fk_edge").reset_index(drop=True))


@query(oracle="""
        SELECT p_partkey, p_name FROM part p
        WHERE NOT EXISTS (SELECT 1 FROM lineitem l
                          WHERE l.l_partkey = p.p_partkey
                            AND l.l_quantity > 49)
        ORDER BY p_partkey
    """)
def parts_anti_join(sf_dir: str) -> pd.DataFrame:
    """Anti join via broadcast key set: parts never shipped in a
    quantity > 49 lineitem."""
    parts = read_table(sf_dir, "part", ["p_partkey", "p_name"])
    out = anti_join(parts, _heavy_partkeys(sf_dir), on="p_partkey").to_pandas()
    return out.sort_values("p_partkey").reset_index(drop=True)


@query(oracle="""
        SELECT p_partkey, p_name FROM part p
        WHERE EXISTS (SELECT 1 FROM lineitem l
                      WHERE l.l_partkey = p.p_partkey
                        AND l.l_quantity > 49)
        ORDER BY p_partkey
    """)
def parts_semi_join(sf_dir: str) -> pd.DataFrame:
    """Semi join via broadcast key set: parts that DO appear in a
    quantity > 49 lineitem."""
    parts = read_table(sf_dir, "part", ["p_partkey", "p_name"])
    out = semi_join(parts, _heavy_partkeys(sf_dir), on="p_partkey").to_pandas()
    return out.sort_values("p_partkey").reset_index(drop=True)


@query(oracle="""
        SELECT CAST(COUNT(*) AS BIGINT) AS exact_rows,
               TRUE AS bloom_contains_all
        FROM lineitem
        WHERE l_partkey IN (SELECT DISTINCT l_partkey FROM lineitem
                            WHERE l_quantity > 49)
    """)
def parts_bloom_prefilter(sf_dir: str) -> pd.DataFrame:
    """Bloom semi-join prefilter with a BOUNDS ORACLE: the exact kept
    count is computed via an independent broadcast semi join (matched
    bit-exact against DuckDB), and `bloom_contains_all` asserts the
    no-false-negative invariant — every exact-match row survived the
    Bloom prefilter. The fp overshoot is asserted in-engine (65536 bits
    over ~900 keys -> fp ~1e-9)."""
    heavy = sorted(_heavy_partkeys(sf_dir))
    bloom = bloom_from_dataset(
        rd.from_pandas(pd.DataFrame({"k": pd.array(heavy, dtype="int64")})),
        "k", n_bits=1 << 16)
    li = read_table(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    guard_broadcast_bytes(len(heavy) * 64, "bloom-oracle exact key set",
                          "the Bloom filter alone is the scale path; "
                          "drop the exact-comparison side")
    heavy_ref = ray.put(frozenset(heavy))

    def counts(batch: pd.DataFrame) -> pd.DataFrame:
        in_heavy = batch["k"].isin(ray.get(heavy_ref))
        return pd.DataFrame({"bloom_rows": [len(batch)],
                             "exact_in_kept": [int(in_heavy.sum())]})

    kept_counts = (bloom_semi_join(li.rename_columns({"l_partkey": "k"}),
                                   bloom, on="k")
                   .map_batches(counts, batch_format="pandas").to_pandas())
    bloom_rows = int(kept_counts["bloom_rows"].sum())
    exact_in_kept = int(kept_counts["exact_in_kept"].sum())

    # independent exact count straight off the lineitem scan
    exact_counts = li.map_batches(
        lambda b: pd.DataFrame(
            {"n": [int(b["l_partkey"].isin(ray.get(heavy_ref)).sum())]}),
        batch_format="pandas").to_pandas()
    exact_rows = int(exact_counts["n"].sum())

    fp_rate = (bloom_rows - exact_in_kept) / max(1, bloom_rows)
    assert fp_rate < 0.01, f"bloom fp rate {fp_rate} out of bounds"
    return pd.DataFrame({
        "exact_rows": pd.array([exact_rows], dtype="int64"),
        "bloom_contains_all": pd.array([exact_in_kept == exact_rows],
                                       dtype="bool"),
    })


# Same expression tree as orders_customer_join_stats: the bucketed
# disk path must produce the identical aggregate.
@query(oracle="""
    SELECT c_mktsegment, COUNT(*) AS n_orders,
           CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS DOUBLE)
             / 100.0 AS total_price
    FROM orders JOIN customer ON o_custkey = c_custkey
    GROUP BY c_mktsegment ORDER BY c_mktsegment
""")
def orders_customer_bucketed_join(sf_dir: str) -> pd.DataFrame:
    """STORAGE-PARTITIONED join (state.shards.write_bucketed_export /
    read_bucketed_join): both tables are exported hash-bucketed on the
    customer key ONCE, then joined bucket-by-bucket with ZERO shuffle
    at read time — the co-partitioning exchange `hash_join` pays per
    run was paid at write time and is reusable by every later join on
    the same key (the Iceberg/SPJ bucketing technique; at 100 TB the
    write is amortized across the many joins a warehouse key sees).
    Same aggregate surface and SQL oracle expression as
    orders_customer_join_stats, so the driver verifies the disk path
    end to end; a live assert pins that at least one bucket holds
    rows from BOTH sides (the co-location is real, not vacuous)."""

    orders = read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = read_table(sf_dir, "customer",
                      ["c_custkey", "c_mktsegment"])
    da = tempfile.mkdtemp(prefix="bkt_orders_")
    db = tempfile.mkdtemp(prefix="bkt_customer_")
    try:
        ma = write_bucketed_export(orders, da, key="o_custkey",
                                   n_buckets=16,
                                   tiebreak_cols=["o_totalprice"])
        mb = write_bucketed_export(cust, db, key="c_custkey",
                                   n_buckets=16,
                                   tiebreak_cols=["c_mktsegment"])
        both = set(ma["bucket"]) & set(mb["bucket"])
        assert both, "no bucket holds rows from both sides"
        joined = read_bucketed_join(da, db, how="inner")

        def prep(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "c_mktsegment": b["c_mktsegment"].values,
                "price_c": _cents(b["o_totalprice"])})

        g = grouped_agg(joined.map_batches(prep, batch_format="pandas"),
                        ["c_mktsegment"],
                        {"n_orders": ("count", None),
                         "s": ("sum", "price_c")})
        out = g[["c_mktsegment", "n_orders"]].copy()
        out["n_orders"] = out["n_orders"].astype("int64")
        out["total_price"] = _d(g["s"]) / 100.0
        return (out.sort_values("c_mktsegment")
                .reset_index(drop=True))
    finally:
        shutil.rmtree(da, ignore_errors=True)
        shutil.rmtree(db, ignore_errors=True)
