"""Unit tests for the relational building blocks against pandas."""

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module")
def frames(ray_session):
    rng = np.random.RandomState(42)
    left = pd.DataFrame({
        "k": rng.randint(0, 50, 2000),
        "v": rng.standard_normal(2000),
        "w": rng.randint(0, 10, 2000),
    })
    right = pd.DataFrame({
        "k": np.arange(0, 60),
        "name": [f"name{i}" for i in range(60)],
    })
    return left, right


def test_grouped_agg_matches_pandas(frames):
    import ray.data as rd
    from pdf_parser_ray.relational import grouped_agg
    left, _ = frames
    ds = rd.from_pandas(left).repartition(7)
    got = grouped_agg(ds, ["k"], {
        "n": ("count", None),
        "s": ("sum", "v"),
        "m": ("mean", "v"),
        "mx": ("max", "w"),
        "mn": ("min", "w"),
    }).sort_values("k").reset_index(drop=True)
    want = (left.groupby("k")
            .agg(n=("v", "size"), s=("v", "sum"), m=("v", "mean"),
                 mx=("w", "max"), mn=("w", "min"))
            .reset_index())
    pd.testing.assert_frame_equal(got, want[got.columns], check_dtype=False,
                                  atol=1e-9, rtol=0)


def test_topk_matches_pandas(frames):
    import ray.data as rd
    from pdf_parser_ray.relational import topk
    left, _ = frames
    ds = rd.from_pandas(left).repartition(5)
    got = topk(ds, ["v", "k"], [False, True], 15)
    want = (left.sort_values(["v", "k"], ascending=[False, True])
            .head(15).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_broadcast_join_matches_merge(frames):
    import ray.data as rd
    from pdf_parser_ray.relational import broadcast_join
    left, right = frames
    ds = rd.from_pandas(left).repartition(4)
    got = (broadcast_join(ds, right, on="k").to_pandas()
           .sort_values(["k", "v"]).reset_index(drop=True))
    want = (left.merge(right, on="k")
            .sort_values(["k", "v"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want[got.columns], check_dtype=False)


def test_hash_join_matches_merge(frames):
    import ray.data as rd
    from pdf_parser_ray.relational import hash_join
    left, right = frames
    lds = rd.from_pandas(left).repartition(4)
    rds = rd.from_pandas(right).repartition(2)
    got = (hash_join(lds, rds, on="k", n_buckets=8).to_pandas()
           .sort_values(["k", "v"]).reset_index(drop=True))
    want = (left.merge(right, on="k")
            .sort_values(["k", "v"]).reset_index(drop=True))
    assert len(got) == len(want)
    pd.testing.assert_frame_equal(got[want.columns], want, check_dtype=False)


def test_hash_join_string_key(ray_session):
    import ray.data as rd
    from pdf_parser_ray.relational import hash_join
    left = pd.DataFrame({"key": [f"k{i % 5}" for i in range(100)],
                         "x": range(100)})
    right = pd.DataFrame({"key": [f"k{i}" for i in range(7)],
                          "y": range(7)})
    got = (hash_join(rd.from_pandas(left), rd.from_pandas(right),
                     on="key", n_buckets=4).to_pandas()
           .sort_values(["key", "x"]).reset_index(drop=True))
    want = (left.merge(right, on="key")
            .sort_values(["key", "x"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got[want.columns], want, check_dtype=False)


def test_hash_join_empty_side(ray_session):
    """A fully-empty side must give SQL semantics (inner -> 0 rows,
    left -> every left row unmatched), not a KeyError: to_pandas() of
    an empty materialized Dataset loses its columns, and the
    broadcast joiner used to index the missing key column."""
    import ray.data as rd
    from pdf_parser_ray.relational import hash_join
    left = pd.DataFrame({"k": np.arange(50, dtype=np.int64),
                         "x": np.arange(50, dtype=np.int64)})
    lds = rd.from_pandas(left).repartition(3)
    empty = rd.from_pandas(
        pd.DataFrame({"k": pd.array([], dtype="int64"),
                      "y": pd.array([], dtype="int64")}))
    assert hash_join(lds, empty, on="k", how="inner").count() == 0
    out = hash_join(lds, empty, on="k", how="left").to_pandas()
    assert len(out) == 50 and out["y"].isna().all()
    # symmetric: empty probe side
    assert hash_join(empty, lds, on="k", how="inner").count() == 0


def test_grouped_agg_empty_input(ray_session):
    """Aggregating a zero-row Dataset returns a frame that still
    carries every key and output column (the zero-block shuffle
    loses the schema; grouped_agg rebuilds the named empty frame)."""
    import ray.data as rd
    from pdf_parser_ray.relational import distinct, grouped_agg
    empty = rd.from_pandas(
        pd.DataFrame({"k": pd.array([], dtype="int64"),
                      "v": pd.array([], dtype="float64")}))
    out = grouped_agg(empty, ["k"], {"n": ("count", None),
                                     "s": ("sum", "v"),
                                     "m": ("mean", "v")})
    assert len(out) == 0
    assert list(out.columns) == ["k", "n", "s", "m"]
    assert out["n"].dtype == "int64"      # downstream astype contract
    d = distinct(empty, ["k", "v"])
    assert len(d) == 0 and list(d.columns) == ["k", "v"]


def test_topk_empty_input(ray_session):
    """top-k of a fully-empty Dataset is a typed empty frame, not a
    KeyError: to_pandas() of an empty Dataset loses its columns, so
    topk rebuilds them from the Dataset schema before the final
    sort."""
    import ray.data as rd
    from pdf_parser_ray.relational import topk
    empty = rd.from_pandas(
        pd.DataFrame({"a": pd.array([], dtype="int64"),
                      "b": pd.array([], dtype="int64")}))
    out = topk(empty, ["a", "b"], [False, True], 5)
    assert len(out) == 0 and list(out.columns) == ["a", "b"]
    out = topk(empty, ["a"], [True], 5, columns=["a"])
    assert len(out) == 0 and list(out.columns) == ["a"]


def test_distinct_matches_pandas(frames):
    import ray.data as rd
    from pdf_parser_ray.relational import distinct
    left, _ = frames
    ds = rd.from_pandas(left).repartition(6)
    got = (distinct(ds, ["k", "w"]).sort_values(["k", "w"])
           .reset_index(drop=True))
    want = (left[["k", "w"]].drop_duplicates().sort_values(["k", "w"])
            .reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_knn_bruteforce_matches_numpy(ray_session):
    import ray.data as rd
    from pdf_parser_ray.stages.similarity import knn_bruteforce, knn_lsh
    rng = np.random.RandomState(0)
    vecs = rng.standard_normal((500, 16))
    df = pd.DataFrame({"vec_id": np.arange(500),
                       "embedding": list(vecs)})
    q = vecs[0]
    got = knn_bruteforce(rd.from_pandas(df).repartition(4), q, k=10,
                         exclude_id=0)
    sims = vecs @ q / (np.linalg.norm(vecs, axis=1) * np.linalg.norm(q))
    order = sorted(range(1, 500),
                   key=lambda i: (-round(sims[i], 4), i))[:10]
    assert got["vec_id"].tolist() == order
    # LSH variant returns a subset ranked identically within its probe set
    approx = knn_lsh(rd.from_pandas(df).repartition(4), q, k=10,
                     exclude_id=0)
    assert len(approx) <= 10
    assert set(approx["vec_id"]) <= set(range(1, 500))
    assert approx["cos_sim"].is_monotonic_decreasing


def test_knn_ivf_recall(ray_session):
    import ray.data as rd
    from pdf_parser_ray.stages.similarity import knn_bruteforce, knn_ivf
    rng = np.random.RandomState(1)
    vecs = rng.standard_normal((600, 16))
    df = pd.DataFrame({"vec_id": np.arange(600), "embedding": list(vecs)})
    q = vecs[7]
    exact = knn_bruteforce(rd.from_pandas(df).repartition(4), q, k=10,
                           exclude_id=7)
    approx = knn_ivf(rd.from_pandas(df).repartition(4), q, k=10,
                     exclude_id=7, n_clusters=8, nprobe=4)
    assert len(approx) == 10
    # probing half the clusters should recover most true neighbors
    recall = len(set(approx["vec_id"]) & set(exact["vec_id"])) / 10
    assert recall >= 0.5
    # deterministic: same call twice -> identical frame
    approx2 = knn_ivf(rd.from_pandas(df).repartition(4), q, k=10,
                      exclude_id=7, n_clusters=8, nprobe=4)
    pd.testing.assert_frame_equal(approx, approx2)


# ------------------------------------------- co-partitioned non-equi joins

def test_asof_join_matches_pandas(ray_session):
    """Distributed asof_join == global pandas merge_asof, including
    exact-ts ties and keys that only exist on one side."""
    import ray.data as rd
    from pdf_parser_ray.relational import asof_join
    rng = np.random.RandomState(7)
    left = pd.DataFrame({
        "k": rng.randint(0, 20, 300),
        "lt": pd.to_datetime("2024-01-01")
        + pd.to_timedelta(rng.randint(0, 10**6, 300), unit="s"),
        "lv": np.arange(300, dtype=np.int64),
    })
    right = pd.DataFrame({
        "k": rng.randint(0, 25, 200),   # some keys absent on the left
        "rt": pd.to_datetime("2024-01-01")
        + pd.to_timedelta(rng.randint(0, 10**6, 200), unit="s"),
        "rv": np.arange(200, dtype=np.int64) * 10,
    })
    # exact-tie probe: one left row exactly at a right ts
    left.loc[0, ["k", "lt"]] = [right.loc[0, "k"], right.loc[0, "rt"]]
    got = (asof_join(rd.from_pandas(left).repartition(5),
                     rd.from_pandas(right).repartition(3),
                     by="k", left_ts="lt", right_ts="rt")
           .to_pandas().sort_values(["lv"]).reset_index(drop=True))
    want = (pd.merge_asof(left.sort_values("lt"), right.sort_values("rt"),
                          left_on="lt", right_on="rt", by="k")
            .dropna(subset=["rt"]).sort_values("lv")
            .reset_index(drop=True).astype({"rv": "int64"}))
    pd.testing.assert_frame_equal(got[want.columns], want)
    assert got["rv"].dtype == np.dtype("int64")   # no float coercion


def test_interval_join_containment(ray_session):
    """interval_join assigns each probe to its containing interval,
    boundary-inclusive on both ends; probes outside any interval drop."""
    import ray.data as rd
    from pdf_parser_ray.relational import interval_join
    iv = pd.DataFrame({
        "k": [1, 1, 2],
        "s": pd.to_datetime(["2024-01-01 00:00", "2024-01-01 02:00",
                             "2024-01-01 00:30"]),
        "e": pd.to_datetime(["2024-01-01 01:00", "2024-01-01 03:00",
                             "2024-01-01 00:45"]),
        "ivid": np.array([10, 11, 20], dtype=np.int64),
    })
    probe = pd.DataFrame({
        "k": [1, 1, 1, 1, 2, 2, 3],
        "t": pd.to_datetime([
            "2024-01-01 00:00",    # start boundary -> ivid 10
            "2024-01-01 01:00",    # end boundary -> ivid 10
            "2024-01-01 01:30",    # gap -> dropped
            "2024-01-01 02:30",    # -> ivid 11
            "2024-01-01 00:40",    # -> ivid 20
            "2024-01-01 00:50",    # after end -> dropped
            "2024-01-01 00:40",    # key absent in intervals -> dropped
        ]),
        "pid": np.arange(7, dtype=np.int64),
    })
    got = (interval_join(rd.from_pandas(probe).repartition(3),
                         rd.from_pandas(iv), by="k", ts_col="t",
                         start_col="s", end_col="e")
           .to_pandas().sort_values("pid").reset_index(drop=True))
    assert got["pid"].tolist() == [0, 1, 3, 4]
    assert got["ivid"].tolist() == [10, 10, 11, 20]
    assert got["ivid"].dtype == np.dtype("int64")


def test_asof_join_hot_key_skew(ray_session):
    """One key owns 80% of both sides (hot-user skew): the bucketed
    co-partition must still produce exactly the global merge_asof
    answer — the hot key lands whole in one bucket by design."""
    import ray.data as rd
    from pdf_parser_ray.relational import asof_join
    rng = np.random.RandomState(11)
    n = 4000
    keys = np.where(rng.rand(n) < 0.8, 7, rng.randint(0, 40, n))
    left = pd.DataFrame({
        "k": keys,
        "lt": pd.to_datetime("2024-01-01")
        + pd.to_timedelta(rng.randint(0, 10**7, n), unit="s"),
        "lv": np.arange(n, dtype=np.int64),
    })
    rkeys = np.where(rng.rand(n) < 0.8, 7, rng.randint(0, 40, n))
    right = pd.DataFrame({
        "k": rkeys,
        "rt": pd.to_datetime("2024-01-01")
        + pd.to_timedelta(rng.randint(0, 10**7, n), unit="s"),
        "rv": np.arange(n, dtype=np.int64),
    })
    got = (asof_join(rd.from_pandas(left).repartition(9),
                     rd.from_pandas(right).repartition(6),
                     by="k", left_ts="lt", right_ts="rt")
           .to_pandas().sort_values("lv").reset_index(drop=True))
    want = (pd.merge_asof(left.sort_values("lt"), right.sort_values("rt"),
                          left_on="lt", right_on="rt", by="k")
            .dropna(subset=["rt"]).sort_values("lv")
            .reset_index(drop=True).astype({"rv": "int64"}))
    pd.testing.assert_frame_equal(got[want.columns], want)


def test_asof_join_nulls_and_big_ids(ray_session):
    """SQL semantics for nulls (never match, never crash) and exact
    int64 payloads beyond float53 precision."""
    import ray.data as rd
    from pdf_parser_ray.relational import asof_join
    big = (1 << 53) + 7
    left = pd.DataFrame({
        "k": pd.array([1, 1, None, 2], dtype="Int64"),
        "lt": pd.to_datetime(["2024-01-02", None,
                              "2024-01-02", "2024-01-02"]),
        "lv": np.array([10, 11, 12, 13], dtype=np.int64),
    })
    right = pd.DataFrame({
        "k": pd.array([1, None, 2], dtype="Int64"),
        "rt": pd.to_datetime(["2024-01-01", "2024-01-01", None]),
        "rv": np.array([big, 5, 6], dtype=np.int64),
    })
    import pdf_parser_ray.relational as rel
    for budget in (rel._BROADCAST_JOIN_BYTES, 0):   # both strategies
        old = rel._BROADCAST_JOIN_BYTES
        try:
            rel._BROADCAST_JOIN_BYTES = budget
            out = (asof_join(rd.from_pandas(left), rd.from_pandas(right),
                             by="k", left_ts="lt", right_ts="rt")
                   .to_pandas().sort_values("lv").reset_index(drop=True))
        finally:
            rel._BROADCAST_JOIN_BYTES = old
        # only the (k=1, valid ts) pair matches; null keys/ts never do
        assert out["lv"].tolist() == [10]
        assert out["rv"].tolist() == [big]      # exact, not float-rounded
        assert out["rv"].dtype == np.dtype("int64")


def test_components_min_label_raises_on_non_convergence(ray_session):
    """The guard lives on the DISTRIBUTED path; a small edge list is
    adaptively union-found on the driver (one pass, always converges),
    so force distribution by zeroing the broadcast budget."""
    import ray.data as rd

    from pdf_parser_ray.stages import dedup
    from pdf_parser_ray.stages.dedup import components_min_label
    chain = pd.DataFrame({"id_a": np.arange(0, 6, dtype=np.int64),
                          "id_b": np.arange(1, 7, dtype=np.int64)})
    # pandas input takes the driver path and must converge regardless
    out = components_min_label(chain, max_iter=2)
    assert (out["rep"] == 0).all()
    old = dedup._BROADCAST_VERIFY_BYTES
    try:
        dedup._BROADCAST_VERIFY_BYTES = 0
        with pytest.raises(RuntimeError, match="did not converge"):
            components_min_label(rd.from_pandas(chain), max_iter=2)
    finally:
        dedup._BROADCAST_VERIFY_BYTES = old


def test_asof_join_vector_payload(ray_session):
    """Right-side payloads may be non-orderable objects (embeddings):
    they must ride through the gather untouched, never become a sort
    key."""
    import ray.data as rd
    from pdf_parser_ray.relational import asof_join
    left = pd.DataFrame({"k": [1, 1], "lt": pd.to_datetime(
        ["2024-01-02", "2024-01-03"]),
        "lv": np.array([0, 1], dtype=np.int64)})
    right = pd.DataFrame({"k": [1], "rt": pd.to_datetime(["2024-01-01"]),
                          "emb": [np.arange(4.0)]})
    out = (asof_join(rd.from_pandas(left), rd.from_pandas(right),
                     by="k", left_ts="lt", right_ts="rt")
           .to_pandas().sort_values("lv").reset_index(drop=True))
    assert len(out) == 2
    assert all(np.array_equal(np.asarray(e), np.arange(4.0))
               for e in out["emb"])


def test_asof_join_salted_hot_key(ray_session):
    """A single mega-key's history split across many time ranges still
    yields exactly the plain asof result (the salting use case)."""
    import ray.data as rd
    from pdf_parser_ray.relational import asof_join, asof_join_salted
    rng = np.random.RandomState(21)
    n = 5000
    left = pd.DataFrame({
        "k": np.zeros(n, dtype=np.int64),          # one hot key
        "lt": pd.to_datetime("2024-01-01")
        + pd.to_timedelta(rng.randint(0, 10**6, n), unit="s"),
        "lv": np.arange(n, dtype=np.int64)})
    right = (pd.DataFrame({
        "k": np.zeros(n, dtype=np.int64),
        "rt": pd.to_datetime("2024-01-01")
        + pd.to_timedelta(rng.randint(0, 10**6, n), unit="s"),
        "rv": np.arange(n, dtype=np.int64) * 3})
        .drop_duplicates(["k", "rt"]))
    plain = (asof_join(rd.from_pandas(left), rd.from_pandas(right),
                       by="k", left_ts="lt", right_ts="rt")
             .to_pandas().sort_values("lv").reset_index(drop=True))
    salted = (asof_join_salted(rd.from_pandas(left),
                               rd.from_pandas(right), by="k",
                               left_ts="lt", right_ts="rt",
                               salt_window="1d")
              .to_pandas().sort_values("lv").reset_index(drop=True))
    pd.testing.assert_frame_equal(salted[plain.columns], plain)


def test_hash_join_big_int_precision(ray_session):
    """Inner hash_join payload ints above 2^53 survive exactly (the
    per-side Arrow->pandas conversion must not float-coerce them)."""
    import ray.data as rd
    from pdf_parser_ray.relational import hash_join
    big = (1 << 53) + 11
    left = pd.DataFrame({"k": np.array([1, 2, 3], dtype=np.int64),
                         "lv": np.array([big, big + 2, 7],
                                        dtype=np.int64)})
    right = pd.DataFrame({"k": np.array([1, 2], dtype=np.int64),
                          "rv": np.array([big + 4, 9], dtype=np.int64)})
    out = (hash_join(rd.from_pandas(left), rd.from_pandas(right), on="k")
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert out["lv"].tolist() == [big, big + 2]
    assert out["rv"].tolist() == [big + 4, 9]
    assert out["lv"].dtype == np.dtype("int64")
    assert out["rv"].dtype == np.dtype("int64")


def test_broadcast_guards_trip_loudly(ray_session, monkeypatch):
    """Every ray.put of a driver-built object is behind a byte budget:
    over budget it must fail with the documented remediation, not OOM."""
    import ray.data as rd
    import pdf_parser_ray.relational as rel
    import numpy as np
    import pandas as pd
    monkeypatch.setattr(rel, "_BROADCAST_OBJ_BYTES", 1024)
    small = pd.DataFrame({"k": np.arange(1000, dtype=np.int64),
                          "v": np.arange(1000, dtype=np.int64)})
    ds = rd.from_pandas(pd.DataFrame({"k": np.arange(10, dtype=np.int64)}))
    with pytest.raises(ValueError, match="hash_join"):
        rel.broadcast_join(ds, small, on="k")
    with pytest.raises(ValueError, match="Bloom"):
        rel.semi_join(ds, range(1000), on="k")


def test_hash_join_right_outer_match_duckdb(ray_session):
    """right/full-outer hash_join vs DuckDB on frames with NULL keys
    on both sides: NULL (and NaN — DuckDB's pandas ingestion reads it
    as NULL) keys never match but are preserved by their side."""
    import duckdb
    import ray.data as rd
    from pdf_parser_ray.relational import hash_join
    rng = np.random.RandomState(42)
    lk = rng.randint(0, 12, size=60).astype(np.float64)
    lk[rng.rand(60) < 0.15] = np.nan
    rk = rng.randint(5, 18, size=40).astype(np.float64)
    rk[rng.rand(40) < 0.15] = np.nan
    left = pd.DataFrame({"k": lk, "lv": np.arange(60)})
    right = pd.DataFrame({"k": rk, "rv": np.arange(40) * 10})
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    for how, sql_kind in (("right", "RIGHT"), ("outer", "FULL OUTER")):
        got = (hash_join(rd.from_pandas(left).repartition(4),
                         rd.from_pandas(right).repartition(3),
                         on="k", how=how, n_buckets=8)
               .to_pandas())
        want = con.sql(
            f"SELECT COALESCE(l.k, r.k) AS k, lv, rv FROM l "
            f"{sql_kind} JOIN r ON l.k = r.k").df()
        key = ["k", "lv", "rv"]
        got = got[key].sort_values(key).reset_index(drop=True)
        want = want[key].sort_values(key).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_broadcast_join_null_keys_match_duckdb(ray_session):
    """broadcast_join vs DuckDB on frames with NULL keys on both
    sides: a NULL (or NaN) key never matches, not even another NULL
    (a plain pandas merge pairs NaN with NaN); under how='left' the
    probe side's NULL-key rows stay, unmatched."""
    import duckdb
    import ray.data as rd
    from pdf_parser_ray.relational import broadcast_join
    left = pd.DataFrame({"k": [1.0, np.nan, 2.0, np.nan, 3.0, 1.0],
                         "lv": np.arange(6)})
    right = pd.DataFrame({"k": [1.0, np.nan, 3.0, np.nan],
                          "rv": np.arange(4) * 10})
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    for how, sql_kind in (("inner", "INNER"), ("left", "LEFT")):
        got = broadcast_join(rd.from_pandas(left).repartition(3), right,
                             on="k", how=how).to_pandas()
        want = con.sql(f"SELECT l.k, lv, rv FROM l {sql_kind} JOIN r "
                       f"ON l.k = r.k").df()
        key = ["k", "lv", "rv"]
        got = got[key].sort_values(key).reset_index(drop=True)
        want = want[key].sort_values(key).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_quantile_exact_matches_numpy(ray_session):
    """quantile_exact == np.quantile(method='linear') bit-for-bit on a
    skewed multimodal column with NaNs, across edge and interior qs."""
    import ray.data as rd
    from pdf_parser_ray.relational import quantile_exact
    rng = np.random.RandomState(7)
    v = np.concatenate([rng.lognormal(0, 2, 20000),
                        np.full(5000, 3.25),          # heavy tie mass
                        rng.uniform(-100, 0, 5000)])
    vn = v.copy()
    vn[rng.rand(len(vn)) < 0.05] = np.nan
    ds = rd.from_pandas(pd.DataFrame({"x": vn})).repartition(16)
    clean = vn[~np.isnan(vn)]
    qs = [0.0, 0.25, 0.5, 0.75, 0.99, 1.0]
    got = quantile_exact(ds, "x", qs)
    want = [float(np.quantile(clean, q, method="linear")) for q in qs]
    assert got == want


def test_quantile_exact_narrowing_rounds(ray_session):
    """A band budget far below n forces the multi-round narrow path;
    the result must be identical to the one-round answer."""
    import ray.data as rd
    from pdf_parser_ray.relational import quantile_exact
    rng = np.random.RandomState(11)
    v = rng.standard_normal(50000)
    ds = rd.from_pandas(pd.DataFrame({"x": v})).repartition(8)
    got = quantile_exact(ds, "x", [0.5, 0.9], band_budget_rows=200,
                         max_rounds=12)
    want = [float(np.quantile(v, q, method="linear")) for q in (0.5, 0.9)]
    assert got == want


def test_quantile_exact_empty_and_tiny(ray_session):
    import ray.data as rd
    from pdf_parser_ray.relational import quantile_exact
    empty = rd.from_pandas(pd.DataFrame({"x": np.array([], dtype=np.float64)}))
    assert quantile_exact(empty, "x", [0.5]) == [None]
    one = rd.from_pandas(pd.DataFrame({"x": [42.0]}))
    assert quantile_exact(one, "x", [0.0, 0.5, 1.0]) == [42.0, 42.0, 42.0]


def test_ordered_global_rank_ties_and_partitioning(ray_session):
    """Global ROW_NUMBER matches a driver argsort exactly, on a column
    that is 80% one repeated value (ties must never straddle a range
    boundary) and regardless of input partitioning."""
    import ray.data as rd
    from pdf_parser_ray.relational import ordered_global_rank
    rng = np.random.RandomState(3)
    v = rng.rand(5000)
    v[rng.rand(5000) < 0.8] = 0.5          # massive tie block
    df = pd.DataFrame({"id": np.arange(5000, dtype=np.int64), "v": v})
    want = (df.sort_values(["v", "id"], kind="mergesort")
            .assign(rank=np.arange(5000, dtype=np.int64)))
    for parts in (3, 23):
        shuffled = df.sample(frac=1, random_state=parts)
        got = (ordered_global_rank(
            rd.from_pandas(shuffled).repartition(parts), ["v", "id"],
            n_ranges=8).to_pandas().sort_values("id")
            .reset_index(drop=True))
        pd.testing.assert_frame_equal(
            got[["id", "v", "rank"]].reset_index(drop=True),
            want.sort_values("id")[["id", "v", "rank"]]
            .reset_index(drop=True))


def test_grouped_global_rank_matches_window_sql(ray_session):
    """Per-partition ROW_NUMBER matches a driver groupby-argsort
    exactly, with heavy ties on the order column (ties never straddle
    a range boundary), skewed partition sizes, and regardless of
    physical input partitioning."""
    import ray.data as rd
    from pdf_parser_ray.relational import grouped_global_rank
    rng = np.random.RandomState(7)
    n = 6000
    lang = rng.choice(["en", "de", "fr"], n, p=[0.85, 0.10, 0.05])
    v = rng.rand(n)
    v[rng.rand(n) < 0.7] = 0.25            # massive tie block
    df = pd.DataFrame({"id": np.arange(n, dtype=np.int64),
                       "lang": lang, "v": v})
    want = df.sort_values(["lang", "v", "id"], kind="mergesort")
    want["rank"] = (want.groupby("lang", sort=False).cumcount()
                    .astype(np.int64))
    want = want.sort_values("id").reset_index(drop=True)
    for parts in (3, 17):
        shuffled = df.sample(frac=1, random_state=parts)
        got = (grouped_global_rank(
            rd.from_pandas(shuffled).repartition(parts), ["lang"],
            ["v", "id"], n_ranges=8).to_pandas().sort_values("id")
            .reset_index(drop=True))
        pd.testing.assert_frame_equal(
            got[["id", "lang", "v", "rank"]],
            want[["id", "lang", "v", "rank"]])


def test_quantile_exact_tie_run_beyond_budget(ray_session):
    """A tie run much larger than the band budget cannot be collected
    or shrunk — the shortcut must answer from the bracket itself, for
    ties in the interior AND at the global minimum."""
    import ray.data as rd
    from pdf_parser_ray.relational import quantile_exact
    rng = np.random.RandomState(13)
    interior = np.r_[rng.uniform(-10, -1, 1000),
                     np.full(20000, 2.5),
                     rng.uniform(7, 9, 1000)]
    at_min = np.r_[np.full(20000, -3.0), rng.uniform(0, 1, 2000)]
    for v in (interior, at_min):
        ds = rd.from_pandas(pd.DataFrame({"x": v})).repartition(8)
        got = quantile_exact(ds, "x", [0.25, 0.5],
                             band_budget_rows=500, max_rounds=6)
        want = [float(np.quantile(v, q, method="linear"))
                for q in (0.25, 0.5)]
        assert got == want


_SMALL_HOST_RUN = """
import sys
import ray
ray.init(address="local", num_cpus=int(sys.argv[1]),
         object_store_memory=256 << 20, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from tests.oracle_compare import assert_oracle_match
from tests.test_queries_oracle import SF_DIR
assert_oracle_match(SF_DIR, "docs_bigram_lift")
ray.shutdown()
"""


@pytest.mark.parametrize("cpus", [1, 2])
def test_chained_pools_finish_on_a_small_host(cpus):
    """docs_bigram_lift chains two hash_join actor pools; on a 1 or 2
    CPU host a whole-CPU actor per pool left no CPU for the tasks
    feeding them, and the plan never finished. It must now finish, in
    its own Ray session, and match its oracle."""
    import os
    import signal
    import subprocess
    import sys
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.Popen([sys.executable, "-c", _SMALL_HOST_RUN,
                             str(cpus)], cwd=root, start_new_session=True)
    try:
        assert proc.wait(timeout=120) == 0
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def test_pool_sizes_above_the_reserve():
    """At 4 or more CPUs a pool is (max(1, hi // 2), hi) with
    hi = CPUs - 2 and its actors keep Ray Data's one-CPU default; at
    1-2 CPUs a pool is one actor asking for (CPUs - 1) / 2."""
    from unittest import mock

    import pdf_parser_ray.relational as rel
    for cpus, size, actor_cpus in ((1, (1, 1), 0.0), (2, (1, 1), 0.5),
                                   (3, (1, 1), None), (4, (1, 2), None),
                                   (8, (3, 6), None), (32, (15, 30), None)):
        with mock.patch.object(rel, "ray_cpus", lambda default: cpus):
            assert rel.pool_size() == size, cpus
            assert rel.pool_actor_cpus() == actor_cpus, cpus
