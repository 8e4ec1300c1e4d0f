"""Partitioned exports (state/shards.py): the commit protocol every
writer shares — partitioning invariance, resume, adoption, the layout
guard and crash leftovers — then each layout's reads."""

import json
import os
import shutil

import numpy as np
import pandas as pd
import pytest


def _corpus(n=3000):
    rng = np.random.RandomState(4)
    return pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "text": [f"doc {i} " + "w" * int(rng.randint(5, 40))
                 for i in range(n)],
    })


def _ev(n=4000):
    rng = np.random.RandomState(9)
    ts = (np.datetime64("2024-03-01", "us")
          + rng.randint(0, 20 * 86400_000_000, n).astype("timedelta64[us]"))
    return pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "ts": pd.Series(ts),
        "value": rng.rand(n) * 100,
    })


def _zorder_frame(n=6000):
    rng = np.random.RandomState(11)
    return pd.DataFrame({
        "rid": np.arange(n, dtype=np.int64),
        "a": rng.randint(0, 1000, n).astype(np.int64),
        "b": np.round(rng.uniform(0, 100, n), 2),
    })


# writer -> (frame, directory prefix, arguments, one layout change per
# recorded identity field)
_WRITERS = {
    "write_training_shards": (
        lambda: _corpus(800), "shard",
        {"key_col": "doc_id", "n_shards": 6},
        [{"n_shards": 12}, {"key_col": "text"}]),
    "write_sorted_export": (
        lambda: _ev(1500), "range",
        {"sort_col": "ts", "tiebreak_cols": ["event_id"], "n_ranges": 6},
        [{"n_ranges": 4}, {"sort_col": "value"},
         {"tiebreak_cols": ["value"]}]),
    "write_zorder_export": (
        _zorder_frame, "range",
        {"cols": ["a", "b"], "tiebreak_cols": ["rid"], "n_ranges": 8},
        [{"n_ranges": 16}, {"cols": ["b", "a"]},
         {"tiebreak_cols": []}]),
    "write_bucketed_export": (
        _zorder_frame, "bucket",
        {"key": "a", "n_buckets": 8, "tiebreak_cols": ["rid"]},
        [{"n_buckets": 4}, {"key": "b"}, {"tiebreak_cols": ["b", "rid"]}]),
}


def _stamps(out):
    """(inode, mtime) of every committed part file, by directory."""
    return {d: (st.st_ino, st.st_mtime_ns)
            for d in os.listdir(out)
            if os.path.exists(os.path.join(out, d, "part.parquet"))
            for st in [os.stat(os.path.join(out, d, "part.parquet"))]}


def _read(path):
    with open(path, "rb") as f:
        return f.read()


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_export_commit_protocol(ray_session, tmp_path, writer):
    import pyarrow.dataset as pds
    import ray.data as rd
    from pdf_parser_ray.state import shards
    from pdf_parser_ray.state.checkpoint import completed_buckets
    frame, prefix, kwargs, layout_changes = _WRITERS[writer]
    df = frame()

    def write(out, parts, **change):
        return getattr(shards, writer)(
            rd.from_pandas(df).repartition(parts), out,
            **{**kwargs, **change})

    def rows_on_disk(out):
        return pds.dataset(out, format="parquet",
                           partitioning="hive").count_rows()

    # partitioning invariance: same manifest, same manifest bytes
    out, other = str(tmp_path / "a"), str(tmp_path / "b")
    m1 = write(out, 3)
    pd.testing.assert_frame_equal(m1, write(other, 17))
    assert m1["rows"].sum() == len(df)
    man_path = os.path.join(out, "_MANIFEST.json")
    man_bytes = _read(man_path)
    assert man_bytes == _read(os.path.join(other, "_MANIFEST.json"))
    ids = m1[prefix].tolist()
    assert len(ids) > 3
    part = {i: f"{prefix}={i:05d}" for i in ids}

    def rerun_unchanged(rewritten):
        before = _stamps(out)
        pd.testing.assert_frame_equal(write(out, 5), m1)
        assert _read(man_path) == man_bytes
        assert rows_on_disk(out) == len(df)
        after = _stamps(out)
        assert sorted(after) == sorted(part.values())
        assert {d for d in after if after[d] != before.get(d)} \
            == {part[i] for i in rewritten}

    # resume rewrites exactly the deleted partitions
    for i in (ids[1], ids[-2]):
        shutil.rmtree(os.path.join(out, part[i]))
    rerun_unchanged({ids[1], ids[-2]})

    # a committed partition that lost its _SUCCESS marker is adopted,
    # not rewritten and not a crash, and its marker is restored
    os.remove(os.path.join(out, part[ids[2]], "_SUCCESS"))
    rerun_unchanged(set())
    assert ids[2] in completed_buckets(out, prefix)

    # a writer that died after writing _SUCCESS into its tmp dir but
    # before the rename: the re-run ignores the tmp name, removes it and
    # commits the partition again
    os.rename(os.path.join(out, part[ids[0]]),
              os.path.join(out, part[ids[0]] + ".tmp-99999"))
    rerun_unchanged({ids[0]})

    # any change to the recorded layout is refused, naming both values
    layout_file = next(os.path.join(out, f) for f in os.listdir(out)
                       if f.endswith(".json") and f != "_MANIFEST.json")
    layout_bytes = _read(layout_file)
    for change in layout_changes:
        with pytest.raises(ValueError, match="resume mismatch") as err:
            write(out, 5, **change)
        (field, new), = change.items()
        assert repr(new) in str(err.value)
        assert repr(kwargs[field]) in str(err.value)
    assert _read(layout_file) == layout_bytes
    assert _read(man_path) == man_bytes


def test_shards_deterministic_across_partitioning(ray_session, tmp_path):
    import ray.data as rd
    from pdf_parser_ray.state.shards import write_training_shards
    df = _corpus()
    manifests = []
    for i, parts in enumerate((3, 17)):
        out = str(tmp_path / f"run{i}")
        m = write_training_shards(rd.from_pandas(df).repartition(parts),
                                  out, key_col="doc_id", n_shards=8)
        manifests.append(m)
        assert m["rows"].sum() == len(df)
    # identical shard membership, order and content regardless of
    # input partitioning
    pd.testing.assert_frame_equal(manifests[0], manifests[1])


def test_shards_resume_skips_committed(ray_session, tmp_path):
    import ray.data as rd
    import pyarrow.dataset as pds
    from pdf_parser_ray.state.shards import write_training_shards
    df = _corpus(800)
    out = str(tmp_path / "out")
    m1 = write_training_shards(rd.from_pandas(df), out,
                               key_col="doc_id", n_shards=6)
    # wipe two shards; resume must recreate exactly those
    for s in (1, 4):
        shutil.rmtree(os.path.join(out, f"shard={s:05d}"))
    m2 = write_training_shards(rd.from_pandas(df), out,
                               key_col="doc_id", n_shards=6)
    pd.testing.assert_frame_equal(m1, m2)
    total = pds.dataset(out, format="parquet",
                        partitioning="hive").to_table()
    assert total.num_rows == len(df)
    with pytest.raises(ValueError, match="resume mismatch"):
        write_training_shards(rd.from_pandas(df), out,
                              key_col="doc_id", n_shards=12)


def test_shards_resume_survives_missing_success_marker(ray_session,
                                                       tmp_path):
    """Crash-window regression: a shard directory that exists but lost
    its _SUCCESS marker (or predates the rename-is-commit protocol)
    must be adopted on resume — not crash the re-run with ENOTEMPTY."""
    import ray.data as rd
    from pdf_parser_ray.state.shards import write_training_shards
    df = _corpus(600)
    out = str(tmp_path / "out")
    m1 = write_training_shards(rd.from_pandas(df), out,
                               key_col="doc_id", n_shards=4)
    os.remove(os.path.join(out, "shard=00002", "_SUCCESS"))
    m2 = write_training_shards(rd.from_pandas(df), out,
                               key_col="doc_id", n_shards=4)
    pd.testing.assert_frame_equal(m1, m2)


def test_shards_resume_refuses_other_key_col(ray_session, tmp_path):
    """A resume that re-keys the shards would mix two hash layouts in
    one directory (and double-write rows of the deleted shard): the
    recorded key column is part of the layout check."""
    import ray.data as rd
    from pdf_parser_ray.state.shards import write_training_shards
    df = _corpus(600)
    df["other"] = df["doc_id"][::-1].to_numpy()
    out = str(tmp_path / "out")
    m1 = write_training_shards(rd.from_pandas(df), out,
                               key_col="doc_id", n_shards=4)
    shutil.rmtree(os.path.join(out, "shard=00001"))
    with pytest.raises(ValueError, match="resume mismatch"):
        write_training_shards(rd.from_pandas(df), out, key_col="other",
                              n_shards=4)
    with open(os.path.join(out, "_SHARDS.json")) as f:
        assert json.load(f)["key_col"] == "doc_id"
    m2 = write_training_shards(rd.from_pandas(df), out,
                               key_col="doc_id", n_shards=4)
    pd.testing.assert_frame_equal(m1, m2)


def test_shards_multi_row_group_streaming(ray_session, tmp_path):
    """A shard larger than the row-group slice is written in multiple
    row groups with an identical manifest (the content hash covers the
    parquet bytes, which the deterministic sort fixes)."""
    import pyarrow.parquet as pq
    import ray.data as rd
    from pdf_parser_ray.state.checkpoint import _ROW_GROUP
    from pdf_parser_ray.state.shards import write_training_shards
    df = pd.DataFrame({"doc_id": np.arange(70_000, dtype=np.int64)})
    assert len(df) > _ROW_GROUP
    out1 = str(tmp_path / "a")
    m1 = write_training_shards(rd.from_pandas(df).repartition(5), out1,
                               key_col="doc_id", n_shards=1)
    pf = pq.ParquetFile(os.path.join(out1, "shard=00000",
                                     "part.parquet"))
    assert pf.num_row_groups > 1
    out2 = str(tmp_path / "b")
    m2 = write_training_shards(rd.from_pandas(df).repartition(11), out2,
                               key_col="doc_id", n_shards=1)
    pd.testing.assert_frame_equal(m1, m2)
    assert m1["rows"].sum() == len(df)


def _no_nan(path):
    def refuse(const):
        raise AssertionError(f"{const} in {path}")
    with open(path) as f:
        return json.load(f, parse_constant=refuse)


def test_null_sort_keys_never_bound_a_range(ray_session, tmp_path):
    """NaT/NaN keys: a NaT reads as int64 min and pandas sorts NULLs
    last, so neither end row of a range is its bound. Manifest bounds
    cover non-NULL keys only, NULL rows sort last, a bounded read
    returns exactly the SQL rows (a NULL matches no bound), and a range
    of only NULL keys is never opened under a bound."""
    import pyarrow.parquet as pq
    import ray.data as rd
    from pdf_parser_ray.state.shards import (read_sorted_range,
                                             read_zorder_range,
                                             write_sorted_export,
                                             write_zorder_export)
    n = 400
    ts = pd.Series(pd.date_range("2024-03-01", periods=n, freq="h"))
    ts.iloc[[7, 300]] = pd.NaT
    value = np.arange(n, dtype=np.float64)
    value[[3, 150, 399]] = np.nan
    df = pd.DataFrame({"event_id": np.arange(n, dtype=np.int64),
                       "ts": ts, "value": value})

    def sql(col, lo, hi):
        m = np.ones(n, dtype=bool)
        if lo is not None:
            m &= df[col] >= (pd.Timestamp(lo) if col == "ts" else lo)
        if hi is not None:
            m &= df[col] <= (pd.Timestamp(hi) if col == "ts" else hi)
        return df[m].sort_values("event_id").reset_index(drop=True)

    def got(ds):
        return (ds.to_pandas()[df.columns.tolist()]
                .sort_values("event_id").reset_index(drop=True))

    windows = {"ts": [("2024-03-01 05:00", "2024-03-02"),
                      (None, "2024-03-02"), ("2024-03-15", None)],
               "value": [(20.0, None), (None, 50.0), (390.0, 500.0)]}
    for col, wins in windows.items():
        out = str(tmp_path / f"sorted_{col}")
        write_sorted_export(rd.from_pandas(df).repartition(3), out,
                            sort_col=col, tiebreak_cols=["event_id"],
                            n_ranges=4)
        man = _no_nan(os.path.join(out, "_MANIFEST.json"))
        assert all(r["vmin"] <= r["vmax"] for r in man["ranges"])
        whole = pd.concat(
            [pq.read_table(os.path.join(out, f"range={r['range']:05d}",
                                        "part.parquet")).to_pandas()
             for r in man["ranges"]], ignore_index=True)
        pd.testing.assert_frame_equal(
            whole, df.sort_values([col, "event_id"], kind="mergesort")
            .reset_index(drop=True))
        for lo, hi in wins:
            ds, n_files = read_sorted_range(out, lo, hi)
            pd.testing.assert_frame_equal(got(ds), sql(col, lo, hi))
    ds, _ = read_sorted_range(str(tmp_path / "sorted_ts"),
                              "2024-03-01 05:00", "2024-03-02")
    assert len(got(ds)) == 19

    out = str(tmp_path / "zorder")
    write_zorder_export(rd.from_pandas(df), out, cols=["ts", "value"],
                        tiebreak_cols=["event_id"], n_ranges=4)
    _no_nan(os.path.join(out, "_MANIFEST.json"))
    for col, wins in windows.items():
        for lo, hi in wins:
            ds, _ = read_zorder_range(out, {col: (lo, hi)})
            pd.testing.assert_frame_equal(got(ds), sql(col, lo, hi))

    # every key NULL: one range with no bounds, opened only unbounded
    out = str(tmp_path / "all_null")
    write_sorted_export(rd.from_pandas(df.assign(ts=pd.NaT)), out,
                        sort_col="ts", tiebreak_cols=["event_id"],
                        n_ranges=4)
    (r,) = _no_nan(os.path.join(out, "_MANIFEST.json"))["ranges"]
    assert (r["rows"], r["vmin"], r["vmax"]) == (n, None, None)
    assert read_sorted_range(out, "2024-03-01", None) == (None, 0)
    ds, n_files = read_sorted_range(out)
    assert (ds.count(), n_files) == (n, 1)


# ----------------------------------------------------------- sorted export

def test_sorted_export_global_order_and_pruning(ray_session, tmp_path):
    import ray.data as rd
    from pdf_parser_ray.state.shards import (read_sorted_range,
                                             write_sorted_export)
    df = _ev()
    out = str(tmp_path / "sorted")
    man = write_sorted_export(rd.from_pandas(df).repartition(7), out,
                              sort_col="ts", tiebreak_cols=["event_id"],
                              n_ranges=8)
    assert man["rows"].sum() == len(df)
    # concatenating range files in range order = one global sort
    import pyarrow.parquet as pq
    parts = []
    for rng_id in man["range"]:
        parts.append(pq.read_table(
            os.path.join(out, f"range={rng_id:05d}", "part.parquet"))
            .to_pandas())
    whole = pd.concat(parts, ignore_index=True)
    expect = df.sort_values(["ts", "event_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(whole, expect[whole.columns.tolist()])
    # pruned read: a 3-day window opens fewer than all files and
    # returns exactly the SQL-BETWEEN rows
    ds, n_files = read_sorted_range(out, "2024-03-05", "2024-03-08")
    assert 0 < n_files < len(man)
    got = (ds.to_pandas().sort_values(["ts", "event_id"])
           .reset_index(drop=True))
    lo, hi = pd.Timestamp("2024-03-05"), pd.Timestamp("2024-03-08")
    want = (expect[(expect["ts"] >= lo) & (expect["ts"] <= hi)]
            .reset_index(drop=True))
    pd.testing.assert_frame_equal(got[want.columns.tolist()], want)


def test_sorted_export_pruned_column_read(ray_session, tmp_path):
    """columns= on a bounded read auto-includes the sort key for the
    trim filter; requested columns come back (plus the key)."""
    import ray.data as rd
    from pdf_parser_ray.state.shards import (read_sorted_range,
                                             write_sorted_export)
    df = _ev(1200)
    out = str(tmp_path / "cols")
    write_sorted_export(rd.from_pandas(df), out, sort_col="ts",
                        tiebreak_cols=["event_id"], n_ranges=5)
    ds, n = read_sorted_range(out, "2024-03-04", "2024-03-06",
                              columns=["value"])
    assert n >= 1
    got = ds.to_pandas()
    assert set(got.columns) == {"ts", "value"}
    lo, hi = pd.Timestamp("2024-03-04"), pd.Timestamp("2024-03-06")
    assert ((got["ts"] >= lo) & (got["ts"] <= hi)).all()
    want = df[(df["ts"] >= lo) & (df["ts"] <= hi)]
    assert len(got) == len(want)


def test_checkpoint_salted_write_equal_and_balanced(ray_session,
                                                    tmp_path):
    """Mega-conversation skew: the salted checkpointed write must (a)
    produce the exact same row set as the unsalted write and (b) bound
    the largest bucket near salt_turns instead of the mega-conv size."""
    import ray.data as rd
    import pyarrow.dataset as pds
    from pdf_parser_ray.state.checkpoint import checkpointed_write
    n_mega, n_small = 5000, 500
    df = pd.concat([
        pd.DataFrame({"conv_id": "mega", "turn_idx": np.arange(n_mega),
                      "payload": np.arange(n_mega) * 3}),
        pd.DataFrame({"conv_id": [f"c{i}" for i in range(n_small)],
                      "turn_idx": 0,
                      "payload": np.arange(n_small)}),
    ], ignore_index=True)
    outs = {}
    for salt in (0, 256):
        out = str(tmp_path / f"salt{salt}")
        m = checkpointed_write(rd.from_pandas(df).repartition(6), out,
                               key="conv_id", n_buckets=8,
                               salt_turns=salt)
        back = (pds.dataset(out, format="parquet", partitioning="hive",
                            exclude_invalid_files=True)
                .to_table().to_pandas()
                .sort_values(["conv_id", "turn_idx"])
                .reset_index(drop=True))
        outs[salt] = back[["conv_id", "turn_idx", "payload"]]
        if salt == 0:
            assert m["rows"].max() >= n_mega      # one straggler bucket
        else:
            assert m["rows"].max() < n_mega / 4   # spread out
    pd.testing.assert_frame_equal(outs[0], outs[256])


# ----------------------------------------------------------- z-order export

def test_zorder_prunes_both_columns_and_is_exact(ray_session, tmp_path):
    import ray.data as rd
    from pdf_parser_ray.state.shards import (read_zorder_range,
                                             write_zorder_export)
    df = _zorder_frame()
    out = str(tmp_path / "z")
    man = write_zorder_export(rd.from_pandas(df), out, cols=["a", "b"],
                              tiebreak_cols=["rid"], n_ranges=16)
    assert int(man["rows"].sum()) == len(df)
    for preds in ({"a": (0, 99)}, {"b": (0.0, 9.0)},
                  {"a": (0, 99), "b": (0.0, 9.0)}):
        got, nf = read_zorder_range(out, preds)
        got = (got.to_pandas() if got is not None
               else df.iloc[0:0])
        mask = np.ones(len(df), bool)
        for c, (lo, hi) in preds.items():
            mask &= (df[c] >= lo) & (df[c] <= hi)
        want = df[mask]
        # a ~10% slice of one dimension must prune files (z-order
        # clusters BOTH dims; a single-column sort would prune only one)
        assert nf < 16, preds
        got = got.sort_values("rid").reset_index(drop=True)
        want = want.sort_values("rid").reset_index(drop=True)
        pd.testing.assert_frame_equal(got[sorted(got.columns)],
                                      want[sorted(want.columns)])


def test_zorder_rejects_unclustered_predicate(ray_session, tmp_path):
    import ray.data as rd
    from pdf_parser_ray.state.shards import (read_zorder_range,
                                             write_zorder_export)
    out = str(tmp_path / "zc")
    write_zorder_export(rd.from_pandas(_zorder_frame(500)), out,
                        cols=["a", "b"], tiebreak_cols=["rid"],
                        n_ranges=4)
    with pytest.raises(ValueError, match="non-clustered"):
        read_zorder_range(out, {"rid": (0, 10)})


def test_zorder_datetime_column(ray_session, tmp_path):
    """Z-order clustering with a datetime dimension: kind detection,
    manifest bounds, and predicate conversion all run the datetime
    path."""
    import ray.data as rd
    from pdf_parser_ray.state.shards import (read_zorder_range,
                                             write_zorder_export)
    rng = np.random.RandomState(5)
    n = 3000
    df = pd.DataFrame({
        "rid": np.arange(n, dtype=np.int64),
        "ts": pd.Timestamp("2024-03-01")
        + pd.to_timedelta(rng.randint(0, 60 * 24 * 30, n), unit="m"),
        "v": rng.uniform(0, 100, n).round(2),
    })
    out = str(tmp_path / "zdt")
    man = write_zorder_export(rd.from_pandas(df), out, cols=["ts", "v"],
                              tiebreak_cols=["rid"], n_ranges=8)
    assert int(man["rows"].sum()) == n
    got, nf = read_zorder_range(
        out, {"ts": ("2024-03-02", "2024-03-04")})
    got = got.to_pandas()
    lo, hi = pd.Timestamp("2024-03-02"), pd.Timestamp("2024-03-04")
    want = df[(df["ts"] >= lo) & (df["ts"] <= hi)]
    assert nf < 8
    pd.testing.assert_frame_equal(
        got.sort_values("rid").reset_index(drop=True)[sorted(got.columns)],
        want.sort_values("rid").reset_index(drop=True)[sorted(want.columns)])


def test_zorder_pruned_read_property(ray_session, tmp_path):
    """Property-style sweep: random frames and random rectangle
    predicates — the pruned read must equal the plain pandas filter
    exactly for every draw (files opened <= total is an invariant,
    strict pruning is asserted only for selective predicates)."""
    import ray.data as rd
    from pdf_parser_ray.state.shards import (read_zorder_range,
                                             write_zorder_export)
    rng = np.random.RandomState(23)
    for case in range(4):
        n = int(rng.randint(500, 4000))
        df = pd.DataFrame({
            "rid": np.arange(n, dtype=np.int64),
            "a": rng.randint(-1000, 1000, n).astype(np.int64),
            "b": np.round(rng.lognormal(2, 1.5, n), 3),
        })
        out = str(tmp_path / f"zp{case}")
        write_zorder_export(rd.from_pandas(df).repartition(3), out,
                            cols=["a", "b"], tiebreak_cols=["rid"],
                            n_ranges=16)
        for _ in range(3):
            lo_a, hi_a = sorted(rng.randint(-1000, 1000, 2).tolist())
            hi_b = float(rng.lognormal(2, 1.5))
            preds = {"a": (lo_a, hi_a), "b": (None, hi_b)}
            got, nf = read_zorder_range(out, preds)
            got = (got.to_pandas() if got is not None
                   else df.iloc[0:0])
            mask = ((df["a"] >= lo_a) & (df["a"] <= hi_a)
                    & (df["b"] <= hi_b))
            want = df[mask]
            assert nf <= 16
            got = got.sort_values("rid").reset_index(drop=True)
            want = want.sort_values("rid").reset_index(drop=True)
            pd.testing.assert_frame_equal(
                got[sorted(got.columns)], want[sorted(want.columns)],
                check_dtype=False)


def test_bucketed_export_join_semantics(ray_session, tmp_path):
    """Storage-partitioned join: inner/left parity with pandas merge
    on constructed frames (keys missing from either side, NULL keys
    never matching), layout-mismatch refusal, and resume rewriting
    only the deleted bucket."""
    import json

    import pytest
    import ray.data as rd

    from pdf_parser_ray.state.shards import (read_bucketed_join,
                                             write_bucketed_export)

    left = pd.DataFrame({
        "k": pd.array([1, 2, 2, 3, None, 9], dtype="Int64"),
        "lv": [10, 20, 21, 30, 40, 90]})
    right = pd.DataFrame({
        "rk": pd.array([2, 3, 3, 7, None], dtype="Int64"),
        "rv": ["b", "c", "d", "x", "n"]})
    da, db = str(tmp_path / "L"), str(tmp_path / "R")
    ma = write_bucketed_export(rd.from_pandas(left), da, key="k",
                               n_buckets=8, tiebreak_cols=["lv"])
    mb = write_bucketed_export(rd.from_pandas(right), db, key="rk",
                               n_buckets=8, tiebreak_cols=["rv"])
    assert int(ma["rows"].sum()) == 6 and int(mb["rows"].sum()) == 5

    inner = (read_bucketed_join(da, db, how="inner").to_pandas()
             .sort_values(["k", "lv", "rv"]).reset_index(drop=True))
    want = (left.dropna(subset=["k"])
            .merge(right.dropna(subset=["rk"]).rename(columns={"rk": "k"}),
                   on="k", how="inner")
            .sort_values(["k", "lv", "rv"]).reset_index(drop=True))
    assert list(inner["lv"]) == list(want["lv"])
    assert list(inner["rv"]) == list(want["rv"])

    lj = (read_bucketed_join(da, db, how="left").to_pandas()
          .sort_values(["lv"]).reset_index(drop=True))
    # every left row survives (6), unmatched (incl. the null key) with
    # missing right values
    assert len(lj) == 7                     # k=2 x1 right + k=3 x2
    assert lj.loc[lj["lv"] == 90, "rv"].isna().all()
    assert lj.loc[lj["lv"] == 40, "rv"].isna().all()

    # layout mismatch refused
    dc = str(tmp_path / "C")
    write_bucketed_export(rd.from_pandas(right), dc, key="rk",
                          n_buckets=4, tiebreak_cols=["rv"])
    with pytest.raises(ValueError, match="layout mismatch"):
        read_bucketed_join(da, dc)
    with pytest.raises(ValueError, match="resume mismatch"):
        write_bucketed_export(rd.from_pandas(left), da, key="lv",
                              n_buckets=8)

    # resume: drop one committed bucket -> only it is rewritten,
    # content hashes identical
    import shutil
    victim = f"bucket={int(ma['bucket'].iloc[0]):05d}"
    shutil.rmtree(f"{da}/{victim}")
    ma2 = write_bucketed_export(rd.from_pandas(left), da, key="k",
                                n_buckets=8, tiebreak_cols=["lv"])
    assert list(ma2["content_hash"]) == list(ma["content_hash"])
    man = json.load(open(f"{da}/_MANIFEST.json"))
    assert man["n_buckets"] == 8 and man["key"] == "k"
