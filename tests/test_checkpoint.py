"""The checkpoint writer (state/checkpoint.py): golden bucket ids, and
both sides of the map-side write run in this process: the lineage the
caller seals from the part records, and the part-file schema."""

import glob
import json
import os
import random

import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pds
import pyarrow.parquet as pq
import pytest

from pdf_parser_ray.relational import stable_bucket_series
from pdf_parser_ray.stages.extract import extract_batch
from pdf_parser_ray.state.checkpoint import (_LINEAGE_COLUMNS,
                                             _seal_buckets, _stage_parts,
                                             add_bucket_column)

_STR_KEYS = ["conv-00000000", "conv-00000001", "", "é中🚀", "a b",
             "conv-00000000"]
_INT_KEYS = [0, 1, -5, 2**40, 12345, 7]
_TURNS = [0, 17, 33, 120, 5, 16]


def test_golden_bucket_ids():
    """Bucket membership is persisted by every checkpoint: a pandas
    upgrade that moves these ids would re-bucket a resume, so it must
    fail here first."""
    want = {
        (pa.string(), 0): [1, 15, 6, 10, 1, 1],
        (pa.string(), 16): [11, 6, 1, 9, 5, 3],
        (pa.int64(), 0): [0, 5, 14, 8, 1, 4],
        (pa.int64(), 16): [12, 2, 2, 4, 1, 12],
    }
    for (typ, salt), ids in want.items():
        keys = _STR_KEYS if typ == pa.string() else _INT_KEYS
        t = pa.table({"k": pa.array(keys, typ),
                      "turn_idx": pa.array(_TURNS, pa.int32())})
        got = add_bucket_column(t, key="k", n_buckets=16, salt_turns=salt)
        assert got.column("bucket").type == pa.int32()
        assert got.column("bucket").to_pylist() == ids, (typ, salt)
    assert stable_bucket_series(pd.Series(_STR_KEYS), 1000).tolist() == \
        [273, 479, 774, 674, 561, 273]
    assert stable_bucket_series(pd.Series(_INT_KEYS, dtype="int64"),
                                1000).tolist() == \
        [0, 789, 62, 568, 873, 604]
    assert stable_bucket_series(pd.DataFrame({"a": _STR_KEYS,
                                              "b": _INT_KEYS}),
                                1000).tolist() == \
        [16, 411, 143, 909, 129, 916]


def _extracted(rows):
    """Extracted rows of (conv_id, turn_idx, text, tool), as one read
    block reaches the map side of the write."""
    conv, turn, text, tool = zip(*rows)
    return extract_batch(pa.table({
        "conv_id": pa.array(conv, pa.string()),
        "turn_idx": pa.array(turn, pa.int64()),
        "text": pa.array(text, pa.string()),
        "tool": pa.array(tool, pa.string())}))


def _stage(block, out, run_id="run", n_buckets=1, done=(), salt_turns=0):
    """The part records one task returns for ``block``."""
    ret = _stage_parts(block, out_dir=out, key="conv_id",
                       n_buckets=n_buckets, salt_turns=salt_turns,
                       done=list(done), run_id=run_id)
    assert ret.column_names == ["part"]
    return [json.loads(r) for r in ret.column("part").to_pylist()]


def _write(blocks, out, n_buckets=1, salt_turns=0):
    """Both sides of the checkpointed write, in this process: stage
    every block, then seal; returns the lineage of each bucket."""
    records = [r for b in blocks for r in _stage(
        b, out, n_buckets=n_buckets, salt_turns=salt_turns)]
    return _seal_buckets(out, "run", records)


def _parts(out, bucket=0):
    bdir = os.path.join(out, f"bucket={bucket:05d}")
    with open(os.path.join(bdir, "_lineage.json")) as f:
        names = json.load(f)["parts"]
    assert sorted(os.listdir(bdir)) == sorted(
        ["_SUCCESS", "_lineage.json", *names])
    return [pq.read_table(os.path.join(bdir, n)) for n in names]


_ROWS = [
    ("zé", 1, "#CORRUPT", "vision"),
    ("a", 2, "héllo wörld 中文 🚀", ""),
    ("zé", 0, None, "pdf_layout"),
    ("Z", 0, "x\n  y  ", ""),
    ("a", 2, "same key, second", "unknown_tool"),
    ("é", 5, "#PAGE 612,792\n40,150,280,162|11|Times|gauche\n"
             "330,150,570,162|11|Times|droite", "pdf_layout"),
    ("a", 1, "first", ""),
    ("a", 2, "also the same key, third", ""),
]


def _pandas_buckets(block: pa.Table, n_buckets: int, salt_turns: int = 0):
    """Bucket id -> the rows and lineage of that bucket as the pandas
    writer the Arrow writers replaced had them: mergesort on (conv_id,
    turn_idx), pandas string ops."""
    df = add_bucket_column(block, key="conv_id", n_buckets=n_buckets,
                           salt_turns=salt_turns).to_pandas()
    out = {}
    for b, g in df.groupby("bucket"):
        g = (g.drop(columns="bucket")
             .sort_values(["conv_id", "turn_idx"], kind="mergesort")
             .reset_index(drop=True))
        out[b] = g, {
            "bucket": b,
            "rows": len(g),
            "error_rows": int(g["metadata_json"].str.contains(
                '"error":', regex=False).sum()),
            "conversations": int(g["conv_id"].nunique()),
            "conv_id_min": str(g["conv_id"].dropna().min()),
            "conv_id_max": str(g["conv_id"].dropna().max()),
            "chars_extracted": int(g["extracted_text"].str.len().sum()),
        }
    return out


def _pandas_lineage(block: pa.Table):
    """The rows and lineage of ``block`` as one bucket."""
    return _pandas_buckets(block, 1)[0]


def test_arrow_writer_lineage_and_order_equal_pandas(tmp_path):
    block = _extracted(_ROWS)
    out = str(tmp_path)
    [meta] = _write([block], out)
    assert tuple(meta) == (*_LINEAGE_COLUMNS, "parts")
    g, want = _pandas_lineage(block)
    assert {k: meta[k] for k in want} == want
    # null text and #CORRUPT are the error rows; "é" sorts after "zé"
    # (code points); characters, not UTF-8 bytes
    assert meta["error_rows"] == 2
    assert (meta["conv_id_min"], meta["conv_id_max"]) == ("Z", "é")
    text = g["extracted_text"]
    assert meta["chars_extracted"] < sum(len(t.encode()) for t in text)
    with open(os.path.join(out, "bucket=00000", "_lineage.json")) as f:
        assert json.load(f) == meta
    # duplicate keys keep their input order, as the stable mergesort did
    [back] = _parts(out)
    pd.testing.assert_frame_equal(back.to_pandas(), g)
    assert back.column("extracted_text").to_pylist()[2:5] == [
        "héllo wörld 中文 🚀", "same key, second",
        "also the same key, third"]
    # the same rows split over blocks: the same lineage but the hash
    halves = _write([block.slice(0, 4), block.slice(4)], str(tmp_path / "h"))
    assert [{k: m[k] for k in want} for m in halves] == [want]
    assert halves[0]["content_hash"] != meta["content_hash"]
    assert len(halves[0]["parts"]) == 2


def test_arrow_writer_lineage_guards(tmp_path):
    """Columns the lineage reads are optional, as before."""
    block = pa.table({"conv_id": pa.array(["b", "a", None], pa.string()),
                      "turn_idx": pa.array([0, 1, 2], pa.int32())})
    [meta] = _write([block], str(tmp_path))
    assert {k: meta[k] for k in _LINEAGE_COLUMNS[:7]} == {
        "bucket": 0, "rows": 3, "error_rows": 0, "conversations": 2,
        "conv_id_min": "a", "conv_id_max": "b", "chars_extracted": None}
    # an all-NULL key range reads as pandas' empty min did
    nulls = pa.table({"conv_id": pa.nulls(2, pa.string()),
                      "turn_idx": pa.array([0, 1], pa.int32())})
    [meta] = _write([nulls, nulls], str(tmp_path / "n"))
    assert (meta["rows"], meta["conversations"], meta["conv_id_min"],
            meta["conv_id_max"]) == (4, 0, "nan", "nan")


#: rows whose conv_id is null, among the non-null keys of ``_ROWS``
_NULL_KEY_ROWS = [
    (None, 3, "no key", ""),
    (None, 1, "#CORRUPT", "vision"),
    (None, 1, "no key, same turn", "html"),
]


@pytest.mark.parametrize("n_buckets,salt_turns", [(1, 0), (16, 0), (16, 1)])
def test_lineage_from_runs_equals_pandas(tmp_path, n_buckets, salt_turns):
    """The lineage read off the sorted block's runs equals pandas' per
    bucket: null keys mixed with non-null ones (nulls sort last and
    count as no conversation), a conv_id salted over adjacent buckets,
    an all-null block, and a block whose rows all belong to committed
    buckets."""
    block = _extracted(_ROWS + _NULL_KEY_ROWS)
    out = str(tmp_path / "mixed")
    metas = _write([block], out, n_buckets, salt_turns)
    want = _pandas_buckets(block, n_buckets, salt_turns)
    assert [m["bucket"] for m in metas] == sorted(want)
    assert n_buckets == 1 or len(metas) > 2
    for meta in metas:
        g, lineage = want[meta["bucket"]]
        assert {k: meta[k] for k in lineage} == lineage
        [back] = _parts(out, meta["bucket"])
        pd.testing.assert_frame_equal(back.to_pandas(), g)

    nulls = _extracted(_NULL_KEY_ROWS)
    out = str(tmp_path / "nulls")
    [meta] = _write([nulls], out, n_buckets)
    [(g, lineage)] = _pandas_buckets(nulls, n_buckets).values()
    assert {k: meta[k] for k in lineage} == lineage
    assert (meta["conversations"], meta["conv_id_min"],
            meta["conv_id_max"]) == (0, "nan", "nan")
    pd.testing.assert_frame_equal(_parts(out, meta["bucket"])[0]
                                  .to_pandas(), g)

    # one conv_id salted over adjacent runs: each run counts it once
    spread = _write([_keys(["a"] * 6)], str(tmp_path / "spread"),
                    n_buckets, salt_turns)
    assert [m["conversations"] for m in spread] == [1] * len(spread)
    assert len(spread) > 1 or not salt_turns

    assert _stage(block, str(tmp_path / "done"), n_buckets=n_buckets,
                  done=sorted(want), salt_turns=salt_turns) == []


def _meta_columns(path):
    """Column name -> its row group's chunk metadata, for every column
    of the one row group in the part at ``path``."""
    md = pq.ParquetFile(path).metadata
    assert md.num_row_groups == 1
    rg = md.row_group(0)
    return {rg.column(i).path_in_schema: rg.column(i)
            for i in range(rg.num_columns)}


def test_part_encodings(tmp_path):
    """Parts carry min / max statistics on the sort keys only and a
    dictionary on conv_id and tool only; their rows read back as
    staged, and a part encoded as the previous writer encoded it
    (every column with a dictionary and statistics) reads with the new
    parts as one table of one schema."""
    block = _extracted(_ROWS)
    out = str(tmp_path)
    metas = _write([block.slice(0, 5), block.slice(5)], out, n_buckets=1)
    names = metas[0]["parts"]
    bdir = os.path.join(out, "bucket=00000")
    for name in names:
        cols = _meta_columns(os.path.join(bdir, name))
        assert set(cols) == set(_PART_SCHEMA.names)
        assert {c for c, m in cols.items() if m.is_stats_set} == {
            "conv_id", "turn_idx"}
        assert {c for c, m in cols.items() if m.has_dictionary_page} == {
            "conv_id", "tool"}
    staged = [_pandas_lineage(b)[0] for b in (block.slice(0, 5),
                                              block.slice(5))]
    back = sorted((t.to_pandas() for t in _parts(out)), key=len)
    for got, want in zip(back, sorted(staged, key=len)):
        pd.testing.assert_frame_equal(got, want)

    older = os.path.join(bdir, "part-older.parquet")
    pq.write_table(pa.Table.from_pandas(staged[0], preserve_index=False),
                   older)
    assert all(m.is_stats_set and m.has_dictionary_page
               for m in _meta_columns(older).values())
    both = pds.dataset(bdir, format="parquet").to_table()
    assert both.schema.remove_metadata() == _PART_SCHEMA
    assert both.num_rows == len(_ROWS) + len(staged[0])


def test_parts_durable_before_return_one_open_at_a_time(tmp_path,
                                                        monkeypatch):
    """Every part is written and closed, then fsynced, before the task
    returns its records; at most one part file is open at any time
    (``n_buckets`` may exceed the descriptor limit)."""
    from pdf_parser_ray.state import checkpoint

    events, live = [], []

    class Tracked:
        def __init__(self, path, *args, **kwargs):
            self.path, self.f = path, open(path, *args, **kwargs)
            live.append(path)
            assert len(live) == 1, live
            events.append(("open", path))

        def __enter__(self):
            return self.f

        def __exit__(self, *exc):
            self.f.close()
            live.remove(self.path)
            events.append(("close", self.path))

    real_fsync = checkpoint.fsync_path

    def fsync_path(path):
        events.append(("fsync", path))
        real_fsync(path)

    monkeypatch.setattr(checkpoint, "open", Tracked, raising=False)
    monkeypatch.setattr(checkpoint, "fsync_path", fsync_path)
    records = _stage(_extracted(_ROWS), str(tmp_path), n_buckets=16)
    monkeypatch.undo()
    assert len(records) > 2 and not live
    paths = [glob.glob(os.path.join(str(tmp_path), "bucket=*",
                                    r["part"]))[0] for r in records]
    assert sorted(p for e, p in events if e == "fsync") == sorted(paths)
    # one pass: every part closed before the first fsync
    kinds = [e for e, _ in events]
    first = kinds.index("fsync")
    assert kinds[:first] == ["open", "close"] * len(paths)
    assert set(kinds[first:]) == {"fsync"}


#: the part-file schema: strings as a pandas round trip wrote them
_PART_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("turn_idx", pa.int32()),
    ("tool", pa.string()), ("page_number", pa.int32()),
    ("header", pa.string()), ("footer", pa.string()),
    ("left_column", pa.string()), ("right_column", pa.string()),
    ("page_width", pa.float64()), ("page_height", pa.float64()),
    ("column_separator_position", pa.float64()),
    ("extracted_text", pa.string()), ("metadata_json", pa.string())])


def test_part_file_schema_and_mixed_writer_directory(tmp_path):
    """A bucket the pandas writer committed and one this writer commits
    in parts read back as one table, large strings narrowed."""
    out = str(tmp_path)
    older, _ = _pandas_lineage(_extracted(_ROWS[:4]))
    os.makedirs(os.path.join(out, "bucket=00005"))
    pq.write_table(pa.Table.from_pandas(older, preserve_index=False),
                   os.path.join(out, "bucket=00005", "part.parquet"))
    newer = _extracted(_ROWS[4:])
    wide = pa.schema([f.with_type(pa.large_string())
                      if f.type == pa.string() else f for f in newer.schema])
    _write([newer.slice(0, 2).cast(wide), newer.slice(2)], out)
    parts = sorted(glob.glob(os.path.join(out, "bucket=*", "*.parquet")))
    assert len(parts) == 3
    for p in parts:
        assert pq.read_schema(p).remove_metadata() == _PART_SCHEMA
    both = pa.concat_tables([pq.read_table(p) for p in parts])
    assert both.num_rows == len(_ROWS)
    assert both.schema.remove_metadata() == _PART_SCHEMA


def _keys(convs):
    return pa.table({"conv_id": pa.array(convs, pa.string()),
                     "turn_idx": pa.array(range(len(convs)), pa.int32())})


def test_conversations_exact_over_parts(tmp_path, monkeypatch):
    """``conversations`` is the distinct count over the whole bucket:
    from the part counts while the parts' ranges touch (even in a chain
    over three parts), from the parts' conv_id columns once they
    interleave."""
    from pdf_parser_ray.state import checkpoint

    def no_read(*a, **k):
        raise AssertionError("ranges that only touch need no read")

    with monkeypatch.context() as m:
        m.setattr(checkpoint.pq, "read_table", no_read)
        for name, blocks in {
            "touch": [["a", "b", "c", "c"], ["c", "d"]],
            "chain": [["a", "b", "c"], ["c", "c"], ["c", "d", "e"]],
            "disjoint": [["x", "y"], ["a", "b"], ["m"]],
            "same_one": [["k"], ["k"], ["k"]],
        }.items():
            [meta] = _write([_keys(b) for b in blocks], str(tmp_path / name))
            want = len({c for b in blocks for c in b})
            assert meta["conversations"] == want, name
            assert len(meta["parts"]) == len(blocks)

    rng = random.Random(7)
    convs = [f"c{rng.randrange(40):02d}" for _ in range(300)]
    blocks = [convs[i::3] for i in range(3)]   # a shuffled input
    [meta] = _write([_keys(b) for b in blocks], str(tmp_path / "mixed"))
    assert meta["conversations"] == len(set(convs))
    assert (meta["conv_id_min"], meta["conv_id_max"]) == (min(convs),
                                                          max(convs))


def test_orphan_part_of_a_retried_attempt_is_not_committed(tmp_path):
    """A task attempt that staged its parts and then died is retried
    under new part names; only the parts the collected records list
    are committed, and an identical second block keeps all its rows."""
    out = str(tmp_path)
    block = _keys(["a", "b", "c"])
    _stage(block, out)                       # the attempt that died
    records = _stage(block, out) + _stage(block, out)
    [meta] = _seal_buckets(out, "run", records)
    assert sorted(meta["parts"]) == sorted(r["part"] for r in records)
    back = _parts(out)
    assert sum(t.num_rows for t in back) == meta["rows"] == 6
    assert len({r["content_hash"] for r in records}) == 1
    assert os.listdir(out) == ["bucket=00000"]   # staging swept
    # a run whose map side found every bucket committed seals nothing
    assert _stage(block, out, done=[0]) == []
    assert _seal_buckets(out, "other", []) == []
