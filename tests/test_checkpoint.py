"""The checkpoint writer (state/checkpoint.py): golden bucket ids and
the Arrow bucket writer's lineage and part-file schema."""

import glob
import json
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from pdf_parser_ray.relational import stable_bucket_series
from pdf_parser_ray.stages.extract import extract_batch
from pdf_parser_ray.state.checkpoint import (_LINEAGE_COLUMNS,
                                             _write_bucket,
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


def _bucket(rows, bucket=3):
    """Extracted rows of (conv_id, turn_idx, text, tool), as the writer
    receives one bucket."""
    conv, turn, text, tool = zip(*rows)
    out = extract_batch(pa.table({
        "conv_id": pa.array(conv, pa.string()),
        "turn_idx": pa.array(turn, pa.int64()),
        "text": pa.array(text, pa.string()),
        "tool": pa.array(tool, pa.string())}))
    return out.append_column("bucket", pa.array([bucket] * len(rows),
                                                pa.int32()))


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


def _pandas_lineage(group: pa.Table):
    """The lineage and row order of the pandas writer this one
    replaced: mergesort on (conv_id, turn_idx), pandas string ops."""
    g = (group.to_pandas().sort_values(["conv_id", "turn_idx"],
                                       kind="mergesort")
         .drop(columns=["bucket"]).reset_index(drop=True))
    return g, {
        "bucket": int(group.column("bucket")[0].as_py()),
        "rows": len(g),
        "error_rows": int(g["metadata_json"].str.contains(
            '"error":', regex=False).sum()),
        "conversations": int(g["conv_id"].nunique()),
        "conv_id_min": str(g["conv_id"].min()),
        "conv_id_max": str(g["conv_id"].max()),
        "chars_extracted": int(g["extracted_text"].str.len().sum()),
    }


def test_arrow_writer_lineage_and_order_equal_pandas(tmp_path):
    group = _bucket(_ROWS)
    out = str(tmp_path)
    ret = _write_bucket(group, out)
    assert ret.column_names == ["lineage"] and ret.num_rows == 1
    meta = json.loads(ret.column("lineage")[0].as_py())
    assert tuple(meta) == _LINEAGE_COLUMNS
    g, want = _pandas_lineage(group)
    assert {k: meta[k] for k in want} == want
    # null text and #CORRUPT are the error rows; "é" sorts after "zé"
    # (code points); characters, not UTF-8 bytes
    assert meta["error_rows"] == 2
    assert (meta["conv_id_min"], meta["conv_id_max"]) == ("Z", "é")
    text = g["extracted_text"]
    assert meta["chars_extracted"] < sum(len(t.encode()) for t in text)
    with open(os.path.join(out, "bucket=00003", "_lineage.json")) as f:
        assert json.load(f) == meta
    # duplicate keys keep their input order, as the stable mergesort did
    back = pq.read_table(os.path.join(out, "bucket=00003", "part.parquet"))
    pd.testing.assert_frame_equal(back.to_pandas(), g)
    assert back.column("extracted_text").to_pylist()[2:5] == [
        "héllo wörld 中文 🚀", "same key, second",
        "also the same key, third"]


def test_arrow_writer_lineage_guards(tmp_path):
    """Columns the lineage reads are optional, as before."""
    group = pa.table({"conv_id": pa.array(["b", "a", None], pa.string()),
                      "turn_idx": pa.array([0, 1, 2], pa.int32()),
                      "bucket": pa.array([0, 0, 0], pa.int32())})
    meta = json.loads(_write_bucket(group, str(tmp_path))
                      .column("lineage")[0].as_py())
    assert {k: meta[k] for k in _LINEAGE_COLUMNS[:7]} == {
        "bucket": 0, "rows": 3, "error_rows": 0, "conversations": 2,
        "conv_id_min": "a", "conv_id_max": "b", "chars_extracted": None}


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
    read back as one table."""
    out = str(tmp_path)
    older, _ = _pandas_lineage(_bucket(_ROWS[:4], bucket=0))
    os.makedirs(os.path.join(out, "bucket=00000"))
    pq.write_table(pa.Table.from_pandas(older, preserve_index=False),
                   os.path.join(out, "bucket=00000", "part.parquet"))
    _write_bucket(_bucket(_ROWS[4:], bucket=1), out)
    parts = sorted(glob.glob(os.path.join(out, "bucket=*", "*.parquet")))
    assert pq.read_schema(parts[1]).remove_metadata() == _PART_SCHEMA
    both = pa.concat_tables([pq.read_table(p) for p in parts])
    assert both.num_rows == len(_ROWS)
    assert both.schema.remove_metadata() == _PART_SCHEMA
