"""Per-turn equality: Ray pipeline output vs the independent oracle,
under stable (conv_id, turn_idx) ordering — the north-rule invariant."""

import pandas as pd
import pytest

from pdf_parser_ray.sources.transcripts import transcripts_table, turns_for_doc
from tests.reference_oracle import oracle_extract_turn

SF_DIR = "/root/testdata/sf0.001"
XS_DOCS = 40


def _oracle_frame(table) -> pd.DataFrame:
    rows = []
    for conv_id, turn_idx, text, tool in zip(
            table.column("conv_id").to_pylist(),
            table.column("turn_idx").to_pylist(),
            table.column("text").to_pylist(),
            table.column("tool").to_pylist()):
        rec = oracle_extract_turn(text, tool, int(turn_idx))
        rec["conv_id"] = conv_id
        rec["turn_idx"] = turn_idx
        rows.append(rec)
    return (pd.DataFrame(rows)
            .sort_values(["conv_id", "turn_idx"])
            .reset_index(drop=True))


@pytest.fixture(scope="module")
def xs_table():
    return transcripts_table(SF_DIR, limit_docs=XS_DOCS)


def test_corpus_covers_all_families(xs_table):
    tools = set(xs_table.column("tool").to_pylist())
    assert {"pdf_layout", "colored", "vision", "html", ""} <= tools
    texts = xs_table.column("text").to_pylist()
    assert any(t.startswith("#CORRUPT") for t in texts)      # error records
    assert any(t.strip() == "" for t in texts)               # empty/whitespace


def test_rows_physically_out_of_order():
    rows = turns_for_doc(3, "some words here " * 20)
    idxs = [r["turn_idx"] for r in rows]
    assert idxs != sorted(idxs)


def test_per_turn_equality_vs_oracle(ray_session, xs_table):
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd
    from pdf_parser_ray.pipelines.extraction import extract_dataset

    blocks = [xs_table.slice(i, 64) for i in range(0, xs_table.num_rows, 64)]
    # the first block typed as a row-format export would type it: int64
    # turn_idx, and a null tool where the canonical table has ""
    b0 = blocks[0]
    tool = b0.column("tool")
    assert "" in tool.to_pylist()
    blocks[0] = (b0.set_column(b0.schema.get_field_index("turn_idx"),
                               "turn_idx",
                               pc.cast(b0.column("turn_idx"), pa.int64()))
                 .set_column(b0.schema.get_field_index("tool"), "tool",
                             pc.if_else(pc.equal(tool, ""),
                                        pa.scalar(None, pa.string()),
                                        tool)))
    extracted = extract_dataset(rd.from_arrow(blocks))
    got = (extracted.sort(["conv_id", "turn_idx"]).to_pandas()
           .reset_index(drop=True))
    want = _oracle_frame(xs_table)

    assert len(got) == len(want)
    key_cols = ["conv_id", "turn_idx"]
    pd.testing.assert_frame_equal(got[key_cols], want[key_cols],
                                  check_dtype=False)
    assert got["turn_idx"].dtype == "int32"
    want_tool = (xs_table.select(["conv_id", "turn_idx", "tool"]).to_pandas()
                 .sort_values(key_cols).reset_index(drop=True)["tool"])
    assert (got["tool"] == want_tool).all()       # null tool -> ""
    want["page_number"] = want["page_number"].astype(got["page_number"].dtype)

    for col in ("page_number", "header", "footer", "left_column",
                "right_column", "extracted_text", "metadata_json"):
        mism = (got[col] != want[col])
        assert not mism.any(), (
            f"{col}: {int(mism.sum())} mismatches; first at "
            f"{got.loc[mism.idxmax(), key_cols].to_dict()}\n"
            f"got : {got.loc[mism.idxmax(), col]!r}\n"
            f"want: {want.loc[mism.idxmax(), col]!r}")

    for col in ("page_width", "page_height", "column_separator_position"):
        pd.testing.assert_series_equal(got[col], want[col], check_names=False)


def test_full_corpus_equality_vs_oracle(ray_session):
    """All 500 documents' turns (every payload family + the mega-conv):
    extracted_text equality row-for-row."""
    import ray.data as rd
    from pdf_parser_ray.pipelines.extraction import extract_dataset
    full = transcripts_table(SF_DIR)
    got = (extract_dataset(rd.from_arrow(
        [full.slice(i, 256) for i in range(0, full.num_rows, 256)]))
           .to_pandas().sort_values(["conv_id", "turn_idx"])
           .reset_index(drop=True))
    want = _oracle_frame(full)
    assert len(got) == len(want) and len(got) > 3000
    mism = (got["extracted_text"] != want["extracted_text"])
    assert not mism.any(), f"{int(mism.sum())} extracted_text mismatches"
    assert (got["metadata_json"] == want["metadata_json"]).all()


def test_golden_snapshot(ray_session):
    """Pipeline output vs the stored ORACLE-generated golden parquet
    (regenerated only by the oracle script — guards against kernel and
    oracle drifting together; FIXTURES.md §2)."""
    import pathlib

    import ray.data as rd
    golden = pd.read_parquet(pathlib.Path(__file__).parent
                             / "golden" / "extracted_xs.parquet")
    from pdf_parser_ray.pipelines.extraction import extract_dataset
    t = transcripts_table(SF_DIR, limit_docs=60)
    got = (extract_dataset(rd.from_arrow(
        [t.slice(i, 128) for i in range(0, t.num_rows, 128)]))
           .to_pandas().sort_values(["conv_id", "turn_idx"])
           .reset_index(drop=True))
    assert len(got) == len(golden) == 447
    for col in ("extracted_text", "header", "footer", "left_column",
                "right_column", "metadata_json"):
        assert (got[col] == golden[col]).all(), col


def test_mega_conversation_present(xs_table):
    counts = (xs_table.to_pandas().groupby("conv_id").size())
    assert counts.max() >= 100          # doc_id 0 is a mega-conv
    assert counts.median() <= 10
