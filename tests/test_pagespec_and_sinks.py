"""M15 page-spec parsing (mirrors the reference's utility unit tests,
tests/test_pdf_layouts.py:41-88), the a000 strategy, the strategy
comparison harness, and the sink renderers."""

import json

import pandas as pd
import pytest

from pdf_parser_ray.functions.pagespec import (PageRange,
                                               parse_pages_argument)
from pdf_parser_ray.kernel import extract_turn


# ------------------------------------------------------------- page specs

def test_single_int():
    assert parse_pages_argument(3) == [3]


def test_list_dedupe_and_sort():
    assert parse_pages_argument([5, 1, 3, 1, 5]) == [1, 3, 5]


def test_page_range_object():
    assert parse_pages_argument(PageRange(2, 5)) == [2, 3, 4, 5]


def test_string_range_and_single():
    assert parse_pages_argument("1-5") == [1, 2, 3, 4, 5]
    assert parse_pages_argument("3") == [3]


def test_invalid_specs_raise():
    with pytest.raises(ValueError):
        parse_pages_argument(0)
    with pytest.raises(ValueError):
        parse_pages_argument([])
    with pytest.raises(ValueError):
        parse_pages_argument([1, -2])
    with pytest.raises(ValueError):
        parse_pages_argument("5-2")
    with pytest.raises(ValueError):
        parse_pages_argument("abc")
    with pytest.raises(TypeError):
        parse_pages_argument(1.5)
    with pytest.raises(TypeError):
        parse_pages_argument([1, "2"])
    with pytest.raises(ValueError):
        PageRange(0, 3)
    with pytest.raises(ValueError):
        PageRange(5, 2)


def test_filter_turns_pushdown(ray_session):
    import ray.data as rd
    from pdf_parser_ray.functions.pagespec import filter_turns
    df = pd.DataFrame({"conv_id": ["c"] * 6, "turn_idx": range(6)})
    out = filter_turns(rd.from_pandas(df), "2-4").to_pandas()
    assert sorted(out["turn_idx"]) == [1, 2, 3]   # pages 2-4 -> turns 1-3


# ----------------------------------------------------------- a000 strategy

A000_PAYLOAD = "\n".join([
    "#PAGE 612.0,792.0",
    "#VLINE 306.0,120.0,306.0,700.0",       # dy=580 > 0.2H; dx=0 < 0.01W
    "40.0,40.0,570.0,60.0|14.0|Bold|Big Title",      # y1=60 < 120+10 header
    "40.0,150.0,280.0,162.0|11.0|Times|left body",
    "330.0,150.0,570.0,162.0|11.0|Times|right body",
    "40.0,200.0,280.0,212.0|11.0|Times|- bullet item",
    "40.0,720.0,570.0,732.0|8.0|Times|tail line",    # y0=720 > 700-10 footer
])


def test_a000_line_extent_classification():
    rec = extract_turn(A000_PAYLOAD, "layoutlm", 0)
    md = json.loads(rec["metadata_json"])
    # boundaries derived from the dominant line extent, not percentages
    assert md["header_y_boundary"] == 120.0
    assert md["footer_y_boundary"] == 700.0
    assert rec["header"] == "Big Title"
    assert rec["footer"] == "tail line"
    assert rec["left_column"] == "left body\n- bullet item"
    assert rec["right_column"] == "right body"
    assert rec["column_separator_position"] == 306.0
    assert md["total_text_blocks_layoutlm"] == 5
    assert md["vertical_lines_detected_count"] == 1


def test_a000_scan_fallback_center_based():
    # no usable vline: center-based scan with >10% both sides, step 5
    payload = "\n".join([
        "#PAGE 612.0,792.0",
        "40.0,150.0,280.0,162.0|11.0|Times|aa",
        "40.0,170.0,280.0,182.0|11.0|Times|bb",
        "330.0,150.0,570.0,162.0|11.0|Times|cc",
        "330.0,170.0,570.0,182.0|11.0|Times|dd",
    ])
    rec = extract_turn(payload, "layoutlm", 0)
    # left centers 160, right centers 450; first test_x in
    # range(183, 429, 5) with both sides >10% is 183
    assert rec["column_separator_position"] == 183.0
    md = json.loads(rec["metadata_json"])
    assert md["header_y_boundary"] is None      # percentage fallback used


def test_a000_matches_oracle_on_corpus():
    from pdf_parser_ray.sources.transcripts import transcripts_table
    from tests.reference_oracle import oracle_extract_turn
    t = transcripts_table("/root/testdata/sf0.001", limit_docs=50)
    checked = 0
    for cid, ti, tx, tool in zip(t.column("conv_id").to_pylist(),
                                 t.column("turn_idx").to_pylist(),
                                 t.column("text").to_pylist(),
                                 t.column("tool").to_pylist()):
        if tool != "layoutlm":
            continue
        got = extract_turn(tx, tool, int(ti))
        want = oracle_extract_turn(tx, tool, int(ti))
        assert got == want, f"{cid}:{ti}"
        checked += 1
    assert checked > 10


# --------------------------------------------------- comparison + sinks

def test_compare_strategies(ray_session):
    import ray.data as rd
    from pdf_parser_ray.pipelines.extraction import compare_strategies
    from pdf_parser_ray.sources.transcripts import transcripts_table
    t = transcripts_table("/root/testdata/sf0.001", limit_docs=10)
    res = compare_strategies(rd.from_arrow(t), ["a002", "a004"])
    a002 = res["a002"].to_pandas().set_index(["conv_id", "turn_idx"])
    a004 = res["a004"].to_pandas().set_index(["conv_id", "turn_idx"])
    assert len(a002) == len(a004) == t.num_rows
    # strategies genuinely differ on some turns (header 15% vs 10%)
    assert (a002["extracted_text"] != a004["extracted_text"]).any()
    with pytest.raises(ValueError, match="unknown strategy"):
        compare_strategies(rd.from_arrow(t), ["nope"])


def test_sink_renderers(ray_session):
    import ray.data as rd
    from pdf_parser_ray.pipelines.extraction import extract_dataset
    from pdf_parser_ray.stages.questions import questions_dataset
    from pdf_parser_ray.stages.sinks import (conversation_json_dataset,
                                             markdown_c001_dataset,
                                             questions_markdown_dataset)
    from pdf_parser_ray.sources.transcripts import transcripts_table
    t = transcripts_table("/root/testdata/sf0.001", limit_docs=12)
    blocks = [t.slice(i, 128) for i in range(0, t.num_rows, 128)]
    ex = extract_dataset(rd.from_arrow(blocks)).materialize()

    js = conversation_json_dataset(ex).to_pandas()
    assert js["conv_id"].is_unique
    env = json.loads(js.iloc[0]["layout_json"])
    assert env["total_pages"] == len(env["pages"])
    assert {"page_number", "header", "metadata"} <= set(env["pages"][0])
    # pages serialized in turn order
    nums = [p["page_number"] for p in env["pages"]]
    assert nums == sorted(nums)

    md = markdown_c001_dataset(ex).to_pandas()
    assert md["conv_id"].is_unique
    assert md["markdown"].str.contains("<!-- Page 1 -->").all()

    qmd = questions_markdown_dataset(
        questions_dataset(ex).materialize()).to_pandas()
    assert (qmd["questions_markdown"].str
            .startswith("# Vision IAS Questions")).all()
    one = qmd.iloc[0]
    assert f"**Total Questions:** {one['total_questions']}" \
        in one["questions_markdown"]


def test_write_sink_files_roundtrip(ray_session, tmp_path):
    """S3/S6 file parity: rendered sink datasets written one file per
    conversation from worker tasks, re-read and matched against the
    reference envelope shape (A002:292-296) / C001 markers."""
    import os
    import ray.data as rd
    from pdf_parser_ray.pipelines.extraction import extract_dataset
    from pdf_parser_ray.sources.transcripts import transcripts_table
    from pdf_parser_ray.stages.sinks import (conversation_json_dataset,
                                             markdown_c001_dataset,
                                             write_sink_files)
    t = transcripts_table("/root/testdata/sf0.001", limit_docs=8)
    blocks = [t.slice(i, 128) for i in range(0, t.num_rows, 128)]
    ex = extract_dataset(rd.from_arrow(blocks)).materialize()

    jdir = str(tmp_path / "json")
    m1 = write_sink_files(conversation_json_dataset(ex), jdir,
                          content_col="layout_json", ext="layout.json")
    assert m1["conv_id"].is_unique and len(m1) > 0
    with open(m1.iloc[0]["path"]) as f:
        env = json.load(f)
    assert {"conv_id", "total_pages", "pages"} <= set(env)
    assert env["total_pages"] == len(env["pages"])
    assert env["conv_id"] == m1.iloc[0]["conv_id"]
    assert os.path.getsize(m1.iloc[0]["path"]) == m1.iloc[0]["bytes"]

    mdir = str(tmp_path / "md")
    m2 = write_sink_files(markdown_c001_dataset(ex), mdir,
                          content_col="markdown", ext="md")
    with open(m2.iloc[0]["path"]) as f:
        content = f.read()
    assert content.startswith("<!-- Page 1 -->")
    # idempotent re-run: same manifest, files overwritten atomically
    m2b = write_sink_files(markdown_c001_dataset(ex), mdir,
                           content_col="markdown", ext="md")
    pd.testing.assert_frame_equal(m2, m2b)
