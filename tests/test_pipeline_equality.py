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


def _ordered_run(path, n_blocks):
    """(rows, stats text, blocks each sort stage produced) of an
    ordered run over ``n_blocks`` read blocks."""
    import re

    from pdf_parser_ray.pipelines.extraction import \
        run_extraction_from_parquet
    ds = run_extraction_from_parquet(path, ordered=True,
                                     override_num_blocks=n_blocks)
    got, stats = ds.to_pandas(), ds.stats()
    sort_blocks = re.findall(
        r"(SortMap|SortReduce): \d+ tasks executed, (\d+) blocks produced",
        stats)
    return got, stats, {op: int(n) for op, n in sort_blocks}


def _extracted(path, n_blocks):
    from pdf_parser_ray.pipelines.extraction import extract_dataset
    from pdf_parser_ray.sources.transcripts import read_transcripts
    from pdf_parser_ray.stages.extract import INPUT_COLUMNS
    return extract_dataset(read_transcripts(path, columns=INPUT_COLUMNS,
                                            override_num_blocks=n_blocks))


@pytest.fixture(scope="module")
def sf_parquet(tmp_path_factory):
    """The whole sf0.001 transcript table as one Parquet file."""
    import pyarrow.parquet as pq
    table = transcripts_table(SF_DIR)
    path = str(tmp_path_factory.mktemp("ordered") / "transcripts.parquet")
    pq.write_table(table, path)
    return table, path


@pytest.fixture(scope="module")
def plain_sorted(ray_session, sf_parquet):
    """The plain ``Dataset.sort`` over 16 read blocks of sf0.001."""
    _, path = sf_parquet
    return _extracted(path, 16).sort(["conv_id", "turn_idx"]).to_pandas()


def test_ordered_sort_coalesces_to_cpu_blocks(ray_session, sf_parquet,
                                              plain_sorted):
    """16 read blocks of ~3 MiB in all, 4 Ray CPUs: the sort runs on 4
    blocks, and its rows equal the plain ``Dataset.sort`` over the 16
    blocks row for row and the oracle per turn."""
    table, path = sf_parquet
    got, stats, sort_blocks = _ordered_run(path, 16)
    assert "Repartition" in stats
    assert sort_blocks == {"SortMap": 4, "SortReduce": 4}, stats
    pd.testing.assert_frame_equal(got, plain_sorted)

    want = _oracle_frame(table)
    assert len(got) == len(want) > 3000
    for col in ("conv_id", "turn_idx", "extracted_text", "metadata_json"):
        assert (got[col] == want[col]).all(), col


@pytest.mark.parametrize("target", [400 * 1024, None],
                         ids=["target_400k", "no_target"])
def test_ordered_sort_sized_from_bytes(ray_session, sf_parquet,
                                       plain_sorted, target):
    """The byte term of the sizing. With the target block size lowered
    to 400 KiB, the ~3 MiB of extracted turns sort on ceil(bytes /
    target) blocks: more than the 4 Ray CPUs, fewer than the read's.
    With no target (None: blocks are not split), on one block per CPU.
    The rows equal the plain sort either way."""
    import math

    from ray.data import DataContext

    _, path = sf_parquet
    ctx = DataContext.get_current()
    saved = ctx.target_max_block_size
    ctx.target_max_block_size = target
    try:
        executed = _extracted(path, 16).materialize()
        got, stats, sort_blocks = _ordered_run(path, 16)
    finally:
        ctx.target_max_block_size = saved
    blocks = 4
    if target:
        blocks = math.ceil(executed.size_bytes() / target)
        assert 4 < blocks < executed.num_blocks()
    assert "Repartition" in stats
    assert sort_blocks == {"SortMap": blocks, "SortReduce": blocks}, stats
    pd.testing.assert_frame_equal(got, plain_sorted)


def test_ordered_sort_keeps_fewer_read_blocks(ray_session, sf_parquet):
    """No more read blocks than Ray CPUs: no Repartition runs and the
    sort runs on the read's blocks."""
    _, path = sf_parquet
    for n_blocks in (1, 4):
        got, stats, sort_blocks = _ordered_run(path, n_blocks)
        assert "Repartition" not in stats
        assert sort_blocks == {"SortMap": n_blocks,
                              "SortReduce": n_blocks}, stats
        assert got[["conv_id", "turn_idx"]].apply(tuple, axis=1) \
            .is_monotonic_increasing


def test_ordered_run_releases_its_executed_input(ray_session, sf_parquet,
                                                 monkeypatch):
    """The ordered result pins only the sorted blocks: once the run
    returns, no reference holds the blocks read + extract executed for
    the sort's barrier."""
    import gc

    import ray
    from ray.data import Dataset

    from pdf_parser_ray.pipelines.extraction import \
        run_extraction_from_parquet

    made, real = [], Dataset.materialize

    def recorded(self):
        out = real(self)
        made.append({ref.hex() for bundle in out.iter_internal_ref_bundles()
                     for ref, _ in bundle.blocks})
        return out

    monkeypatch.setattr(Dataset, "materialize", recorded)
    _, path = sf_parquet
    ds = run_extraction_from_parquet(path, ordered=True,
                                     override_num_blocks=16)
    gc.collect()
    counts = (ray._private.worker.global_worker.core_worker
              .get_all_reference_counts())
    held = {k.decode() if isinstance(k, bytes) else k
            for k, c in counts.items() if c["local"] or c["submitted"]}
    executed, result = made
    assert len(executed) == 16 and not executed & held
    assert len(result) == 4 and result <= held
    assert ds.count() > 3000
