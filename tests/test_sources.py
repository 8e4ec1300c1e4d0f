"""Multi-format transcript ingest: the jsonl and csv paths must yield
per-turn extraction output identical to the parquet path (same corpus,
same kernel — the reader normalizes row-format type drift before any
stage sees a batch)."""

import pandas as pd
import pyarrow as pa


def test_read_transcripts_formats_equal(ray_session, tmp_path):
    from pdf_parser_ray.pipelines.extraction import extract_dataset
    from pdf_parser_ray.sources.transcripts import (TRANSCRIPT_SCHEMA,
                                                    read_transcripts)
    from pdf_parser_ray.sources.transcripts import transcripts_table

    df = transcripts_table("/root/testdata/sf0.001",
                           limit_docs=40).to_pandas()
    paths = {"parquet": tmp_path / "t.parquet",
             "jsonl": tmp_path / "t.jsonl",
             "csv": tmp_path / "t.csv"}
    # the parquet export drifts too (pandas round-trips widen
    # turn_idx to int64 and ts to ns) — the reader must normalize it
    # back to the canonical schema, not just the row formats
    df.assign(turn_idx=df["turn_idx"].astype("int64"),
              ts=df["ts"].astype("datetime64[ns]")) \
        .to_parquet(paths["parquet"], index=False)
    df.to_json(paths["jsonl"], orient="records", lines=True,
               date_format="iso", force_ascii=False)
    df.to_csv(paths["csv"], index=False)

    outs, schemas = {}, {}
    for fmt, p in paths.items():
        ds = read_transcripts(str(p), format=fmt)
        schemas[fmt] = {n: t for n, t in
                        zip(ds.schema().names, ds.schema().types)}
        ex = extract_dataset(ds).to_pandas()
        outs[fmt] = (ex[["conv_id", "turn_idx", "extracted_text"]]
                     .sort_values(["conv_id", "turn_idx"])
                     .reset_index(drop=True))

    # EVERY format normalizes to the canonical types
    for fmt in ("parquet", "jsonl", "csv"):
        for f in TRANSCRIPT_SCHEMA:
            assert schemas[fmt][f.name] == f.type, \
                (fmt, f.name, schemas[fmt][f.name])
    assert len(outs["parquet"]) > 100
    pd.testing.assert_frame_equal(outs["jsonl"], outs["parquet"])
    pd.testing.assert_frame_equal(outs["csv"], outs["parquet"])


def test_read_transcripts_rejects_bad_input(ray_session, tmp_path):
    import pytest

    from pdf_parser_ray.sources.transcripts import read_transcripts

    with pytest.raises(ValueError, match="unknown transcript format"):
        read_transcripts(str(tmp_path / "x"), format="orc")
    pd.DataFrame({"conv_id": ["a"], "text": ["t"]}).to_json(
        tmp_path / "m.jsonl", orient="records", lines=True)
    # the normalize stage raises inside a Ray task; the driver sees it
    # wrapped in RayTaskError with the original message preserved
    with pytest.raises(Exception, match="missing columns"):
        read_transcripts(str(tmp_path / "m.jsonl"),
                         format="jsonl").materialize()


def test_jsonl_extraction_equals_parquet_entry(ray_session, tmp_path):
    """A jsonl export read through read_transcripts and extracted
    yields output identical to the parquet production entry on the
    same corpus."""
    from pdf_parser_ray.pipelines.extraction import (
        extract_dataset, run_extraction_from_parquet)
    from pdf_parser_ray.sources.transcripts import (read_transcripts,
                                                    transcripts_table)

    df = transcripts_table("/root/testdata/sf0.001",
                           limit_docs=25).to_pandas()
    pqp, jlp = tmp_path / "t.parquet", tmp_path / "t.jsonl"
    df.to_parquet(pqp, index=False)
    df.to_json(jlp, orient="records", lines=True, date_format="iso",
               force_ascii=False)
    a = run_extraction_from_parquet(str(pqp), ordered=True).to_pandas()
    b = (extract_dataset(read_transcripts(str(jlp), format="jsonl"))
         .sort(["conv_id", "turn_idx"]).to_pandas())
    assert len(a) > 50
    pd.testing.assert_frame_equal(a.reset_index(drop=True),
                                  b.reset_index(drop=True))


def test_read_transcripts_gzip_jsonl(ray_session, tmp_path):
    """Compressed exports: a .jsonl.gz file reads through the same
    jsonl path (Ray/Arrow infer the codec from the extension) and
    normalizes to the canonical schema — pinned so a Ray upgrade that
    drops the inference fails here, not in an ingest job."""
    import gzip

    from pdf_parser_ray.sources.transcripts import (TRANSCRIPT_SCHEMA,
                                                    read_transcripts,
                                                    transcripts_table)

    df = transcripts_table("/root/testdata/sf0.001",
                           limit_docs=10).to_pandas()
    plain, gzp = tmp_path / "t.jsonl", tmp_path / "t.jsonl.gz"
    js = df.to_json(orient="records", lines=True, date_format="iso",
                    force_ascii=False)
    plain.write_text(js)
    with gzip.open(gzp, "wt") as f:
        f.write(js)

    a = read_transcripts(str(plain), format="jsonl")
    b = read_transcripts(str(gzp), format="jsonl")
    for f in TRANSCRIPT_SCHEMA:
        got = dict(zip(b.schema().names, b.schema().types))[f.name]
        assert got == f.type, (f.name, got)
    pa_, pb = a.to_pandas(), b.to_pandas()
    key = ["conv_id", "turn_idx"]
    pd.testing.assert_frame_equal(
        pa_.sort_values(key).reset_index(drop=True),
        pb.sort_values(key).reset_index(drop=True))


def test_read_transcripts_rejects_unknown_columns(tmp_path):
    """Names outside TRANSCRIPT_SCHEMA fail at planning, for every
    format, before any path is touched (the path does not exist)."""
    import pytest

    from pdf_parser_ray.sources.transcripts import read_transcripts

    for fmt in ("parquet", "jsonl", "csv"):
        with pytest.raises(ValueError,
                           match=r"unknown transcript columns \['bogus'\]"):
            read_transcripts(str(tmp_path / "absent"), format=fmt,
                             columns=["conv_id", "bogus"])


def test_listing_source_reads_what_read_parquet_reads(ray_session,
                                                      tmp_path):
    """The listing source skips what pyarrow's discovery skips
    (basenames starting with '.' or '_', at any depth), recurses into
    subdirectories, and reads the same rows in the same order as
    ``read_parquet`` for a directory, a file and a list of files."""
    import pyarrow.parquet as pq
    import ray.data as rd
    from ray.data import DataContext

    from pdf_parser_ray.sources.transcripts import (read_transcripts,
                                                    transcripts_table)
    from pdf_parser_ray.stages.extract import INPUT_COLUMNS

    t = transcripts_table("/root/testdata/sf0.001", limit_docs=60)
    d = tmp_path / "in"
    for sub in ("sub/deeper", "_staging", ".hidden_dir"):
        (d / sub).mkdir(parents=True)
    parts = ["b.parquet", "a.parquet", "sub/c.parquet",
             "sub/deeper/d.parquet", "sub_x.parquet"]
    rows = t.num_rows // len(parts)
    for i, name in enumerate(parts):
        # several row groups in one file: the read goes by row group
        pq.write_table(t.slice(i * rows, rows), str(d / name),
                       row_group_size=max(1, rows // 3))
    for skipped in ("_staging/e.parquet", ".hidden_dir/e.parquet",
                    ".hidden.parquet"):
        pq.write_table(t.slice(0, 5), str(d / skipped))
    (d / "_SUCCESS").write_bytes(b"")
    (d / "_DONE").write_bytes(b"done")

    ctx = DataContext.get_current()
    was = ctx.execution_options.preserve_order
    ctx.execution_options.preserve_order = True
    try:
        for path in (str(d), str(d / "sub/c.parquet"),
                     [str(d / "sub_x.parquet"), str(d / "a.parquet"),
                      str(d / "sub/deeper/d.parquet")]):
            want = rd.read_parquet(path, columns=INPUT_COLUMNS).take_all()
            got = read_transcripts(path, columns=INPUT_COLUMNS).take_all()
            assert len(want) > 0
            assert got == want, path
    finally:
        ctx.execution_options.preserve_order = was


def test_listing_source_plans_without_reading(ray_session, tmp_path):
    """Planning reads no file content: a file of garbage bytes plans,
    and fails only at execution, naming its path."""
    import pytest

    from pdf_parser_ray.sources.transcripts import read_transcripts

    bad = tmp_path / "in" / "garbage.parquet"
    bad.parent.mkdir()
    bad.write_bytes(b"not a parquet file " * 64)
    ds = read_transcripts(str(bad.parent))
    with pytest.raises(Exception, match=str(bad)):
        ds.materialize()


def test_listing_source_block_count(ray_session, tmp_path):
    """One sf0.001 file at 4 CPUs: 16 blocks when pinned to 16, and
    Ray's own 2 x CPUs (8) when not pinned — both read_parquet's
    counts."""
    import pyarrow.parquet as pq

    from pdf_parser_ray.sources.transcripts import (read_transcripts,
                                                    transcripts_table)

    path = str(tmp_path / "t.parquet")
    pq.write_table(transcripts_table("/root/testdata/sf0.001"), path)
    assert read_transcripts(path, override_num_blocks=16) \
        .materialize().num_blocks() == 16
    assert read_transcripts(path).materialize().num_blocks() == 8


def test_parquet_without_text_raises_missing_columns(ray_session,
                                                     tmp_path):
    import pytest

    from pdf_parser_ray.sources.transcripts import read_transcripts
    from pdf_parser_ray.stages.extract import INPUT_COLUMNS

    pd.DataFrame({"conv_id": ["a"], "turn_idx": [0], "tool": [""]}) \
        .to_parquet(tmp_path / "t.parquet", index=False)
    with pytest.raises(Exception, match=r"missing columns \['text'\]"):
        read_transcripts(str(tmp_path / "t.parquet"),
                         columns=INPUT_COLUMNS).materialize()
