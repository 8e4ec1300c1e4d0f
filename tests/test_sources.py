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
