"""Multimodal column plumbing: opaque binary payloads + typed metadata.

Image/audio/video payloads are opaque ``binary`` columns with a typed
metadata struct. The decode/resize/frame-sample kernels would use
PIL/ffmpeg — NOT present in this container — so the codec call is
stubbed behind ``decoder="fake"`` (deterministic header parse) /
``decoder="pil"`` (raises NotImplementedError until the lib exists).
Everything Ray-side is real and tested: schema, actor-pool signature,
small batch sizing for wide binary rows, Arrow-native list<float>
feature output.

Payload wire format for the deterministic fake codec (17-byte header):
  bytes 0-5   magic b"FAKE0"
  bytes 5-7   kind: b"im"/b"au"/b"vi"
  bytes 7-11  width  (uint32 LE)  [audio: sample rate]
  bytes 11-15 height (uint32 LE)  [audio: n_samples]
  bytes 15-17 channels (uint16 LE)
  rest        payload bytes
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pandas as pd
import pyarrow as pa

from ..relational import pool_actor_cpus, pool_size

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("kind", pa.string()),
    ("payload", pa.large_binary()),
    ("meta_json", pa.string()),
])

DECODED_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("kind", pa.string()),
    ("width", pa.int32()),
    ("height", pa.int32()),
    ("channels", pa.int32()),
    ("n_bytes", pa.int64()),
    ("features", pa.list_(pa.float32(), 16)),
])


def make_fake_payload(media_id: int, kind: str = "im") -> bytes:
    """Deterministic synthetic payload (for tests/fixtures)."""
    rng = np.random.RandomState(media_id % (2**31))
    w, h, c = int(rng.randint(16, 256)), int(rng.randint(16, 256)), 3
    body = hashlib.blake2b(f"{media_id}:{kind}".encode(),
                           digest_size=32).digest() * 4
    return (b"FAKE0" + kind.encode("ascii")[:2].ljust(2, b"x")
            + struct.pack("<IIH", w, h, c) + body)


def synth_media_table(n: int = 64) -> pa.Table:
    rows = {"media_id": [], "kind": [], "payload": [], "meta_json": []}
    kinds = ["im", "au", "vi"]
    for i in range(n):
        kind = kinds[i % 3]
        rows["media_id"].append(i)
        rows["kind"].append(kind)
        rows["payload"].append(make_fake_payload(i, kind))
        rows["meta_json"].append(f'{{"source": "synth", "id": {i}}}')
    return pa.Table.from_arrays(
        [pa.array(rows["media_id"], pa.int64()),
         pa.array(rows["kind"], pa.string()),
         pa.array(rows["payload"], pa.large_binary()),
         pa.array(rows["meta_json"], pa.string())],
        schema=MEDIA_SCHEMA)


class DecodeMedia:
    """Actor-pool decode + feature-extract stage.

    Use small ``batch_size`` (e.g. 32) — binary rows are wide; a batch x
    concurrency must fit a worker heap. The decoder object is built once
    per actor (the analog of the reference's model warmed in __init__,
    A000_layoutlm_extractor.py:37-55).
    """

    def __init__(self, decoder="fake"):
        self.decoder = decoder
        self._obj = None
        if callable(decoder):
            # the REAL-codec seam: a picklable factory (class) whose
            # instance exposes decode(payload) -> (width, height,
            # channels). Built HERE, once per actor — the expensive
            # warm-up (model load, codec init) amortizes across every
            # batch the actor serves, exactly like the reference warms
            # its layout model in __init__
            # (A000_layoutlm_extractor.py:37-55).
            self._obj = decoder()
        elif decoder == "pil":
            try:
                from PIL import Image  # noqa: F401
                self._pil = Image
            except ImportError as e:
                raise NotImplementedError(
                    "real image decode needs PIL, which is not in this "
                    "container; use decoder='fake'") from e

    def _decode(self, payload: bytes):
        if self._obj is not None:
            return self._obj.decode(payload)
        if self.decoder == "fake":
            if payload[:5] != b"FAKE0":
                raise ValueError("bad magic")
            w, h, c = struct.unpack("<IIH", payload[7:17])
            return w, h, c
        raise NotImplementedError(f"decoder {self.decoder!r}")

    def _features(self, payload: bytes) -> np.ndarray:
        # deterministic 16-dim "embedding" of the payload bytes
        d = hashlib.blake2b(payload, digest_size=64).digest()
        return (np.frombuffer(d, dtype=np.uint8)[:16].astype(np.float32)
                / 255.0)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("media_id").to_pylist()
        kinds = batch.column("kind").to_pylist()
        payloads = batch.column("payload").to_pylist()
        w_l, h_l, c_l, nb, feats = [], [], [], [], []
        for p in payloads:
            w, h, c = self._decode(p)
            w_l.append(w); h_l.append(h); c_l.append(c)
            nb.append(len(p))
            feats.append(self._features(p))
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()),
             pa.array(kinds, pa.string()),
             pa.array(w_l, pa.int32()),
             pa.array(h_l, pa.int32()),
             pa.array(c_l, pa.int32()),
             pa.array(nb, pa.int64()),
             pa.FixedSizeListArray.from_arrays(
                 pa.array(np.concatenate(feats), pa.float32()), 16)],
            schema=DECODED_SCHEMA)


def decode_media_dataset(media_ds, *, decoder: str = "fake",
                         batch_size: int = 32, concurrency=None):
    """media table -> decoded features (actor pool sized to the cluster
    with shuffle headroom; small batches for wide binary rows)."""
    return media_ds.map_batches(
        DecodeMedia, batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency if concurrency is not None else pool_size(),
        num_cpus=pool_actor_cpus(),
        fn_constructor_kwargs={"decoder": decoder})


FRAMES_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("frame_idx", pa.int32()),
    ("ts_ms", pa.int32()),
    ("features", pa.list_(pa.float32(), 16)),
])


class SampleFrames:
    """Video frame sampling (flat map: one 'vi' row -> n_frames rows).
    The real codec would seek+decode; the fake codec derives each
    frame's features deterministically from (payload, frame_idx). Small
    batches: one video row fans out n_frames-fold."""

    def __init__(self, n_frames: int = 4, decoder: str = "fake"):
        self.n_frames = n_frames
        self.decoder = DecodeMedia(decoder)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, fidx, ts, feats = [], [], [], []
        kinds = batch.column("kind").to_pylist()
        mids = batch.column("media_id").to_pylist()
        payloads = batch.column("payload").to_pylist()
        for mid, kind, p in zip(mids, kinds, payloads):
            if kind != "vi":
                continue
            for i in range(self.n_frames):
                ids.append(mid)
                fidx.append(i)
                ts.append(i * 1000)
                feats.append(self.decoder._features(
                    p + struct.pack("<I", i)))
        feat_arr = (pa.FixedSizeListArray.from_arrays(
            pa.array(np.concatenate(feats) if feats else
                     np.empty(0, np.float32), pa.float32()), 16))
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(fidx, pa.int32()),
             pa.array(ts, pa.int32()), feat_arr],
            schema=FRAMES_SCHEMA)


class ResizeImages:
    """Resize stage: with the fake codec this rewrites the header dims
    and re-derives features (the real path would be PIL resize —
    stubbed like DecodeMedia)."""

    def __init__(self, width: int = 64, height: int = 64,
                 decoder: str = "fake"):
        self.w, self.h = width, height
        self.decoder = DecodeMedia(decoder)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for kind, p in zip(batch.column("kind").to_pylist(),
                           batch.column("payload").to_pylist()):
            if kind != "im":
                # pass audio/video through untouched: their header words
                # are sample-rate/n-samples, not pixel dims
                out.append(p)
                continue
            self.decoder._decode(p)  # validates magic/header
            out.append(p[:7] + struct.pack("<IIH", self.w, self.h, 3)
                       + p[17:])
        return batch.set_column(
            batch.schema.get_field_index("payload"), "payload",
            pa.array(out, pa.large_binary()))


def make_raw_image_payload(media_id: int) -> bytes:
    """Deterministic RAW image payload: same 17-byte header scheme
    with kind 'rw', body = exactly w*h*c uint8 pixels (a real pixel
    buffer, unlike the 'im' fixtures whose body is an arbitrary
    digest). Pixels are a seeded per-image random field so resampling
    has real structure to act on."""
    rng = np.random.RandomState((media_id * 2654435761) % (2**31))
    w, h, c = int(rng.randint(8, 64)), int(rng.randint(8, 64)), 3
    body = rng.randint(0, 256, size=h * w * c, dtype=np.uint8).tobytes()
    return (b"FAKE0" + b"rw" + struct.pack("<IIH", w, h, c) + body)


def bilinear_resize(img: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Vectorized bilinear resample of an (h, w, c) uint8 array —
    half-pixel-center sampling (the PIL/OpenCV convention,
    align_corners=False), edge-clamped, deterministic half-up
    rounding. Pure numpy: this is the REAL image kernel that needs no
    codec, so unlike the decode stubs it runs fully in this container."""
    h, w, _c = img.shape
    x = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0, w - 1)
    y = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0, h - 1)
    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (x - x0)[None, :, None]
    fy = (y - y0)[:, None, None]
    f = img.astype(np.float64)
    ia = f[np.ix_(y0, x0)]
    ib = f[np.ix_(y0, x1)]
    ic = f[np.ix_(y1, x0)]
    id_ = f[np.ix_(y1, x1)]
    out = (ia * (1 - fx) * (1 - fy) + ib * fx * (1 - fy)
           + ic * (1 - fx) * fy + id_ * fx * fy)
    return np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)


class ResizeRawImages:
    """REAL resize stage over raw-pixel payloads (kind 'rw'): parses
    the header, reshapes the body to (h, w, c), bilinear-resamples
    with numpy, and re-emits a standalone payload with the new header
    — the image analog of ChunkAudio's codec-free path. Non-'rw' rows
    pass through untouched (their bodies are not pixel buffers)."""

    def __init__(self, width: int = 32, height: int = 24):
        if width <= 0 or height <= 0:
            raise ValueError("width and height must be positive")
        self.w, self.h = width, height

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for kind, p in zip(batch.column("kind").to_pylist(),
                           batch.column("payload").to_pylist()):
            if kind != "rw":
                out.append(p)
                continue
            if p[:5] != b"FAKE0" or p[5:7] != b"rw":
                raise ValueError("bad raw-image magic")
            w, h, c = struct.unpack("<IIH", p[7:17])
            body = np.frombuffer(p, dtype=np.uint8, offset=17)
            if len(body) != w * h * c:
                raise ValueError(
                    f"raw body {len(body)} bytes != {w}x{h}x{c}")
            img = body.reshape(h, w, c)
            resized = bilinear_resize(img, self.w, self.h)
            out.append(b"FAKE0" + b"rw"
                       + struct.pack("<IIH", self.w, self.h, c)
                       + resized.tobytes())
        return batch.set_column(
            batch.schema.get_field_index("payload"), "payload",
            pa.array(out, pa.large_binary()))


def resize_raw_dataset(media_ds, *, width: int = 32, height: int = 24,
                       batch_size: int = 16, concurrency=None):
    """raw media table -> resized raw payloads (actor pool, small
    batches for wide binary rows)."""
    return media_ds.map_batches(
        ResizeRawImages, batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency if concurrency is not None else pool_size(),
        num_cpus=pool_actor_cpus(),
        fn_constructor_kwargs={"width": width, "height": height})


def sample_frames_dataset(media_ds, *, n_frames: int = 4,
                          batch_size: int = 16, concurrency=None):
    return media_ds.map_batches(
        SampleFrames, batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency if concurrency is not None else pool_size(),
        num_cpus=pool_actor_cpus(),
        fn_constructor_kwargs={"n_frames": n_frames})


CHUNKS_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("chunk_idx", pa.int32()),
    ("start_byte", pa.int64()),
    ("n_bytes", pa.int64()),
    ("payload", pa.large_binary()),
])


class ChunkAudio:
    """Windowed audio segmentation (flat map: one 'au' row -> one row
    per overlapping window) — the ASR-pipeline pre-step that needs NO
    codec: it operates on the raw payload bytes, so unlike the decode/
    resize stages this path is fully real in this container. Each
    chunk keeps a valid header (n_samples rewritten to the window's
    byte count) so a downstream decoder treats it as a standalone
    clip. Non-audio rows are dropped (chunking pixel data is
    meaningless); window/stride are BYTES of body, overlap =
    window - stride."""

    def __init__(self, window: int = 64, stride: int = 48,
                 decoder: str = "fake"):
        if stride <= 0 or window <= 0:
            raise ValueError("window and stride must be positive")
        if stride > window:
            raise ValueError(
                f"stride ({stride}) > window ({window}) would skip "
                "bytes between windows, breaking the full-coverage "
                "invariant (overlap = window - stride must be >= 0)")
        self.window, self.stride = window, stride
        self.decoder = DecodeMedia(decoder)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, cidx, starts, lens, chunks = [], [], [], [], []
        kinds = batch.column("kind").to_pylist()
        mids = batch.column("media_id").to_pylist()
        payloads = batch.column("payload").to_pylist()
        for mid, kind, p in zip(mids, kinds, payloads):
            if kind != "au":
                continue
            self.decoder._decode(p)        # validates magic/header
            head, body = p[:17], p[17:]
            rate = head[7:11]
            i = 0
            pos = 0
            while pos < len(body) or (pos == 0 and not body):
                sl = body[pos:pos + self.window]
                ids.append(mid)
                cidx.append(i)
                starts.append(pos)
                lens.append(len(sl))
                chunks.append(head[:7] + rate
                              + struct.pack("<I", len(sl))
                              + head[15:17] + sl)
                if pos + self.window >= len(body):
                    break                  # final (possibly short) window
                pos += self.stride
                i += 1
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(cidx, pa.int32()),
             pa.array(starts, pa.int64()), pa.array(lens, pa.int64()),
             pa.array(chunks, pa.large_binary())],
            schema=CHUNKS_SCHEMA)


def chunk_audio_dataset(media_ds, *, window: int = 64, stride: int = 48,
                        batch_size: int = 16, concurrency=None):
    return media_ds.map_batches(
        ChunkAudio, batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency if concurrency is not None else pool_size(),
        num_cpus=pool_actor_cpus(),
        fn_constructor_kwargs={"window": window, "stride": stride})
