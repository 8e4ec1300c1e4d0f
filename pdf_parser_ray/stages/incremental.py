"""Incremental cross-wave near-duplicate dedup.

The production shape of web-crawl dedup: yesterday's corpus is already
deduped and INDEXED; today's ingest wave must drop near-duplicates of
(a) history and (b) itself, without recomputing history. The index is
a parquet directory of MinHash state per wave:

    index_dir/bands/wave=NNNNN/  (band:int32, band_hash:int64, doc_id)
    index_dir/sigs/wave=NNNNN/   (doc_id, sig: list<int64>[num_perm])

Only band rows and signatures persist — not texts or shingle sets —
so cross-wave verification scores SIGNATURE AGREEMENT (mean of equal
minhash lanes), the standard unbiased Jaccard estimator: for
num_perm=128 the estimate's std is sqrt(j(1-j)/128) <= 0.045, and the
banding threshold already guarantees candidates cluster near/above
the S-curve knee. Same-wave pairs use the same estimator for
consistency (one verification path, one threshold semantics); the
exact-Jaccard path remains available for single-corpus dedup
(stages.dedup.minhash_dedup_pairs).

Drop policy: HISTORY WINS. A new doc matching any indexed doc is
dropped regardless of id order; surviving new docs then run min-id
components among themselves. This keeps the invariant that an indexed
document's keep/drop status never changes retroactively — the
property that makes wave-at-a-time processing composable at 100 TB.

Everything is distributed, and MinHash signatures — the single
biggest CPU line of any minhash pipeline — are computed EXACTLY ONCE
per wave: one materialized (doc_id, sig) Dataset feeds the band
derivation, the verification payloads, and the index append. Band
tables meet in a bucketed shuffle; candidate pairs stay a Dataset
through dedup and verification (stages.dedup plumbing, which carries
the cross/same-wave flag through scoring so no re-attach shuffle is
needed); the index append is a plain partitioned parquet write.
"""

from __future__ import annotations

import os
import zlib

import numpy as np
import pandas as pd

from .dedup import (_dedup_pairs_ds, _empty_pairs, _hasher, _id_filter,
                    _pair_ids_ds, _pairwise_verify, components_min_label)


def _wave_dir(base: str, kind: str, wave: int) -> str:
    return os.path.join(base, kind, f"wave={wave:05d}")


def signatures_ds(ds, *, num_perm: int = 128, shingle: str = "word3",
                  text_col: str = "text", id_col: str = "doc_id",
                  batch_size: int = 4096):
    """(doc_id:int64, sig:list<int64>[num_perm]) Dataset — the ONE
    MinHash pass per wave. The list column is built zero-copy from
    (offsets, flat lanes); an explicit Arrow list<> type so it
    shuffles and round-trips parquet without Ray's tensor extension."""
    import pyarrow as pa

    def sig_batch(b: pd.DataFrame) -> pa.Table:
        mh = _hasher(num_perm, shingle)
        sigs = mh.signatures_batch(b[text_col].tolist())
        ids = b[id_col].to_numpy(dtype=np.int64)
        offs = (np.arange(len(ids) + 1, dtype=np.int64) * num_perm)
        arr = pa.ListArray.from_arrays(
            pa.array(offs, type=pa.int32()),
            pa.array(sigs.ravel(), type=pa.int64()))
        return pa.Table.from_arrays([pa.array(ids), arr],
                                    names=["doc_id", "sig"])

    return ds.map_batches(sig_batch, batch_format="pandas",
                          batch_size=batch_size)


def bands_from_sigs(sig_ds, *, bands: int):
    """Derive LSH band rows (band, band_hash, doc_id) from a signature
    Dataset — cheap crc32 folding per band, no shingling/minhash work.
    Band hashes are identical to the batch-dedup path's
    (crc32 over the band's int64 lanes), so waves indexed at any time
    collide consistently."""
    import pyarrow as pa

    def f(t: pa.Table) -> pd.DataFrame:
        ids = t.column("doc_id").to_numpy()
        n = len(ids)
        if n == 0:
            return pd.DataFrame({
                "band": pd.Series([], dtype="int32"),
                "band_hash": pd.Series([], dtype="int64"),
                "doc_id": pd.Series([], dtype="int64")})
        sig = t.column("sig").combine_chunks()
        flat = sig.flatten().to_numpy()
        sigs2d = np.ascontiguousarray(flat.reshape(n, -1))
        num_perm = sigs2d.shape[1]
        rpb = num_perm // bands
        bh = np.empty((n, bands), dtype=np.int64)
        for i in range(n):
            row = sigs2d[i]
            for b in range(bands):
                bh[i, b] = zlib.crc32(row[b * rpb:(b + 1) * rpb].tobytes())
        return pd.DataFrame({
            "band": np.tile(np.arange(bands, dtype=np.int32), n),
            "band_hash": bh.ravel(),
            "doc_id": np.repeat(ids, bands),
        })

    return sig_ds.map_batches(f, batch_format="pyarrow")


# bumped whenever MinHasher's lane construction changes (2 =
# splitmix64 per-lane bijections, 2026-08-18; 1 = the biased linear
# family). An index written under another family holds incomparable
# band hashes: matching against it would SILENTLY miss cross-wave
# duplicates, so reads refuse instead.
SIG_FAMILY = 2


def _check_family(index_dir: str, *, num_perm: int, bands: int,
                  shingle: str, create: bool) -> None:
    import json
    path = os.path.join(index_dir, "_FAMILY.json")
    want = {"sig_family": SIG_FAMILY, "num_perm": num_perm,
            "bands": bands, "shingle": shingle}
    if os.path.exists(path):
        with open(path) as f:
            have = json.load(f)
        if have != want:
            raise ValueError(
                f"incremental index at {index_dir} was built with "
                f"{have}; this build is {want} — band/signature state "
                "is incomparable across MinHash families or banding "
                "configs (matching would silently miss cross-wave "
                "duplicates). Rebuild the index or pin the old "
                "parameters.")
        return
    # no stamp: an index that already holds wave state predates the
    # family stamp (the biased family-1 era) — stamping it now (or
    # matching against it unchecked) would silently miss cross-wave
    # duplicates, the exact failure the guard exists to prevent
    if any(os.path.isdir(os.path.join(index_dir, kind))
           for kind in ("bands", "sigs")):
        raise ValueError(
            f"incremental index at {index_dir} holds wave state but "
            "no _FAMILY.json stamp — it predates the signature-family "
            "guard and its band hashes are incomparable with this "
            "build. Rebuild the index.")
    if create:
        from ..state.checkpoint import write_json_atomic
        os.makedirs(index_dir, exist_ok=True)
        # atomic: a torn stamp would fail every later wave's json.load
        write_json_atomic(path, want)


def write_wave_index(ds, index_dir: str, *, wave: int,
                     num_perm: int = 128, bands: int = 16,
                     shingle: str = "word3", text_col: str = "text",
                     id_col: str = "doc_id",
                     batch_size: int = 4096, sig_ds=None) -> None:
    """Append one wave's MinHash state to the index. Pass a
    precomputed (and ideally materialized) ``sig_ds`` to skip the
    signature pass entirely — incremental_dedup_wave does."""
    _check_family(index_dir, num_perm=num_perm, bands=bands,
                  shingle=shingle, create=True)
    if sig_ds is None:
        sig_ds = signatures_ds(ds, num_perm=num_perm, shingle=shingle,
                               text_col=text_col, id_col=id_col,
                               batch_size=batch_size)
    bands_from_sigs(sig_ds, bands=bands).write_parquet(
        _wave_dir(index_dir, "bands", wave))
    sig_ds.write_parquet(_wave_dir(index_dir, "sigs", wave))


_HIST_COLUMNS = {"bands": ["band", "band_hash", "doc_id"],
                 "sigs": ["doc_id", "sig"]}


def _history_ds(index_dir: str, kind: str, *, before_wave: int):
    """Union of all indexed waves strictly before ``before_wave``
    (column-pruned parquet read — the hive `wave=` partition column
    never leaves storage), or None when no history exists."""
    import ray.data as rd
    base = os.path.join(index_dir, kind)
    if not os.path.isdir(base):
        return None
    dirs = sorted(d for d in os.listdir(base)
                  if d.startswith("wave=")
                  and int(d.split("=")[1]) < before_wave)
    if not dirs:
        return None
    paths = []
    for d in dirs:
        full = os.path.join(base, d)
        paths += [os.path.join(full, f) for f in sorted(os.listdir(full))
                  if f.endswith(".parquet")]
    return rd.read_parquet(paths, columns=_HIST_COLUMNS[kind])


def _sig_agreement(sa, sb) -> float:
    """Unbiased MinHash Jaccard estimate: fraction of equal lanes."""
    return float(np.mean(np.asarray(sa, dtype=np.int64)
                         == np.asarray(sb, dtype=np.int64)))


def _mixed_pairs(df: pd.DataFrame) -> pd.DataFrame:
    """Within-(band, band_hash) pairs that involve AT LEAST ONE new
    doc (old-old pairs were found when their waves were processed).
    Emits has_old so the drop policy can tell cross-wave matches from
    same-wave ones. Fully vectorized (offset-diagonal, see
    dedup._pair_positions): rows are ordered new-first within each
    group, so a pair's EARLIER position is old only when both sides
    are old — one mask excludes exactly the old-old pairs."""
    from .dedup import _group_codes, _pair_positions

    dup = df[df.duplicated(["band", "band_hash"], keep=False)]
    if dup.empty:
        return _empty_pairs({"has_old": "bool"})
    sub = dup.drop_duplicates(["band", "band_hash", "doc_id"])
    code = _group_codes(sub, ["band", "band_hash"])
    ids = sub["doc_id"].to_numpy(dtype=np.int64)
    isnew = sub["is_new"].to_numpy(dtype=bool)
    order = np.lexsort((ids, ~isnew, code))     # new rows first
    code, ids, isnew = code[order], ids[order], isnew[order]
    i, j = _pair_positions(code)
    valid = isnew[i] if len(i) else np.empty(0, dtype=bool)
    if not valid.any():
        return _empty_pairs({"has_old": "bool"})
    a, b = ids[i[valid]], ids[j[valid]]
    return pd.DataFrame({"id_a": np.minimum(a, b),
                         "id_b": np.maximum(a, b),
                         "has_old": ~isnew[j[valid]]})


def incremental_dedup_wave(new_ds, index_dir: str, *, wave: int,
                           threshold: float = 0.7, num_perm: int = 128,
                           bands: int = 16, shingle: str = "word3",
                           text_col: str = "text", id_col: str = "doc_id",
                           batch_size: int = 4096,
                           append_index: bool = True) -> dict:
    """Dedup one ingest wave against itself AND the index of all prior
    waves. Returns {"kept": Dataset of kept new ids, "pairs": Dataset
    of (id_a, id_b, has_old, est_jaccard)}; when ``append_index`` the
    wave's band/signature state is written so the NEXT wave sees it.

    Doc ids must be globally unique across waves (the id_col contract
    of the whole dedup suite).
    """
    import pyarrow as pa
    import ray.data as rd

    from ..relational import bucketed_map_groups

    # refuse an index written under a different MinHash family or
    # banding config — its band hashes would never match this wave's
    _check_family(index_dir, num_perm=num_perm, bands=bands,
                  shingle=shingle, create=append_index)

    def tag(is_new):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            b = b.copy(deep=False)
            b["is_new"] = is_new
            return b
        return f

    # THE signature pass — everything below reuses this one Dataset
    sig_ds = signatures_ds(new_ds, num_perm=num_perm, shingle=shingle,
                           text_col=text_col, id_col=id_col,
                           batch_size=batch_size).materialize()

    new_bands = (bands_from_sigs(sig_ds, bands=bands)
                 .map_batches(tag(True), batch_format="pandas"))
    hist_bands = _history_ds(index_dir, "bands", before_wave=wave)
    all_bands = new_bands if hist_bands is None else new_bands.union(
        hist_bands.map_batches(tag(False), batch_format="pandas"))

    cand_ds = _dedup_pairs_ds(
        bucketed_map_groups(all_bands, ["band", "band_hash"],
                            _mixed_pairs)).materialize()

    # verification payloads: this wave's signatures plus historical
    # ones, filtered to candidate docs — no signature recompute
    ids_ds = _pair_ids_ds(cand_ds, id_col).materialize()
    rename = (lambda t: t.rename_columns(["doc_id", "pl"]))
    all_sigs = sig_ds.map_batches(rename, batch_format="pyarrow")
    hist_sigs = _history_ds(index_dir, "sigs", before_wave=wave)
    if hist_sigs is not None:
        all_sigs = all_sigs.union(
            hist_sigs.map_batches(rename, batch_format="pyarrow"))

    def reencode(b: pd.DataFrame) -> pa.Table:
        # back to an explicit Arrow list<int64> after the pandas
        # filter (ndarray cells must never enter a shuffle); zero-copy
        # offsets+flat build, rows are fixed-length num_perm
        vals = b["pl"].to_numpy()
        lens = np.fromiter((len(x) for x in vals), np.int64,
                           count=len(vals))
        offs = np.zeros(len(vals) + 1, dtype=np.int64)
        np.cumsum(lens, out=offs[1:])
        flat = (np.concatenate([np.asarray(v, dtype=np.int64)
                                for v in vals])
                if len(vals) else np.empty(0, np.int64))
        arr = pa.ListArray.from_arrays(pa.array(offs, type=pa.int32()),
                                       pa.array(flat, type=pa.int64()))
        return pa.Table.from_arrays(
            [pa.array(b["doc_id"].to_numpy(dtype=np.int64)), arr],
            names=["doc_id", "pl"])

    payload_ds = _id_filter(all_sigs, ids_ds, "doc_id",
                            batch_size=batch_size).map_batches(
        reencode, batch_format="pandas")

    # score with the wave flag carried through (no re-attach shuffle)
    scored = _pairwise_verify(cand_ds, payload_ds, _sig_agreement,
                              "est_jaccard", extra_cols=["has_old"])

    def thresh(b: pd.DataFrame) -> pd.DataFrame:
        keep = b[np.round(b["est_jaccard"].to_numpy(dtype=np.float64), 4)
                 >= threshold]
        return keep[["id_a", "id_b", "has_old", "est_jaccard"]]

    pairs_out = scored.map_batches(thresh,
                                   batch_format="pandas").materialize()

    # drop policy: history wins, then min-id components among new-new
    hist_hits = pairs_out.map_batches(
        lambda b: pd.DataFrame({"doc_id": np.unique(np.concatenate([
            b.loc[b["has_old"], "id_a"].to_numpy(dtype=np.int64),
            b.loc[b["has_old"], "id_b"].to_numpy(dtype=np.int64)]))}),
        batch_format="pandas")
    # only NEW ids can be dropped by a has_old pair; old ids in those
    # pairs are filtered out by intersecting with the wave's own ids
    hist_dropped = _id_filter(
        sig_ds.map_batches(lambda t: t.select(["doc_id"]),
                           batch_format="pyarrow"),
        hist_hits, "doc_id", batch_size=batch_size)

    nn_pairs = pairs_out.map_batches(
        lambda b: b.loc[~b["has_old"], ["id_a", "id_b"]],
        batch_format="pandas")
    comp = components_min_label(nn_pairs)
    nn_dropped = comp.loc[comp["node"] != comp["rep"], ["node"]].rename(
        columns={"node": "doc_id"})

    drop_ds = hist_dropped
    if not nn_dropped.empty:
        drop_ds = drop_ds.union(rd.from_pandas(nn_dropped))
    kept = _id_filter(
        sig_ds.map_batches(lambda t: t.select(["doc_id"]),
                           batch_format="pyarrow"),
        drop_ds, "doc_id", anti=True, batch_size=batch_size)
    if id_col != "doc_id":
        kept = kept.map_batches(
            lambda t: t.rename_columns([id_col]), batch_format="pyarrow")

    if append_index:
        write_wave_index(new_ds, index_dir, wave=wave, num_perm=num_perm,
                         bands=bands, shingle=shingle, text_col=text_col,
                         id_col=id_col, batch_size=batch_size,
                         sig_ds=sig_ds)
    return {"kept": kept, "pairs": pairs_out}
