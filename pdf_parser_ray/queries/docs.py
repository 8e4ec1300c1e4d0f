"""Document queries: text statistics and curation — token counts,
quality and repetition rules, language id, PII scrub, n-gram and
language-model scores, tokenizer (BPE) surfaces, mixing and packing,
exact/chunk/line dedup and the curation funnel."""

from __future__ import annotations

import functools
import math
import shutil
import tempfile

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..pipelines.curation import curate_corpus
from ..relational import (bucketed_map_groups, grouped_agg, grouped_agg_ds,
                          grouped_global_rank, guard_broadcast_bytes,
                          hash_join, ordered_exclusive_cumsum,
                          pool_actor_cpus, pool_size, quantile_exact,
                          read_table, semi_join, topk)
from ..stages.classifier import (confusion_counts, featurize_batch,
                                 quality_label_inject_batch, train_logreg)
from ..stages.dedup import exact_dedup_keep
from ..stages.incremental import incremental_dedup_wave
from ..stages.sketches import heavy_hitters
from ..stages.spans import (contamination_counts, line_dedup_ds,
                            strip_duplicate_spans)
from ..stages.text_analysis import (BPE_FIXED_MERGES, LangId, _CJK, _REP_DUP,
                                    _REP_LINE, _REP_PHRASE, _REP_TOP,
                                    _STOPWORDS, bigram_counts_arrow,
                                    blocklist_flag_batch,
                                    blocklist_inject_batch,
                                    bpe_encode_symbol_rows, bpe_pair_rows,
                                    c4_filters_batch, c4_inject_batch,
                                    clean_text_batch, dsir_bucket_rows,
                                    gopher_rep_inject_batch,
                                    gopher_repetition_batch,
                                    gopher_rules_batch,
                                    index_postings_partial,
                                    line_dedup_inject_batch,
                                    md5_fingerprint_batch, pii_inject_batch,
                                    pii_scrub_batch, quality_batch,
                                    repetition_ratio_batch, tf_rows_arrow,
                                    token_count_batch, token_counts_arrow,
                                    train_bpe_merges, winnow_batch,
                                    word_token_counts_arrow)
from ..state.shared_index import DedupIndex
from ._common import query


@query(oracle="""
        WITH d AS (SELECT doc_id, lang,
                          (CAST(doc_id AS HUGEINT) * 2654435761)
                          % 4294967296 AS h
                   FROM documents),
             c AS (SELECT lang, CAST(CEIL(0.1 * COUNT(*)) AS BIGINT) AS k
                   FROM documents GROUP BY lang),
             r AS (SELECT d.doc_id, d.lang, c.k,
                          row_number() OVER (PARTITION BY d.lang
                                             ORDER BY d.h, d.doc_id) AS rn
                   FROM d JOIN c USING (lang))
        SELECT doc_id, lang FROM r WHERE rn <= k ORDER BY doc_id
    """)
def docs_stratified_sample(sf_dir: str) -> pd.DataFrame:
    """Deterministic stratified sampling: exactly ceil(10%) of each
    language stratum, chosen by a Knuth-hash order on doc_id so the
    sample is reproducible and SQL-expressible. Two passes: tiny
    per-stratum counts, then per-batch partial top-k (each batch ships
    at most k rows per stratum into the shuffle) + per-stratum final
    top-k — the full table never enters the shuffle."""

    ds = read_table(sf_dir, "documents", ["doc_id", "lang"])
    counts = grouped_agg(ds, ["lang"], {"n": ("count", None)})
    k_by_lang = {l: math.ceil(0.1 * n)
                 for l, n in zip(counts["lang"], counts["n"])}

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        # uint64 multiply wraps mod 2^64; % 2^32 then equals exact
        # arithmetic (2^32 | 2^64) — see weighted_sample
        b = b.assign(h=((b["doc_id"].to_numpy(dtype=np.int64)
                         .astype(np.uint64) * np.uint64(2654435761))
                        % np.uint64(1 << 32)).astype(np.int64))
        b = b.sort_values(["h", "doc_id"], kind="mergesort")
        return b.groupby("lang", sort=False, observed=True).head(
            max(k_by_lang.values()))

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["h", "doc_id"], kind="mergesort")
        return pd.concat([gg.head(k_by_lang[l]) for l, gg in
                          g.groupby("lang", sort=False, observed=True)])

    partials = ds.map_batches(partial, batch_format="pandas")
    out = bucketed_map_groups(partials, ["lang"], final).to_pandas()
    return (out[["doc_id", "lang"]].sort_values("doc_id")
            .reset_index(drop=True))


@query(oracle="""
        WITH q AS (
          SELECT doc_id, text,
                 len(regexp_extract_all(text, '\\S+')) AS n_tokens,
                 CASE WHEN length(text) > 0
                      THEN len(regexp_extract_all(text, '[A-Za-z]')) * 1.0
                           / length(text) ELSE 0 END AS alpha_ratio
          FROM documents WHERE lang = 'en'),
        f AS (SELECT * FROM q
              WHERE n_tokens >= 50 AND alpha_ratio >= 0.8),
        k AS (SELECT MIN(doc_id) AS doc_id FROM f GROUP BY text)
        SELECT f.doc_id, f.n_tokens, f.alpha_ratio
        FROM f JOIN k USING (doc_id) ORDER BY f.doc_id
    """)
def docs_training_mix(sf_dir: str) -> pd.DataFrame:
    """End-to-end training-data curation pipeline COMPOSED from the
    engine's own operators, fully SQL-oracled: language filter ->
    vectorized quality scoring -> quality gate (n_tokens >= 50,
    alpha_ratio >= 0.8) -> exact content dedup (min-id representative)
    -> kept-id semi-join. The gated working set is pinned once in the
    (spillable) object store for its two consumers rather than
    re-scanned; the only driver state is the kept-id set (at real
    scale that broadcast becomes the Bloom-filter semi join exercised
    by parts_bloom_prefilter)."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text", "lang"])

    def gate(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["lang"] == "en"]
        q = quality_batch(b)
        keep = (q["n_tokens"] >= 50) & (q["alpha_ratio"] >= 0.8)
        out = q.loc[keep, ["doc_id", "n_tokens", "alpha_ratio"]]
        return out.assign(text=b.loc[keep.to_numpy(), "text"].to_numpy())

    gated = ds.map_batches(gate, batch_format="pandas").materialize()
    kept = exact_dedup_keep(gated)
    out = semi_join(gated, set(kept["doc_id"]), on="doc_id").to_pandas()
    return (out[["doc_id", "n_tokens", "alpha_ratio"]]
            .sort_values("doc_id").reset_index(drop=True))


@query(oracle="""
        WITH w AS (SELECT doc_id, string_split(text, ' ') AS words
                   FROM documents),
        i AS (SELECT doc_id, words,
                     unnest(range(0, CAST(CEIL(len(words) / 25.0)
                                          AS BIGINT))) AS chunk_idx
              FROM w),
        c AS (SELECT doc_id, chunk_idx,
                     array_to_string(list_slice(words, chunk_idx * 25 + 1,
                                                chunk_idx * 25 + 25),
                                     ' ') AS chunk
              FROM i),
        k AS (SELECT chunk, MIN(ROW(doc_id, chunk_idx)) AS fk
              FROM c GROUP BY chunk),
        kept AS (SELECT c.* FROM c JOIN k ON c.chunk = k.chunk
                 AND ROW(c.doc_id, c.chunk_idx) = k.fk)
        SELECT doc_id,
               string_agg(chunk, ' ' ORDER BY chunk_idx) AS dedup_text,
               COUNT(*) AS n_kept
        FROM kept GROUP BY doc_id ORDER BY doc_id
    """)
def docs_chunk_dedup(sf_dir: str) -> pd.DataFrame:
    """Chunk-level (paragraph-analog) exact dedup: split each doc into
    25-word chunks, keep only the FIRST global occurrence of each
    distinct chunk (ordered by (doc_id, chunk_idx)), and reassemble
    each doc from its surviving chunks — the repeated-boilerplate
    removal step of web-corpus curation. Two bucketed shuffles: chunks
    grouped by content (winner = min occurrence per group, chosen
    inside the bucket — no global winner set is ever broadcast), then
    survivors regrouped by doc for ordered reassembly. Docs whose every
    chunk was seen earlier disappear (SQL inner-join semantics)."""
    CH = 25
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def chunks(b: pd.DataFrame) -> pd.DataFrame:
        ids, idxs, chs = [], [], []
        for did, t in zip(b["doc_id"], b["text"]):
            words = t.split(" ")       # matches SQL string_split exactly
            for i in range((len(words) + CH - 1) // CH):
                ids.append(did)
                idxs.append(i)
                chs.append(" ".join(words[i * CH:(i + 1) * CH]))
        return pd.DataFrame({
            "doc_id": pd.array(ids, dtype="int64"),
            "chunk_idx": pd.array(idxs, dtype="int64"),
            "chunk": chs,
        })

    def keep_first(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["chunk", "doc_id", "chunk_idx"],
                          kind="mergesort")
        return g.drop_duplicates("chunk", keep="first")

    def reassemble(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("chunk_idx", kind="mergesort")
        gg = g.groupby("doc_id", sort=False)
        return pd.DataFrame({
            "dedup_text": gg["chunk"].agg(" ".join),
            "n_kept": gg.size().astype("int64"),
        }).reset_index()

    chunk_ds = ds.map_batches(chunks, batch_format="pandas")
    kept = bucketed_map_groups(chunk_ds, ["chunk"], keep_first)
    out = bucketed_map_groups(kept, ["doc_id"], reassemble).to_pandas()
    return (out[["doc_id", "dedup_text", "n_kept"]]
            .sort_values("doc_id").reset_index(drop=True))


@query(oracle="""
        WITH toks AS (SELECT doc_id,
                             unnest(string_split(text, ' ')) AS token
                      FROM documents),
        cnt AS (SELECT token, COUNT(*) AS c FROM toks GROUP BY token),
        s AS (SELECT t.doc_id, CAST(SUM(c.c) AS BIGINT) AS sum_freq,
                     COUNT(*) AS n_tokens
              FROM toks t JOIN cnt c USING (token) GROUP BY t.doc_id)
        SELECT doc_id, n_tokens, sum_freq,
               CAST(sum_freq AS DOUBLE) / n_tokens AS avg_token_freq
        FROM s ORDER BY doc_id
    """)
def docs_commonness(sf_dir: str) -> pd.DataFrame:
    """Corpus-statistic document scoring (the unigram-LM quality-filter
    analog, kept in exact integer arithmetic so it is bit-oracle-able):
    pass 1 computes global token counts distributed (partial counts per
    batch, bucketed combine); pass 2 broadcasts the frequency table and
    scores each doc as the average global count of its tokens —
    boilerplate-/stopword-heavy docs score high, rare-vocab docs low.
    At web scale the broadcast table is the top-V vocabulary with a
    default count for the long tail."""

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def tok_partial(b: pd.DataFrame) -> pd.DataFrame:
        ex = b["text"].str.split(" ").explode()
        vc = ex.value_counts()
        return pd.DataFrame({"token": vc.index, "c": vc.to_numpy()})

    counts = bucketed_map_groups(
        ds.map_batches(tok_partial, batch_format="pandas"), ["token"],
        lambda g: g.groupby("token", as_index=False, sort=False)["c"].sum()
    ).to_pandas()
    # broadcast the vocabulary as (sorted 64-bit token hashes, counts)
    # numpy arrays: ray.get of numpy is zero-copy from the object store
    # per task, where a python dict would re-unpickle every entry in
    # every scoring task (measured). Lookup is np.searchsorted; tokens
    # always hit (pass 2 scans the same corpus as pass 1), and 64-bit
    # siphash collisions at vocabulary sizes are negligible (~1e-9).
    th = pd.util.hash_pandas_object(counts["token"],
                                    index=False).to_numpy()
    order = np.argsort(th, kind="stable")
    guard_broadcast_bytes(2 * th.nbytes, "commonness vocabulary",
                          "broadcast the top-V vocabulary with a tail "
                          "default count instead of the full table")
    freq_ref = ray.put((th[order],
                        counts["c"].to_numpy(dtype=np.int64)[order]))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        hs, cs = ray.get(freq_ref)
        toks = b["text"].str.split(" ")
        ex = toks.explode()
        eh = pd.util.hash_pandas_object(ex, index=False).to_numpy()
        pos = np.minimum(np.searchsorted(hs, eh), len(hs) - 1)
        f = pd.Series(cs[pos], index=ex.index)
        sums = f.groupby(level=0).sum()
        n = toks.str.len()
        return pd.DataFrame({
            "doc_id": b["doc_id"],
            "n_tokens": n.astype("int64"),
            "sum_freq": sums.reindex(b.index).astype("int64"),
            "avg_token_freq": (sums.reindex(b.index) / n).astype("float64"),
        })

    out = ds.map_batches(score, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


@query(oracle=r"""
        WITH t AS (SELECT doc_id,
                          regexp_extract_all(text, '\S+') AS toks
                   FROM documents),
        bi AS (SELECT doc_id, toks[i] AS a, toks[i+1] AS b
               FROM (SELECT doc_id, toks,
                            unnest(generate_series(1, len(toks) - 1))
                              AS i
                     FROM t WHERE len(toks) > 1)),
        cab AS (SELECT a, b, COUNT(*) AS c_ab FROM bi GROUP BY a, b)
        SELECT bi.doc_id,
               CAST(COUNT(*) AS BIGINT) AS n_bigrams,
               CAST(SUM(CASE WHEN cab.c_ab = 1 THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_novel,
               SUM(CASE WHEN cab.c_ab = 1 THEN 1 ELSE 0 END) * 1.0
                 / COUNT(*) AS novelty_rate
        FROM bi JOIN cab USING (a, b)
        GROUP BY bi.doc_id ORDER BY bi.doc_id
    """)
def docs_bigram_novelty(sf_dir: str) -> pd.DataFrame:
    """Per-document bigram NOVELTY rate — the memorization/template QA
    statistic: the fraction of a doc's adjacent token pairs that occur
    exactly once in the whole corpus (template chrome scores ~0, fresh
    prose ~1). Two passes, integer-exact: (1) distributed corpus
    bigram counts keyed by the 64-bit row hash of the (a, b) pair
    (collisions ~1e-9, same budget as docs_commonness), (2) the
    count==1 hash set broadcast as ONE sorted numpy array (guarded;
    top-V + tail default at web scale) and membership tested by
    searchsorted inside map_batches. Docs with fewer than 2 tokens
    have no bigram and are excluded, mirroring the SQL's len > 1."""

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def _pairs(b: pd.DataFrame):
        toks = b["text"].str.findall(r"\S+")
        lens = toks.str.len().to_numpy(dtype=np.int64)
        if int(lens.sum()) == 0:
            return None
        flat = np.concatenate([np.asarray(t, dtype=object)
                               for t in toks.to_numpy()])
        ends = np.cumsum(lens)
        valid = np.ones(max(len(flat) - 1, 0), dtype=bool)
        # cross-document seams; empty leading docs give end=0 -> -1,
        # which must not wrap to the last pair
        seams = ends[:-1] - 1
        seams = seams[(seams >= 0) & (seams < len(valid))]
        valid[seams] = False
        a = flat[:-1][valid]
        b2 = flat[1:][valid]
        h = pd.util.hash_pandas_object(
            pd.DataFrame({"a": a, "b": b2}), index=False).to_numpy()
        docs = np.repeat(b["doc_id"].to_numpy(dtype=np.int64),
                         np.maximum(lens - 1, 0))
        return h, docs

    def count_partial(b: pd.DataFrame) -> pd.DataFrame:
        p = _pairs(b)
        if p is None:
            return pd.DataFrame({"ph": pd.array([], dtype="uint64"),
                                 "c": pd.array([], dtype="int64")})
        h, _ = p
        vc = pd.Series(h).value_counts()
        return pd.DataFrame({"ph": vc.index.to_numpy(),
                             "c": vc.to_numpy()})

    counts = grouped_agg_ds(
        ds.map_batches(count_partial, batch_format="pandas"),
        ["ph"], {"c": ("sum", "c")})
    def _novel_of(b: pd.DataFrame) -> pd.DataFrame:
        if "ph" not in b.columns:     # an all-empty combine bucket
            return pd.DataFrame({"ph": pd.array([], dtype="uint64")})
        return b.loc[b["c"] == 1, ["ph"]]

    novel_pdf = (counts.map_batches(_novel_of, batch_format="pandas")
                 .to_pandas())
    novel = (novel_pdf["ph"].to_numpy() if "ph" in novel_pdf.columns
             else np.empty(0, dtype=np.uint64))
    novel = np.sort(novel)
    guard_broadcast_bytes(novel.nbytes, "novel-bigram hash set",
                          "broadcast only the top-V frequent-pair "
                          "table and treat the unseen tail as novel")
    novel_ref = ray.put(novel)

    def score(b: pd.DataFrame) -> pd.DataFrame:
        p = _pairs(b)
        if p is None:
            return pd.DataFrame({
                "doc_id": pd.array([], dtype="int64"),
                "n_bigrams": pd.array([], dtype="int64"),
                "n_novel": pd.array([], dtype="int64"),
                "novelty_rate": pd.array([], dtype="float64")})
        h, docs = p
        nv = ray.get(novel_ref)
        if len(nv) == 0:        # corpus with no unique pair at all
            is_novel = np.zeros(len(h), dtype=bool)
        else:
            pos = np.searchsorted(nv, h)
            is_novel = (pos < len(nv)) \
                & (nv[np.minimum(pos, len(nv) - 1)] == h)
        g = pd.DataFrame({"doc_id": docs,
                          "one": np.int64(1),
                          "nov": is_novel.astype(np.int64)}) \
            .groupby("doc_id", as_index=False, sort=False).sum()
        g = g.rename(columns={"one": "n_bigrams", "nov": "n_novel"})
        g["novelty_rate"] = (g["n_novel"].to_numpy(dtype=np.float64)
                             * 1.0
                             / g["n_bigrams"].to_numpy(dtype=np.float64))
        return g.astype({"doc_id": "int64", "n_bigrams": "int64",
                         "n_novel": "int64"})

    out = ds.map_batches(score, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


_BPE_SQL = r"[A-Za-z0-9_]+|[^A-Za-z0-9_ \t\n\r\f\v]"


@query(oracle=f"""
        SELECT doc_id,
               len(regexp_extract_all(text, '\\S+')) AS n_tokens,
               len(regexp_extract_all(text, '{_BPE_SQL}')) AS n_tokens_bpe
        FROM documents ORDER BY doc_id
    """)
def docs_token_counts(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    return (ds.map_batches(token_count_batch, batch_format="pandas")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


@query(oracle="""
        WITH ql AS (
          SELECT quantile_cont(n_chars, [0.125, 0.25, 0.375, 0.5,
                                         0.625, 0.75, 0.875]) AS q
          FROM documents),
        th AS (SELECT CAST(unnest(q) * 8 AS BIGINT) AS t_e8 FROM ql),
        b AS (
          SELECT d.doc_id, d.n_chars,
                 (SELECT CAST(SUM(CASE WHEN 8 * d.n_chars > t.t_e8
                                       THEN 1 ELSE 0 END) AS BIGINT)
                  FROM th t) AS bucket
          FROM documents d)
        SELECT bucket,
               CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(MAX(n_chars) AS BIGINT) AS max_chars,
               CAST(COUNT(*) * MAX(n_chars) - SUM(n_chars) AS BIGINT)
                 AS padding_waste
        FROM b GROUP BY bucket ORDER BY bucket
    """)
def docs_length_buckets(sf_dir: str) -> pd.DataFrame:
    """Sequence-length bucketing (8 exact octile buckets over n_chars)
    with per-bucket padding-waste accounting — the batching-efficiency
    op an LLM data pipeline runs before padding fixed-shape batches.
    The octile thresholds are EXACT quantile_cont order statistics
    computed from the cardinality-bounded value histogram in
    eighth-units (t_e8 = v_lo*(8-f8) + v_hi*f8 stays int64), bucket
    membership is count(8*x > t_e8) via one broadcast searchsorted,
    and waste = n*max - sum per bucket — integer arithmetic end to
    end, mirrored term-for-term in the oracle."""
    ds = read_table(sf_dir, "documents", ["doc_id", "n_chars"])
    hist = (grouped_agg(ds, ["n_chars"], {"cnt": ("count", None)})
            .sort_values("n_chars").reset_index(drop=True))
    counts = hist["cnt"].to_numpy(dtype=np.int64)
    values = hist["n_chars"].to_numpy(dtype=np.int64)
    n = int(counts.sum())
    cum = counts.cumsum()
    ths = []
    for i in range(1, 8):
        h8 = (n - 1) * i                      # rank in eighth-units
        lo_rank, f8 = divmod(h8, 8)
        hi_rank = lo_rank + (1 if f8 else 0)
        v_lo = int(values[np.searchsorted(cum, lo_rank + 1)])
        v_hi = int(values[np.searchsorted(cum, hi_rank + 1)])
        ths.append(v_lo * (8 - f8) + v_hi * f8)
    th = np.sort(np.array(ths, dtype=np.int64))

    def bucketize(b: pd.DataFrame) -> pd.DataFrame:
        x = b["n_chars"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "bucket": np.searchsorted(th, 8 * x, side="left")
            .astype(np.int64),
            "n_chars": x})

    agg = grouped_agg(ds.map_batches(bucketize, batch_format="pandas"),
                      ["bucket"], {"n_docs": ("count", None),
                                   "max_chars": ("max", "n_chars"),
                                   "sum_chars": ("sum", "n_chars")})
    agg["padding_waste"] = (agg["n_docs"].to_numpy(dtype=np.int64)
                            * agg["max_chars"].to_numpy(dtype=np.int64)
                            - agg["sum_chars"].to_numpy(dtype=np.int64))
    return (agg[["bucket", "n_docs", "max_chars", "padding_waste"]]
            .astype({"bucket": "int64", "n_docs": "int64",
                     "max_chars": "int64", "padding_waste": "int64"})
            .sort_values("bucket").reset_index(drop=True))


@query(oracle="""
        WITH t AS (SELECT doc_id,
                          len(regexp_extract_all(text, '\\S+')) AS n_tokens
                   FROM documents),
        c AS (SELECT doc_id, n_tokens,
                     COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
                        ROWS BETWEEN UNBOUNDED PRECEDING
                        AND 1 PRECEDING), 0) AS cum
              FROM t)
        SELECT doc_id, n_tokens,
               CAST(cum // 512 AS BIGINT) AS seq_id,
               CAST(cum % 512 AS BIGINT) AS seq_offset
        FROM c ORDER BY doc_id
    """)
def docs_pack_sequences(sf_dir: str) -> pd.DataFrame:
    """Token-budget sequence packing (split-allowed streaming packing
    for LLM pretraining shards): documents in doc_id order fill fixed
    512-token sequences; each doc is assigned (seq_id, seq_offset) =
    divmod(exclusive running token count, 512). The running count is
    the engine's ordered-scan primitive
    (relational.ordered_exclusive_cumsum): value-range partition +
    per-range prefix broadcast, no global sort, driver holds n_ranges
    scalars. SQL-window-oracle exact."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    toks = ds.map_batches(
        lambda b: token_count_batch(b)[["doc_id", "n_tokens"]],
        batch_format="pandas")
    packed = ordered_exclusive_cumsum(toks, order_col="doc_id",
                                      value_col="n_tokens")

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        cum = b["cum"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy(),
            "n_tokens": b["n_tokens"].to_numpy(dtype=np.int64),
            "seq_id": cum // 512,
            "seq_offset": cum % 512,
        })

    return (packed.map_batches(finish, batch_format="pandas")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


@query
def docs_incremental_dedup(sf_dir: str) -> pd.DataFrame:
    """Two-wave incremental near-dup dedup over documents (the
    production wave-at-a-time shape): wave 0 = even doc_ids, indexed
    (band rows + signatures persisted to parquet); wave 1 = odd
    doc_ids PLUS exact copies of every doc_id % 4 == 0 doc under
    shifted ids. History wins: the copies must drop against the index
    without re-reading wave-0 texts; wave-1 near-dup clusters keep
    their min id. Rows-only check (the cross-wave verifier is the
    128-lane MinHash signature estimate, not SQL-expressible)."""

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    w0 = ds.map_batches(lambda b: b[b["doc_id"] % 2 == 0],
                        batch_format="pandas")

    def shifted_copies(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["doc_id"] % 4 == 0].copy()
        b["doc_id"] = b["doc_id"] + 10_000_000
        return b

    w1 = (ds.map_batches(lambda b: b[b["doc_id"] % 2 == 1],
                         batch_format="pandas")
          .union(ds.map_batches(shifted_copies, batch_format="pandas")))
    idx = tempfile.mkdtemp(prefix="incdedup_")
    try:
        incremental_dedup_wave(w0, idx, wave=0, threshold=0.7)
        r = incremental_dedup_wave(w1, idx, wave=1, threshold=0.7)
        kept = r["kept"].to_pandas()
    finally:
        shutil.rmtree(idx, ignore_errors=True)
    return (kept.sort_values("doc_id").reset_index(drop=True)
            .astype({"doc_id": "int64"}))


@query(oracle="""
        SELECT source, lang,
               CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(n_chars) AS BIGINT) AS sum_chars,
               CAST(GROUPING(lang) AS BIGINT) AS g_lang,
               CAST(GROUPING(source) AS BIGINT) AS g_source
        FROM documents GROUP BY ROLLUP (source, lang)
        ORDER BY g_source, g_lang, source NULLS FIRST, lang NULLS FIRST
    """)
def docs_source_lang_rollup(sf_dir: str) -> pd.DataFrame:
    """ROLLUP over (source, lang): doc counts and exact char sums at
    all three levels — the corpus-composition report a training-mix
    designer reads first. One distributed aggregation at the finest
    level; the coarser levels re-sum its cardinality-bounded result
    (int64 char sums re-sum exactly). GROUPING flags disambiguate
    rolled-up NULLs."""
    ds = read_table(sf_dir, "documents", ["source", "lang", "n_chars"])
    fine = grouped_agg(ds, ["source", "lang"],
                       {"n_docs": ("count", None),
                        "s": ("sum", "n_chars")})

    def lvl(df, g_lang, g_src):
        return pd.DataFrame({
            "source": (df["source"] if not g_src
                       else pd.Series([None] * len(df), dtype="object")),
            "lang": (df["lang"] if not g_lang
                     else pd.Series([None] * len(df), dtype="object")),
            "n_docs": df["n_docs"].astype("int64").to_numpy(),
            "sum_chars": df["s"].astype("int64").to_numpy(),
            "g_lang": np.int64(g_lang), "g_source": np.int64(g_src)})

    by_src = (fine.groupby("source", sort=False)
              .agg(n_docs=("n_docs", "sum"), s=("s", "sum"))
              .reset_index())
    total = pd.DataFrame({"source": [None],
                          "n_docs": [fine["n_docs"].sum()],
                          "s": [fine["s"].sum()]})
    out = pd.concat([lvl(fine, 0, 0), lvl(by_src, 1, 0),
                     lvl(total, 1, 1)], ignore_index=True)
    return (out.astype({"n_docs": "int64", "sum_chars": "int64",
                        "g_lang": "int64", "g_source": "int64"})
            .sort_values(["g_source", "g_lang", "source", "lang"],
                         na_position="first")
            .reset_index(drop=True))


@query(oracle="""
        SELECT doc_id, source, n_chars FROM (
            SELECT doc_id, source, n_chars,
                   ROW_NUMBER() OVER (PARTITION BY source
                                      ORDER BY n_chars DESC, doc_id) AS rn
            FROM documents) WHERE rn <= 3
        ORDER BY doc_id
    """)
def docs_cap_per_source(sf_dir: str) -> pd.DataFrame:
    """Per-key document cap (crawl curation: keep at most K docs per
    source domain, preferring longer docs, ties to the smaller id).
    The per-batch partial already enforces the cap, so at most K rows
    per (source, input block) enter the shuffle — the grouped-top-k
    combiner pattern; one bucketed final applies the identical rank.
    SQL oracle: ROW_NUMBER() window."""
    K = 3
    ds = read_table(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def topn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["source", "n_chars", "doc_id"],
                            ascending=[True, False, True],
                            kind="mergesort")
        return df.groupby("source", sort=False, observed=True).head(K)

    partial = ds.map_batches(topn, batch_format="pandas")
    out = bucketed_map_groups(partial, ["source"], topn).to_pandas()
    return (out[["doc_id", "source", "n_chars"]]
            .sort_values("doc_id").reset_index(drop=True))


@query(oracle="""
        WITH c AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n
                   FROM documents GROUP BY source),
        q AS (SELECT source, n,
                     CAST(FLOOR(200 * (pow(CAST(n AS DOUBLE), 0.7)
                          / (SELECT SUM(pow(CAST(n AS DOUBLE), 0.7))
                             FROM c))) AS BIGINT) AS k
              FROM c),
        r AS (SELECT d.doc_id, d.source,
                     ROW_NUMBER() OVER (
                       PARTITION BY d.source
                       ORDER BY (CAST(d.doc_id AS HUGEINT) * 2654435761)
                                  % 4294967296,
                                d.doc_id) AS rn
              FROM documents d)
        SELECT r.doc_id, r.source
        FROM r JOIN q USING (source)
        WHERE rn <= LEAST(q.k, q.n) ORDER BY doc_id
    """)
def docs_temperature_mix(sf_dir: str) -> pd.DataFrame:
    """TEMPERATURE-SAMPLED source mixing (the multilingual-LLM
    rebalancing op: sample source s in proportion to n_s^alpha,
    alpha=0.7, so heavy sources are down-weighted and light ones
    up-weighted). Per-source quotas come from the tiny source-count
    aggregate (k_s = floor(budget * n_s^0.7 / sum n^0.7), float
    expression mirrored term for term in SQL); membership is the
    deterministic multiplicative-hash rank WITHIN source — the same
    SQL-reproducible key as docs_shuffle_order — computed distributed
    via per-batch per-source bottom-k partials (k varies per source,
    broadcast as a dict) and one bucketed final. Every piece is exact,
    so the sampled id set is bit-equal to the SQL window oracle."""

    BUDGET = 200
    ALPHA = 0.7
    ds = read_table(sf_dir, "documents", ["doc_id", "source"])
    counts = grouped_agg(ds, ["source"], {"n": ("count", None)})
    counts = counts.sort_values("source").reset_index(drop=True)
    w = np.power(counts["n"].to_numpy(dtype=np.float64), ALPHA)
    quota = np.floor(BUDGET * (w / w.sum())).astype(np.int64)
    # a source's quota never exceeds its size (alpha < 1 guarantees
    # it only when the budget is <= total; floor keeps us safe here)
    quota = np.minimum(quota, counts["n"].to_numpy(dtype=np.int64))
    kmap = dict(zip(counts["source"], quota))
    guard_broadcast_bytes(64 * len(kmap), "temperature quota map",
                          "co-partition the quota attach by source")
    ref = ray.put(kmap)

    def keyed_topk(b: pd.DataFrame) -> pd.DataFrame:
        km = ray.get(ref)
        b = b.copy(deep=False)
        ids = b["doc_id"].to_numpy(dtype=np.int64)
        h = (ids.astype(np.uint64) * np.uint64(2654435761)) \
            % np.uint64(4294967296)
        b["__h"] = h.astype(np.int64)
        b = b.sort_values(["source", "__h", "doc_id"], kind="mergesort")
        g = b.groupby("source", sort=False, observed=True)
        b["__r"] = g.cumcount()
        kk = b["source"].map(km).fillna(0).to_numpy(dtype=np.int64)
        return b[b["__r"].to_numpy() < kk].drop(columns="__r")

    partial = ds.map_batches(keyed_topk, batch_format="pandas")
    out = bucketed_map_groups(partial, ["source"],
                              keyed_topk).to_pandas()
    return (out[["doc_id", "source"]].astype({"doc_id": "int64"})
            .sort_values("doc_id").reset_index(drop=True))


@query(oracle=r"""
        WITH t AS (
          SELECT doc_id, source,
                 CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT)
                   AS n_tok,
                 (CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296
                   AS h
          FROM documents),
        tot AS (SELECT source, CAST(SUM(n_tok) AS BIGINT) AS toks
                FROM t GROUP BY source),
        b AS (SELECT source,
                     CAST(FLOOR(20000 * (pow(CAST(toks AS DOUBLE), 0.7)
                          / (SELECT SUM(pow(CAST(toks AS DOUBLE), 0.7))
                             FROM tot))) AS BIGINT) AS budget
              FROM tot),
        c AS (SELECT doc_id, source, n_tok,
                     SUM(n_tok) OVER (PARTITION BY source
                                      ORDER BY h, doc_id
                                      ROWS UNBOUNDED PRECEDING) AS cum
              FROM t)
        SELECT c.doc_id, c.source, c.n_tok
        FROM c JOIN b USING (source)
        WHERE c.cum - c.n_tok < b.budget
        ORDER BY doc_id
    """)
def docs_token_budget_mix(sf_dir: str) -> pd.DataFrame:
    """TOKEN-budget temperature mixing — the variant of
    docs_temperature_mix a pretraining run actually schedules by:
    per-source budgets are allocated over TOKEN mass, not document
    count (budget_s = floor(TOTAL * toks_s^0.7 / sum toks^0.7)), and
    docs are admitted in deterministic multiplicative-hash order until
    each source's token budget is exhausted (the boundary-crossing doc
    is kept — greedy admission, so a source whose budget covers it
    keeps every doc).

    Scale shape: NO global sort and never a whole source in one task.
    One skinny pass computes (n_tok, hash, hash-range); per-(source,
    range) token sums are a cardinality-bounded aggregate whose
    driver-side exclusive prefix (n_sources x 16 scalars — the
    ordered-scan primitive of docs_pack_sequences, partitioned by
    source) broadcasts with the budget map; one bucketed shuffle on
    (source, range) then admits locally: local hash-order cumsum plus
    the range's offset, compare against the budget. Every piece is
    integer or a term-for-term float mirror, so the admitted id set is
    bit-equal to the SQL window oracle."""

    TOTAL = 20_000
    ALPHA = 0.7
    ds = read_table(sf_dir, "documents", ["doc_id", "text", "source"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy(dtype=np.int64)
        h = ((ids.astype(np.uint64) * np.uint64(2654435761))
             % np.uint64(4294967296))
        return pd.DataFrame({
            "doc_id": ids,
            "source": b["source"].values,
            "n_tok": b["text"].str.count(r"\S+")
            .to_numpy(dtype=np.int64),
            "h": h.astype(np.int64),
            "rng": (h >> np.uint64(28)).astype(np.int64)})

    # skinny (no text) and feeds two consumers (the range sums and the
    # admission shuffle) — pin per the repo-wide multi-consumer rule
    t = ds.map_batches(prep, batch_format="pandas").materialize()

    sums = grouped_agg(t, ["source", "rng"], {"s": ("sum", "n_tok")})
    sums = sums.sort_values(["source", "rng"]).reset_index(drop=True)
    tot = sums.groupby("source", as_index=False, sort=True)["s"].sum()
    w = np.power(tot["s"].to_numpy(dtype=np.float64), ALPHA)
    tw = float(w.sum())
    if tw <= 0.0:        # every doc empty: nothing admissible
        budget = np.zeros(len(tot), dtype=np.int64)
    else:
        budget = np.floor(TOTAL * (w / tw)).astype(np.int64)
    bmap = dict(zip(tot["source"], budget))
    offs = {}
    for src, grp in sums.groupby("source", sort=False):
        run = 0
        for r, v in zip(grp["rng"], grp["s"]):
            offs[(src, int(r))] = run
            run += int(v)
    guard_broadcast_bytes(96 * len(offs) + 64 * len(bmap),
                          "token-budget offsets + budget map",
                          "raise the range shift / co-partition the "
                          "budget attach by source")
    ref = ray.put((offs, bmap))

    def admit(g: pd.DataFrame) -> pd.DataFrame:
        o, bm = ray.get(ref)
        g = g.sort_values(["source", "rng", "h", "doc_id"],
                          kind="mergesort")
        outs = []
        for (src, r), grp in g.groupby(["source", "rng"], sort=False):
            ntk = grp["n_tok"].to_numpy(dtype=np.int64)
            cum = o[(src, int(r))] + np.cumsum(ntk)
            keep = (cum - ntk) < bm[src]
            outs.append(grp.loc[keep, ["doc_id", "source", "n_tok"]])
        if not outs:
            return g[["doc_id", "source", "n_tok"]]
        return pd.concat(outs, ignore_index=True)

    out = bucketed_map_groups(t, ["source", "rng"], admit).to_pandas()
    if "doc_id" not in out.columns:   # empty corpus: typed empty frame
        out = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                            "source": pd.Series([], dtype=object),
                            "n_tok": pd.Series([], dtype="int64")})
    return (out.astype({"doc_id": "int64", "n_tok": "int64"})
            .sort_values("doc_id").reset_index(drop=True))


@query
def docs_strip_dup_spans(sf_dir: str) -> pd.DataFrame:
    """Cross-document duplicate-SPAN removal (Lee et al. 2022 style):
    every verbatim 8-token window shared by >= 2 documents is stripped
    from all but one globally-elected winner occurrence; unique
    surrounding text survives. Fully distributed — window rows shuffle
    by hash, cuts shuffle by doc — see stages/spans.py. No SQL oracle
    (token-window semantics aren't SQL-expressible); the pytest scalar
    oracle in tests/test_spans.py pins exact semantics."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    out = strip_duplicate_spans(ds, n=8).to_pandas()
    out["clean_len"] = out["clean_text"].str.len().astype("int64")
    return (out[["doc_id", "n_spans", "chars_removed", "clean_len"]]
            .astype({"doc_id": "int64", "n_spans": "int64",
                     "chars_removed": "int64"})
            .sort_values("doc_id").reset_index(drop=True))


@query(oracle=r"""
        WITH toks AS (
          SELECT doc_id, regexp_extract_all(text, '\S+') AS t
          FROM documents),
        wins AS (
          SELECT doc_id, array_to_string(t[u.i:u.i+7], ' ') AS win
          FROM toks,
               unnest(generate_series(1, greatest(len(t) - 7, 0)))
                 AS u(i)),
        bench AS (SELECT DISTINCT win FROM wins WHERE doc_id % 50 = 0),
        train AS (SELECT doc_id, win FROM wins WHERE doc_id % 50 <> 0),
        hits AS (
          SELECT tr.doc_id, COUNT(b.win) AS hit
          FROM train tr LEFT JOIN bench b USING (win)
          GROUP BY tr.doc_id)
        SELECT d.doc_id, COALESCE(h.hit, 0) AS n_overlap,
               CAST(CASE WHEN COALESCE(h.hit, 0) > 0 THEN 1 ELSE 0 END
                    AS BIGINT) AS contaminated
        FROM documents d LEFT JOIN hits h USING (doc_id)
        WHERE d.doc_id % 50 <> 0 ORDER BY d.doc_id
    """)
def docs_decontaminate(sf_dir: str) -> pd.DataFrame:
    """Benchmark decontamination: docs with doc_id % 50 == 0 play the
    eval/benchmark corpus; every remaining training doc is scored by
    how many of its verbatim 8-token windows appear anywhere in the
    benchmark set (GPT-3-appendix-C-style n-gram hygiene). Benchmark
    windows broadcast once as a sorted hash array; zero shuffles on
    the training side. DuckDB oracle builds the same windows via
    regexp_extract_all + list slicing."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    bench = ds.map_batches(lambda b: b[b["doc_id"] % 50 == 0],
                           batch_format="pandas")
    train = ds.map_batches(lambda b: b[b["doc_id"] % 50 != 0],
                           batch_format="pandas")
    out = contamination_counts(train, bench, n=8).to_pandas()
    out["contaminated"] = (out["n_overlap"] > 0).astype("int64")
    return (out.astype({"doc_id": "int64", "n_overlap": "int64"})
            .sort_values("doc_id").reset_index(drop=True))


@query(oracle=r"""
        WITH toks AS (
          SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS token
          FROM documents),
        tf AS (SELECT doc_id, token, COUNT(*) AS tf
               FROM toks GROUP BY doc_id, token),
        df AS (SELECT token, COUNT(*) AS df
               FROM tf GROUP BY token),
        n AS (SELECT COUNT(*) AS n FROM documents),
        scored AS (
          SELECT tf.doc_id, tf.token, tf.tf, df.df,
                 tf.tf * ln(CAST(n.n AS DOUBLE) / df.df) AS score
          FROM tf JOIN df USING (token) CROSS JOIN n),
        ranked AS (
          SELECT *, ROW_NUMBER() OVER (
                     PARTITION BY doc_id
                     ORDER BY score DESC, token) AS rn
          FROM scored)
        SELECT doc_id, token, tf, df FROM ranked
        WHERE rn <= 3 ORDER BY doc_id, token
    """)
def docs_tfidf_topk(sf_dir: str) -> pd.DataFrame:
    """Per-document top-3 TF-IDF terms (corpus-relative salience —
    the classic quality/topic feature). Composition: per-batch exact
    tf rows (each doc lives in one row), distributed df via
    grouped_agg_ds over the token vocabulary, partitioned hash_join
    tf x df (vocab is NOT assumed driver-small), then the grouped-
    top-k combiner pattern per doc. The raw float score is NOT in the
    verified output: numpy's log and DuckDB's ln differ by 1-3 ulp on
    identical inputs (measured at sf0.01), so the hash-verified
    surface is the exact integers (tf, df) plus the RANKING itself —
    which embeds the score ordinally on both sides."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    n_docs = ds.count()

    # tf feeds BOTH the df aggregate and the join probe: pin it once
    # so the tokenization pass does not re-execute per consumer.
    # Arrow-native (RE2 split + C++ hash group-by): no pandas object
    # arrays on the tokenization hot path
    tf = ds.map_batches(tf_rows_arrow,
                        batch_format="pyarrow").materialize()
    df = grouped_agg_ds(tf, ["token"], {"df": ("count", None)})
    joined = hash_join(tf, df, on="token")

    K = 3

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy(deep=False)
        g["score"] = (g["tf"].to_numpy(dtype=np.float64)
                      * np.log(float(n_docs)
                               / g["df"].to_numpy(dtype=np.float64)))
        g = g.sort_values(["doc_id", "score", "token"],
                          ascending=[True, False, True],
                          kind="mergesort")
        return g.groupby("doc_id", sort=False).head(K)

    partial = joined.map_batches(topk, batch_format="pandas")
    out = bucketed_map_groups(partial, ["doc_id"], topk).to_pandas()
    return (out[["doc_id", "token", "tf", "df"]]
            .astype({"doc_id": "int64", "tf": "int64", "df": "int64"})
            .sort_values(["doc_id", "token"]).reset_index(drop=True))


@query(oracle=r"""
        WITH toks AS (
          SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS token
          FROM documents),
        tf AS (SELECT doc_id, token, COUNT(*) AS tf
               FROM toks GROUP BY doc_id, token),
        df AS (SELECT token, COUNT(*) AS df
               FROM tf GROUP BY token),
        dl AS (SELECT doc_id, CAST(SUM(tf) AS BIGINT) AS dl
               FROM tf GROUP BY doc_id),
        t AS (SELECT (SELECT COUNT(*) FROM documents) AS n_docs,
                     (SELECT SUM(dl) FROM dl) AS n_toks),
        scored AS (
          SELECT tf.doc_id, tf.token, tf.tf, df.df, dl.dl,
                 ln((CAST(t.n_docs AS DOUBLE) - df.df + 0.5)
                    / (df.df + 0.5) + 1.0)
                 * (tf.tf * 2.2)
                 / (tf.tf + 1.2 * (0.25 + 0.75
                    * (dl.dl / (CAST(t.n_toks AS DOUBLE) / t.n_docs))))
                   AS score
          FROM tf JOIN df USING (token) JOIN dl USING (doc_id)
               CROSS JOIN t),
        ranked AS (
          SELECT *, ROW_NUMBER() OVER (
                     PARTITION BY doc_id
                     ORDER BY score DESC, token) AS rn
          FROM scored)
        SELECT doc_id, token, tf, df, dl FROM ranked
        WHERE rn <= 3 ORDER BY doc_id, token
    """)
def docs_bm25_topk(sf_dir: str) -> pd.DataFrame:
    """Per-document top-3 BM25 terms (k1=1.2, b=0.75) — the IR-grade
    salience scorer that adds document-length normalization on top of
    TF-IDF. Same distributed shape as docs_tfidf_topk (tf rows ->
    vocab df via grouped_agg_ds -> partitioned joins; nothing assumes
    a driver-small vocabulary) plus a per-doc length join. As with
    TF-IDF, ln() differs from DuckDB by ulps, so the verified surface
    is the exact integers (tf, df, dl) and the top-3 MEMBERSHIP under
    (score desc, token asc) ranking, mirrored expression-for-
    expression in the oracle so both sides evaluate the identical
    IEEE double tree."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    n_docs = ds.count()

    tf = ds.map_batches(tf_rows_arrow,
                        batch_format="pyarrow").materialize()
    df = grouped_agg_ds(tf, ["token"], {"df": ("count", None)})
    n_toks = int(tf.map_batches(
        lambda b: pd.DataFrame({"s": [b["tf"].sum()]}),
        batch_format="pandas").to_pandas()["s"].sum())
    # one join attaches df (vocabulary-keyed — never assumed
    # driver-small); the doc-length attach needs NO join at all: the
    # per-doc bucket below holds every (doc, token, tf) row of its
    # docs, so dl is a groupby-sum inside the same shuffle that the
    # top-k combine already pays
    joined = hash_join(tf, df, on="token")

    K = 3
    avgdl = float(n_toks) / float(n_docs)

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy(deep=False)
        g["dl"] = g.groupby("doc_id", sort=False)["tf"].transform("sum")
        tfv = g["tf"].to_numpy(dtype=np.float64)
        dfv = g["df"].to_numpy(dtype=np.float64)
        dlv = g["dl"].to_numpy(dtype=np.float64)
        idf = np.log((float(n_docs) - dfv + 0.5) / (dfv + 0.5) + 1.0)
        g["score"] = idf * (tfv * 2.2) \
            / (tfv + 1.2 * (0.25 + 0.75 * (dlv / avgdl)))
        g = g.sort_values(["doc_id", "score", "token"],
                          ascending=[True, False, True],
                          kind="mergesort")
        return g.groupby("doc_id", sort=False).head(K)

    out = bucketed_map_groups(joined, ["doc_id"], topk).to_pandas()
    return (out[["doc_id", "token", "tf", "df", "dl"]]
            .astype({"doc_id": "int64", "tf": "int64", "df": "int64",
                     "dl": "int64"})
            .sort_values(["doc_id", "token"]).reset_index(drop=True))


# Engine expression tree mirrored exactly: p = cnt / n (DOUBLE), then
# w = tf * ln(p), ce = -SUM(w) / SUM(tf) rounded to 3dp.
@query(oracle=r"""
    WITH toks AS (
      SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS token
      FROM documents),
    tf AS (SELECT doc_id, token, COUNT(*) AS tf
           FROM toks GROUP BY doc_id, token),
    cnt AS (SELECT token, SUM(tf) AS cnt FROM tf GROUP BY token),
    t AS (SELECT CAST(SUM(cnt) AS DOUBLE) AS n FROM cnt),
    w AS (SELECT tf.doc_id, tf.tf,
                 tf.tf * ln(CAST(cnt.cnt AS DOUBLE) / t.n) AS w
          FROM tf JOIN cnt USING (token) CROSS JOIN t)
    SELECT doc_id, CAST(SUM(tf) AS BIGINT) AS dl,
           ROUND(-SUM(w) / SUM(tf), 3) AS ce
    FROM w GROUP BY doc_id ORDER BY doc_id
""")
def docs_unigram_ce(sf_dir: str) -> pd.DataFrame:
    """Per-document unigram cross-entropy against the corpus's OWN
    unigram LM — the CCNet-style fluency/quality proxy (Wenzek et al.
    2020 rank web documents by LM perplexity; with no external model
    allowed, the corpus-self unigram CE has the same shape: docs made
    of common tokens score low, rare-token docs score high, and the
    score feeds the same quality-gate/temperature-mix stages). Shape:
    ONE Arrow tokenize pass pinned for both consumers, corpus token
    counts via grouped_agg_ds over the vocabulary (never assumed
    driver-small), partitioned hash_join tf x cnt on token, then
    per-doc sufficient statistics (sum tf*ln p, dl) through one more
    grouped_agg_ds — no per-doc Python, no doc-keyed wide shuffle
    beyond the aggregate. ce is rounded to 3dp (np.log and DuckDB ln
    differ by ulps — the established float surface; dl is exact
    int64)."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    tf = ds.map_batches(tf_rows_arrow,
                        batch_format="pyarrow").materialize()
    cnt = grouped_agg_ds(tf, ["token"], {"cnt": ("sum", "tf")})
    sums = tf.map_batches(
        lambda b: pd.DataFrame({"s": [b["tf"].sum()]}),
        batch_format="pandas").to_pandas()
    n_toks = int(sums["s"].sum()) if "s" in sums.columns else 0
    if n_toks == 0:
        return pd.DataFrame({"doc_id": pd.array([], dtype="int64"),
                             "dl": pd.array([], dtype="int64"),
                             "ce": pd.array([], dtype="float64")})
    joined = hash_join(tf, cnt, on="token")

    def contrib(b: pd.DataFrame) -> pd.DataFrame:
        tfv = b["tf"].to_numpy(dtype=np.float64)
        p = b["cnt"].to_numpy(dtype=np.float64) / float(n_toks)
        return pd.DataFrame({"doc_id": b["doc_id"].values,
                             "w": tfv * np.log(p),
                             "tf": b["tf"].values})

    per_doc = grouped_agg_ds(
        joined.map_batches(contrib, batch_format="pandas"),
        ["doc_id"], {"sw": ("sum", "w"),
                     "dl": ("sum", "tf")}).to_pandas()
    per_doc["ce"] = np.round(
        -per_doc["sw"].to_numpy(dtype=np.float64)
        / per_doc["dl"].to_numpy(dtype=np.float64), 3)
    return (per_doc[["doc_id", "dl", "ce"]]
            .astype({"doc_id": "int64", "dl": "int64"})
            .sort_values("doc_id").reset_index(drop=True))


def _bigram_nll_per_doc(sf_dir: str, *, per_lang: bool = False):
    """Shared bigram-LM scorer behind docs_bigram_lm_ppl (global LM)
    and docs_ccnet_buckets (one LM PER LANGUAGE, the paper's actual
    shape): P(b|a) = (C(a,b)+1) / (C(a)+V) with C over the corpus (or
    the language's slice), C(a) the bigram-head count and V the
    continuation vocabulary — all derivable from the ONE bigram
    table, so the corpus is tokenized exactly once. Shape: per-batch
    doc-bigram partials (Arrow kernel, lang carried as a group key
    when per_lang) -> corpus bigram stats via grouped_agg_ds (never
    driver-resident) -> head counts fuse into the per-pair log-weight
    in ONE (lang,)a-keyed bucketed pass (vocab-side work, never doc
    rows) -> one partitioned hash_join of doc partials against the
    log-weight on a length-prefix-framed (lang,)a,b key (tokens may
    contain any non-space byte, so 'len(x):x' framing keeps the
    composite key collision-free) -> per-doc sufficient stats through
    grouped_agg_ds. Returns a Dataset of (doc_id[, lang], m, nll) —
    nll rounded 3dp (the docs_unigram_ce float surface), m exact
    int64 — or None for a bigram-less corpus; docs with < 2 tokens
    have no bigram and emit no row, mirroring the SQL."""

    lcols = ["lang"] if per_lang else []
    ds = read_table(sf_dir, "documents", ["doc_id", "text"] + lcols)
    rows = ds.map_batches(
        functools.partial(bigram_counts_arrow, out_col="k",
                          id_col=["doc_id"] + lcols),
        batch_format="pyarrow").materialize()
    corpus = grouped_agg_ds(rows, lcols + ["a", "b"],
                            {"cb": ("sum", "k")}).materialize()
    # continuation-vocabulary size V: per language when per_lang (a
    # dict of n_langs scalars in the closure), else one scalar
    if per_lang:
        vf = grouped_agg_ds(
            grouped_agg_ds(corpus, ["lang", "b"],
                           {"_n": ("count", None)}),
            ["lang"], {"v": ("count", None)}).to_pandas()
        vmap = dict(zip(vf["lang"], vf["v"].astype(np.int64)))
        if not vmap:
            return None
    else:
        n_cont = grouped_agg_ds(corpus, ["b"],
                                {"nb": ("count", None)}).count()
        if n_cont == 0:
            return None

    def _frame_key(df: pd.DataFrame) -> pd.Series:
        a = df["a"].astype(str)
        k = a.str.len().astype(str) + ":" + a + df["b"].astype(str)
        if per_lang:
            lg = df["lang"].astype(str)
            k = lg.str.len().astype(str) + ":" + lg + k
        return k

    # head counts fuse into the per-pair log-weight in ONE
    # (lang,)a-keyed bucketed pass (ca is a within-group transform),
    # replacing a grouped_agg_ds + hash_join round trip — same
    # shuffle count as a plain aggregate, and group size is bounded
    # by the continuations of one head token, never the corpus
    def lw_group(df: pd.DataFrame) -> pd.DataFrame:
        ca = (df.groupby(lcols + ["a"], observed=True)["cb"]
              .transform("sum").to_numpy(np.float64))
        v = (df["lang"].map(vmap).to_numpy(np.float64) if per_lang
             else float(n_cont))
        return pd.DataFrame({
            "ab": _frame_key(df),
            "lw": np.log(
                (df["cb"].to_numpy(np.float64) + 1.0) / (ca + v))})

    lwt = bucketed_map_groups(corpus, lcols + ["a"], lw_group)

    def key_rows(b: pd.DataFrame) -> pd.DataFrame:
        out = {"doc_id": b["doc_id"].values}
        if per_lang:
            out["lang"] = b["lang"].values
        out.update({"ab": _frame_key(b), "k": b["k"].values})
        return pd.DataFrame(out)

    joined = hash_join(
        rows.map_batches(key_rows, batch_format="pandas"), lwt, on="ab")

    def contrib(b: pd.DataFrame) -> pd.DataFrame:
        out = {"doc_id": b["doc_id"].values}
        if per_lang:
            out["lang"] = b["lang"].values
        out.update({"w": b["k"].to_numpy(np.float64)
                    * b["lw"].to_numpy(np.float64),
                    "k": b["k"].values})
        return pd.DataFrame(out)

    per_doc = grouped_agg_ds(
        joined.map_batches(contrib, batch_format="pandas"),
        ["doc_id"] + lcols, {"sw": ("sum", "w"), "m": ("sum", "k")})

    def fin(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy(deep=False)
        b["nll"] = np.round(
            -b["sw"].to_numpy(np.float64)
            / b["m"].to_numpy(np.float64), 3)
        return b.drop(columns="sw")

    return per_doc.map_batches(fin, batch_format="pandas")


# The bigram-LM oracle reuses the established toks[i]/toks[i+1]
# bigram CTE (docs_bigram_novelty) and mirrors the engine's smoothing
# tree term for term: head counts and the continuation vocabulary V
# both derive from the one corpus bigram table, the per-pair weight is
# ln((cb+1)/(ca+V)) in doubles, and the per-doc mean is ROUNDed to 3dp
# (the docs_unigram_ce float surface). Docs with < 2 tokens emit no
# row on either side.
@query(oracle=r"""
    WITH t AS (SELECT doc_id,
                      regexp_extract_all(text, '\S+') AS toks
               FROM documents),
    bi AS (SELECT doc_id, toks[i] AS a, toks[i+1] AS b
           FROM (SELECT doc_id, toks,
                        unnest(generate_series(1, len(toks) - 1)) AS i
                 FROM t WHERE len(toks) > 1)),
    db AS (SELECT doc_id, a, b, CAST(COUNT(*) AS BIGINT) AS k
           FROM bi GROUP BY doc_id, a, b),
    cb AS (SELECT a, b, CAST(SUM(k) AS BIGINT) AS cb
           FROM db GROUP BY a, b),
    ca AS (SELECT a, CAST(SUM(cb) AS BIGINT) AS ca FROM cb GROUP BY a),
    v AS (SELECT CAST(COUNT(DISTINCT b) AS BIGINT) AS v FROM cb),
    perdoc AS (SELECT db.doc_id,
                      CAST(SUM(db.k) AS BIGINT) AS m,
                      ROUND(-SUM(CAST(db.k AS DOUBLE)
                                 * ln(CAST(cb.cb + 1 AS DOUBLE)
                                      / CAST(ca.ca + v.v AS DOUBLE)))
                            / CAST(SUM(db.k) AS DOUBLE), 3) AS nll
               FROM db
               JOIN cb USING (a, b) JOIN ca USING (a) CROSS JOIN v
               GROUP BY db.doc_id)
    SELECT doc_id, m, nll FROM perdoc ORDER BY doc_id
""")
def docs_bigram_lm_ppl(sf_dir: str) -> pd.DataFrame:
    """Per-document CONDITIONAL bigram-LM negative log-likelihood —
    the CCNet perplexity filter (Wenzek et al. 2020) with the corpus's
    own Laplace-smoothed bigram LM standing in for KenLM (no external
    models allowed). The distributed scorer is _bigram_nll_per_doc
    (shared with docs_ccnet_buckets); this surface is the global-LM
    per-doc report."""
    per = _bigram_nll_per_doc(sf_dir, per_lang=False)
    if per is None:
        return pd.DataFrame({"doc_id": pd.array([], dtype="int64"),
                             "m": pd.array([], dtype="int64"),
                             "nll": pd.array([], dtype="float64")})
    per_doc = per.to_pandas()
    return (per_doc[["doc_id", "m", "nll"]]
            .astype({"doc_id": "int64", "m": "int64"})
            .sort_values("doc_id").reset_index(drop=True))


# docs_ccnet_buckets: the per-language bigram-LM nll (the
# docs_bigram_lm_ppl expression with lang joined into every LM
# statistic) plus NTILE(3) within lang ordered by the ROUNDED nll —
# both sides rank the same 3dp value with doc_id tiebreak, so the
# tercile assignment is deterministic and identical.
@query(oracle=r"""
    WITH t AS (SELECT doc_id, lang,
                      regexp_extract_all(text, '\S+') AS toks
               FROM documents),
    bi AS (SELECT doc_id, lang, toks[i] AS a, toks[i+1] AS b
           FROM (SELECT doc_id, lang, toks,
                        unnest(generate_series(1, len(toks) - 1)) AS i
                 FROM t WHERE len(toks) > 1)),
    db AS (SELECT doc_id, lang, a, b, CAST(COUNT(*) AS BIGINT) AS k
           FROM bi GROUP BY doc_id, lang, a, b),
    cb AS (SELECT lang, a, b, CAST(SUM(k) AS BIGINT) AS cb
           FROM db GROUP BY lang, a, b),
    ca AS (SELECT lang, a, CAST(SUM(cb) AS BIGINT) AS ca
           FROM cb GROUP BY lang, a),
    v AS (SELECT lang, CAST(COUNT(DISTINCT b) AS BIGINT) AS v
          FROM cb GROUP BY lang),
    perdoc AS (SELECT db.doc_id, db.lang,
                      CAST(SUM(db.k) AS BIGINT) AS m,
                      ROUND(-SUM(CAST(db.k AS DOUBLE)
                                 * ln(CAST(cb.cb + 1 AS DOUBLE)
                                      / CAST(ca.ca + v.v AS DOUBLE)))
                            / CAST(SUM(db.k) AS DOUBLE), 3) AS nll
               FROM db
               JOIN cb USING (lang, a, b) JOIN ca USING (lang, a)
               JOIN v USING (lang)
               GROUP BY db.doc_id, db.lang)
    SELECT doc_id, lang, m, nll,
           CAST(NTILE(3) OVER (PARTITION BY lang
                               ORDER BY nll, doc_id) AS BIGINT)
             AS bucket
    FROM perdoc ORDER BY doc_id
""")
def docs_ccnet_buckets(sf_dir: str) -> pd.DataFrame:
    """CCNet head/middle/tail perplexity bucketing (Wenzek et al.
    2020 §3: documents sorted by LM perplexity per language and split
    into three equal parts; head = lowest perplexity). One bigram LM
    per LANGUAGE (the paper trains per-language KenLM models) scores
    every doc via the shared _bigram_nll_per_doc scorer; the bucket
    is NTILE(3) within lang ordered by (nll, doc_id) — computed
    distributed with grouped_global_rank (value-range partition +
    per-(lang, range) prefix scalars, no global sort, no whole-lang
    task), so no stage ever holds a language's corpus in one task.
    Ordering uses the ROUNDED 3dp nll on BOTH sides, so engine and
    DuckDB rank identically (the established float-surface rule);
    doc_id breaks ties."""
    empty = pd.DataFrame({"doc_id": pd.array([], dtype="int64"),
                          "lang": pd.array([], dtype=str),
                          "m": pd.array([], dtype="int64"),
                          "nll": pd.array([], dtype="float64"),
                          "bucket": pd.array([], dtype="int64")})
    per = _bigram_nll_per_doc(sf_dir, per_lang=True)
    if per is None:
        return empty
    per = per.materialize()
    # per-lang doc totals for the NTILE size formula: n_langs scalars
    tot = grouped_agg_ds(per, ["lang"],
                         {"n": ("count", None)}).to_pandas()
    nmap = dict(zip(tot["lang"], tot["n"].astype(np.int64)))
    ranked = grouped_global_rank(per, ["lang"], ["nll", "doc_id"])

    def tile(b: pd.DataFrame) -> pd.DataFrame:
        n = b["lang"].map(nmap).to_numpy(np.int64)
        q, r = n // 3, n % 3
        rn = b["rank"].to_numpy(np.int64)
        big = q + 1
        # SQL NTILE: first n%3 buckets hold q+1 rows, the rest q
        t = np.where(rn < r * big, rn // np.maximum(big, 1) + 1,
                     r + (rn - r * big) // np.maximum(q, 1) + 1)
        return pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy(np.int64),
            "lang": b["lang"].values,
            "m": b["m"].to_numpy(np.int64),
            "nll": b["nll"].values,
            "bucket": t.astype(np.int64)})

    out = ranked.map_batches(tile, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


# docs_quality_percentile: per-language ROW_NUMBER over the raw
# alpha-ratio double (bit-identical on both sides), with the
# percentile emitted as INTEGER milli-percentile via '//' so no
# float ROUND is ever hash-compared.
@query(oracle=r"""
    WITH s AS (SELECT doc_id, lang,
                      CASE WHEN length(text) > 0
                           THEN len(regexp_extract_all(text, '[A-Za-z]'))
                                * 1.0 / length(text)
                           ELSE 0 END AS alpha_ratio
               FROM documents),
    r AS (SELECT doc_id, lang, alpha_ratio,
                 ROW_NUMBER() OVER (PARTITION BY lang
                                    ORDER BY alpha_ratio, doc_id) - 1
                   AS rnk,
                 COUNT(*) OVER (PARTITION BY lang) AS n
          FROM s)
    SELECT doc_id, lang, alpha_ratio, CAST(rnk AS BIGINT) AS rnk,
           CAST(CASE WHEN n > 1 THEN (rnk * 1000) // (n - 1)
                     ELSE 0 END AS BIGINT) AS pct_milli
    FROM r ORDER BY doc_id
""")
def docs_quality_percentile(sf_dir: str) -> pd.DataFrame:
    """Per-language rank-normalized quality calibration: each doc's
    alpha-ratio becomes its percentile WITHIN its language — the
    normalization step curation pipelines apply before a global
    quality threshold, because raw char-class scores are not
    comparable across languages (a fixed alpha-ratio cut keeps
    different quality bands per language; the per-lang percentile
    makes one threshold mean the same thing everywhere). Distributed
    shape: vectorized score kernel -> grouped_global_rank (the
    per-partition ROW_NUMBER primitive: value-range partition +
    per-(lang, range) prefix scalars — no global sort, no whole-lang
    task). The percentile surface is INTEGER milli-percentile
    rank*1000 // (n-1) (0..1000, '//' on both sides), sidestepping
    the ROUND-half mismatch a float rank/(n-1) would hit whenever
    n-1 is a power of two (k/16 = 0.0625 is exact binary: numpy
    rounds half-even, DuckDB half-away). Ordering key is the raw
    alpha-ratio double — bit-identical on both sides (int/int true
    division == DuckDB *1.0/, the docs_quality_scores-established
    fact) — with doc_id tiebreak."""

    def score(b: pd.DataFrame) -> pd.DataFrame:
        text = b["text"]
        length = text.str.len().astype("int64")
        alpha = text.str.count(r"[A-Za-z]").astype("int64")
        return pd.DataFrame({
            "doc_id": b["doc_id"].values, "lang": b["lang"].values,
            "alpha_ratio": np.where(length > 0, alpha / length, 0.0)})

    ds = read_table(sf_dir, "documents", ["doc_id", "text", "lang"])
    scored = ds.map_batches(score, batch_format="pandas").materialize()
    if scored.count() == 0:
        return pd.DataFrame({"doc_id": pd.array([], dtype="int64"),
                             "lang": pd.array([], dtype=str),
                             "alpha_ratio": pd.array([], dtype="float64"),
                             "rnk": pd.array([], dtype="int64"),
                             "pct_milli": pd.array([], dtype="int64")})
    tot = grouped_agg_ds(scored, ["lang"],
                         {"n": ("count", None)}).to_pandas()
    nmap = dict(zip(tot["lang"], tot["n"].astype(np.int64)))
    ranked = grouped_global_rank(scored, ["lang"],
                                 ["alpha_ratio", "doc_id"],
                                 out_col="rnk")

    def pct(b: pd.DataFrame) -> pd.DataFrame:
        n = b["lang"].map(nmap).to_numpy(np.int64)
        rn = b["rnk"].to_numpy(np.int64)
        return pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy(np.int64),
            "lang": b["lang"].values,
            "alpha_ratio": b["alpha_ratio"].values,
            "rnk": rn,
            "pct_milli": np.where(n > 1, rn * 1000 // np.maximum(
                n - 1, 1), 0).astype(np.int64)})

    out = ranked.map_batches(pct, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


@query
def docs_quality_classifier(sf_dir: str) -> pd.DataFrame:
    """Model-based quality filter, TRAINED DISTRIBUTED: a hashed
    bag-of-words logistic regression (the fastText-style classifier
    of the CCNet / GPT-3 / LLaMA curation recipes; fastText is absent
    from this environment, so the model trains here with the engine's
    iterative broadcast pattern — per iteration the weight vector is
    ray.put ONCE and each task returns one (dim+1)-float gradient
    partial, combined driver-side in deterministic blk order; see
    stages/classifier.py). The sf docs are label-free word salad, so
    the deterministic fixture plants per-class marker vocabulary
    (quality_label_inject_batch — the established injected-corpus
    pattern). No SQL oracle (iterative float model — the kmeans/ANN
    class); verified in-query instead: training loss must drop ≥ 5%
    and held-in accuracy must reach 90%, and the pytest suite pins
    the trainer against a single-process numpy reference and the
    confusion matrix across partitionings. Surface is all-integer:
    confusion counts + milli-accuracy."""
    dim, iters = 512, 12
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    feats = (ds.map_batches(quality_label_inject_batch,
                            batch_format="pandas")
             .map_batches(lambda b: featurize_batch(b, dim=dim),
                          batch_format="pandas")
             .materialize())
    # lr sits just past the worst-case full-batch stability bound
    # 2/L = 8/max_active_features (~0.24 at ~33 presence features per
    # doc) and converges to 100% on the planted signal in 12 passes;
    # 4.0 was measured divergent (loss 0.69 -> 5.76).
    w, losses = train_logreg(feats, dim=dim, iters=iters, lr=0.3)
    if not losses:
        return pd.DataFrame({c: pd.array([], dtype="int64")
                             for c in ("n", "tp", "fp", "tn", "fn",
                                       "accuracy_milli")})
    tp, fp, tn, fn = confusion_counts(feats, w, dim=dim)
    n = tp + fp + tn + fn
    acc_milli = (tp + tn) * 1000 // n
    assert losses[-1] < 0.95 * losses[0], \
        f"training loss did not drop: {losses[0]:.4f} -> {losses[-1]:.4f}"
    assert acc_milli >= 900, \
        f"classifier failed to learn the planted signal: acc {acc_milli}"
    return pd.DataFrame({"n": [n], "tp": [tp], "fp": [fp],
                         "tn": [tn], "fn": [fn],
                         "accuracy_milli": [acc_milli]}).astype("int64")


# docs_inverted_index: exact df over distinct (doc, token) pairs;
# postings = k smallest doc ids, list-sliced then string-joined so
# the hash-compared surface is a plain VARCHAR on both sides. The
# \S+ tokenization is the RE2 split shared with every token oracle.
@query(oracle=r"""
    WITH raw AS (
      SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS token
      FROM documents),
    tf AS (SELECT DISTINCT doc_id, token FROM raw),
    g AS (SELECT token, COUNT(*) AS df,
                 list_sort(list(doc_id)) AS ids
          FROM tf GROUP BY token)
    SELECT token, CAST(df AS BIGINT) AS df,
           array_to_string(list_transform(ids[1:8],
                                          x -> CAST(x AS VARCHAR)),
                           ',') AS postings
    FROM g WHERE df >= 5 ORDER BY token
""")
def docs_inverted_index(sf_dir: str) -> pd.DataFrame:
    """Inverted-index EXPORT (the search/retrieval sink a curation
    stack feeds): token -> exact document frequency + the k=8
    smallest doc ids as a champion posting list, pruned to df >= 5.
    Distributed shape: one Arrow tokenize pass emits MERGEABLE
    per-batch partials (batch-local df count + batch-local bottom-k
    postings — docs never split across batches, so the sum/merge is
    exact), then ONE token-hash bucketed combine; no whole-token
    posting list is ever materialized (a common token contributes k
    rows per batch, not df rows), which is what lets the same plan
    run over 100 TB — full postings beyond k would be sharded the
    same way, k rows at a time per merge level. Postings ship as a
    comma-joined string so the hash-compared surface has no
    list-type coercion."""
    K, MIN_DF = 8, 5
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    partials = ds.map_batches(
        lambda t: index_postings_partial(t, k=K),
        batch_format="pyarrow")

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        grp = g.groupby("token", sort=False)
        df = grp["df_p"].sum()
        p = g[g["doc_id"] >= 0].sort_values(["token", "doc_id"],
                                            ignore_index=True)
        p = p[p.groupby("token", sort=False).cumcount().to_numpy() < K]
        p["__s"] = p["doc_id"].astype(str)
        postings = p.groupby("token", sort=False)["__s"].agg(",".join)
        out = pd.DataFrame({"df": df.astype("int64"),
                            "postings": postings}).reset_index()
        return out[out["df"] >= MIN_DF]

    out = bucketed_map_groups(partials, ["token"], combine).to_pandas()
    if not len(out):
        return pd.DataFrame({"token": pd.array([], dtype=str),
                             "df": pd.array([], dtype="int64"),
                             "postings": pd.array([], dtype=str)})
    return out.sort_values("token", ignore_index=True)


# docs_blocklist_filter: the C4 bad-words page gate; injection CASE
# mirrors blocklist_inject_batch branch for branch, and the boundary
# regex is byte-identical to the engine's Arrow RE2 pattern.
@query(oracle=r"""
    WITH inj AS (
      SELECT source,
             text || CASE doc_id % 9
               WHEN 0 THEN ' GrObNik speaking'
               WHEN 3 THEN ' pure zxqvut!'
               WHEN 6 THEN ' xfrobscottley run'
               ELSE '' END AS t
      FROM documents),
    f AS (SELECT source, t,
                 CAST(regexp_matches(t,
                   '(?i)(^|[^a-z0-9])(grobnik|zxqvut|frobscottle)([^a-z0-9]|$)')
                   AS BIGINT) AS blocked
          FROM inj)
    SELECT source, COUNT(*) AS n_docs,
           CAST(SUM(blocked) AS BIGINT) AS n_blocked,
           CAST(SUM(CASE WHEN blocked = 0 THEN length(t) ELSE 0 END)
                AS BIGINT) AS kept_chars,
           CAST(COUNT(*) - SUM(blocked) AS BIGINT) AS kept_docs
    FROM f GROUP BY source ORDER BY source
""")
def docs_blocklist_filter(sf_dir: str) -> pd.DataFrame:
    """The C4 §2.2 bad-words PAGE gate (Raffel et al. 2020: drop any
    page containing a word from a public blocklist) — the one C4
    cleaning rule docs_c4_filters leaves out. The blocklist rides as
    a closure constant compiled into ONE RE2 alternation with
    explicit [^a-z0-9] word boundaries, evaluated by the Arrow C++
    kernel — the same regex engine as the DuckDB oracle, so the
    (?i) case fold and boundary classes agree by construction. The
    sf corpora contain no blockwords, so a deterministic fixture
    plants a mixed-case hit, a punctuation-bounded hit, and an
    embedded-in-a-longer-token NON-hit (blocklist_inject_batch,
    mirrored verbatim in the oracle). Surface is the per-source
    gate report: doc counts, blocked/kept, kept char mass."""

    def flag(t):
        return blocklist_flag_batch(blocklist_inject_batch(t))

    ds = read_table(sf_dir, "documents", ["doc_id", "text", "source"])
    out = grouped_agg(ds.map_batches(flag, batch_format="pyarrow"),
                      ["source"],
                      {"n_docs": ("count", None),
                       "n_blocked": ("sum", "blocked"),
                       "kept_chars": ("sum", "kept_chars")})
    if not len(out) or "n_docs" not in out.columns:
        return pd.DataFrame({
            "source": pd.array([], dtype=str),
            **{c: pd.array([], dtype="int64")
               for c in ("n_docs", "n_blocked", "kept_chars",
                         "kept_docs")}})
    out = out.astype({"n_docs": "int64", "n_blocked": "int64",
                      "kept_chars": "int64"})
    out["kept_docs"] = out["n_docs"] - out["n_blocked"]
    return out.sort_values("source", ignore_index=True)


@query(oracle="""
        SELECT doc_id,
               ROW_NUMBER() OVER (ORDER BY
                 ((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296)
                   * 2147483648 + doc_id) - 1 AS shuffle_pos
        FROM documents ORDER BY doc_id
    """)
def docs_shuffle_order(sf_dir: str) -> pd.DataFrame:
    """Deterministic global training-order shuffle: every doc gets a
    dense position 0..N-1 in multiplicative-hash order — the epoch
    shuffle a trainer replays identically on any cluster shape. No
    global sort: ordered_exclusive_cumsum range-partitions on the
    (unique) hash-derived key, so the only driver state is one prefix
    scalar per range. uint64 hash mirrored in HUGEINT SQL."""
    ds = read_table(sf_dir, "documents", ["doc_id"])

    def keyed(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy(dtype=np.int64)
        h = (ids.astype(np.uint64) * np.uint64(2654435761)) \
            % np.uint64(4294967296)
        b = b.copy(deep=False)
        # (h, doc_id) packed into one unique int64 key: h < 2^32,
        # doc_id < 2^31 keeps the pack collision-free and in range
        b["__key"] = (h.astype(np.int64) << np.int64(31)) + ids
        b["__one"] = np.int64(1)
        return b

    out = (ordered_exclusive_cumsum(ds.map_batches(
        keyed, batch_format="pandas"),
        order_col="__key", value_col="__one", out_col="shuffle_pos")
        .to_pandas())
    return (out[["doc_id", "shuffle_pos"]]
            .astype({"doc_id": "int64", "shuffle_pos": "int64"})
            .sort_values("doc_id").reset_index(drop=True))


# Gopher-rule thresholds mirrored as the SAME cross-multiplied integer
# comparisons the engine evaluates — no float ever enters the compare.
@query(oracle="""
    WITH sig AS (
      SELECT doc_id,
             CAST(len(regexp_extract_all(text, '[^ \t\n\f\r]+'))
                  AS BIGINT) AS word_count,
             CAST(len(regexp_extract_all(text, '[^ \t\n\f\r]'))
                  AS BIGINT) AS word_chars,
             CAST(len(regexp_extract_all(text, '#|\\.\\.\\.|…'))
                  AS BIGINT) AS symbols,
             CAST(length(text) - length(replace(text, chr(10), '')) + 1
                  AS BIGINT) AS n_lines,
             CAST(len(regexp_extract_all(text, '(?m)^[ \t]*[-*•]'))
                  AS BIGINT) AS bullet_lines,
             CAST(len(regexp_extract_all(text,
                  '(?m)(\\.\\.\\.|…)$')) AS BIGINT) AS ellipsis_lines,
             CAST(len(regexp_extract_all(text,
                  '[^ \t\n\f\r]*[A-Za-z][^ \t\n\f\r]*')) AS BIGINT)
               AS alpha_words,
             (SELECT CAST(COUNT(*) AS BIGINT) FROM
                unnest(regexp_extract_all(text, '[^ \t\n\f\r]+'))
                  AS t(tok)
              WHERE regexp_replace(lower(tok),
                      '^[^0-9a-z]+|[^0-9a-z]+$', '', 'g')
                    IN ('the','be','to','of','and','that','have','with'))
               AS stop_hits,
             (SELECT CAST(COUNT(DISTINCT regexp_replace(lower(tok),
                      '^[^0-9a-z]+|[^0-9a-z]+$', '', 'g')) AS BIGINT)
              FROM unnest(regexp_extract_all(text, '[^ \t\n\f\r]+'))
                  AS t(tok)
              WHERE regexp_replace(lower(tok),
                      '^[^0-9a-z]+|[^0-9a-z]+$', '', 'g')
                    IN ('the','be','to','of','and','that','have','with'))
               AS stop_distinct,
             (SELECT COUNT(DISTINCT l.line) FROM
                unnest(string_split(text, chr(10))) AS l(line))
               AS n_distinct
      FROM documents)
    SELECT doc_id, word_count, word_chars, symbols, n_lines,
           bullet_lines, ellipsis_lines, alpha_words, stop_hits,
           stop_distinct,
           CAST(n_lines - n_distinct AS BIGINT) AS dup_lines,
           CAST(word_count >= 50 AND word_count <= 100000 AS BIGINT)
             AS r_word_count,
           CAST(word_chars >= 3 * word_count
                AND word_chars <= 10 * word_count AS BIGINT)
             AS r_mean_word_len,
           CAST(10 * symbols <= word_count AS BIGINT) AS r_symbol_ratio,
           CAST(10 * bullet_lines <= 9 * n_lines AS BIGINT) AS r_bullet,
           CAST(10 * ellipsis_lines <= 3 * n_lines AS BIGINT)
             AS r_ellipsis,
           CAST(5 * alpha_words >= 4 * word_count AS BIGINT)
             AS r_alpha_words,
           CAST(stop_hits >= 2 AS BIGINT) AS r_stopwords,
           CAST(10 * (n_lines - n_distinct) <= 3 * n_lines AS BIGINT)
             AS r_dup_lines,
           CAST((word_count >= 50 AND word_count <= 100000)
                AND (word_chars >= 3 * word_count
                     AND word_chars <= 10 * word_count)
                AND 10 * symbols <= word_count
                AND 10 * bullet_lines <= 9 * n_lines
                AND 10 * ellipsis_lines <= 3 * n_lines
                AND 5 * alpha_words >= 4 * word_count
                AND stop_hits >= 2
                AND 10 * (n_lines - n_distinct) <= 3 * n_lines
                AS BIGINT) AS passes
    FROM sig ORDER BY doc_id
""")
def docs_gopher_rules(sf_dir: str) -> pd.DataFrame:
    """The published Gopher quality-filter rule set (Rae et al. 2021
    table A1) over the documents table — word-count bounds, mean-word-
    length bounds, symbol-to-word ratio, bullet/ellipsis line
    fractions, alphabetic-word fraction, stop-word floor, and the
    duplicate-line-fraction repetition rule. One vectorized
    map_batches pass (pandas .str regex kernels); every threshold is a
    cross-multiplied INTEGER comparison so the whole verified surface
    is float-free and the DuckDB oracle matches bit-exactly."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    return (ds.map_batches(gopher_rules_batch, batch_format="pandas")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


# DSIR mirrors the engine expression-for-expression: the bucket hash
# IS DuckDB's md5_number_upper mod K (the winnow precedent), the two
# histograms are integer-exact, the per-bucket log-ratio is the same
# ln((ct+1)/(tt+K)) - ln((cr+1)/(tr+K)) double tree, and the per-doc
# weight is ROUNDed to 3dp (the docs_unigram_ce float surface);
# `selected` gates on the ROUNDED value so both engines decide
# identically. Docs with no tokens emit no row on either side.
@query(oracle=r"""
    WITH toks AS (
      SELECT doc_id, lang, unnest(regexp_extract_all(text, '\S+'))
               AS token
      FROM documents),
    db AS (SELECT doc_id,
                  CAST(md5_number_upper(token) % 256 AS BIGINT)
                    AS bucket,
                  CAST(COUNT(*) AS BIGINT) AS tf,
                  CAST(SUM(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)
                       AS BIGINT) AS tt
           FROM toks GROUP BY doc_id, bucket),
    hist AS (SELECT bucket, SUM(tf) AS cr, SUM(tt) AS ct
             FROM db GROUP BY bucket),
    tot AS (SELECT SUM(cr) AS tr, SUM(ct) AS ts FROM hist),
    lr AS (SELECT bucket,
                  ln(CAST(ct + 1 AS DOUBLE)
                     / CAST(ts + 256 AS DOUBLE))
                  - ln(CAST(cr + 1 AS DOUBLE)
                       / CAST(tr + 256 AS DOUBLE)) AS lw
           FROM hist CROSS JOIN tot),
    perdoc AS (SELECT db.doc_id,
                      CAST(SUM(db.tf) AS BIGINT) AS dl,
                      ROUND(SUM(CAST(db.tf AS DOUBLE) * lr.lw), 3)
                        AS logw
               FROM db JOIN lr USING (bucket) GROUP BY db.doc_id)
    SELECT doc_id, dl, logw,
           CAST(logw > 0 AS BIGINT) AS selected
    FROM perdoc ORDER BY doc_id
""")
def docs_dsir_weights(sf_dir: str) -> pd.DataFrame:
    """DSIR importance weights (Xie et al. 2023, "Data Selection for
    Language Models via Importance Resampling"): hashed-unigram
    bucket LMs over a TARGET slice (lang = 'en' — the stand-in for
    the paper's high-quality target corpus) and the RAW corpus, and
    per-doc log importance weight sum_tokens(ln pt[b] - ln pr[b])
    with Laplace +1 smoothing over K = 256 buckets. Shape: ONE Arrow
    tokenize pass producing (doc_id, bucket, tf, target-tf) partials
    (the md5-upper-64 bucket hash is memoized per worker and mirrored
    by DuckDB's md5_number_upper, the winnow_batch precedent); the
    two bucket histograms are FIXED-SIZE (K rows) sketches combined
    on the driver and broadcast back in the scoring closure; per-doc
    sums via grouped_agg_ds. logw is rounded to 3dp (np.log vs
    DuckDB ln ulps — the docs_unigram_ce float surface); dl is exact
    int64 and `selected` gates on the ROUNDED value so both engines
    decide identically."""
    K = 256
    ds = read_table(sf_dir, "documents", ["doc_id", "text", "lang"])
    rows = ds.map_batches(dsir_bucket_rows, fn_kwargs={"k": K},
                          batch_format="pandas").materialize()
    # fixed-size sketches: K rows per side regardless of corpus size
    hist = (rows.map_batches(
        lambda b: b.groupby("bucket", as_index=False)
        .agg(tf=("tf", "sum"), tt=("tt", "sum")),
        batch_format="pandas").to_pandas()
        .groupby("bucket").agg(tf=("tf", "sum"), tt=("tt", "sum")))
    if not len(hist):
        return pd.DataFrame({"doc_id": pd.array([], dtype="int64"),
                             "dl": pd.array([], dtype="int64"),
                             "logw": pd.array([], dtype="float64"),
                             "selected": pd.array([], dtype="int64")})
    cr = np.zeros(K, dtype=np.int64)
    ct = np.zeros(K, dtype=np.int64)
    cr[hist.index.to_numpy()] = hist["tf"].to_numpy()
    ct[hist.index.to_numpy()] = hist["tt"].to_numpy()
    tr, tt = int(cr.sum()), int(ct.sum())
    lr = (np.log((ct + 1).astype(np.float64) / np.float64(tt + K))
          - np.log((cr + 1).astype(np.float64) / np.float64(tr + K)))

    def contrib(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": b["doc_id"].values,
            "w": b["tf"].to_numpy(np.float64)
            * lr[b["bucket"].to_numpy()],
            "tf": b["tf"].values})

    per_doc = grouped_agg_ds(
        rows.map_batches(contrib, batch_format="pandas"),
        ["doc_id"], {"logw": ("sum", "w"), "dl": ("sum", "tf")}
    ).to_pandas()
    per_doc["logw"] = np.round(per_doc["logw"].to_numpy(np.float64), 3)
    per_doc["selected"] = (per_doc["logw"] > 0).astype("int64")
    return (per_doc[["doc_id", "dl", "logw", "selected"]]
            .astype({"doc_id": "int64", "dl": "int64"})
            .sort_values("doc_id").reset_index(drop=True))


# BPE pair counts mirror the engine stage-for-stage: the same RE2
# \S+ tokenization, the same distinct-word frequency table, and the
# same code-point pair slicing (DuckDB substring's character offsets
# equal pandas .str.slice — pinned by the unicode parity test).
# Counts are integer-exact; the LIMIT-20 boundary tie-breaks on the
# pair text, identical under Python code-point < and DuckDB's binary
# UTF-8 collation.
@query(oracle=r"""
    WITH toks AS (
      SELECT unnest(regexp_extract_all(text, '\S+')) AS w
      FROM documents),
    words AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS c
              FROM toks GROUP BY w),
    idx AS (SELECT w, c,
                   unnest(generate_series(1, length(w) - 1)) AS i
            FROM words),
    pairs AS (SELECT substring(w, CAST(i AS INTEGER), 2) AS pair,
                     CAST(SUM(c) AS BIGINT) AS cnt
              FROM idx GROUP BY 1)
    SELECT pair, cnt FROM pairs ORDER BY cnt DESC, pair LIMIT 20
""")
def docs_bpe_pair_counts(sf_dir: str) -> pd.DataFrame:
    """First BPE tokenizer-training iteration (Sennrich et al. 2016,
    "Neural Machine Translation of Rare Words with Subword Units"):
    the corpus-wide adjacent character-pair frequency table whose
    argmax is the first merge — the feed a distributed tokenizer
    trainer would loop on. Shape: per-batch token-count partials ->
    the vocabulary combine STAYS a Dataset (grouped_agg_ds — the
    vocabulary never visits the driver) -> weighted pair explosion
    over DISTINCT words only (pair work scales with vocabulary, not
    corpus tokens) -> tiny pair-keyed combine; the driver sees only
    the top-20 report. Ties at the LIMIT boundary break on the pair
    text, which orders identically on both sides (Python code-point
    < vs DuckDB binary UTF-8 collation)."""
    ds = read_table(sf_dir, "documents", ["text"])
    vocab = grouped_agg_ds(
        ds.map_batches(token_counts_arrow, batch_format="pyarrow"),
        ["token"], {"c": ("sum", "cnt")})
    pairs = grouped_agg(
        vocab.map_batches(bpe_pair_rows, batch_format="pandas"),
        ["pair"], {"cnt": ("sum", "n")})
    if not len(pairs):
        return pd.DataFrame({"pair": pd.array([], dtype=str),
                             "cnt": pd.array([], dtype="int64")})
    pairs["cnt"] = pairs["cnt"].astype("int64")
    return (pairs.sort_values(["cnt", "pair"], ascending=[False, True])
            .head(20).reset_index(drop=True))


@query
def docs_bpe_train(sf_dir: str) -> pd.DataFrame:
    """FULL BPE merge training (Sennrich et al. 2016) — the iterative
    loop docs_bpe_pair_counts is one step of: 10 merge rounds, each a
    streaming symbol-pair count over the UNIQUE-WORD frequency
    Dataset (built once; corpus text is read exactly once) with the
    merge list broadcast, exact integer bucketed combine, and a
    per-block top-1 argmax reduction — the third iterative
    distributed trainer in the engine (with Lloyd k-means and the
    logreg quality classifier). No SQL oracle (iterative argmax);
    verified in-query by the max-pair-count monotonicity theorem (a
    pair born of merge r occurs at most n_r times, so n_{r+1} <=
    n_r) plus distinct-merge and positive-count checks, and the
    pytest suite pins the merge table against an independent
    single-process reference trainer (incremental vocabulary
    rewrite, not rank-order replay) and partitioning invariance.
    Surface: (rank, left, right, merged, n) — ints and strings."""
    R = 10
    ds = read_table(sf_dir, "documents", ["text"])
    vocab = grouped_agg_ds(
        ds.map_batches(token_counts_arrow, batch_format="pyarrow"),
        ["token"], {"c": ("sum", "cnt")}).materialize()
    out = train_bpe_merges(vocab, R)
    assert (out["n"] > 0).all(), "merge counts must be positive"
    assert not out[["left", "right"]].duplicated().any(), \
        "merges must be distinct"
    assert (out["n"].diff().dropna() <= 0).all(), \
        f"max pair count must be non-increasing: {out['n'].tolist()}"
    return out


# The BPE-encode oracle is GENERATED from the same fixed merge table
# the engine broadcasts: each merge becomes one replace() over the
# [c][c]-wrapped word (bracket wrapping == one leftmost
# non-overlapping BPE merge pass; see docs_bpe_encode's docstring).
def _bpe_encode_oracle_sql() -> str:
    expr = r"regexp_replace(w, '(.)', '[\1]', 'g')"
    for a, b in BPE_FIXED_MERGES:
        expr = (f"replace({expr}, '[{a}][{b}]', '[{a}{b}]')")
    return rf"""
    WITH toks AS (
      SELECT unnest(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS w
      FROM documents),
    vocab AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS c
              FROM toks GROUP BY w),
    enc AS (SELECT {expr} AS s, c FROM vocab),
    syms AS (SELECT unnest(regexp_extract_all(s, '\[([^\]]*)\]', 1))
                    AS symbol, c
             FROM enc)
    SELECT symbol, CAST(SUM(c) AS BIGINT) AS n
    FROM syms GROUP BY symbol
    ORDER BY n DESC, symbol LIMIT 50
"""


@query(oracle=_bpe_encode_oracle_sql())
def docs_bpe_encode(sf_dir: str) -> pd.DataFrame:
    """BPE tokenizer APPLY — the encode half of the BPE stack
    (docs_bpe_train is the train half): a FIXED 16-merge table
    (corpus-independent so the oracle can embed it; broadcast in the
    batch-fn closure) is replayed in rank order over the UNIQUE-WORD
    vocabulary, so encode work scales with vocabulary size, never
    corpus tokens — corpus text is read exactly once for the (token,
    c) reduce. Surface: top-50 (symbol, n) encoded-symbol totals —
    ints + ASCII strings, hash-exact; ties at the LIMIT boundary
    break on symbol text (identical collation both sides). The
    DuckDB oracle replays the SAME merges as a generated chain of
    replace() calls over [c][c]-wrapped words: bracket wrapping makes
    global leftmost non-overlapping replace() EXACTLY one BPE merge
    pass (no match can straddle a symbol boundary, and consuming the
    trailing ']' never eats the next match's leading '[' — the
    classic shared-space pitfall of space-joined encodings);
    adversarial self-pair cases ((a,a) on 'aaaaa') are pinned in
    tests/test_queries_oracle.py."""
    ds = read_table(sf_dir, "documents", ["text"])
    vocab = grouped_agg_ds(
        ds.map_batches(word_token_counts_arrow,
                       batch_format="pyarrow"),
        ["token"], {"c": ("sum", "cnt")})
    sym = grouped_agg(
        vocab.map_batches(
            lambda b: bpe_encode_symbol_rows(b, BPE_FIXED_MERGES),
            batch_format="pandas"),
        ["symbol"], {"n": ("sum", "n")})
    if not len(sym):
        return pd.DataFrame({"symbol": pd.array([], dtype=str),
                             "n": pd.array([], dtype="int64")})
    sym["n"] = sym["n"].astype("int64")
    return (sym.sort_values(["n", "symbol"], ascending=[False, True])
            .head(50).reset_index(drop=True))


def _gopher_repetition_sql() -> str:
    """The repetition-family oracle, generated per n so the nine
    near-identical correlated subqueries stay in lockstep with
    text_analysis._REP_TOP/_REP_DUP (imported — one threshold
    table for both engines)."""
    def grams(n: str, agg: str) -> str:
        return f"""(SELECT COALESCE(CAST({agg} AS BIGINT), 0) FROM (
          SELECT COUNT(*) AS c, CAST(length(g) - {n - 1} AS BIGINT) AS cl
          FROM unnest(list_transform(
                 generate_series(1, len(tk) - {n - 1}),
                 i -> array_to_string(tk[i:i+{n - 1}], ' '))) AS t(g)
          GROUP BY g))"""
    cols, rules, bools = [], [], []
    for n, (lm, rm) in _REP_TOP.items():
        cols.append(f"{grams(n, 'MAX(c * cl)')} AS top{n}_chars")
        bools.append(f"{lm} * top{n}_chars <= {rm} * word_chars")
        rules.append(f"CAST({bools[-1]} AS BIGINT) AS r_top{n}")
    for n, (lm, rm) in _REP_DUP.items():
        cols.append(f"{grams(n, 'SUM(CASE WHEN c >= 2 THEN c * cl END)')}"
                    f" AS dup{n}_chars")
        bools.append(f"{lm} * dup{n}_chars <= {rm} * word_chars")
        rules.append(f"CAST({bools[-1]} AS BIGINT) AS r_dup{n}")
    bools.append("5 * dup_line_chars <= word_chars")
    rules.append(f"CAST({bools[-1]} AS BIGINT) AS r_dup_line_chars")
    pass_expr = " + ".join(f"CAST({b} AS BIGINT)" for b in bools)
    cols_sql = ",\n             ".join(cols)
    rule_sql = ",\n           ".join(rules)
    return f"""
    WITH aug AS (
      SELECT doc_id,
             CASE WHEN doc_id % 23 = 0
                  THEN t9 || chr(10) || '{_REP_LINE}'
                          || chr(10) || '{_REP_LINE}'
                  ELSE t9 END AS text
      FROM (SELECT doc_id,
                   CASE WHEN doc_id % 9 = 0
                        THEN text || ' {_REP_PHRASE} {_REP_PHRASE}'
                        ELSE text END AS t9
            FROM documents)),
    tk0 AS (
      SELECT doc_id, text,
             regexp_extract_all(text, '[^ \t\n\f\r]+') AS tk
      FROM aug),
    sig AS (
      SELECT doc_id,
             CAST(len(regexp_extract_all(text, '[^ \t\n\f\r]'))
                  AS BIGINT) AS word_chars,
             {cols_sql},
             (SELECT COALESCE(CAST(SUM(CASE WHEN c >= 2 THEN c * cl END)
                     AS BIGINT), 0) FROM (
                SELECT COUNT(*) AS c, CAST(length(l) AS BIGINT) AS cl
                FROM unnest(string_split(text, chr(10))) AS t(l)
                WHERE l <> '' GROUP BY l)) AS dup_line_chars
      FROM tk0)
    SELECT *,
           {rule_sql},
           CAST(({pass_expr}) = {len(bools)} AS BIGINT) AS passes
    FROM sig ORDER BY doc_id
"""


@query(oracle=_gopher_repetition_sql())
def docs_gopher_repetition(sf_dir: str) -> pd.DataFrame:
    """The Gopher REPETITION-removal family (Rae et al. 2021 table A1
    — the rules docs_gopher_rules only samples via its duplicate-line
    count): top 2/3/4-gram character fraction, duplicate 5..10-gram
    character fraction, duplicate-line character fraction. N-gram
    generation is the Arrow slice+join shingle kernel (one C++ pass
    per n); occurrence counting and the per-doc max / dup-sum are
    numpy segment ops. All thresholds are cross-multiplied int64
    comparisons over (count x chars, word_chars) integers — the
    verified surface carries no floats and the DuckDB oracle mirrors
    the reproduction choices expression-for-expression (see
    stages/text_analysis.py for the documented choices). The sf docs
    are near-unique word salad (every duplicate-n-gram signal zero
    corpus-wide), so the deterministic repetition fixture
    (gopher_rep_inject_batch, mirrored in the oracle) makes the dup
    rules decide both ways."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    return (ds.map_batches(gopher_rep_inject_batch,
                           batch_format="pandas")
            .map_batches(gopher_repetition_batch,
                         batch_format="pandas")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


# C4 line retention mirrored lambda-for-lambda: list_filter over the
# same ASCII-explicit RE2 predicates the engine's per-line masks use.
@query(oracle="""
    WITH aug AS (
      SELECT doc_id,
             CASE WHEN doc_id % 7 = 0
                  THEN regexp_replace(text,
                       '((?:[^ ]+ ){5}[^ ]+) ', '\\1.' || chr(10), 'g')
                  ELSE text END
             || CASE WHEN doc_id % 13 = 0
                     THEN chr(10) || 'see var x = {1} in code'
                     ELSE '' END
             || CASE WHEN doc_id % 17 = 0
                     THEN chr(10)
                          || 'lorem ipsum dolor sit amet today ok.'
                     ELSE '' END
             || CASE WHEN doc_id % 11 = 0
                     THEN chr(10)
                          || 'This menu needs javascript enabled today.'
                     ELSE '' END AS text
      FROM documents),
    f AS (
      SELECT doc_id, text,
             list_filter(string_split(text, chr(10)),
               l -> regexp_matches(l, '[.!?\\"]$')
                    AND len(regexp_extract_all(l,
                            '[^ \\t\\n\\f\\r]+')) >= 5
                    AND NOT regexp_matches(l, '(?i)javascript'))
               AS kept
      FROM aug),
    s AS (
      SELECT doc_id,
             CAST(len(string_split(text, chr(10))) AS BIGINT)
               AS n_lines,
             CAST(len(kept) AS BIGINT) AS kept_lines,
             COALESCE(array_to_string(kept, chr(10)), '') AS clean_text,
             CAST(contains(text, '{') AS BIGINT) AS has_brace,
             CAST(regexp_matches(text, '(?i)lorem ipsum') AS BIGINT)
               AS has_lorem
      FROM f)
    SELECT doc_id, n_lines, kept_lines,
           CAST(len(regexp_extract_all(clean_text, '[.!?]')) AS BIGINT)
             AS n_sentences,
           has_brace, has_lorem,
           CAST(has_brace = 0 AND has_lorem = 0
                AND len(regexp_extract_all(clean_text, '[.!?]')) >= 3
                AS BIGINT) AS keep_page,
           clean_text
    FROM s ORDER BY doc_id
""")
def docs_c4_filters(sf_dir: str) -> pd.DataFrame:
    """The C4 cleaning filters (Raffel et al. 2020 §2.2) as a
    TRANSFORM over the documents table: terminal-punctuation /
    5-word / no-javascript line retention, brace / lorem-ipsum /
    min-3-sentences page gating. One vectorized map_batches pass;
    the verified surface is the retained text itself plus int64
    signals, mirrored lambda-for-lambda in the DuckDB oracle
    (list_filter over the same ASCII-explicit RE2 predicates)."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    return (ds.map_batches(c4_inject_batch, batch_format="pandas")
            .map_batches(c4_filters_batch, batch_format="pandas")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


@query(oracle=r"""
    WITH toks AS (
      SELECT source, unnest(regexp_extract_all(text, '\S+')) AS token
      FROM documents),
    v AS (SELECT source, token, CAST(COUNT(*) AS BIGINT) AS c
          FROM toks GROUP BY source, token)
    SELECT source,
           CAST(SUM(c) AS BIGINT) AS n_tokens,
           CAST(COUNT(*) AS BIGINT) AS n_types,
           CAST(SUM(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS BIGINT)
             AS n_hapax,
           (CAST(SUM(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS BIGINT)
            * 1000) // CAST(COUNT(*) AS BIGINT) AS hapax_milli
    FROM v GROUP BY source ORDER BY source
""")
def docs_hapax_ratio(sf_dir: str) -> pd.DataFrame:
    """Per-source HAPAX LEGOMENA ratio — vocabulary richness (the
    type-level complement of docs_distinct_ngram_ratio's
    occurrence-level metric): tokens appearing exactly once in a
    source, as a milli-fraction of that source's distinct types.
    Token counts reduce per (source, token) in ONE bucketed combine
    (the vocabulary never visits the driver); the per-source rollup
    folds each combined row into (types, hapax, occurrences) int
    partials, so only |sources| rows reach the report."""
    ds = read_table(sf_dir, "documents", ["source", "text"])
    per = grouped_agg_ds(
        ds.map_batches(
            lambda t: tf_rows_arrow(t, id_col="source"),
            batch_format="pyarrow"),
        ["source", "token"], {"c": ("sum", "tf")})

    def fold(b: pd.DataFrame) -> pd.DataFrame:
        c = b["c"].to_numpy(np.int64)
        return pd.DataFrame({
            "source": b["source"].values,
            "types": np.ones(len(b), dtype=np.int64),
            "hapax": (c == 1).astype(np.int64),
            "occurrences": c})

    out = grouped_agg(per.map_batches(fold, batch_format="pandas"),
                      ["source"], {"n_types": ("sum", "types"),
                                   "n_hapax": ("sum", "hapax"),
                                   "n_tokens": ("sum", "occurrences")})
    out = out.astype({c: "int64" for c in
                      ("n_types", "n_hapax", "n_tokens")})
    out["hapax_milli"] = (out["n_hapax"] * 1000 // out["n_types"]
                          if len(out) else
                          pd.array([], dtype="int64"))
    return (out[["source", "n_tokens", "n_types", "n_hapax",
                 "hapax_milli"]]
            .sort_values("source").reset_index(drop=True))


@query(oracle="""
    WITH sig AS (
      SELECT source,
             CAST(length(text) AS BIGINT) AS n_chars,
             CAST(len(regexp_extract_all(text, '[A-Za-z]'))
                  AS BIGINT) AS ascii_alpha,
             CAST(len(regexp_extract_all(text, '[0-9]'))
                  AS BIGINT) AS digits,
             CAST(len(regexp_extract_all(text, '[ \t\n\f\r]'))
                  AS BIGINT) AS spaces
      FROM documents)
    SELECT source,
           CAST(SUM(n_chars) AS BIGINT) AS n_chars,
           CAST(SUM(ascii_alpha) AS BIGINT) AS ascii_alpha,
           CAST(SUM(digits) AS BIGINT) AS digits,
           CAST(SUM(spaces) AS BIGINT) AS spaces,
           CAST(SUM(n_chars - ascii_alpha - digits - spaces)
                AS BIGINT) AS other
    FROM sig GROUP BY source ORDER BY source
""")
def docs_charclass_profile(sf_dir: str) -> pd.DataFrame:
    """Per-source character-class profile — the composition histogram
    a multilingual-mix audit starts from (ASCII letters, digits,
    ASCII whitespace, everything else): one vectorized Arrow RE2 pass
    per class over each batch, per-source integer sums, and 'other'
    derived by subtraction so the four classes always sum to n_chars.
    Classes are ASCII-EXPLICIT ranges so the oracle's RE2 and the
    engine's RE2 share one definition (the Gopher-module
    convention)."""
    ds = read_table(sf_dir, "documents", ["source", "text"])

    def classes(t: pa.Table) -> pa.Table:
        txt = t.column("text")

        def cnt(pat):
            return pc.cast(pc.count_substring_regex(txt, pat),
                           pa.int64())

        n = pc.cast(pc.utf8_length(txt), pa.int64())
        return pa.table({"source": t.column("source"),
                         "n_chars": n,
                         "ascii_alpha": cnt("[A-Za-z]"),
                         "digits": cnt("[0-9]"),
                         "spaces": cnt("[ \t\n\f\r]")})

    out = grouped_agg(ds.map_batches(classes, batch_format="pyarrow"),
                      ["source"],
                      {"n_chars": ("sum", "n_chars"),
                       "ascii_alpha": ("sum", "ascii_alpha"),
                       "digits": ("sum", "digits"),
                       "spaces": ("sum", "spaces")})
    cols = ["n_chars", "ascii_alpha", "digits", "spaces"]
    out = out.astype({c: "int64" for c in cols})
    out["other"] = (out["n_chars"] - out["ascii_alpha"]
                    - out["digits"] - out["spaces"])
    return (out[["source", *cols, "other"]]
            .sort_values("source").reset_index(drop=True))


@query(oracle=r"""
    WITH t AS (SELECT source, regexp_extract_all(text, '\S+') AS toks
               FROM documents),
    bi AS (SELECT source, toks[i] AS a, toks[i+1] AS b
           FROM (SELECT source, toks,
                        unnest(generate_series(1, len(toks) - 1)) AS i
                 FROM t WHERE len(toks) > 1)),
    d AS (SELECT source, a, b, CAST(COUNT(*) AS BIGINT) AS c
          FROM bi GROUP BY source, a, b)
    SELECT source,
           CAST(COUNT(*) AS BIGINT) AS distinct_bigrams,
           CAST(SUM(c) AS BIGINT) AS total_bigrams,
           (CAST(COUNT(*) AS BIGINT) * 1000)
             // CAST(SUM(c) AS BIGINT) AS ttr_milli
    FROM d GROUP BY source ORDER BY source
""")
def docs_distinct_ngram_ratio(sf_dir: str) -> pd.DataFrame:
    """Per-source DISTINCT-BIGRAM ratio — the distinct-n diversity
    metric (Li et al. 2016) used to compare corpus slices for
    repetitiveness before mixing: distinct bigrams / total bigrams
    per source, in integer milli-units. The heavy reduce is the
    seam-masked Arrow bigram kernel keyed by source (per-batch
    partials, ONE bucketed combine over (source, a, b) — the bigram
    vocabulary never visits the driver); the per-source rollup then
    counts combined rows (each distinct bigram is exactly one row
    post-combine), so only |sources| rows reach the report."""
    ds = read_table(sf_dir, "documents", ["source", "text"])
    per = grouped_agg_ds(
        ds.map_batches(
            lambda t: bigram_counts_arrow(t, id_col="source"),
            batch_format="pyarrow"),
        ["source", "a", "b"], {"c": ("sum", "c")})
    # count(None) counts combined rows == distinct bigrams directly —
    # no intermediate ones-column pass over the bigram vocabulary
    out = grouped_agg(per, ["source"],
                      {"distinct_bigrams": ("count", None),
                       "total_bigrams": ("sum", "c")})
    out = out.astype({"distinct_bigrams": "int64",
                      "total_bigrams": "int64"})
    out["ttr_milli"] = (out["distinct_bigrams"] * 1000
                        // out["total_bigrams"]
                        if len(out) else
                        pd.array([], dtype="int64"))
    return (out[["source", "distinct_bigrams", "total_bigrams",
                 "ttr_milli"]]
            .sort_values("source").reset_index(drop=True))


@query(oracle="""
    WITH sig AS (
      SELECT doc_id,
             CAST(len(regexp_extract_all(text, '[A-Za-z]+'))
                  AS BIGINT) AS n_words,
             GREATEST(CAST(len(regexp_extract_all(text, '[.!?]+'))
                           AS BIGINT), 1) AS n_sentences,
             CAST(len(regexp_extract_all(text, '[aeiouyAEIOUY]+'))
                  AS BIGINT) AS n_syllables
      FROM documents)
    SELECT doc_id, n_words, n_sentences, n_syllables,
           206835 - (1015 * n_words) // n_sentences
                  - (84600 * n_syllables) // n_words AS flesch_milli
    FROM sig WHERE n_words > 0 ORDER BY doc_id
""")
def docs_readability(sf_dir: str) -> pd.DataFrame:
    """Flesch-style readability scoring — the classic reading-ease
    quality signal (Flesch 1948, as used in readability-based corpus
    filters): words are [A-Za-z]+ runs, syllables the standard
    vowel-group heuristic ([aeiouyAEIOUY]+ runs — a vowel group can
    never span a non-alpha char, so the corpus-text count equals the
    per-word sum), sentences [.!?]+ runs clamped to >= 1. The score
    is EXACT INTEGER MILLI-UNITS of the Flesch formula
    (206.835 - 1.015 w/s - 84.6 syl/w), every division a positive
    floor mirrored by DuckDB // — no float enters the surface. One
    vectorized Arrow pass (count_substring_regex, RE2 — the oracle's
    regex engine); docs with zero words emit no row on either side."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def score(t: pa.Table) -> pa.Table:
        txt = t.column("text")
        w = pc.cast(pc.count_substring_regex(txt, "[A-Za-z]+"),
                    pa.int64()).to_numpy(zero_copy_only=False)
        syl = pc.cast(pc.count_substring_regex(
            txt, "[aeiouyAEIOUY]+"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        sent = pc.cast(pc.count_substring_regex(txt, "[.!?]+"),
                       pa.int64()).to_numpy(zero_copy_only=False)
        sent = np.maximum(sent, 1)
        keep = w > 0
        w, syl, sent = w[keep], syl[keep], sent[keep]
        flesch = (206835 - (1015 * w) // sent
                  - (84600 * syl) // np.maximum(w, 1))
        return pa.table({
            "doc_id": pc.cast(t.column("doc_id"),
                              pa.int64()).filter(pa.array(keep)),
            "n_words": pa.array(w, pa.int64()),
            "n_sentences": pa.array(sent, pa.int64()),
            "n_syllables": pa.array(syl, pa.int64()),
            "flesch_milli": pa.array(flesch, pa.int64())})

    out = (ds.map_batches(score, batch_format="pyarrow")
           .to_pandas())
    if not len(out):
        return pd.DataFrame({c: pd.array([], dtype="int64")
                             for c in ("doc_id", "n_words",
                                       "n_sentences", "n_syllables",
                                       "flesch_milli")})
    return out.sort_values("doc_id").reset_index(drop=True)


@query(oracle="""
        SELECT doc_id,
               length(text) AS text_len,
               len(regexp_extract_all(text, '[A-Za-z]')) AS alpha_chars,
               len(regexp_extract_all(text, '[0-9]')) AS digit_chars,
               len(regexp_extract_all(text, '[^A-Za-z0-9 \\t\\n\\r\\f\\v]')) AS punct_chars,
               len(regexp_extract_all(text, '\\S+')) AS n_tokens,
               CASE WHEN length(text) > 0
                    THEN len(regexp_extract_all(text, '[A-Za-z]')) * 1.0
                         / length(text) ELSE 0 END AS alpha_ratio
        FROM documents ORDER BY doc_id
    """)
def docs_quality_scores(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    return (ds.map_batches(quality_batch, batch_format="pandas")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


@query(oracle="""
        WITH s AS (
          SELECT doc_id,
                 CASE WHEN length(text) > 0
                      THEN len(regexp_extract_all(text, '[A-Za-z]')) * 1.0
                           / length(text) ELSE 0 END AS alpha_ratio
          FROM documents)
        SELECT doc_id, alpha_ratio FROM s
        WHERE alpha_ratio >= (SELECT quantile_cont(alpha_ratio, 0.75)
                              FROM s)
        ORDER BY doc_id
    """)
def docs_quality_gate(sf_dir: str) -> pd.DataFrame:
    """Quality gate at a GLOBAL exact quantile threshold: keep the
    documents whose alpha-ratio is at or above the corpus-wide exact
    P75, the "top quality band" cut a training-data curation pipeline
    makes before mixing. The threshold is an EXACT order statistic
    computed distributed (relational.quantile_exact: sample-bracketed
    selection, driver holds only a bounded sample + the final value
    band — never the score column); the score projection is
    materialized once (16 bytes/row) and reused by the quantile scans
    and the final filter, so the regex scoring pass runs exactly once.
    """

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    scored = ds.map_batches(
        lambda b: quality_batch(b)[["doc_id", "alpha_ratio"]],
        batch_format="pandas").materialize()
    thr = quantile_exact(scored, "alpha_ratio", [0.75])[0]

    def gate(b: pd.DataFrame, thr=thr) -> pd.DataFrame:
        return b[b["alpha_ratio"] >= thr]

    out = scored.map_batches(gate, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


@query(oracle="""
        WITH toks AS (
          SELECT unnest(regexp_extract_all(text, '\\S+')) AS token
          FROM documents)
        SELECT token, COUNT(*) AS n FROM toks
        GROUP BY token ORDER BY n DESC, token LIMIT 20
    """)
def docs_top_tokens(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "documents", ["text"])
    g = grouped_agg(ds.map_batches(token_counts_arrow,
                                   batch_format="pyarrow"),
                    ["token"], {"n": ("sum", "cnt")})
    g["n"] = g["n"].astype("int64")
    return (g.sort_values(["n", "token"], ascending=[False, True])
            .head(20).reset_index(drop=True))


@query(oracle=r"""
        WITH toks AS (SELECT unnest(regexp_extract_all(text, '\S+'))
                        AS token
                      FROM documents),
        v AS (SELECT token, CAST(COUNT(*) AS BIGINT) AS n
              FROM toks GROUP BY token)
        SELECT n, CAST(COUNT(*) AS BIGINT) AS n_tokens
        FROM v GROUP BY n ORDER BY n
    """)
def docs_freq_spectrum(sf_dir: str) -> pd.DataFrame:
    """Token-frequency SPECTRUM (Zipf QA: for each occurrence count n,
    how many distinct tokens occur exactly n times — the corpus-health
    curve dedup/boilerplate bugs bend first). Two-level distributed
    aggregation: per-batch token counts -> bucketed vocabulary combine
    that STAYS a Dataset (grouped_agg_ds — the vocabulary never visits
    the driver) -> tiny per-count regroup."""
    ds = read_table(sf_dir, "documents", ["text"])
    vocab = grouped_agg_ds(
        ds.map_batches(token_counts_arrow, batch_format="pyarrow"),
        ["token"], {"n": ("sum", "cnt")})
    spec = grouped_agg(vocab, ["n"], {"n_tokens": ("count", None)})
    spec["n"] = spec["n"].astype("int64")
    spec["n_tokens"] = spec["n_tokens"].astype("int64")
    return spec.sort_values("n").reset_index(drop=True)


@query(oracle="""
        WITH t AS (SELECT doc_id,
                          regexp_extract_all(text, '\\S+') AS toks
                   FROM documents),
        s AS (SELECT doc_id, toks,
                     unnest(generate_series(0, len(toks) - 1, 48))
                       AS start
              FROM t WHERE len(toks) > 0)
        SELECT doc_id, start // 48 AS chunk_idx,
               array_to_string(toks[start + 1 : start + 64], ' ')
                 AS chunk,
               LEAST(64, len(toks) - start) AS n_chunk_tokens
        FROM s ORDER BY doc_id, chunk_idx
    """)
def docs_sliding_chunks(sf_dir: str) -> pd.DataFrame:
    """Sliding token-window chunker (window 64, stride 48 — the
    standard long-document splitter for pretraining, complementing
    docs_pack_sequences' whole-doc packing): a pure flat-map, rows out
    proportional to tokens in, no shuffle at all. Window index
    arithmetic is fully vectorized; only the final chunk-string join
    is per-chunk (inherent string assembly, O(output bytes))."""
    W, S = 64, 48
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def chunks(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].str.findall(r"\S+")
        n = toks.str.len().fillna(0).astype("int64").to_numpy()
        keep = n > 0
        nk = n[keep]
        cnt = -(-nk // S)                      # chunks per doc (ceil)
        total = int(cnt.sum())
        doc_ids = np.repeat(b["doc_id"].to_numpy()[keep], cnt)
        # within-doc chunk index without a per-doc arange
        idx = (np.arange(total, dtype=np.int64)
               - np.repeat(np.cumsum(cnt) - cnt, cnt))
        starts = idx * S
        n_chunk = np.minimum(W, np.repeat(nk, cnt) - starts)
        texts = []
        for arr, c in zip(toks.to_numpy()[keep], cnt):
            for j in range(int(c)):
                texts.append(" ".join(arr[j * S:j * S + W]))
        return pd.DataFrame({"doc_id": doc_ids, "chunk_idx": idx,
                             "chunk": texts,
                             "n_chunk_tokens": n_chunk})

    out = ds.map_batches(chunks, batch_format="pandas").to_pandas()
    return (out.sort_values(["doc_id", "chunk_idx"])
            .reset_index(drop=True))


@query(oracle=r"""
        WITH t AS (SELECT doc_id,
                          regexp_extract_all(text, '\S+') AS toks
                   FROM documents),
        bi AS (SELECT toks[i] AS a, toks[i+1] AS b
               FROM (SELECT toks,
                            unnest(generate_series(1, len(toks) - 1))
                              AS i
                     FROM t WHERE len(toks) > 1)),
        cab AS (SELECT a, b, COUNT(*) AS c_ab FROM bi GROUP BY a, b),
        uni AS (SELECT unnest(regexp_extract_all(text, '\S+')) AS tok
                FROM documents),
        cu AS (SELECT tok, COUNT(*) AS c FROM uni GROUP BY tok),
        n AS (SELECT COUNT(*) AS n FROM uni)
        SELECT cab.a, cab.b, c_ab, ca.c AS c_a, cb.c AS c_b,
               c_ab * CAST(n.n AS DOUBLE) / (ca.c * cb.c) AS lift
        FROM cab JOIN cu ca ON cab.a = ca.tok
                 JOIN cu cb ON cab.b = cb.tok
        CROSS JOIN n
        WHERE c_ab >= 5
        ORDER BY lift DESC, cab.a, cab.b LIMIT 20
    """)
def docs_bigram_lift(sf_dir: str) -> pd.DataFrame:
    """Collocation mining: top-20 adjacent-token bigrams by LIFT
    (c_ab * N / (c_a * c_b) — the PMI ranking with the monotone log
    dropped, so the score is pure IEEE arithmetic on exact integers
    and hash-comparable across engines, unlike a transcendental).
    Bigram and unigram counts aggregate distributed over the token
    vocabulary (grouped_agg_ds + two partitioned hash_joins — the
    vocabulary is never assumed driver-small); the final top-20 uses
    per-batch partial top-k."""
    ds = read_table(sf_dir, "documents", ["text"])


    cab = grouped_agg_ds(ds.map_batches(bigram_counts_arrow,
                                        batch_format="pyarrow"),
                         ["a", "b"], {"c_ab": ("sum", "c")})
    uni = ds.map_batches(
        functools.partial(token_counts_arrow, token_col="tok", out_col="c"),
        batch_format="pyarrow")
    cu = grouped_agg_ds(uni, ["tok"], {"c": ("sum", "c")})
    n_tokens = int(ds.map_batches(
        lambda b: pd.DataFrame(
            {"n": [int(b["text"].str.count(r"\S+").sum())]}),
        batch_format="pandas").to_pandas()["n"].sum())

    ca = cu.map_batches(lambda b: b.rename(
        columns={"tok": "a", "c": "c_a"}), batch_format="pandas")
    cb = cu.map_batches(lambda b: b.rename(
        columns={"tok": "b", "c": "c_b"}), batch_format="pandas")
    j = hash_join(hash_join(cab, ca, on="a"), cb, on="b")

    def score(b: pd.DataFrame) -> pd.DataFrame:
        b = b.loc[b["c_ab"] >= 5].copy(deep=False)
        # identical expression tree to the oracle:
        # (double(c_ab) * double(N)) / double(c_a * c_b)
        b["lift"] = (b["c_ab"].to_numpy(dtype=np.float64)
                     * float(n_tokens)) \
            / (b["c_a"].to_numpy() * b["c_b"].to_numpy()) \
            .astype(np.float64)
        return b

    out = topk(j.map_batches(score, batch_format="pandas"),
               ["lift", "a", "b"], [False, True, True], 20)
    return (out[["a", "b", "c_ab", "c_a", "c_b", "lift"]]
            .astype({"c_ab": "int64", "c_a": "int64", "c_b": "int64"})
            .reset_index(drop=True))


@query(oracle="""
        WITH toks AS (
          SELECT unnest(regexp_extract_all(text, '\\S+')) AS token
          FROM documents)
        SELECT token, COUNT(*) AS n,
               TRUE AS sketch_recovered, TRUE AS sketch_bound_ok
        FROM toks GROUP BY token ORDER BY n DESC, token LIMIT 10
    """)
def docs_heavy_tokens(sf_dir: str) -> pd.DataFrame:
    """Heavy-hitters sketch (distributed Misra-Gries,
    stages.sketches.heavy_hitters) with a BOUNDS ORACLE: the emitted
    top-10 tokens/counts are the exact distributed counts (SQL-equal);
    `sketch_recovered` asserts each is present in the O(m)-state
    sketch (guaranteed when true count > deficit) and
    `sketch_bound_ok` asserts est <= true <= est + deficit — the
    Misra-Gries mergeable-summary guarantee, checked live."""
    ds = read_table(sf_dir, "documents", ["text"])

    rows = ds.map_batches(token_counts_arrow, batch_format="pyarrow")
    exact = grouped_agg(rows, ["token"], {"n": ("sum", "cnt")})
    exact["n"] = exact["n"].astype("int64")
    top = (exact.sort_values(["n", "token"], ascending=[False, True])
           .head(10).reset_index(drop=True))

    summary, deficit = heavy_hitters(rows, token_col="token",
                                     cnt_col="cnt", m=4096)
    est = dict(zip(summary["token"], summary["est"]))
    rec, bound = [], []
    for t, n in zip(top["token"], top["n"]):
        e = est.get(t)
        rec.append(e is not None)
        bound.append(e is not None and e <= n <= e + deficit)
    top["sketch_recovered"] = pd.array(rec, dtype="bool")
    top["sketch_bound_ok"] = pd.array(bound, dtype="bool")
    return top


@query(oracle="""
        SELECT lang, COUNT(*) AS n_docs FROM documents
        GROUP BY lang ORDER BY lang
    """)
def docs_lang_counts(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "documents", ["lang"])
    out = grouped_agg(ds, ["lang"], {"n_docs": ("count", None)})
    return out.sort_values("lang").reset_index(drop=True)


@query(oracle="""
        WITH c AS (
          SELECT doc_id,
                 regexp_replace(
                   regexp_replace(nfc_normalize(text),
                     '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+', '<EMAIL>', 'g'),
                   'https?://[A-Za-z0-9./_%+~#?&=-]+', '<URL>', 'g')
                   AS clean_text,
                 text
          FROM documents)
        SELECT doc_id, clean_text, length(clean_text) AS clean_len,
               CAST(CASE WHEN clean_text <> text THEN 1 ELSE 0 END
                    AS BIGINT) AS changed
        FROM c ORDER BY doc_id
    """)
def docs_clean_text(sf_dir: str) -> pd.DataFrame:
    """NFC normalization + email/URL redaction (training-data cleaning;
    DuckDB nfc_normalize + regexp_replace oracle)."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    return (ds.map_batches(clean_text_batch, batch_format="pandas")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


@query(oracle=r"""
        WITH inj AS (
          SELECT source,
                 CASE WHEN doc_id % 7 = 0
                      THEN text || ' contact user'
                           || CAST(doc_id AS VARCHAR) || '@example.com'
                      ELSE text END
                 || CASE WHEN doc_id % 11 = 0
                      THEN ' call 555-'
                           || CAST(100 + doc_id % 900 AS VARCHAR) || '-'
                           || CAST(1000 + doc_id % 9000 AS VARCHAR)
                      ELSE '' END AS t
          FROM documents)
        SELECT source,
               COUNT(*) AS n_docs,
               CAST(SUM(length(regexp_extract_all(t,
                 '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')))
                 AS BIGINT) AS emails,
               CAST(SUM(length(regexp_extract_all(t,
                 '\b555-[0-9]{3}-[0-9]{4}\b'))) AS BIGINT) AS phones,
               CAST(SUM(length(regexp_replace(regexp_replace(t,
                 '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                 '<EMAIL>', 'g'),
                 '\b555-[0-9]{3}-[0-9]{4}\b', '<PHONE>', 'g')))
                 AS BIGINT) AS clean_chars
        FROM inj GROUP BY source ORDER BY source
    """)
def docs_pii_scrub(sf_dir: str) -> pd.DataFrame:
    """PII REDACTION over an injected corpus — the scrub every
    web-scale training pipeline runs before anything else. The sf
    corpora contain no PII-shaped strings (a scrub over the raw table
    is vacuous), so a deterministic fixture first appends a synthetic
    email to every doc_id % 7 == 0 doc and a 555 phone number to every
    doc_id % 11 == 0 doc; the injection is mirrored verbatim in the
    SQL oracle, so the per-source scrub report (doc counts, emails and
    phones redacted, post-scrub char sums) is DuckDB-exact and
    NON-vacuous. Redaction itself is Arrow C++ RE2
    (count/replace_substring_regex) — the same regex engine as the
    oracle's regexp_* — in one fused map_batches with per-batch
    aggregate partials."""

    def scrub(t):
        out = pii_scrub_batch(pii_inject_batch(t))
        return out.drop_columns(["doc_id", "clean_text"])

    ds = read_table(sf_dir, "documents", ["doc_id", "text", "source"])
    out = grouped_agg(ds.map_batches(scrub, batch_format="pyarrow"),
                      ["source"],
                      {"n_docs": ("count", None),
                       "emails": ("sum", "emails"),
                       "phones": ("sum", "phones"),
                       "clean_chars": ("sum", "clean_chars")})
    return (out.astype({"n_docs": "int64", "emails": "int64",
                        "phones": "int64", "clean_chars": "int64"})
            .sort_values("source").reset_index(drop=True))


@query(oracle=r"""
        WITH base AS (
          SELECT doc_id, source,
                 CASE WHEN doc_id % 7 = 0
                      THEN text || ' contact user'
                           || CAST(doc_id AS VARCHAR) || '@example.com'
                      ELSE text END
                 || CASE WHEN doc_id % 11 = 0
                      THEN ' call 555-'
                           || CAST(100 + doc_id % 900 AS VARCHAR) || '-'
                           || CAST(1000 + doc_id % 9000 AS VARCHAR)
                      ELSE '' END AS t
          FROM documents),
        corpus AS (
          SELECT * FROM base
          UNION ALL
          SELECT doc_id + 20000000, source, t FROM base
          WHERE doc_id % 13 = 0 AND doc_id % 7 <> 0
            AND doc_id % 11 <> 0),
        scrub AS (
          SELECT doc_id, source,
                 len(regexp_extract_all(t,
                   '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}'))
                   AS emails,
                 len(regexp_extract_all(t,
                   '\b555-[0-9]{3}-[0-9]{4}\b')) AS phones,
                 regexp_replace(regexp_replace(t,
                   '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                   '<EMAIL>', 'g'),
                   '\b555-[0-9]{3}-[0-9]{4}\b', '<PHONE>', 'g') AS t
          FROM corpus),
        gate AS (
          SELECT * FROM scrub
          WHERE len(regexp_extract_all(t, '[A-Za-z]')) * 1.0
                / length(t) >= 0.82),
        ex AS (SELECT MIN(doc_id) AS doc_id FROM gate GROUP BY md5(t)),
        exk AS (SELECT g.* FROM gate g
                WHERE g.doc_id IN (SELECT doc_id FROM ex)),
        w AS (SELECT doc_id, string_split(t, ' ') AS words FROM exk),
        g3 AS (SELECT doc_id, array_to_string(words[i:i+2], ' ') AS sh
               FROM w, UNNEST(range(1, len(words) - 1)) AS r(i)
               WHERE len(words) >= 3),
        s2 AS (SELECT DISTINCT doc_id, sh FROM g3),
        df AS (SELECT sh, COUNT(*) AS df FROM s2 GROUP BY sh),
        f AS (SELECT s2.doc_id, s2.sh FROM s2 JOIN df USING (sh)
              WHERE df.df <= 256),
        sz AS (SELECT doc_id, COUNT(*) AS n FROM f GROUP BY doc_id),
        co AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                      COUNT(*) AS n_shared
               FROM f a JOIN f b USING (sh)
               WHERE a.doc_id < b.doc_id GROUP BY 1, 2),
        nd AS (SELECT DISTINCT co.id_b FROM co
               JOIN sz sa ON sa.doc_id = co.id_a
               JOIN sz sb ON sb.doc_id = co.id_b
               WHERE CAST(co.n_shared AS DOUBLE)
                     / (sa.n + sb.n - co.n_shared) >= 0.6),
        fin AS (SELECT * FROM exk
                WHERE doc_id NOT IN (SELECT id_b FROM nd)),
        r_in AS (SELECT source, COUNT(*) AS n_in,
                        CAST(SUM(emails) AS BIGINT) AS emails,
                        CAST(SUM(phones) AS BIGINT) AS phones
                 FROM scrub GROUP BY source),
        r_gate AS (SELECT source, COUNT(*) AS n_gate
                   FROM gate GROUP BY source),
        r_ex AS (SELECT source, COUNT(*) AS n_exact
                 FROM exk GROUP BY source),
        r_fin AS (SELECT source, COUNT(*) AS n_kept,
                         CAST(SUM(len(regexp_extract_all(t, '\S+')))
                              AS BIGINT) AS tokens_kept
                  FROM fin GROUP BY source)
        -- LEFT joins + zero fills mirror the engine's report merge: a
        -- source whose every doc dies at the gate (or a dedup stage)
        -- still gets its zeros row instead of vanishing from the report
        SELECT source, n_in, emails, phones,
               COALESCE(n_gate, 0) AS n_gate,
               COALESCE(n_exact, 0) AS n_exact,
               COALESCE(n_kept, 0) AS n_kept,
               COALESCE(tokens_kept, 0) AS tokens_kept
        FROM r_in LEFT JOIN r_gate USING (source)
                  LEFT JOIN r_ex USING (source)
                  LEFT JOIN r_fin USING (source)
        ORDER BY source
    """)
def docs_curation_funnel(sf_dir: str) -> pd.DataFrame:
    """The COMPOSED curation pipeline (pipelines/curation.py) end to
    end over a deterministically augmented corpus: PII injection
    (docs_pii_scrub's fixture) plus exact-duplicate copies of every
    doc_id % 13 == 0 un-injected doc under shifted ids, then
    scrub -> alpha-ratio gate -> exact dedup (min id per md5) ->
    exact-Jaccard near-dup drop (df-capped inverted index, pairwise
    drop-the-larger-id). Returns the per-source funnel — the
    corpus-composition report a curation run is judged by. Every stage
    is non-vacuous on this corpus (emails AND phones scrubbed, gate
    drops ~45%, both dedups fire) and the whole funnel is mirrored in
    one SQL oracle."""

    ds = read_table(sf_dir, "documents", ["doc_id", "text", "source"])

    def dup_copies(t):
        did = t.column("doc_id").to_numpy(zero_copy_only=False)
        m = (did % 13 == 0) & (did % 7 != 0) & (did % 11 != 0)
        sub = t.filter(pa.array(m))
        return sub.set_column(
            sub.schema.get_field_index("doc_id"), "doc_id",
            pc.add(sub.column("doc_id"), 20_000_000))

    # one pass emits BOTH the injected rows and their duplicate copies
    # (a two-branch union of the lazy read would execute the parquet
    # scan + injection once per branch; a materialize() would fix that
    # but insert a full pipeline barrier — the in-batch concat needs
    # neither)
    def inject_plus_copies(t):
        inj = pii_inject_batch(t)
        return pa.concat_tables([inj, dup_copies(inj)])

    corpus = ds.map_batches(inject_plus_copies, batch_format="pyarrow")
    return curate_corpus(corpus)["report"]


@query(oracle="""
        WITH toks AS (SELECT doc_id,
                             unnest(string_split(text, ' ')) AS tok
                      FROM documents),
        t AS (SELECT doc_id, tok FROM toks WHERE tok <> ''),
        cnt AS (SELECT doc_id, tok, COUNT(*) AS c
                FROM t GROUP BY doc_id, tok),
        agg AS (SELECT doc_id, CAST(MAX(c) AS DOUBLE)
                               / CAST(SUM(c) AS DOUBLE) AS top_token_ratio
                FROM cnt GROUP BY doc_id)
        SELECT d.doc_id, COALESCE(a.top_token_ratio, 0.0)
                 AS top_token_ratio
        FROM documents d LEFT JOIN agg a USING (doc_id)
        ORDER BY d.doc_id
    """)
def docs_repetition_ratio(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    return (ds.map_batches(repetition_ratio_batch, batch_format="pandas")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


@query(oracle="""
        SELECT MIN(doc_id) AS doc_id FROM documents
        GROUP BY md5(text) ORDER BY doc_id
    """)
def docs_exact_dedup(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    return exact_dedup_keep(ds)


@query(oracle="""
        SELECT MIN(doc_id) AS doc_id FROM documents
        GROUP BY md5(text) ORDER BY doc_id
    """)
def docs_exact_dedup_indexed(sf_dir: str) -> pd.DataFrame:
    """Exact dedup through the SHARED MUTABLE INDEX actor service
    (state.shared_index) — the raw-actor pattern for state a Dataset
    transform can't hold. Commutative min-claims make the result
    deterministic under any parallelism; identical output (and oracle)
    to the shuffle-based docs_exact_dedup, but the index stays resident
    for incremental ingest waves."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    idx = DedupIndex(n_shards=8)
    try:
        idx.ingest(ds)
        return idx.kept_ids()
    finally:
        idx.shutdown()


@query(oracle="""
        SELECT doc_id, md5(text) AS fingerprint
        FROM documents ORDER BY doc_id
    """)
def docs_fingerprint(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    return (ds.map_batches(md5_fingerprint_batch, batch_format="pandas")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


def _lang_id_sql() -> str:
    """docs_lang_id oracle, generated from the SAME _STOPWORDS /_CJK
    patterns the engine uses (no drift): per-language stopword-hit
    ratios, first-max-in-declaration-order tie-break (the CASE chain
    mirrors pandas idxmax), CJK override, 0.05 confidence floor. The
    patterns are ASCII-\\b-anchored alternations, so Python re
    (leftmost-first) and DuckDB RE2 (leftmost-longest) find the same
    non-overlapping match set."""
    langs = list(_STOPWORDS)
    scores = ",\n               ".join(
        f"len(regexp_extract_all(lower(text), '{pat}')) * 1.0"
        f" / GREATEST(len(regexp_extract_all(text, '\\S+')), 1)"
        f" AS s_{lang}"
        for lang, pat in _STOPWORDS.items())
    # first max in declaration order == pandas idxmax(axis=1)
    cases = []
    for i, lang in enumerate(langs):
        conds = " AND ".join(f"s_{lang} >= s_{other}"
                             for other in langs[i + 1:])
        cases.append(f"WHEN {conds} THEN '{lang}'" if conds
                     else f"ELSE '{lang}'")
    case_chain = "\n                      ".join(cases)
    return f"""
        WITH s AS (
          SELECT doc_id,
               {scores},
               len(regexp_extract_all(text, '{_CJK}')) * 1.0
                 / GREATEST(length(text), 1) AS cjk_ratio
          FROM documents),
        b AS (
          SELECT doc_id,
                 GREATEST({', '.join('s_' + lg for lg in langs)})
                   AS confidence,
                 CASE {case_chain} END AS best,
                 cjk_ratio
          FROM s)
        SELECT doc_id,
               CASE WHEN cjk_ratio > 0.2 THEN 'zh'
                    WHEN confidence >= 0.05 THEN best
                    ELSE 'unknown' END AS pred_lang,
               confidence
        FROM b ORDER BY doc_id
    """


@query(oracle=_lang_id_sql())
def docs_lang_id(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    return (ds.map_batches(LangId, batch_format="pandas",
                           concurrency=pool_size(),
                           num_cpus=pool_actor_cpus())
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


# winnowing is SQL-expressible because the engine's gram hash IS
# DuckDB's md5_number_upper (text_analysis.winnow_batch); the window
# min is a ROWS-frame window function. Docs shorter than one full
# window keep the min over all their grams (the i = cnt row's partial
# window), mirroring the engine's keepdims fallback.
@query(oracle="""
    WITH w AS (SELECT doc_id, string_split(text, ' ') AS words
               FROM documents),
    g AS (SELECT doc_id, i,
                 md5_number_upper(array_to_string(words[i:i+4], ' '))
                   AS h
          FROM w, UNNEST(range(1, len(words) - 3)) AS r(i)
          WHERE len(words) >= 5),
    c AS (SELECT doc_id, COUNT(*) AS cnt FROM g GROUP BY doc_id),
    m AS (SELECT g.doc_id, g.i, c.cnt,
                 MIN(h) OVER (PARTITION BY g.doc_id ORDER BY g.i
                              ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)
                   AS fp
          FROM g JOIN c USING (doc_id)),
    fps AS (SELECT DISTINCT doc_id, fp FROM m
            WHERE (cnt >= 4 AND i >= 4) OR (cnt < 4 AND i = cnt)),
    agg AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_fingerprints,
                   CAST(MIN(fp) AS DOUBLE) AS fp_min,
                   CAST(MAX(fp) AS DOUBLE) AS fp_max
            FROM fps GROUP BY doc_id)
    SELECT d.doc_id,
           COALESCE(a.n_fingerprints, 0) AS n_fingerprints,
           COALESCE(a.fp_min, 0.0) AS fp_min,
           COALESCE(a.fp_max, 0.0) AS fp_max
    FROM documents d LEFT JOIN agg a USING (doc_id)
    ORDER BY d.doc_id
""")
def docs_winnow_fingerprints(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    return (ds.map_batches(winnow_batch, batch_format="pandas")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))


@query(oracle="""
        WITH s AS (
          SELECT CASE
                   WHEN ((CAST(doc_id AS HUGEINT) * 2654435761)
                         % 4294967296) % 10 < 8 THEN 'train'
                   WHEN ((CAST(doc_id AS HUGEINT) * 2654435761)
                         % 4294967296) % 10 = 8 THEN 'val'
                   ELSE 'test'
                 END AS split,
                 lang, length(text) AS n_chars
          FROM documents)
        SELECT split, lang, COUNT(*) AS n_docs,
               CAST(SUM(n_chars) AS BIGINT) AS sum_chars
        FROM s GROUP BY split, lang ORDER BY split, lang
    """)
def docs_train_val_test_split(sf_dir: str) -> pd.DataFrame:
    """Deterministic TRAIN/VAL/TEST split — the assignment every
    curation pipeline must reproduce identically on any cluster shape
    and any re-run: split = multiplicative hash of doc_id mod 10
    (0-7 train, 8 val, 9 test → 80/10/10 in expectation), pure
    integer arithmetic mirrored exactly in the SQL oracle (same
    HUGEINT trick as docs_shuffle_order). Verified surface: per
    (split, lang) doc counts + char sums — proves assignment AND that
    the split is content-complete (counts add up across splits)."""
    ds = read_table(sf_dir, "documents", ["doc_id", "lang", "text"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy(dtype=np.int64)
        h = ((ids.astype(np.uint64) * np.uint64(2654435761))
             % np.uint64(4294967296)) % np.uint64(10)
        split = np.where(h < 8, "train",
                         np.where(h == 8, "val", "test"))
        return pd.DataFrame({
            "split": split,
            "lang": b["lang"].to_numpy(),
            "n_chars": b["text"].str.len().to_numpy(dtype=np.int64)})

    g = grouped_agg(ds.map_batches(prep, batch_format="pandas"),
                    ["split", "lang"], {"n_docs": ("count", None),
                                        "sum_chars": ("sum", "n_chars")})
    return (g.astype({"n_docs": "int64", "sum_chars": "int64"})
            .sort_values(["split", "lang"]).reset_index(drop=True))


@query(oracle=r"""
    WITH tok AS (SELECT source,
                        unnest(regexp_extract_all(text, '\S+')) AS token
                 FROM documents),
    cnt AS (SELECT source, token, COUNT(*) AS c
            FROM tok GROUP BY source, token),
    agg AS (SELECT source,
                   SUM(c) AS n_tokens, COUNT(*) AS n_types,
                   SUM(CAST(c AS DOUBLE) * log2(CAST(c AS DOUBLE)))
                     AS s
            FROM cnt GROUP BY source)
    SELECT source,
           CAST(n_tokens AS BIGINT) AS n_tokens,
           CAST(n_types AS BIGINT) AS n_types,
           ROUND(log2(CAST(n_tokens AS DOUBLE))
                 - s / CAST(n_tokens AS DOUBLE), 6) AS entropy_bits,
           ROUND(CAST(n_types AS DOUBLE)
                 / CAST(n_tokens AS DOUBLE), 6) AS type_token_ratio
    FROM agg ORDER BY source
""")
def docs_source_entropy(sf_dir: str) -> pd.DataFrame:
    """Per-source unigram Shannon entropy + type/token ratio — the
    corpus-diversity report (a collapsed or template-generated source
    shows up as low entropy long before eyeballing samples would).
    Two-level distributed shape: per-batch (source, token) tf partials
    (Arrow group-by) -> bucketed vocabulary combine that STAYS a
    Dataset -> per-batch Σc·log2(c)/Σc/type-count partials -> tiny
    per-source final. H = log2(N) - Σc·log2(c)/N, so entropy needs
    only mergeable sums, never the materialized distribution. Token
    counts are exact ints; the two float divisions and log2 mirror the
    SQL oracle's expression tree (summation-order float drift is
    ~1e-9 absolute on Σc·log2 c, invisible at the 6-decimal
    surface)."""
    ds = read_table(sf_dir, "documents", ["source", "text"])
    vocab = grouped_agg_ds(
        ds.map_batches(lambda t: tf_rows_arrow(t, id_col="source"),
                       batch_format="pyarrow"),
        ["source", "token"], {"c": ("sum", "tf")})

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        c = b["c"].to_numpy(dtype=np.int64)
        cf = c.astype(np.float64)
        g = pd.DataFrame({"source": b["source"].values, "n": c,
                          "v": np.int64(1), "s": cf * np.log2(cf)})
        return (g.groupby("source", sort=False)
                .agg(n=("n", "sum"), v=("v", "sum"), s=("s", "sum"))
                .reset_index())

    agg = grouped_agg(vocab.map_batches(partial, batch_format="pandas"),
                      ["source"],
                      {"n_tokens": ("sum", "n"), "n_types": ("sum", "v"),
                       "s": ("sum", "s")})
    if agg.empty:                 # no tokens — typed empty report
        return pd.DataFrame({
            "source": pd.Series(dtype="object"),
            "n_tokens": pd.Series(dtype="int64"),
            "n_types": pd.Series(dtype="int64"),
            "entropy_bits": pd.Series(dtype="float64"),
            "type_token_ratio": pd.Series(dtype="float64")})
    N = agg["n_tokens"].to_numpy(dtype=np.float64)
    assert (N > 0).all(), "source with zero tokens — entropy undefined"
    out = pd.DataFrame({
        "source": agg["source"],
        "n_tokens": agg["n_tokens"].astype("int64"),
        "n_types": agg["n_types"].astype("int64"),
        "entropy_bits": np.round(
            np.log2(N) - agg["s"].to_numpy(dtype=np.float64) / N, 6),
        "type_token_ratio": np.round(
            agg["n_types"].to_numpy(dtype=np.float64) / N, 6)})
    return out.sort_values("source").reset_index(drop=True)


# The oracle takes the direct route the engine's bitmask plan avoids:
# a token self-join between source pairs (Σ_token df² rows — fine at
# oracle scale, the exact blowup the mask histogram sidesteps).
@query(oracle=r"""
    WITH tok AS (SELECT source,
                        unnest(regexp_extract_all(text, '\S+')) AS token
                 FROM documents),
    st AS (SELECT DISTINCT source, token FROM tok),
    cnt AS (SELECT source, COUNT(*) AS n FROM st GROUP BY source),
    pairs AS (SELECT a.source AS source_a, b.source AS source_b,
                     a.n AS n_a, b.n AS n_b
              FROM cnt a JOIN cnt b ON a.source < b.source),
    inter AS (SELECT x.source AS sa, y.source AS sb, COUNT(*) AS c
              FROM st x JOIN st y
                ON x.token = y.token AND x.source < y.source
              GROUP BY 1, 2)
    SELECT p.source_a, p.source_b,
           CAST(p.n_a AS BIGINT) AS n_a, CAST(p.n_b AS BIGINT) AS n_b,
           CAST(COALESCE(i.c, 0) AS BIGINT) AS n_common,
           CAST(p.n_a + p.n_b - COALESCE(i.c, 0) AS BIGINT) AS n_union,
           ROUND(CAST(COALESCE(i.c, 0) AS DOUBLE)
                 / CAST(p.n_a + p.n_b - COALESCE(i.c, 0) AS DOUBLE),
                 6) AS jaccard
    FROM pairs p LEFT JOIN inter i
      ON p.source_a = i.sa AND p.source_b = i.sb
    ORDER BY source_a, source_b
""")
def docs_vocab_overlap(sf_dir: str) -> pd.DataFrame:
    """Pairwise cross-source VOCABULARY Jaccard matrix (which crawl
    sources are re-hosting each other's content?) via the per-token
    source-BITMASK trick: the k distinct sources (k <= 62, asserted)
    get bit values, each globally-distinct (source, token) row
    contributes its bit, and a token's mask is the SUM of its distinct
    bits (= OR, because distinctness makes each bit appear once). The
    expensive part — distinct + mask combine — is two token-keyed
    bucketed shuffles that stay Datasets; each downstream batch then
    folds its masks into a k x k co-occurrence MATRIX (bits^T @ bits,
    one numpy matmul), and those matrices are mergeable sums — so
    what reaches the driver is exactly k(k+1)/2 counts no matter how
    large the vocabulary or how many distinct co-occurrence patterns
    exist. Intersections are the off-diagonal, per-source vocabulary
    sizes the diagonal. Contrast the SQL oracle's token self-join,
    which is Σ_token df² rows — the bitmask plan replaces that blowup
    with one linear pass."""


    ds = read_table(sf_dir, "documents", ["source", "text"])
    srcs = grouped_agg(read_table(sf_dir, "documents", ["source"]),
                       ["source"], {"n": ("count", None)})
    names = ([] if srcs.empty else sorted(srcs["source"].tolist()))
    if len(names) < 2:            # no pairs — typed empty report
        return pd.DataFrame({
            "source_a": pd.Series(dtype="object"),
            "source_b": pd.Series(dtype="object"),
            "n_a": pd.Series(dtype="int64"),
            "n_b": pd.Series(dtype="int64"),
            "n_common": pd.Series(dtype="int64"),
            "n_union": pd.Series(dtype="int64"),
            "jaccard": pd.Series(dtype="float64")})
    assert len(names) <= 62, \
        "bitmask plan holds one int64 lane per source; shard the " \
        "source space (or use multi-limb masks) past 62"
    bit_of = {s: np.int64(1) << np.int64(i) for i, s in enumerate(names)}
    guard_broadcast_bytes(64 * len(bit_of), "source bit map",
                          "co-partition the bit attach by source")
    ref = ray.put(bit_of)

    # bit-OR is idempotent, so no distinct pass is needed before the
    # combine: per-batch (source, token) rows map straight to bits and
    # OR down to one mask row per token — ONE token-keyed shuffle
    # where distinct-then-sum would take two
    def or_partial(t: pa.Table) -> pd.DataFrame:
        bm = ray.get(ref)
        st = tf_rows_arrow(t, id_col="source")
        b = pd.DataFrame({
            "token": st.column("token").to_pandas(),
            "mask": st.column("source").to_pandas().map(bm)
            .to_numpy(dtype=np.int64)})
        return (b.groupby("token", as_index=False, sort=False)["mask"]
                .agg(lambda s: np.bitwise_or.reduce(s.to_numpy())))

    def or_final(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby("token", as_index=False, sort=False)["mask"]
                .agg(lambda s: np.bitwise_or.reduce(s.to_numpy())))

    masks = bucketed_map_groups(
        ds.map_batches(or_partial, batch_format="pyarrow"),
        ["token"], or_final)

    k = len(names)

    def pair_matrix(b: pd.DataFrame) -> pd.DataFrame:
        # one row per distinct token: unpack the mask into a rows x k
        # bit matrix and fold the whole batch into k x k counts
        m = b["mask"].to_numpy(dtype=np.int64)
        bits = ((m[:, None] >> np.arange(k, dtype=np.int64)) & 1) \
            .astype(np.int64)
        mat = bits.T @ bits
        iu = np.triu_indices(k)
        return pd.DataFrame({"i": iu[0].astype(np.int64),
                             "j": iu[1].astype(np.int64),
                             "c": mat[iu]})

    cc = grouped_agg(masks.map_batches(pair_matrix,
                                       batch_format="pandas"),
                     ["i", "j"], {"c": ("sum", "c")})
    mat = np.zeros((k, k), dtype=np.int64)
    if not cc.empty:              # empty when every text tokenizes to 0
        mat[cc["i"].to_numpy(dtype=np.int64),
            cc["j"].to_numpy(dtype=np.int64)] = cc["c"].to_numpy(np.int64)

    recs = []
    for i, sa in enumerate(names):
        n_a = int(mat[i, i])
        if n_a == 0:              # token-less source: the oracle's cnt
            continue              # CTE omits it, so pairs must too
        for j in range(i + 1, k):
            sb = names[j]
            n_b = int(mat[j, j])
            if n_b == 0:
                continue
            common = int(mat[i, j])
            union = n_a + n_b - common
            recs.append({"source_a": sa, "source_b": sb,
                         "n_a": n_a, "n_b": n_b, "n_common": common,
                         "n_union": union,
                         "jaccard": round(common / union, 6)})
    cols = {"source_a": "object", "source_b": "object",
            "n_a": "int64", "n_b": "int64", "n_common": "int64",
            "n_union": "int64", "jaccard": "float64"}
    out = pd.DataFrame(recs, columns=list(cols))
    return (out.astype(cols).sort_values(["source_a", "source_b"])
            .reset_index(drop=True))


# docs_line_dedup: the CASE tree mirrors line_dedup_inject_batch
# branch for branch (%19 total override LAST in the engine == the
# FIRST CASE branch here — CASE precedence is the override). Winner
# election is ROW_NUMBER over (doc_id, idx) per line; empty lines are
# always kept on both sides; string_agg skips the NULLed dropped
# lines and COALESCE('') covers docs that lose every line.
@query(oracle=r"""
    WITH aug AS (
      SELECT doc_id,
             CASE WHEN doc_id % 19 = 0
                  THEN 'subscribe to our newsletter for updates today'
                  ELSE (CASE WHEN doc_id % 7 = 0
                             THEN regexp_replace(text,
                                  '((?:[^ ]+ ){5}[^ ]+) ',
                                  '\1.' || chr(10), 'g')
                             ELSE text END)
                    || CASE WHEN doc_id % 2 = 0 OR doc_id % 5 = 0
                            THEN chr(10) ||
                                 'subscribe to our newsletter for updates today'
                            ELSE '' END
                    || CASE WHEN doc_id % 3 = 0
                            THEN chr(10) ||
                                 'all rights reserved by the site owner'
                            ELSE '' END
             END AS text
      FROM documents),
    lines AS (
      SELECT doc_id,
             unnest(string_split(text, chr(10))) AS line,
             generate_subscripts(string_split(text, chr(10)), 1)
               AS idx
      FROM aug),
    flagged AS (
      SELECT doc_id, idx, line,
             (line = '' OR ROW_NUMBER() OVER (
                 PARTITION BY line ORDER BY doc_id, idx) = 1) AS keep
      FROM lines)
    SELECT doc_id,
           CAST(COUNT(*) AS BIGINT) AS n_lines,
           CAST(SUM(CASE WHEN keep THEN 1 ELSE 0 END) AS BIGINT)
             AS n_kept,
           COALESCE(string_agg(CASE WHEN keep THEN line END, chr(10)
                               ORDER BY idx), '') AS text
    FROM flagged GROUP BY doc_id ORDER BY doc_id
""")
def docs_line_dedup(sf_dir: str) -> pd.DataFrame:
    """Global exact LINE-level dedup with document rebuild — the
    line-granularity dedup step web-scale curation runs against
    repeated navigation/footer/boilerplate lines (the FineWeb /
    RefinedWeb recipe), complementing strip_duplicate_spans' token
    windows: every line occurring in more than one place survives
    only at its globally first (doc_id, line_idx); empty lines are
    formatting, always kept. Verified surface: per-doc original line
    count, kept line count, and the REBUILT TEXT itself (int64s +
    string, no floats). Shape (stages/spans.line_dedup_ds), skew-safe
    at web scale: Arrow split/explode -> per-batch winner COMBINER
    (one row per distinct line per batch — a billion-occurrence
    footer never ships its occurrences to the winner shuffle) ->
    line-keyed combine emitting only duplicated lines -> keep flags
    attached adaptively (broadcast dup-winner frame under the 64 MiB
    budget / salted co-partition past it, both paths pinned
    bit-equal) -> one doc-keyed rebuild pass. The sf docs
    are single-line near-unique word salad, so the deterministic
    fixture (line_dedup_inject_batch, mirrored in the SQL CASE tree)
    creates multi-line docs, cross-slice shared footers, and
    %19-slice docs that dedup away entirely."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    out = line_dedup_ds(
        ds.map_batches(line_dedup_inject_batch, batch_format="pandas"))
    pdf = out.to_pandas()
    if not len(pdf):
        return pd.DataFrame({"doc_id": pd.array([], dtype="int64"),
                             "n_lines": pd.array([], dtype="int64"),
                             "n_kept": pd.array([], dtype="int64"),
                             "text": pd.array([], dtype=str)})
    return (pdf.astype({"doc_id": "int64", "n_lines": "int64",
                        "n_kept": "int64"})
            .sort_values("doc_id").reset_index(drop=True))
