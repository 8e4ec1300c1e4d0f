"""Text-analysis stages over the documents table.

Large-scale training-data hygiene operators, each a vectorized
``map_batches`` stage (pandas .str regex kernels — no Python loop over
rows in the counting paths):

- token counting: whitespace tokens + a BPE-ish regex token count
  (ASCII-explicit classes so the DuckDB RE2 oracle matches Python re)
- quality scoring: char-class ratios per doc
- language ID: stopword/char-ngram heuristic (rows-only check: the
  testdata 'lang' labels are synthetic and not recoverable from text)
- fingerprinting: md5 content fingerprint (oracle: DuckDB md5()) and a
  winnowing rolling-hash fingerprint set (rows-only)
"""

from __future__ import annotations

import hashlib
from typing import List

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import md5_upper64


# -------------------------------------------- Arrow-native tokenization
#
# The hot counting stages (tf rows, vocabulary counts, bigrams) run
# fully in Arrow C++: RE2 whitespace split -> list_flatten with parent
# indices -> hash group-by. Token stream is identical to the previous
# pandas `.str.findall(r"\S+")` on ASCII whitespace AND to the DuckDB
# oracles' regexp_extract_all('\S+') (DuckDB is RE2 too, so the Arrow
# kernel actually matches the oracle's regex engine exactly).

def _flat_tokens(t: pa.Table, text_col: str):
    """-> (tokens, parent_row_indices), empties dropped."""
    toks = pc.split_pattern_regex(t.column(text_col), pattern=r"\s+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks)
    mask = pc.not_equal(flat, "")
    return flat.filter(mask), parents.filter(mask)


def tf_rows_arrow(t: pa.Table, *, id_col: str = "doc_id",
                  text_col: str = "text") -> pa.Table:
    """One (id, token, tf) row per distinct token per document —
    the per-batch exact term-frequency partial (each doc lives in one
    input row, so per-batch tf is final)."""
    flat, parents = _flat_tokens(t, text_col)
    tbl = pa.table({id_col: pc.take(t.column(id_col), parents),
                    "token": flat})
    res = pa.TableGroupBy(tbl, [id_col, "token"]).aggregate(
        [([], "count_all")])
    return pa.table({id_col: res.column(id_col),
                     "token": res.column("token"),
                     "tf": res.column("count_all")})


def token_counts_arrow(t: pa.Table, *, text_col: str = "text",
                       token_col: str = "token",
                       out_col: str = "cnt") -> pa.Table:
    """Per-batch token occurrence counts (vocabulary partial)."""
    flat, _ = _flat_tokens(t, text_col)
    res = pa.TableGroupBy(pa.table({token_col: flat}),
                          [token_col]).aggregate([([], "count_all")])
    return pa.table({token_col: res.column(token_col),
                     out_col: res.column("count_all")})


def bigram_counts_arrow(t: pa.Table, *, text_col: str = "text",
                        a_col: str = "a", b_col: str = "b",
                        out_col: str = "c",
                        id_col=None) -> pa.Table:
    """Per-batch adjacent-bigram counts; pairs never cross document
    seams (parent-index equality masks the boundaries). With id_col
    (a column name or a list of carry columns, e.g. ["doc_id",
    "lang"]) the counts are per DOCUMENT (ids..., a, b, out) — the
    one seam-masked kernel serves the corpus-level, per-doc and
    per-language callers."""
    id_cols = ([id_col] if isinstance(id_col, str)
               else list(id_col or []))
    flat, parents = _flat_tokens(t, text_col)
    n = len(flat)
    if n < 2:
        cols = {c: pa.array([], t.schema.field(c).type)
                for c in id_cols}
        cols.update({a_col: pa.array([], pa.string()),
                     b_col: pa.array([], pa.string()),
                     out_col: pa.array([], pa.int64())})
        return pa.table(cols)
    same = pc.equal(parents.slice(0, n - 1), parents.slice(1))
    a = flat.slice(0, n - 1).filter(same)
    b = flat.slice(1).filter(same)
    par = parents.slice(0, n - 1).filter(same)
    grp = {c: pc.take(t.column(c), par) for c in id_cols}
    grp.update({a_col: a, b_col: b})
    keys = [*id_cols, a_col, b_col]
    res = pa.TableGroupBy(pa.table(grp),
                          keys).aggregate([([], "count_all")])
    return pa.table({**{k: res.column(k) for k in keys},
                     out_col: res.column("count_all")})

# BPE-ish tokens: ASCII word runs or single non-word-non-space chars.
# Explicit ASCII classes on BOTH sides (Python re defaults \w/\s to
# unicode; DuckDB's RE2 defaults them to ASCII — spell it out instead).
BPE_TOKEN_PATTERN = r"[A-Za-z0-9_]+|[^A-Za-z0-9_ \t\n\r\f\v]"

_STOPWORDS = {
    "en": r"\b(the|and|of|to|in|is|it|you|that|was|for|are|with|they)\b",
    "de": r"\b(der|die|das|und|ist|nicht|ich|sie|mit|ein|eine|zu|den)\b",
    "fr": r"\b(le|la|les|et|est|une|des|que|qui|dans|pour|pas|vous)\b",
    "es": r"\b(el|la|los|las|es|una|que|de|en|por|para|con|no|se)\b",
}
_CJK = r"[一-鿿぀-ヿ가-힯]"


def token_count_batch(batch: pd.DataFrame) -> pd.DataFrame:
    return pd.DataFrame({
        "doc_id": batch["doc_id"],
        "n_tokens": batch["text"].str.count(r"\S+").astype("int64"),
        "n_tokens_bpe": batch["text"].str.count(BPE_TOKEN_PATTERN).astype("int64"),
    })


def quality_batch(batch: pd.DataFrame) -> pd.DataFrame:
    text = batch["text"]
    length = text.str.len().astype("int64")
    alpha = text.str.count(r"[A-Za-z]").astype("int64")
    digit = text.str.count(r"[0-9]").astype("int64")
    punct = text.str.count(r"[^A-Za-z0-9 \t\n\r\f\v]").astype("int64")
    n_tokens = text.str.count(r"\S+").astype("int64")
    # no rounding: int/int true division is correctly rounded IEEE — the
    # DuckDB oracle's alpha*1.0/length produces the identical double
    alpha_ratio = np.where(length > 0, alpha / length, 0.0)
    return pd.DataFrame({
        "doc_id": batch["doc_id"],
        "text_len": length,
        "alpha_chars": alpha,
        "digit_chars": digit,
        "punct_chars": punct,
        "n_tokens": n_tokens,
        "alpha_ratio": alpha_ratio,
    })


class LangId:
    """Stopword-hit + CJK-char heuristic; patterns are pandas-vectorized
    per batch, state (compiled patterns) held once per actor."""

    def __init__(self):
        self.patterns = dict(_STOPWORDS)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        text = batch["text"].str.lower()
        n_tokens = batch["text"].str.count(r"\S+").clip(lower=1)
        scores = {lang: text.str.count(pat) / n_tokens
                  for lang, pat in self.patterns.items()}
        cjk = batch["text"].str.count(_CJK)
        score_df = pd.DataFrame(scores)
        best = score_df.idxmax(axis=1)
        best_score = score_df.max(axis=1)
        pred = np.where(cjk / batch["text"].str.len().clip(lower=1) > 0.2,
                        "zh",
                        np.where(best_score >= 0.05, best, "unknown"))
        # confidence stays the raw stopword-hit ratio: int/int true
        # division is correctly-rounded IEEE, so the DuckDB oracle's
        # CAST(c AS DOUBLE)/n is bit-identical (a round(4) here would
        # reintroduce half-even-vs-half-up ambiguity)
        return pd.DataFrame({
            "doc_id": batch["doc_id"],
            "pred_lang": pred,
            "confidence": best_score,
        })


# redaction patterns: ASCII-explicit (identical semantics in Python re
# and DuckDB's RE2)
EMAIL_PATTERN = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+"
URL_PATTERN = r"https?://[A-Za-z0-9./_%+~#?&=-]+"

# PII-scrub patterns (both engines are RE2: pyarrow's
# replace/count_substring_regex and DuckDB's regexp_* — the oracle
# uses these exact strings)
PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_PHONE = r"\b555-[0-9]{3}-[0-9]{4}\b"


def pii_inject_batch(t, *, text_col: str = "text"):
    """Deterministic PII fixture: append a synthetic email to every
    doc_id % 7 == 0 row and a 555 phone number to every
    doc_id % 11 == 0 row. The sf corpora contain no PII-shaped
    strings, so a scrub over the raw table is vacuous — the injection
    (mirrored verbatim in the SQL oracle, the same pattern
    docs_incremental_dedup uses for its shifted copies) makes the
    redaction path non-vacuous while staying DuckDB-exact."""
    did = t.column("doc_id").to_numpy(zero_copy_only=False)
    s = t.column(text_col).to_pandas().astype(str)
    ids = pd.Series(did.astype(np.int64)).astype(str)
    m7 = pd.Series(did % 7 == 0)
    m11 = pd.Series(did % 11 == 0)
    s = s.where(~m7, s + " contact user" + ids + "@example.com")
    phone = ("555-" + pd.Series(100 + did % 900).astype(str)
             + "-" + pd.Series(1000 + did % 9000).astype(str))
    s = s.where(~m11, s + " call " + phone)
    i = t.schema.get_field_index(text_col)
    return t.set_column(i, text_col, pa.array(s, type=t.schema.field(i).type))


def pii_scrub_batch(t, *, text_col: str = "text"):
    """Vectorized PII redaction (Arrow C++ RE2 kernels): counts
    emails/phones on the input text, replaces both with placeholder
    tags, and emits per-doc scrub stats plus the scrubbed text."""
    import pyarrow as pa
    import pyarrow.compute as pc
    txt = t.column(text_col)
    emails = pc.cast(pc.count_substring_regex(txt, PII_EMAIL), pa.int64())
    phones = pc.cast(pc.count_substring_regex(txt, PII_PHONE), pa.int64())
    clean = pc.replace_substring_regex(
        pc.replace_substring_regex(txt, PII_EMAIL, "<EMAIL>"),
        PII_PHONE, "<PHONE>")
    cols, names = [], []
    for f in t.schema:
        if f.name == text_col:
            continue
        cols.append(t.column(f.name)); names.append(f.name)
    cols += [clean, emails, phones,
             pc.cast(pc.utf8_length(clean), pa.int64())]
    names += ["clean_text", "emails", "phones", "clean_chars"]
    return pa.Table.from_arrays(cols, names=names)


def clean_text_batch(batch: pd.DataFrame) -> pd.DataFrame:
    """Training-data text cleaning: unicode NFC normalization + PII-ish
    redaction (emails, URLs) — vectorized pandas .str, deterministic."""
    import unicodedata
    nfc = batch["text"].map(lambda t: unicodedata.normalize("NFC", t))
    cleaned = (nfc.str.replace(EMAIL_PATTERN, "<EMAIL>", regex=True)
               .str.replace(URL_PATTERN, "<URL>", regex=True))
    return pd.DataFrame({
        "doc_id": batch["doc_id"],
        "clean_text": cleaned,
        "clean_len": cleaned.str.len().astype("int64"),
        "changed": (cleaned != batch["text"]).astype("int64"),
    })


def repetition_ratio_batch(batch: pd.DataFrame) -> pd.DataFrame:
    """Quality metric: fraction of tokens taken by the single most
    frequent token (high -> degenerate/repetitive text). One exploded
    groupby across the whole batch instead of a per-doc value_counts
    Series build."""
    toks = batch["text"].str.split()
    ex = toks.explode()
    per_doc_tok = ex.groupby([ex.index, ex]).size()
    top = per_doc_tok.groupby(level=0).max()
    n = toks.str.len()
    ratio = (top / n).reindex(batch.index).fillna(0.0)
    return pd.DataFrame({
        "doc_id": batch["doc_id"],
        "top_token_ratio": ratio.astype("float64").to_numpy(),
    })


def md5_fingerprint_batch(batch: pd.DataFrame) -> pd.DataFrame:
    return pd.DataFrame({
        "doc_id": batch["doc_id"],
        "fingerprint": [hashlib.md5(t.encode("utf-8")).hexdigest()
                        for t in batch["text"]],
    })


def winnow_batch(batch: pd.DataFrame, *, k: int = 5, window: int = 4
                 ) -> pd.DataFrame:
    """Winnowing document fingerprints (Schleimer et al., SIGMOD'03):
    rolling k-gram hashes, min per sliding window, distinct mins kept.
    Vectorized with numpy sliding windows per doc.

    The gram hash is DuckDB's md5_number_upper (the first 8 md5 digest
    bytes, little-endian) so the whole operator is SQL-oracle-able —
    any other 64-bit hash gives the same winnowing guarantees, this one
    is reproducible on both sides."""
    doc_ids, n_fps, min_fps, max_fps = [], [], [], []
    for doc_id, text in zip(batch["doc_id"], batch["text"]):
        toks = text.split()
        if len(toks) < k:
            doc_ids.append(doc_id); n_fps.append(0)
            min_fps.append(0); max_fps.append(0)
            continue
        grams = [" ".join(toks[i:i + k]) for i in range(len(toks) - k + 1)]
        # unmemoized on purpose: n-grams rarely recur across docs and
        # would only churn the shared bucket memo
        h = np.array([md5_upper64(g) for g in grams],
                     dtype=np.uint64)
        if len(h) >= window:
            win = np.lib.stride_tricks.sliding_window_view(h, window)
            fps = np.unique(win.min(axis=1))
        else:
            fps = np.unique(h.min(keepdims=True))
        doc_ids.append(doc_id)
        n_fps.append(int(len(fps)))
        min_fps.append(int(fps.min()))
        max_fps.append(int(fps.max()))
    return pd.DataFrame({
        "doc_id": doc_ids,
        "n_fingerprints": pd.array(n_fps, dtype="int64"),
        "fp_min": pd.array(min_fps, dtype="uint64").astype("float64"),
        "fp_max": pd.array(max_fps, dtype="uint64").astype("float64"),
    })


# Gopher quality rules (Rae et al. 2021, "Scaling Language Models:
# Methods, Analysis & Insights from Training Gopher", table A1): the
# published heuristic document filters. Every threshold is evaluated
# as a CROSS-MULTIPLIED INTEGER comparison (mean_word_len >= 3 becomes
# word_chars >= 3 * word_count), so the verified surface carries no
# floats at all. Character classes are ASCII-EXPLICIT throughout (the
# BPE_TOKEN_PATTERN convention above): Python re defaults \\S/\\b to
# unicode while DuckDB's RE2 is ASCII, so \\S / \\b in this kernel
# would silently diverge from the oracle on NBSP, vertical-tab, or
# non-ASCII-adjacent text (a review pass reproduced all three).
_GOPHER_STOPSET = ("the", "be", "to", "of", "and", "that", "have",
                   "with")
_NONSPACE = r"[^ \t\n\f\r]"     # RE2 \S, spelled out for both engines
_EDGE_PUNCT = r"^[^0-9a-z]+|[^0-9a-z]+$"


def gopher_rules_batch(b: pd.DataFrame) -> pd.DataFrame:
    """Per-doc Gopher rule signals + rule booleans (int64 throughout).

    Rules: 50 <= word_count <= 100000; 3 <= mean word length <= 10;
    symbol-to-word ratio ('#', '...' or the unicode ellipsis) <= 0.1;
    bullet-started lines (-, *, or the unicode bullet) <= 90%;
    ellipsis-ended lines <= 30%; >= 80% of words contain an alphabetic
    character; >= 2 stop-word OCCURRENCES (token-equality after
    lowercasing and stripping edge punctuation — the paper's "contain
    at least two of the following words" is read as occurrences, the
    common reproduction choice; the DISTINCT count is also emitted so
    a caller preferring that stricter reading can gate on
    stop_distinct >= 2); duplicate-line fraction <= 30% (the
    repetition-family member of the set)."""
    text = b["text"]
    word_count = text.str.count(_NONSPACE + "+").astype("int64")
    word_chars = text.str.count(_NONSPACE).astype("int64")
    symbols = text.str.count("#|\\.\\.\\.|\u2026").astype("int64")
    n_lines = (text.str.count("\n") + 1).astype("int64")
    bullet_lines = text.str.count(
        "(?m)^[ \\t]*[-*\u2022]").astype("int64")
    ellipsis_lines = text.str.count(
        "(?m)(\\.\\.\\.|\u2026)$").astype("int64")
    alpha_words = text.str.count(
        _NONSPACE + "*[A-Za-z]" + _NONSPACE + "*").astype("int64")

    # stop words by token equality: lowercase, strip edge punctuation,
    # match against the fixed 8-word set; both total hits and the
    # DISTINCT count (the rule input) are emitted. Tokenize with the
    # same ASCII class as word_count and the oracle (str.split() would
    # treat NBSP/\x0b/  as separators and diverge from RE2).
    toks = text.str.findall(_NONSPACE + "+")
    ex = toks.explode().dropna()
    norm = ex.str.lower().str.replace(_EDGE_PUNCT, "", regex=True)
    hit = norm[norm.isin(_GOPHER_STOPSET)]
    stop_hits = (hit.groupby(level=0).size()
                 .reindex(b.index).fillna(0).astype("int64"))
    stop_distinct = (hit.groupby(level=0).nunique()
                     .reindex(b.index).fillna(0).astype("int64"))

    # row-local distinct-line count: no index alignment to go wrong on
    # a non-unique batch index
    distinct_lines = text.str.split("\n").map(
        lambda ls: len(set(ls))).astype("int64")
    dup_lines = n_lines - distinct_lines

    out = pd.DataFrame({
        "doc_id": b["doc_id"].astype("int64"),
        "word_count": word_count, "word_chars": word_chars,
        "symbols": symbols, "n_lines": n_lines,
        "bullet_lines": bullet_lines,
        "ellipsis_lines": ellipsis_lines,
        "alpha_words": alpha_words, "stop_hits": stop_hits,
        "stop_distinct": stop_distinct,
        "dup_lines": dup_lines,
    })
    out["r_word_count"] = ((word_count >= 50)
                           & (word_count <= 100_000)).astype("int64")
    out["r_mean_word_len"] = ((word_chars >= 3 * word_count)
                              & (word_chars <= 10 * word_count)
                              ).astype("int64")
    out["r_symbol_ratio"] = (10 * symbols <= word_count).astype("int64")
    out["r_bullet"] = (10 * bullet_lines <= 9 * n_lines).astype("int64")
    out["r_ellipsis"] = (10 * ellipsis_lines
                         <= 3 * n_lines).astype("int64")
    out["r_alpha_words"] = (5 * alpha_words
                            >= 4 * word_count).astype("int64")
    out["r_stopwords"] = (stop_hits >= 2).astype("int64")
    out["r_dup_lines"] = (10 * dup_lines <= 3 * n_lines).astype("int64")
    rules = [c for c in out.columns if c.startswith("r_")]
    out["passes"] = (out[rules].sum(axis=1) == len(rules)).astype("int64")
    return out


def c4_inject_batch(b: pd.DataFrame) -> pd.DataFrame:
    """Deterministic C4 fixture (same role as pii_inject_batch): the
    sf documents are single-line punctuation-free word salad, so every
    C4 line filter would be vacuous. Sentence-ize every doc_id % 7 == 0
    row (each 6-word run gets '.' + newline), and append page-drop /
    line-drop markers to fixed id slices — a brace line (%13), a lorem
    ipsum line (%17), and a javascript line (%11). Mirrored
    expression-for-expression in the SQL oracle."""
    import re
    ids = b["doc_id"].to_numpy()
    text = b["text"].copy()
    m = ids % 7 == 0
    text[m] = text[m].str.replace(r"((?:[^ ]+ ){5}[^ ]+) ",
                                  r"\1.\n", regex=True)
    m = ids % 13 == 0
    text[m] = text[m] + "\nsee var x = {1} in code"
    m = ids % 17 == 0
    text[m] = text[m] + "\nlorem ipsum dolor sit amet today ok."
    m = ids % 11 == 0
    text[m] = text[m] + "\nThis menu needs javascript enabled today."
    out = b.copy(deep=False)
    out["text"] = text
    return out


def c4_filters_batch(b: pd.DataFrame) -> pd.DataFrame:
    """C4 cleaning filters (Raffel et al. 2020 §2.2 — the 'Colossal
    Clean Crawled Corpus' heuristics), as a TRANSFORM: lines are
    retained only if they end in a terminal punctuation mark
    ([.!?"]), contain at least 5 words, and do not mention javascript
    (case-insensitive); pages are dropped when they contain a curly
    brace or 'lorem ipsum', or when the retained text has fewer than
    3 sentences (terminal-punctuation count over the KEPT text — the
    sentence proxy both engines can mirror). Character classes are
    ASCII-explicit (see gopher_rules_batch); the verified surface is
    the kept text itself plus int64 signals."""
    text = b["text"]
    lines = text.str.split("\n")
    ex = lines.explode()
    terminal = ex.str.contains(r'[.!?"]$', regex=True, na=False)
    words5 = ex.str.count(r"[^ \t\n\f\r]+") >= 5
    nojs = ~ex.str.contains(r"(?i)javascript", regex=True, na=False)
    keep = terminal & words5 & nojs
    kept_text = (ex[keep].groupby(level=0).agg("\n".join)
                 .reindex(b.index).fillna(""))
    kept_lines = (keep.groupby(level=0).sum()
                  .reindex(b.index).fillna(0).astype("int64"))
    n_lines = lines.str.len().astype("int64")
    n_sentences = kept_text.str.count(r"[.!?]").astype("int64")
    has_brace = text.str.contains("{", regex=False).astype("int64")
    has_lorem = text.str.contains(r"(?i)lorem ipsum",
                                  regex=True).astype("int64")
    keep_page = ((has_brace == 0) & (has_lorem == 0)
                 & (n_sentences >= 3)).astype("int64")
    return pd.DataFrame({
        "doc_id": b["doc_id"].astype("int64"),
        "n_lines": n_lines, "kept_lines": kept_lines,
        "n_sentences": n_sentences, "has_brace": has_brace,
        "has_lorem": has_lorem, "keep_page": keep_page,
        "clean_text": kept_text.astype(str),
    })


# Gopher REPETITION filters (Rae et al. 2021 table A1, the
# "repetition removal" family the rule-set above only samples via its
# duplicate-line count): top 2/3/4-gram character fraction and
# duplicate 5..10-gram character fraction, plus the duplicate-line
# CHARACTER fraction. Reproduction choices, mirrored
# expression-for-expression in the SQL oracle so parity is exact:
# characters of an occurrence are its token characters (ngram string
# length minus the n-1 joining spaces); "top" is MAX(count x chars)
# over the doc's n-grams (deterministic under count ties, unlike
# argmax-by-count); "duplicate" sums count x chars over n-grams
# occurring >= 2 times (overlapping occurrences double-count, the
# common reproduction approximation — the fraction can exceed 1, and
# both engines agree on it); every denominator is word_chars (total
# token characters, the rule-set's denominator). Thresholds from the
# paper: top2 0.20, top3 0.18, top4 0.16; dup5 0.15 ... dup10 0.10;
# dup-line chars 0.20 — all evaluated as cross-multiplied int64.
_REP_TOP = {2: (5, 1), 3: (50, 9), 4: (25, 4)}       # frac*L <= R*wc
_REP_DUP = {5: (20, 3), 6: (50, 7), 7: (100, 13), 8: (25, 3),
            9: (100, 11), 10: (10, 1)}


def _ngram_stats(ta, owners_hint: int, n: int):
    """Per-doc (max_count_x_chars, dup_count_x_chars) for word
    n-grams, Arrow C++ shingling (the MinHash kernel's slice+join) +
    numpy segment aggregation. Characters = utf8 length of the n-gram
    string minus its n-1 joining spaces (token chars only)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    top = np.zeros(owners_hint, dtype=np.int64)
    dup = np.zeros(owners_hint, dtype=np.int64)
    toks = pc.split_pattern_regex(ta, pattern=r"\s+")
    flat = pc.list_flatten(toks)
    par = pc.list_parent_indices(toks)
    mask = pc.not_equal(flat, "")
    flat, par = flat.filter(mask), par.filter(mask)
    m = len(flat) - n + 1
    if m <= 0:
        return top, dup
    parts = [flat.slice(i, m) for i in range(n)]
    sh = pc.binary_join_element_wise(
        *parts, pa.scalar(" ", type=pa.large_string()))
    owner = par.slice(0, m)
    same = pc.equal(owner, par.slice(n - 1, m))
    sh = sh.filter(same)
    if not len(sh):
        return top, dup
    owner = owner.filter(same).to_numpy(zero_copy_only=False)
    chars = (pc.utf8_length(sh).to_numpy(zero_copy_only=False)
             .astype(np.int64) - (n - 1))
    code, uniq = pd.factorize(sh.to_numpy(zero_copy_only=False))
    # (owner, gram) key: owner fits far below 2^20 per batch and the
    # code below 2^40, so the packed key is collision-free int64
    key = owner.astype(np.int64) * np.int64(len(uniq)) + code
    uk, first, cnt = np.unique(key, return_index=True,
                               return_counts=True)
    u_owner = owner[first]
    u_score = cnt * chars[first]
    np.maximum.at(top, u_owner, u_score)
    d = cnt >= 2
    np.add.at(dup, u_owner[d], u_score[d])
    return top, dup


def gopher_repetition_batch(b: pd.DataFrame) -> pd.DataFrame:
    """Per-doc Gopher repetition signals + rule booleans (int64)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    text = b["text"]
    n_docs = len(b)
    ta = pa.array(text.astype(str).to_numpy(), type=pa.large_string())
    word_chars = text.str.count(_NONSPACE).astype("int64").to_numpy()

    out = {"doc_id": b["doc_id"].astype("int64").to_numpy(),
           "word_chars": word_chars}
    rules = {}
    for n, (lm, rm) in _REP_TOP.items():
        top, _d = _ngram_stats(ta, n_docs, n)
        out[f"top{n}_chars"] = top
        rules[f"r_top{n}"] = (lm * top <= rm * word_chars)
    for n, (lm, rm) in _REP_DUP.items():
        _t, dup = _ngram_stats(ta, n_docs, n)
        out[f"dup{n}_chars"] = dup
        rules[f"r_dup{n}"] = (lm * dup <= rm * word_chars)

    # duplicate-line character fraction: chars in all occurrences of
    # non-empty lines appearing >= 2 times in the doc
    lines = pc.split_pattern(ta, pattern="\n")
    lflat = pc.list_flatten(lines)
    lpar = pc.list_parent_indices(lines)
    lmask = pc.not_equal(lflat, "")
    lflat, lpar = lflat.filter(lmask), lpar.filter(lmask)
    dlc = np.zeros(n_docs, dtype=np.int64)
    if len(lflat):
        lowner = lpar.to_numpy(zero_copy_only=False)
        lchars = (pc.utf8_length(lflat)
                  .to_numpy(zero_copy_only=False).astype(np.int64))
        lcode, lu = pd.factorize(lflat.to_numpy(zero_copy_only=False))
        lkey = lowner.astype(np.int64) * np.int64(len(lu)) + lcode
        uk, first, cnt = np.unique(lkey, return_index=True,
                                   return_counts=True)
        d = cnt >= 2
        np.add.at(dlc, lowner[first][d], (cnt * lchars[first])[d])
    out["dup_line_chars"] = dlc
    rules["r_dup_line_chars"] = 5 * dlc <= word_chars

    res = pd.DataFrame(out)
    for k, v in rules.items():
        res[k] = v.astype("int64")
    res["passes"] = (res[list(rules)].sum(axis=1)
                     == len(rules)).astype("int64")
    return res


# fixed injection phrases for the repetition fixture (mirrored
# verbatim in the SQL oracle): a 12-token phrase appended TWICE gives
# every within-phrase word n-gram (n <= 12) at least two occurrences,
# so dup5..dup10 are all non-zero and large enough relative to the
# ~250-char sf docs to FAIL the thresholds; the duplicate line pair
# makes dup_line_chars non-zero the same way.
_REP_PHRASE = ("alpha beta gamma delta epsilon zeta eta theta iota "
               "kappa lambda mu")
_REP_LINE = "repeated boilerplate footer line"


def gopher_rep_inject_batch(b: pd.DataFrame) -> pd.DataFrame:
    """Deterministic repetition fixture (same role as pii_inject_batch
    / c4_inject_batch): the sf documents are near-unique word salad,
    so every duplicate-n-gram and duplicate-line rule would be vacuous
    — dup{5..10}_chars and dup_line_chars all zero corpus-wide. Append
    the fixed phrase twice to every doc_id % 9 == 0 row and the fixed
    line twice to every doc_id % 23 == 0 row."""
    ids = b["doc_id"].to_numpy()
    text = b["text"].copy()
    m = ids % 9 == 0
    text[m] = text[m] + (" " + _REP_PHRASE) * 2
    m = ids % 23 == 0
    text[m] = text[m] + ("\n" + _REP_LINE) * 2
    out = b.copy(deep=False)
    out["text"] = text
    return out


# DSIR hashed-feature rows (Xie et al. 2023): bucket = the upper 64
# md5 digest bits mod k — the shared md5_number_upper contract in
# functions/hashing.py, memoized per worker per distinct token.
def _dsir_bucket(tok: str, k: int) -> int:
    from ..functions.hashing import md5_bucket
    return md5_bucket(tok, k)


def dsir_bucket_rows(b: pd.DataFrame, *, k: int = 256,
                     target_lang: str = "en") -> pd.DataFrame:
    """(doc_id, bucket, tf, tt) partial rows: tf = the doc's token
    occurrences in the bucket, tt = the same count when the doc is in
    the TARGET slice (lang == target_lang), else 0 — one tokenize
    pass feeds both histograms. Arrow split; md5 bucketing runs once
    per distinct token in the batch (factorize + memo)."""
    t = pa.table({"doc_id": pa.array(b["doc_id"].to_numpy()),
                  "text": pa.array(b["text"].astype(str).to_numpy(),
                                   type=pa.large_string())})
    flat, parents = _flat_tokens(t, "text")
    if not len(flat):
        return pd.DataFrame({
            "doc_id": pd.array([], dtype="int64"),
            "bucket": pd.array([], dtype="int64"),
            "tf": pd.array([], dtype="int64"),
            "tt": pd.array([], dtype="int64")})
    par = parents.to_numpy(zero_copy_only=False)
    code, uniq = pd.factorize(flat.to_numpy(zero_copy_only=False))
    ub = np.fromiter((_dsir_bucket(s, k) for s in uniq), np.int64,
                     count=len(uniq))
    doc_ids = b["doc_id"].to_numpy()[par].astype(np.int64)
    is_t = (b["lang"].to_numpy() == target_lang)[par]
    bucket = ub[code]
    df = pd.DataFrame({"doc_id": doc_ids, "bucket": bucket,
                       "one": np.ones(len(bucket), dtype=np.int64),
                       "tt1": is_t.astype(np.int64)})
    out = (df.groupby(["doc_id", "bucket"], as_index=False)
           .agg(tf=("one", "sum"), tt=("tt1", "sum")))
    return out.astype({"doc_id": "int64", "bucket": "int64",
                       "tf": "int64", "tt": "int64"})


def bpe_pair_rows(b: pd.DataFrame) -> pd.DataFrame:
    """Adjacent character-pair counts over a VOCABULARY partial — the
    per-batch stage of BPE's first merge-selection pass (Sennrich
    2016): each distinct word contributes its in-word pair occurrences
    weighted by the word's corpus frequency ``c``. Vectorized by
    OFFSET: iteration i slices every surviving word at [i, i+2) in one
    pandas kernel, so the Python loop is bounded by the longest word
    in the batch, never by vocabulary or corpus size; pairs are
    pre-aggregated per batch before the (tiny) pair-keyed combine.
    Code-point slicing matches DuckDB substring()'s character
    semantics (pinned by the unicode parity test)."""
    w = b["token"].astype(str)
    c = b["c"].to_numpy(np.int64)
    lens = w.str.len().to_numpy(np.int64)
    parts = []
    longest = int(lens.max()) if len(lens) else 0
    for i in range(longest - 1):
        sel = lens > i + 1
        if not sel.any():
            break
        parts.append(pd.DataFrame({
            "pair": w[sel].str.slice(i, i + 2).to_numpy(),
            "n": c[sel]}))
    if not parts:
        return pd.DataFrame({"pair": pd.array([], dtype=str),
                             "n": pd.array([], dtype="int64")})
    df = pd.concat(parts, ignore_index=True)
    out = df.groupby("pair", as_index=False)["n"].sum()
    return out.astype({"n": "int64"})


_LD_FOOT = "subscribe to our newsletter for updates today"
_LD_RIGHTS = "all rights reserved by the site owner"


def line_dedup_inject_batch(b: pd.DataFrame) -> pd.DataFrame:
    """Deterministic line-dedup fixture (same role as c4_inject_batch:
    the sf documents are single-line near-unique word salad, so
    cross-doc duplicate lines never occur naturally). Sentence-ize
    every doc_id % 7 == 0 row into multiple lines, append a shared
    newsletter footer to the %2/%5 slices and a rights line to the %3
    slice (cross-slice duplication), and REPLACE every %19 row's text
    with the footer alone — those docs dedup away entirely except the
    global winner. The %19 replacement applies last (total override),
    mirrored by the SQL CASE's branch precedence."""
    ids = b["doc_id"].to_numpy()
    text = b["text"].copy()
    m = ids % 7 == 0
    text[m] = text[m].str.replace(r"((?:[^ ]+ ){5}[^ ]+) ",
                                  r"\1.\n", regex=True)
    m = (ids % 2 == 0) | (ids % 5 == 0)
    text[m] = text[m] + ("\n" + _LD_FOOT)
    m = ids % 3 == 0
    text[m] = text[m] + ("\n" + _LD_RIGHTS)
    m = ids % 19 == 0
    text[m] = _LD_FOOT
    out = b.copy(deep=False)
    out["text"] = text
    return out


def index_postings_partial(t, *, k: int = 8, id_col: str = "doc_id",
                           text_col: str = "text"):
    """Per-batch inverted-index partial (mergeable): for every token
    in the batch, one COUNT row (doc_id == -1, df_p = batch-local
    document frequency) plus its k smallest doc ids as POSTING rows
    (df_p == 0). Each document lives in exactly one input row, hence
    one batch, so (doc, token) pairs never repeat across batches:
    summing df_p is the exact global document frequency, and merging
    batch-local bottom-k id sets yields the exact global bottom-k —
    the standard mergeable bottom-k summary. Tokenization is the
    RE2 non-space split shared with every oracled token operator."""
    flat, parents = _flat_tokens(t, text_col)
    ids = pc.take(t.column(id_col), parents)
    if len(ids) and pc.min(ids).as_py() < 0:
        # -1 is the in-band count-row sentinel the combine filters on;
        # a real negative id would silently vanish from postings
        raise ValueError(
            f"{id_col} must be non-negative for the inverted index "
            f"(saw {pc.min(ids).as_py()})")
    pairs = pa.TableGroupBy(
        pa.table({"token": flat, id_col: ids}),
        ["token", id_col]).aggregate([]).to_pandas()
    pairs = pairs.sort_values(["token", id_col], ignore_index=True)
    grp = pairs.groupby("token", sort=False)
    keep = pairs[grp.cumcount().to_numpy() < k].copy(deep=False)
    keep["df_p"] = np.int64(0)
    cnt = grp.size().reset_index(name="df_p")
    cnt[id_col] = np.int64(-1)
    out = pd.concat([keep[["token", id_col, "df_p"]],
                     cnt[["token", id_col, "df_p"]]],
                    ignore_index=True)
    # explicit types: an all-empty batch must still emit string/int64
    # columns (empty object -> Arrow null would poison the block union)
    return pa.table({
        "token": pa.array(out["token"], pa.string()),
        id_col: pa.array(out[id_col].to_numpy(np.int64), pa.int64()),
        "df_p": pa.array(out["df_p"].to_numpy(np.int64), pa.int64())})


# C4 §2.2 removes any page containing a word from a public blocklist
# (Raffel et al. 2020). The sf corpora contain none of these marker
# words naturally, so a deterministic fixture plants them (the
# pii_inject_batch pattern); a production run would swap in the real
# ~400-word list — it still fits a closure/broadcast constant and the
# same single compiled RE2 alternation.
BLOCK_WORDS = ("grobnik", "zxqvut", "frobscottle")
BLOCKLIST_RE = ("(?i)(^|[^a-z0-9])(" + "|".join(BLOCK_WORDS)
                + ")([^a-z0-9]|$)")


def blocklist_inject_batch(t, *, text_col: str = "text"):
    """Deterministic blocklist fixture: doc_id % 9 == 0 gets a
    mixed-case blockword (pins case-insensitivity), % 9 == 3 a
    punctuation-bounded one (pins the boundary class), % 9 == 6 a
    blockword EMBEDDED inside a longer token (must NOT match — the
    word-boundary negative). Mirrored verbatim in the SQL oracle,
    including its ``text || ...`` NULL propagation: NULL text stays
    NULL."""
    m = t.column("doc_id").to_numpy(zero_copy_only=False) % 9
    suffix = np.full(len(m), "", dtype=object)
    suffix[m == 0] = " GrObNik speaking"
    suffix[m == 3] = " pure zxqvut!"
    suffix[m == 6] = " xfrobscottley run"
    i = t.schema.get_field_index(text_col)
    txt = t.column(i).combine_chunks()
    return t.set_column(i, text_col, pc.binary_join_element_wise(
        txt, pa.array(suffix, type=txt.type), ""))


def blocklist_flag_batch(t, *, text_col: str = "text"):
    """Vectorized blocklist page gate (Arrow C++ RE2, the oracle's
    engine): emits per-doc blocked flag and kept char count for the
    per-source aggregate."""
    txt = t.column(text_col)
    blocked = pc.cast(pc.match_substring_regex(txt, BLOCKLIST_RE),
                      pa.int64())
    chars = pc.cast(pc.utf8_length(txt), pa.int64())
    kept_chars = pc.multiply(pc.subtract(pa.scalar(1, pa.int64()),
                                         blocked), chars)
    return pa.table({"source": t.column("source"),
                     "blocked": blocked, "kept_chars": kept_chars})


def bpe_symbols(word: str, merges) -> list:
    """Apply BPE merges to one word IN RANK ORDER, each merge
    replacing all its non-overlapping occurrences left to right —
    exactly the trainer's state after those merges (Sennrich et al.
    2016): the trainer rewrites the whole vocabulary after every
    merge selection, and rank-order replay reproduces that rewrite
    word by word."""
    syms = list(word)
    for a, b in merges:
        if len(syms) < 2:
            break
        i, out = 0, []
        while i < len(syms):
            if (i < len(syms) - 1 and syms[i] == a
                    and syms[i + 1] == b):
                out.append(a + b)
                i += 2
            else:
                out.append(syms[i])
                i += 1
        syms = out
    return syms


def bpe_merged_pair_rows(b: pd.DataFrame, merges) -> pd.DataFrame:
    """Adjacent SYMBOL-pair counts under the current merge list —
    the per-batch partial of one BPE training iteration. The Python
    loop runs over the UNIQUE-WORD vocabulary rows (the standard BPE
    trainer shape — corpus text was reduced to (word, count) once),
    never over corpus rows."""
    rows: dict = {}
    for w, c in zip(b["token"].astype(str),
                    b["c"].to_numpy(np.int64)):
        syms = bpe_symbols(w, merges)
        for i in range(len(syms) - 1):
            key = (syms[i], syms[i + 1])
            rows[key] = rows.get(key, 0) + int(c)
    if not rows:
        return pd.DataFrame({"left": pd.array([], dtype=str),
                             "right": pd.array([], dtype=str),
                             "n": pd.array([], dtype="int64")})
    ks = list(rows)
    return pd.DataFrame({"left": [k[0] for k in ks],
                         "right": [k[1] for k in ks],
                         "n": pd.array([rows[k] for k in ks],
                                       dtype="int64")})


def train_bpe_merges(vocab_ds, r: int) -> pd.DataFrame:
    """Distributed BPE merge training: ``vocab_ds`` is the (token, c)
    unique-word frequency Dataset (built once — corpus text is never
    re-read); each of the ``r`` iterations runs one streaming
    pair-count pass with the merge list broadcast in the batch-fn
    closure, combines exact integer counts token-hash-bucketed
    (grouped_agg_ds — the pair table never visits the driver), and
    reduces to the global argmax via per-block top-1 rows (<=
    n_buckets rows reach the driver per iteration). Tie-break is
    (count desc, left asc, right asc) — deterministic under any
    partitioning because the combined counts are exact ints."""
    from ..relational import grouped_agg_ds
    merges, out = [], []
    for rank in range(1, r + 1):
        ms = tuple(merges)
        pairs = grouped_agg_ds(
            vocab_ds.map_batches(
                lambda b, ms=ms: bpe_merged_pair_rows(b, ms),
                batch_format="pandas"),
            ["left", "right"], {"n": ("sum", "n")})
        top = pairs.map_batches(
            lambda b: b.sort_values(
                ["n", "left", "right"],
                ascending=[False, True, True]).head(1),
            batch_format="pandas").to_pandas()
        if not len(top):
            break
        best = top.sort_values(
            ["n", "left", "right"],
            ascending=[False, True, True]).iloc[0]
        merges.append((str(best["left"]), str(best["right"])))
        out.append({"rank": rank, "left": str(best["left"]),
                    "right": str(best["right"]),
                    "merged": str(best["left"]) + str(best["right"]),
                    "n": int(best["n"])})
    if not out:
        return pd.DataFrame({
            "rank": pd.array([], dtype="int64"),
            "left": pd.array([], dtype=str),
            "right": pd.array([], dtype=str),
            "merged": pd.array([], dtype=str),
            "n": pd.array([], dtype="int64")})
    return pd.DataFrame(out).astype({"rank": "int64", "n": "int64"})


# Fixed merge table for the tokenizer APPLY half of the BPE stack
# (docs_bpe_train learns one; docs_bpe_encode replays this one). The
# table is corpus-independent so the DuckDB oracle can embed the same
# merges as a generated replace() chain; ranks chain deliberately
# ((t,h)->(th,e), (i,n)->(in,g)) so the replay exercises multi-level
# symbols. Alphabet is [A-Za-z0-9_] only — the bracket-wrapped oracle
# encoding relies on '[' / ']' never appearing inside a symbol.
BPE_FIXED_MERGES = (
    ("t", "h"), ("th", "e"), ("i", "n"), ("a", "n"), ("an", "d"),
    ("e", "r"), ("o", "n"), ("r", "e"), ("o", "r"), ("e", "n"),
    ("a", "t"), ("e", "s"), ("o", "u"), ("in", "g"), ("t", "o"),
    ("s", "t"),
)


def word_token_counts_arrow(t: pa.Table, *, text_col: str = "text",
                            token_col: str = "token",
                            out_col: str = "cnt") -> pa.Table:
    """Per-batch WORD-token occurrence counts: tokens are the
    [A-Za-z0-9_]+ runs (every other char becomes a space, then the
    whitespace split — exactly regexp_extract_all('[A-Za-z0-9_]+')).
    This is the bracket-safe alphabet the BPE encode oracle's
    [sym][sym] wrapping relies on."""
    words = pc.replace_substring_regex(
        t.column(text_col), pattern="[^A-Za-z0-9_]+", replacement=" ")
    return token_counts_arrow(pa.table({text_col: words}),
                              text_col=text_col, token_col=token_col,
                              out_col=out_col)


def bpe_encode_symbol_rows(b: pd.DataFrame, merges) -> pd.DataFrame:
    """Encoded-symbol counts under a fixed merge table — the
    per-batch partial of the tokenizer APPLY pass. The Python loop
    runs over UNIQUE-WORD vocabulary rows (corpus text was reduced to
    (token, c) once upstream), never over corpus rows."""
    rows: dict = {}
    for w, c in zip(b["token"].astype(str),
                    b["c"].to_numpy(np.int64)):
        for s in bpe_symbols(w, merges):
            rows[s] = rows.get(s, 0) + int(c)
    if not rows:
        return pd.DataFrame({"symbol": pd.array([], dtype=str),
                             "n": pd.array([], dtype="int64")})
    return pd.DataFrame({"symbol": list(rows),
                         "n": pd.array(list(rows.values()),
                                       dtype="int64")})
