"""Distributed trained quality classifier — hashed-feature logistic
regression, the model-based quality filter of the CCNet / GPT-3 /
LLaMA curation recipes (a linear classifier over hashed bag-of-words
features scores every document; low-scoring docs are dropped or
down-sampled). fastText is absent from this environment, so the model
is trained HERE, distributed, with the engine's own iterative
broadcast pattern (stages/similarity.lloyd_centroids): per iteration
the weight vector is `ray.put` ONCE and every `map_batches` task
returns one tiny sufficient-stats row (the hashed-feature gradient
partial + loss partial); the driver combines n_blocks rows in
deterministic (blk) order — float summation order is pinned, so a
run is bit-reproducible for a fixed plan. No stage ever holds the
corpus: driver state per iteration is (dim+1) floats x n_blocks.

At 100 TB the same shape holds: the model is a few KB broadcast to
every task, the per-task return is a few KB, and the number of
iterations is a constant — training cost is `iters` streaming passes
over the feature dataset (materialized once, features are ~1% of the
text bytes).

The sf documents are label-free word salad, so the query fixture
(quality_label_inject_batch) deterministically plants class-marker
vocabulary — the established injected-corpus pattern (PII scrub, C4,
line dedup) that makes the operator verifiable without external data.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pandas as pd

from .dedup import _stable_u64_arr

_QC_POS = "qmk"          # marker stem planted in label-1 docs
_QC_NEG = "jmk"          # marker stem planted in label-0 docs
_QC_MARKS = 12           # distinct markers per class
_QC_PER_DOC = 4          # markers planted per doc


def quality_label_inject_batch(b: pd.DataFrame) -> pd.DataFrame:
    """Deterministic classifier fixture: label y=1 for doc_id % 3 == 0
    ("high quality" slice), y=0 otherwise; every doc gets
    _QC_PER_DOC marker tokens from ITS class's _QC_MARKS-word
    vocabulary, selected by doc_id so the marker-document incidence
    is fixed. Both classes receive markers — the model must learn
    WHICH vocabulary signals which class, not that markers exist."""
    ids = b["doc_id"].to_numpy(np.int64)
    y = (ids % 3 == 0).astype(np.int64)
    stems = np.where(y == 1, _QC_POS, _QC_NEG)
    mults = np.where(y == 1, 7, 5).astype(np.int64)
    parts = [
        pd.Series(stems, dtype=object)
        + pd.Series((ids * mults + j) % _QC_MARKS).astype(str)
        for j in range(_QC_PER_DOC)]
    marks = parts[0].str.cat(parts[1:], sep=" ")
    out = b.copy(deep=False)
    out["text"] = b["text"].fillna("") + " " + marks.values
    out["y"] = y
    return out


def featurize_batch(b: pd.DataFrame, *, dim: int,
                    text_col: str = "text") -> pd.DataFrame:
    """Hashed PRESENCE bag-of-words: one row per doc with the sorted
    unique feature-bucket indices (blake2b-u64 % dim — the dedup
    family's stable hash, memoized per worker over batch uniques).
    Tokens hash once per distinct string per batch; the per-doc
    unique+sort keeps the index sequence (and therefore every later
    float summation over it) independent of batch boundaries."""
    n = len(b)
    tl = b[text_col].str.findall(r"\S+")
    counts = np.fromiter((len(x) for x in tl), np.int64, count=n)
    if counts.sum() == 0:
        idx = [np.array([], np.int64)] * n
    else:
        flat = np.concatenate([np.asarray(x, dtype=object)
                               for x in tl])
        parents = np.repeat(np.arange(n, dtype=np.int64), counts)
        codes, uniq = pd.factorize(flat)
        bk = (_stable_u64_arr(uniq) % np.uint64(dim)).astype(
            np.int64)[codes]
        pairs = np.unique(np.stack([parents, bk], axis=1), axis=0)
        cuts = np.searchsorted(pairs[:, 0], np.arange(n + 1))
        idx = [pairs[cuts[i]:cuts[i + 1], 1] for i in range(n)]
    return pd.DataFrame({"doc_id": b["doc_id"].to_numpy(np.int64),
                         "y": b["y"].to_numpy(np.int64),
                         "idx": idx})


def _segment_sums(values: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Per-segment sums via prefix differences — exact for zero-length
    segments (np.add.reduceat is not)."""
    c = np.zeros(len(values) + 1, np.float64)
    np.cumsum(values, out=c[1:])
    cuts = np.zeros(len(lens) + 1, np.int64)
    np.cumsum(lens, out=cuts[1:])
    return c[cuts[1:]] - c[cuts[:-1]]


def _scores(b: pd.DataFrame, w: np.ndarray, dim: int):
    """(flat indices, per-doc lens, per-doc margin s) for one batch.
    Per-doc summation order is the doc's own sorted index list, so s
    is bit-identical under any batch partitioning of the same rows."""
    idxs = b["idx"].values
    lens = np.fromiter((len(a) for a in idxs), np.int64,
                       count=len(idxs))
    flat = (np.concatenate([np.asarray(a, np.int64) for a in idxs])
            if lens.sum() else np.array([], np.int64))
    s = _segment_sums(w[flat], lens) + w[dim]
    return flat, lens, np.clip(s, -35.0, 35.0)


def logreg_partial(b: pd.DataFrame, w: np.ndarray, *,
                   dim: int) -> pd.DataFrame:
    """One sufficient-stats row for one batch: gradient of the SUMMED
    log-loss over the batch (dim weights + bias), the loss sum, and
    the row count. blk = min doc_id — the deterministic combine key
    (the lloyd_centroids idiom). A zero-row batch has no blk, so it
    yields a typed zero-row partial."""
    if len(b) == 0:
        return pd.DataFrame({"blk": pd.Series([], dtype=np.int64),
                             "g": pd.Series([], dtype=object),
                             "loss": pd.Series([], dtype=np.float64),
                             "n": pd.Series([], dtype=np.int64)})
    flat, lens, s = _scores(b, w, dim)
    y = b["y"].to_numpy(np.float64)
    p = 1.0 / (1.0 + np.exp(-s))
    r = p - y
    g = np.bincount(flat, weights=np.repeat(r, lens),
                    minlength=dim + 1)
    g[dim] = r.sum()
    loss = float((np.logaddexp(0.0, s) - y * s).sum())
    return pd.DataFrame({"blk": [np.int64(b["doc_id"].min())],
                         "g": [g], "loss": [loss],
                         "n": [np.int64(len(b))]})


def train_logreg(feat_ds, *, dim: int, iters: int = 12,
                 lr: float = 0.3) -> Tuple[np.ndarray, List[float]]:
    """Full-batch gradient descent on the mean log-loss. Returns the
    final weight vector (dim features + bias) and the per-iteration
    MEAN loss measured at the pre-step weights. Driver combines the
    per-block partials sorted by blk, so float summation order — and
    therefore the trained model — is deterministic for a fixed block
    layout."""
    import ray

    w = np.zeros(dim + 1, np.float64)
    losses: List[float] = []
    for _ in range(iters):
        ref = ray.put(w)

        def part(b: pd.DataFrame, _ref=ref) -> pd.DataFrame:
            return logreg_partial(b, ray.get(_ref), dim=dim)

        rows = feat_ds.map_batches(part, batch_format="pandas").to_pandas()
        # an all-empty dataset comes back with no columns at all
        n = int(rows["n"].sum()) if "n" in rows else 0
        if n == 0:
            return w, losses
        rows = rows.sort_values("blk", kind="mergesort")
        g = np.sum(np.stack([np.asarray(v) for v in rows["g"]]),
                   axis=0)
        losses.append(float(rows["loss"].sum()) / n)
        w = w - lr * (g / n)
    return w, losses


def confusion_counts(feat_ds, w: np.ndarray, *, dim: int):
    """(tp, fp, tn, fn) at the p > 0.5 decision threshold — integer
    partials, order-free to combine."""
    import ray

    ref = ray.put(w)

    def part(b: pd.DataFrame) -> pd.DataFrame:
        _, _, s = _scores(b, ray.get(ref), dim)
        pred = (s > 0.0).astype(np.int64)
        y = b["y"].to_numpy(np.int64)
        return pd.DataFrame({
            "tp": [int(((pred == 1) & (y == 1)).sum())],
            "fp": [int(((pred == 1) & (y == 0)).sum())],
            "tn": [int(((pred == 0) & (y == 0)).sum())],
            "fn": [int(((pred == 0) & (y == 1)).sum())]})

    tot = (feat_ds.map_batches(part, batch_format="pandas")
           .to_pandas().sum())
    return (int(tot["tp"]), int(tot["fp"]), int(tot["tn"]),
            int(tot["fn"]))
