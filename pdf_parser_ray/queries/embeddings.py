"""Embedding queries: exact and approximate nearest neighbours, kNN
label checks, k-means, product quantization and the SemDeDup
semantic-pair family."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..relational import (bucketed_map_groups, grouped_agg,
                          guard_broadcast_bytes, read_table)
from ..stages.dedup import components_min_label, embedding_dedup_pairs
from ..stages.similarity import (kmeans_blocked_pairs, knn_bruteforce,
                                 knn_ivf, knn_lsh, pq_assign_report,
                                 pq_train_codebooks, semantic_inject_batch,
                                 semantic_pairs_group)
from ._common import query


@query(oracle="""
        WITH p AS (
          SELECT a.vec_id AS qid, a.label AS actual,
                 b.vec_id AS nid, b.label AS nlabel,
                 ROUND(list_cosine_similarity(a.embedding::DOUBLE[],
                                              b.embedding::DOUBLE[]), 4)
                   AS cos4
          FROM embeddings a JOIN embeddings b
               ON a.vec_id <> b.vec_id),
        r AS (SELECT *, ROW_NUMBER() OVER (
                         PARTITION BY qid
                         ORDER BY cos4 DESC, nid) AS rk FROM p),
        v AS (SELECT qid, actual, nlabel, COUNT(*) AS c
              FROM r WHERE rk <= 5 GROUP BY qid, actual, nlabel),
        pred AS (SELECT qid, actual, nlabel AS predicted,
                        ROW_NUMBER() OVER (
                          PARTITION BY qid
                          ORDER BY c DESC, nlabel) AS vr FROM v)
        SELECT actual, predicted, CAST(COUNT(*) AS BIGINT) AS n
        FROM pred WHERE vr = 1
        GROUP BY actual, predicted ORDER BY actual, predicted
    """)
def embeddings_knn_confusion(sf_dir: str) -> pd.DataFrame:
    """k-NN label-prediction CONFUSION MATRIX (k=5, majority vote) —
    the label-quality audit run before trusting a labeled corpus: each
    point is classified by its 5 nearest neighbors (self excluded) and
    the (actual, predicted) counts expose systematically confusable
    label pairs. Distributed as broadcast-candidate-matrix + per-batch
    vectorized scoring (matmul, one argsort per query row); at web
    scale the candidate side is the IVF-bucketed index
    (stages.similarity), the vote logic unchanged. Ranking runs on
    cosine ROUNDED to 4dp with vec_id tiebreak — the same
    ulp-stability surface as the knn oracle — so the SQL window
    ranking is identical; vote ties break to the smallest label."""
    ds = read_table(sf_dir, "embeddings",
                    ["vec_id", "embedding", "label"]).materialize()
    pdf = ds.to_pandas()
    X = np.stack([np.asarray(v, dtype=np.float64)
                  for v in pdf["embedding"]])
    ids = pdf["vec_id"].to_numpy(dtype=np.int64)
    labels = pdf["label"].to_numpy(dtype=np.int64)
    guard_broadcast_bytes(X.nbytes, "knn candidate matrix",
                          "swap the broadcast matrix for the "
                          "IVF-bucketed index (stages.similarity)")
    norms = np.linalg.norm(X, axis=1)
    ref = ray.put((X, ids, labels, norms))
    K = 5

    def classify(b: pd.DataFrame) -> pd.DataFrame:
        Xc, cid, clab, cnorm = ray.get(ref)
        Q = np.stack([np.asarray(v, dtype=np.float64)
                      for v in b["embedding"]])
        qid = b["vec_id"].to_numpy(dtype=np.int64)
        qlab = b["label"].to_numpy(dtype=np.int64)
        cos = (Q @ Xc.T) / (np.linalg.norm(Q, axis=1)[:, None]
                            * cnorm[None, :])
        cos4 = np.round(cos, 4)
        preds = np.empty(len(b), dtype=np.int64)
        for i in range(len(b)):
            row = cos4[i].copy()
            row[cid == qid[i]] = -np.inf          # exclude self
            order = np.lexsort((cid, -row))[:K]
            nl = clab[order]
            cnt = np.bincount(nl)
            preds[i] = int(np.flatnonzero(cnt == cnt.max())[0])
        return pd.DataFrame({"actual": qlab, "predicted": preds})

    out = grouped_agg(ds.map_batches(classify, batch_format="pandas"),
                      ["actual", "predicted"], {"n": ("count", None)})
    return (out.astype({"actual": "int64", "predicted": "int64",
                        "n": "int64"})
            .sort_values(["actual", "predicted"]).reset_index(drop=True))


@query(oracle="""
        WITH dims AS (
          SELECT label, i, SUM(embedding[i]::DOUBLE) AS sd
          FROM embeddings, range(1, 65) t(i)
          GROUP BY label, i),
        cen AS (
          SELECT label, list(sd ORDER BY i) AS cen
          FROM dims GROUP BY label),
        scored AS (
          SELECT e.label,
                 list_cosine_similarity(e.embedding::DOUBLE[], c.cen)
                   AS cos
          FROM embeddings e JOIN cen c USING (label))
        SELECT label, CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(CASE WHEN cos < 0 THEN 1 ELSE 0 END) AS BIGINT)
                 AS n_outliers,
               ROUND(AVG(cos), 3) AS avg_cos
        FROM scored GROUP BY label ORDER BY label
    """)
def embeddings_label_outliers(sf_dir: str) -> pd.DataFrame:
    """Per-label centroid QA — the mislabeled-sample detector a
    training-data pipeline runs over an embedded corpus: each label's
    centroid direction is the per-dim SUM of its members (cosine is
    scale-invariant, and the sum — unlike the mean — is mirrored
    exactly by SQL SUM), every point is scored by cosine to its OWN
    label's centroid, and the per-label report counts negative-cosine
    members (pointing away from their class). Two passes, kmeans
    layout: per-batch sufficient statistics combined driver-side in
    deterministic (label, blk) order, centroids broadcast once via
    ray.put, scoring fully distributed. avg_cos is rounded to 3dp so
    dim-summation-order ulps can't break the hash compare."""
    ds = read_table(sf_dir, "embeddings",
                    ["vec_id", "embedding", "label"]).materialize()

    def stats(b: pd.DataFrame) -> pd.DataFrame:
        X = np.stack([np.asarray(v, dtype=np.float64)
                      for v in b["embedding"]])
        lab = b["label"].to_numpy(dtype=np.int64)
        blk = int(b["vec_id"].min())
        rows = []
        for lb in np.unique(lab):
            rows.append({"label": int(lb),
                         "s": X[lab == lb].sum(axis=0).tolist(),
                         "blk": blk})
        return pd.DataFrame(rows)

    part = (ds.map_batches(stats, batch_format="pandas")
            .to_pandas().sort_values(["label", "blk"], kind="mergesort"))
    cen = {int(lb): np.sum(np.stack([np.asarray(s) for s in g["s"]]),
                           axis=0)
           for lb, g in part.groupby("label")}
    ref = ray.put(cen)

    def score(b: pd.DataFrame) -> pd.DataFrame:
        C_map = ray.get(ref)
        X = np.stack([np.asarray(v, dtype=np.float64)
                      for v in b["embedding"]])
        lab = b["label"].to_numpy(dtype=np.int64)
        C = np.stack([C_map[int(lb)] for lb in lab])
        cos = (X * C).sum(1) / (np.linalg.norm(X, axis=1)
                                * np.linalg.norm(C, axis=1))
        return pd.DataFrame({"label": lab,
                             "is_out": (cos < 0.0).astype(np.int64),
                             "cos": cos})

    agg = grouped_agg(ds.map_batches(score, batch_format="pandas"),
                      ["label"], {"n": ("count", None),
                                  "n_outliers": ("sum", "is_out"),
                                  "sum_cos": ("sum", "cos")})
    agg["avg_cos"] = np.round(agg["sum_cos"].to_numpy(dtype=np.float64)
                              / agg["n"].to_numpy(dtype=np.float64), 3)
    return (agg[["label", "n", "n_outliers", "avg_cos"]]
            .astype({"label": "int64", "n": "int64",
                     "n_outliers": "int64"})
            .sort_values("label").reset_index(drop=True))


@query
def embeddings_kmeans(sf_dir: str) -> pd.DataFrame:
    """Distributed k-means (k=8, 5 fixed iterations, deterministic
    seed = the k lowest vec_ids): per-batch vectorized assign +
    per-cluster partial sums inside map_batches; the driver only ever
    combines k x n_blocks tiny partials per iteration (the classic
    broadcast-centroids / partial-sufficient-statistics layout).
    Iterative, so no SQL oracle — instead two BOUNDS ORACLES are
    asserted live: (a) total within-cluster SSE after the update
    iterations must not exceed the seed-centroid SSE (Lloyd's
    iterations are monotonically non-increasing), and (b) the
    per-cluster membership hash (wraparound int64 sum of member
    vec_id siphashes — order-independent, so deterministic under any
    task completion order) is returned, pinning assignments bit-stably
    across re-runs via the driver's value-hash compare."""
    k, iters = 8, 5
    ds = read_table(sf_dir, "embeddings", ["vec_id", "embedding"])
    # iterative re-scan: cache the (projected) working set in the
    # object store rather than re-reading parquet every iteration
    ds = ds.materialize()
    # seed = the k lowest vec_ids, found by a mergeable per-batch
    # bottom-k (ids need not start at 0 or be dense)
    seed = (ds.map_batches(
        lambda b: b.sort_values("vec_id").head(k), batch_format="pandas")
        .to_pandas().sort_values("vec_id").head(k))
    if len(seed) < k:
        raise ValueError(f"k={k} exceeds corpus size {len(seed)}")
    centroids = np.stack([np.asarray(v, dtype=np.float64)
                          for v in seed["embedding"]])

    def partials_for(ref):
        def assign(b: pd.DataFrame):
            X = np.stack([np.asarray(v, dtype=np.float64)
                          for v in b["embedding"]])
            C = ray.get(ref)
            d2 = ((X * X).sum(1)[:, None] - 2.0 * (X @ C.T)
                  + (C * C).sum(1)[None, :])
            a = d2.argmin(1)
            sums = np.zeros_like(C)
            np.add.at(sums, a, X)
            counts = np.bincount(a, minlength=k).astype(np.int64)
            inert = np.zeros(k)
            np.add.at(inert, a, d2[np.arange(len(a)), a])
            # per-cluster membership hash partial: wraparound int64
            # sums are associative+commutative, so the combined value
            # is independent of batch/task order
            vh = pd.util.hash_pandas_object(
                b["vec_id"], index=False).to_numpy().view(np.int64)
            ah = np.zeros(k, dtype=np.int64)
            with np.errstate(over="ignore"):
                np.add.at(ah, a, vh)
            # blk: stable per-batch key so the driver combines float
            # partials in a deterministic order regardless of task
            # completion order
            blk = int(b["vec_id"].min())
            return pa.table({
                "cluster": np.arange(k, dtype=np.int64),
                "n": counts,
                "s": sums.tolist(),
                "inertia": inert,
                "ah": ah,
                "blk": np.full(k, blk, dtype=np.int64),
            })
        return assign

    seed_sse = None
    for it in range(iters):
        ref = ray.put(centroids)
        part = (ds.map_batches(partials_for(ref), batch_format="pandas")
                .to_pandas().sort_values(["cluster", "blk"],
                                         kind="mergesort"))
        if it == 0:
            seed_sse = float(part["inertia"].sum())
        counts = part.groupby("cluster")["n"].sum()
        sums = {c: np.sum(np.stack([np.asarray(s) for s in g["s"]]), axis=0)
                for c, g in part.groupby("cluster")}
        centroids = np.stack([
            sums[c] / counts[c] if counts[c] > 0 else centroids[c]
            for c in range(k)])

    ref = ray.put(centroids)
    part = (ds.map_batches(partials_for(ref), batch_format="pandas")
            .to_pandas().sort_values(["cluster", "blk"], kind="mergesort"))
    g = part.groupby("cluster", as_index=False).agg(
        size=("n", "sum"), inertia=("inertia", "sum"),
        assign_hash=("ah", "sum"))
    # bounds oracle: Lloyd's updates never increase total SSE
    final_sse = float(g["inertia"].sum())
    assert final_sse <= seed_sse * (1 + 1e-9), \
        f"k-means SSE increased: seed {seed_sse} -> final {final_sse}"
    g["inertia"] = np.round(g["inertia"], 4)
    return (g.rename(columns={"cluster": "cluster_id"})
            .astype({"cluster_id": "int64", "size": "int64",
                     "assign_hash": "int64"})
            .sort_values("cluster_id").reset_index(drop=True))


@query
def embeddings_pq_codes(sf_dir: str) -> pd.DataFrame:
    """Product quantization (Jegou et al. 2011) — the compression
    half of the IVF-PQ ANN stack (embeddings_knn_ivf is the
    partition half): 64-dim vectors split into m=4 subspaces, a
    ksub=16 codebook trained per subspace with the engine's
    distributed Lloyd stage (broadcast centroids, sufficient-stats
    partials, deterministic lowest-id seeds), then ONE streaming
    assign pass with all codebooks broadcast — 64 float32 dims
    become 4 uint8-range codes (128x fewer bits), which is how a
    100 TB embedding corpus fits an in-memory ANN index. No SQL
    oracle (iterative float k-means, the embeddings_kmeans class);
    verified in-query instead: per-subspace code histograms must
    sum to n, and the quantization SSE must land at <= 0.85x the
    rank-0 (subspace-mean) baseline — the sf embeddings are
    near-isotropic within a subspace, where ksub=16 over 16 dims
    buys ~27% SSE (measured 0.73-0.77 across sf0.001/0.01/0.1;
    theory for k centroids in d dims predicts ~1 - k^(-2/d) = 29%),
    so 0.85 is non-vacuous (an untrained codebook sits at ~1.0) yet
    stable across corpora — plus the pytest suite pins codes against
    a numpy reference and partitioning invariance. Surface is
    integer-only: (subspace, code, n) histogram rows."""
    M, KSUB = 4, 16
    ds = read_table(sf_dir, "embeddings",
                    ["vec_id", "embedding"]).materialize()
    books = pq_train_codebooks(ds, m=M, ksub=KSUB, iters=4)
    if not books:
        return pd.DataFrame({c: pd.array([], dtype="int64")
                             for c in ("subspace", "code", "n")})
    hist, err_sse, base_sse, n_vecs = pq_assign_report(ds, books)
    sums = hist.groupby("subspace")["n"].sum()
    assert (sums == n_vecs).all(), \
        f"code histograms must each sum to n={n_vecs}: {dict(sums)}"
    assert err_sse <= 0.85 * base_sse, \
        (f"PQ SSE {err_sse:.3f} does not beat the subspace-mean "
         f"baseline {base_sse:.3f} by 15% — codebooks failed to train")
    return hist.sort_values(["subspace", "code"], ignore_index=True)


def _query_vec(sf_dir: str):
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    df = t.to_pandas()
    return df.loc[df["vec_id"] == 0, "embedding"].iloc[0]


@query(oracle="""
        WITH q AS (SELECT embedding::DOUBLE[] AS qv FROM embeddings
                   WHERE vec_id = 0)
        SELECT e.vec_id,
               ROUND(list_cosine_similarity(e.embedding::DOUBLE[], q.qv), 4)
                 AS cos_sim
        FROM embeddings e, q
        WHERE e.vec_id <> 0
        ORDER BY cos_sim DESC, e.vec_id LIMIT 10
    """)
def embeddings_knn_bruteforce(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "embeddings", ["vec_id", "embedding"])
    return knn_bruteforce(ds, _query_vec(sf_dir), k=10, exclude_id=0)


@query
def embeddings_knn_lsh(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "embeddings", ["vec_id", "embedding"])
    return knn_lsh(ds, _query_vec(sf_dir), k=10, exclude_id=0)


@query
def embeddings_knn_ivf(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "embeddings", ["vec_id", "embedding"])
    return knn_ivf(ds, _query_vec(sf_dir), k=10, exclude_id=0)


@query
def embeddings_ann_recall(sf_dir: str) -> pd.DataFrame:
    """ANN quality REPORT (measured, not asserted): recall@10 and scan
    fraction for the LSH and IVF paths against the exact brute-force
    truth, with a BOUNDS ORACLE on the one guarantee that is
    data-independent — an index that scans a fraction f of an
    ISOTROPIC corpus (these testdata embeddings: same-label mean cosine
    ~0.0007) can only recall ~f of the true neighbors, so the assertion
    is recall <= scan_fraction + slack (slack = 3 binomial sigma
    at k=10). The measured
    numbers (LSH ~1% scan -> recall ~0, IVF 25-30% scan -> recall
    0.3-0.6) are the honest statement that sublinear ANN needs
    clustered embeddings to beat its scan fraction; on real embedding
    corpora (which cluster) IVF recovers. Rounded to 1 decimal so the
    hash compare is stable across scale factors."""
    ds = read_table(sf_dir, "embeddings", ["vec_id", "embedding"])
    total = ds.count()
    q = _query_vec(sf_dir)
    truth = set(knn_bruteforce(ds, q, k=10, exclude_id=0)["vec_id"])
    lsh, lsh_scanned = knn_lsh(ds, q, k=10, exclude_id=0, with_stats=True)
    ivf, ivf_scanned = knn_ivf(ds, q, k=10, exclude_id=0, with_stats=True)
    rows = []
    for method, res, scanned in (("ivf", ivf, ivf_scanned),
                                 ("lsh", lsh, lsh_scanned)):
        recall = len(set(res["vec_id"]) & truth) / len(truth)
        frac = scanned / total
        rows.append({
            "method": method,
            "recall_at_10": round(recall, 4),
            "scan_fraction": round(frac, 4),
            "recall_bounded_by_scan": bool(recall <= frac + 0.45),
        })
    # the bound is ASSERTED, not just reported: an isotropic corpus
    # where an index recalls far above its scan fraction means the
    # stats plumbing (scanned counts / truth set) broke
    bad = [r["method"] for r in rows if not r["recall_bounded_by_scan"]]
    assert not bad, f"ANN recall exceeded scan-fraction bound: {bad}"
    return pd.DataFrame(rows).sort_values("method").reset_index(drop=True)


@query
def embeddings_near_dup(sf_dir: str) -> pd.DataFrame:
    ds = read_table(sf_dir, "embeddings", ["vec_id", "embedding"])
    return embedding_dedup_pairs(ds, threshold=0.95)


def _semantic_pairs_ds(sf_dir: str):
    """Shared SemDeDup pair stage: inject the deterministic collinear
    duplicates (the raw sf corpus is near-orthogonal — max within-label
    cosine 0.47 at sf0.01, so the pass would be vacuous), then a tiled
    within-block pairwise cosine scan at threshold 0.9. Blocking key is
    the label column (kmeans cluster id in production — labels make the
    blocking SQL-mirrorable); one bucketed shuffle on the block key
    moves each block's vectors together, and the scan inside is tiled
    matmul so peak memory is tile^2 regardless of block size. Returns
    a DATASET of integer-only (vec_a, vec_b, block), vec_a < vec_b."""
    ds = read_table(sf_dir, "embeddings", ["vec_id", "embedding", "label"])

    def inject(b: pd.DataFrame) -> pd.DataFrame:
        out = semantic_inject_batch(b)
        return out.assign(label=out["label"].astype("int64"))

    return bucketed_map_groups(
        ds.map_batches(inject, batch_format="pandas"), ["label"],
        lambda g: semantic_pairs_group(g, threshold=0.9,
                                       block_col="label"))


# The SemDeDup oracles share one augmented-corpus CTE body: the
# deterministic collinear-duplicate injection mirrored expression-for-
# expression from stages.similarity.semantic_inject_batch (embedding
# cast to DOUBLE before scaling on both sides, so the vectors are
# bit-identical; cosine is scale-invariant, and the 0.9 threshold sits
# between the injected ~1.0 pairs and the natural <=0.65 corpus, so
# ulp-level expression-tree differences cannot flip a pair).
_SEMANTIC_AUG_SQL = """
    aug AS (
      SELECT vec_id, embedding::DOUBLE[] AS emb, CAST(label AS BIGINT) AS label
      FROM embeddings
      UNION ALL
      SELECT vec_id + 1000000,
             list_transform(embedding::DOUBLE[], x -> x * 1.25),
             CAST(label AS BIGINT)
      FROM embeddings WHERE vec_id % 17 = 0
      UNION ALL
      SELECT vec_id + 3000000,
             list_transform(embedding::DOUBLE[], x -> x * 0.8),
             CAST(label AS BIGINT)
      FROM embeddings WHERE vec_id % 51 = 0),
    sem_pairs AS (
      SELECT a.vec_id AS vec_a, b.vec_id AS vec_b, a.label AS block
      FROM aug a JOIN aug b
        ON a.label = b.label AND a.vec_id < b.vec_id
      WHERE list_cosine_similarity(a.emb, b.emb) >= 0.9)
"""


@query(oracle=f"""
    WITH {_SEMANTIC_AUG_SQL}
    SELECT vec_a, vec_b, block FROM sem_pairs ORDER BY vec_a, vec_b
""")
def embeddings_semantic_pairs(sf_dir: str) -> pd.DataFrame:
    """SemDeDup-style semantic near-duplicate PAIRS (Abbas et al. 2023,
    "SemDeDup: Data-efficient learning at web-scale through semantic
    deduplication" — block by cluster, pairwise cosine within blocks).
    The verified surface is integer-only (vec_a, vec_b, block): the
    injected duplicates sit at cosine ~1.0 and the natural corpus at
    <= 0.65, so the 0.9 threshold decision is immune to the
    summation-order ulps that keep raw cosines out of hash-verified
    outputs elsewhere (see docs_tfidf_topk's docstring)."""
    out = _semantic_pairs_ds(sf_dir).to_pandas()
    if out.empty:
        return pd.DataFrame({"vec_a": pd.array([], dtype="int64"),
                             "vec_b": pd.array([], dtype="int64"),
                             "block": pd.array([], dtype="int64")})
    return (out.astype({"vec_a": "int64", "vec_b": "int64",
                        "block": "int64"})
            .sort_values(["vec_a", "vec_b"]).reset_index(drop=True))


# The kmeans-blocked variant shares the pair-threshold oracle (no
# block column): exact on this corpus because every >=0.9 pair is a
# collinear injected duplicate, which normalizes to the same point and
# therefore always shares a cluster (see the query docstring; the
# blocking-recall property is separately asserted in tests).
@query(oracle=f"""
    WITH {_SEMANTIC_AUG_SQL}
    SELECT vec_a, vec_b FROM sem_pairs ORDER BY vec_a, vec_b
""")
def embeddings_semantic_pairs_kmeans(sf_dir: str) -> pd.DataFrame:
    """SemDeDup with the PAPER'S blocking: L2-normalize, k-means
    cluster the normalized embeddings (broadcast-centroid /
    sufficient-statistics layout, deterministic lowest-vec_id seeds,
    5 Lloyd iterations — same distributed shape as embeddings_kmeans),
    then the tiled within-CLUSTER cosine scan. Cross-cluster pairs are
    missed BY DESIGN — that is SemDeDup's approximation. Scale shape
    (stages/similarity.kmeans_blocked_pairs): k = max(8, ceil(n /
    target_cluster_rows)) — the paper's "cluster fits a worker" design
    point, ~110k clusters at web scale — the within-cluster scan
    enforces a hard 4x-target per-cluster row budget, and an oversized
    cluster is recursively re-clustered, never materialized in one
    task. At fixture scale (<= 32k rows) k stays 8, so the pair set is
    unchanged from the fixed-k version. The SQL oracle (threshold over
    all within-LABEL pairs, no clustering) is exact here because every
    >=0.9 pair in the fixture corpus is a collinear injected
    duplicate: collinear vectors normalize to the SAME point,
    identical points share a nearest centroid, so each such pair is
    intra-cluster and the blocking's recall is provably 1.0 on this
    corpus (natural pairs max out at cosine ~0.51). That
    within-label invariant is FIXTURE-CORPUS-SCOPED and asserted at
    runtime (label_col below): a future corpus with a legitimate
    cross-label pair fails loudly in the scan task, not as an opaque
    driver hash mismatch. Verified surface: integer-only
    (vec_a, vec_b)."""
    ds = read_table(sf_dir, "embeddings", ["vec_id", "embedding", "label"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        out = semantic_inject_batch(b)
        normed = []
        for v in out["embedding"]:
            v = np.asarray(v, dtype=np.float64)
            n = np.linalg.norm(v)
            normed.append(v / n if n > 0 else v)
        lab = out["label"].astype("int64")
        out = out[["vec_id"]].copy(deep=False)
        out["embedding"] = pd.Series(normed, index=out.index,
                                     dtype=object)
        out["label"] = lab
        return out

    # iterative re-scan: pin the normalized working set once
    nds = ds.map_batches(prep, batch_format="pandas").materialize()
    pairs = kmeans_blocked_pairs(nds, threshold=0.9, label_col="label")
    if pairs.empty:
        return pd.DataFrame({"vec_a": pd.array([], dtype="int64"),
                             "vec_b": pd.array([], dtype="int64")})
    return (pairs.astype({"vec_a": "int64", "vec_b": "int64"})
            .sort_values(["vec_a", "vec_b"]).reset_index(drop=True))


# Keep-list oracle: recursive-CTE min-label closure over the pair
# graph — cc(n, m) holds every (node, component member) pair, so
# MIN(m) per node is the component's min id, exactly the engine's
# distributed min-label fixpoint.
@query(oracle=f"""
    WITH RECURSIVE {_SEMANTIC_AUG_SQL},
    edges AS (SELECT vec_a AS a, vec_b AS b FROM sem_pairs
              UNION ALL
              SELECT vec_b, vec_a FROM sem_pairs),
    cc(n, m) AS (
      SELECT DISTINCT a, a FROM edges
      UNION
      SELECT e.b, cc.m FROM cc JOIN edges e ON e.a = cc.n)
    SELECT n AS vec_id, MIN(m) AS rep,
           CAST(n = MIN(m) AS BIGINT) AS kept
    FROM cc GROUP BY n ORDER BY vec_id
""")
def embeddings_semantic_dedup(sf_dir: str) -> pd.DataFrame:
    """SemDeDup KEEP-LIST: connected components over the semantic pair
    graph, min-id representative per component — kept=1 rows are the
    exemplars a SemDeDup prune retains, kept=0 rows the semantic
    duplicates it drops. Components via the same adaptive distributed
    min-label propagation the MinHash keep-set uses (driver union-find
    only under the broadcast byte budget). Oracle: a recursive-CTE
    min-label closure in DuckDB, so the full graph semantics — not
    just the pair list — are value-hash-verified end to end."""

    pairs = _semantic_pairs_ds(sf_dir).map_batches(
        lambda t: pa.table({"id_a": t.column("vec_a"),
                            "id_b": t.column("vec_b")}),
        batch_format="pyarrow")
    comp = components_min_label(pairs)
    if comp.empty:
        return pd.DataFrame({"vec_id": pd.array([], dtype="int64"),
                             "rep": pd.array([], dtype="int64"),
                             "kept": pd.array([], dtype="int64")})
    out = comp.rename(columns={"node": "vec_id"})
    out["kept"] = (out["vec_id"] == out["rep"]).astype("int64")
    return (out.astype({"vec_id": "int64", "rep": "int64"})
            .sort_values("vec_id").reset_index(drop=True))
