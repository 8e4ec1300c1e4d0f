"""Dedup operator correctness on corpora with KNOWN duplicates (the
testdata documents are all distinct, so these build their own)."""

import numpy as np
import pandas as pd
import pytest

BASE = ("the quick brown fox jumps over the lazy dog while the cat "
        "watches from the warm windowsill nearby every single day").split()


def _doc(i, mutate=0):
    words = list(BASE) * 3
    rng = np.random.RandomState(i)
    for _ in range(mutate):
        words[rng.randint(len(words))] = f"tok{rng.randint(1000)}"
    return " ".join(words)


@pytest.fixture(scope="module")
def corpus(ray_session):
    import ray.data as rd
    rows = []
    # 0 and 1: exact duplicates; 2: near-dup of 0 (2 words changed);
    # 3: distinct-ish (heavily mutated); 4: unrelated
    rows.append({"doc_id": 0, "text": _doc(0)})
    rows.append({"doc_id": 1, "text": _doc(0)})
    rows.append({"doc_id": 2, "text": _doc(2, mutate=2)})
    rows.append({"doc_id": 3, "text": _doc(3, mutate=40)})
    rows.append({"doc_id": 4, "text": " ".join(f"u{i}" for i in range(100))})
    return rd.from_pandas(pd.DataFrame(rows))


def test_exact_dedup_keep(corpus):
    from pdf_parser_ray.stages.dedup import exact_dedup_keep
    kept = exact_dedup_keep(corpus)
    assert kept["doc_id"].tolist() == [0, 2, 3, 4]   # 1 collapsed into 0


def test_minhash_finds_exact_and_near(corpus):
    from pdf_parser_ray.stages.dedup import minhash_dedup_pairs
    pairs = minhash_dedup_pairs(corpus, threshold=0.5)
    got = set(zip(pairs["id_a"], pairs["id_b"]))
    assert (0, 1) in got
    assert (0, 2) in got and (1, 2) in got
    assert not any(4 in p for p in got)
    exact = pairs[(pairs.id_a == 0) & (pairs.id_b == 1)]["jaccard"].iloc[0]
    assert exact == 1.0


def test_ngram_char_minhash(corpus):
    from pdf_parser_ray.stages.dedup import minhash_dedup_pairs
    pairs = minhash_dedup_pairs(corpus, shingle="char5", threshold=0.5)
    got = set(zip(pairs["id_a"], pairs["id_b"]))
    assert (0, 1) in got
    assert not any(4 in p for p in got)


def test_simhash_pairs(corpus):
    from pdf_parser_ray.stages.dedup import simhash_dedup_pairs
    pairs = simhash_dedup_pairs(corpus, max_hamming=3)
    got = set(zip(pairs["id_a"], pairs["id_b"]))
    assert (0, 1) in got                 # identical -> hamming 0
    ham01 = pairs[(pairs.id_a == 0) & (pairs.id_b == 1)]["hamming"].iloc[0]
    assert ham01 == 0
    assert not any(4 in p for p in got)


def test_embedding_near_dup(ray_session):
    import ray.data as rd
    from pdf_parser_ray.stages.dedup import embedding_dedup_pairs
    rng = np.random.RandomState(5)
    base = rng.standard_normal(32)
    rows = []
    rows.append({"vec_id": 0, "embedding": base})
    rows.append({"vec_id": 1, "embedding": base + 1e-4 * rng.standard_normal(32)})
    rows.append({"vec_id": 2, "embedding": rng.standard_normal(32)})
    rows.append({"vec_id": 3, "embedding": -base})
    ds = rd.from_pandas(pd.DataFrame(rows))
    pairs = embedding_dedup_pairs(ds, threshold=0.99)
    got = set(zip(pairs["id_a"], pairs["id_b"]))
    assert got == {(0, 1)}


def test_exact_dedup_rows_transcripts(ray_session):
    import ray.data as rd
    from pdf_parser_ray.sources.transcripts import transcripts_table
    from pdf_parser_ray.stages.dedup import exact_dedup_rows
    t = transcripts_table("/root/testdata/sf0.001", limit_docs=60,
                         with_duplicates=True)
    base = transcripts_table("/root/testdata/sf0.001", limit_docs=60)
    assert t.num_rows > base.num_rows          # duplicates injected
    ds = rd.from_arrow(t.select(["conv_id", "turn_idx", "role", "tool"]))
    out = exact_dedup_rows(ds, ["conv_id", "turn_idx"]).to_pandas()
    assert len(out) == base.num_rows
    assert not out.duplicated(["conv_id", "turn_idx"]).any()

def test_components_min_label_matches_union_find(ray_session):
    """Distributed min-label propagation == driver union-find, on a
    graph with multi-hop chains (forces >1 propagation round)."""
    from pdf_parser_ray.stages.dedup import (components_from_pairs,
                                             components_min_label)
    # chain 10-11-12-13-14, clique {20,21,22}, pair (30,31), singleton-free
    pairs = pd.DataFrame({
        "id_a": [10, 11, 12, 13, 20, 20, 21, 30],
        "id_b": [11, 12, 13, 14, 21, 22, 22, 31],
    })
    dist = components_min_label(pairs)
    uf = components_from_pairs(pairs)
    expect = {n: uf.get(n, n) for n in dist["node"]}
    got = dict(zip(dist["node"], dist["rep"]))
    assert got == expect
    assert got[14] == 10 and got[22] == 20 and got[31] == 30


def test_minhash_keep_high_duplication(ray_session):
    """High-duplication corpus (the web-crawl normal case): 40% of docs
    are near-copies of a handful of templates. The distributed keep-set
    must equal the union-find answer and keep exactly one doc per
    component."""
    import ray.data as rd
    from pdf_parser_ray.stages.dedup import (components_from_pairs,
                                             minhash_dedup_keep,
                                             minhash_dedup_pairs)
    rows = []
    n_templates, copies = 8, 10
    for t in range(n_templates):
        for c in range(copies):
            # each copy mutates 1 word -> high pairwise jaccard
            rows.append({"doc_id": t * 100 + c,
                         "text": _doc(t * 1000 + c, mutate=1)})
    for i in range(80):   # distinct background docs
        rng = np.random.RandomState(10_000 + i)
        rows.append({"doc_id": 5000 + i,
                     "text": " ".join(f"w{rng.randint(100000)}"
                                      for _ in range(80))})
    df = pd.DataFrame(rows)
    ds = rd.from_pandas(df)
    pairs = minhash_dedup_pairs(ds, threshold=0.7)
    comp = components_from_pairs(pairs)
    dropped = {x for x, r in comp.items() if r != x}
    expect_kept = sorted(set(df["doc_id"]) - dropped)
    kept = minhash_dedup_keep(ds, threshold=0.7)
    assert kept["doc_id"].tolist() == expect_kept
    # sanity: the duplication actually happened (most copies collapse)
    assert len(dropped) > n_templates * (copies - 1) * 0.8


def test_chunk_dedup_removes_repeated_boilerplate(ray_session, tmp_path):
    """Docs sharing a 25-word boilerplate chunk keep it only in its
    first occurrence; a doc made entirely of seen chunks disappears."""
    from pdf_parser_ray.queries.docs import docs_chunk_dedup
    boiler = " ".join(f"b{i}" for i in range(25))
    uniq = lambda tag: " ".join(f"{tag}{i}" for i in range(25))
    df = pd.DataFrame({
        "doc_id": pd.array([0, 1, 2], dtype="int64"),
        "text": [
            boiler + " " + uniq("x"),      # first occurrence keeps boiler
            boiler + " " + uniq("y"),      # later: boiler stripped
            boiler,                        # all chunks seen -> dropped
        ],
    })
    df.to_parquet(tmp_path / "documents.parquet")
    out = docs_chunk_dedup(str(tmp_path))
    assert out["doc_id"].tolist() == [0, 1]
    assert out.loc[0, "dedup_text"] == boiler + " " + uniq("x")
    assert out.loc[1, "dedup_text"] == uniq("y")
    assert out["n_kept"].tolist() == [2, 1]


def test_pairwise_verify_paths_agree(ray_session, monkeypatch):
    """The broadcast fast path and the shuffle scale path of pairwise
    verification return identical pairs."""
    import ray.data as rd
    import pdf_parser_ray.stages.dedup as dd
    rows = [{"doc_id": 0, "text": _doc(0)},
            {"doc_id": 1, "text": _doc(0)},
            {"doc_id": 2, "text": _doc(2, mutate=2)},
            {"doc_id": 3, "text": _doc(3, mutate=40)}]
    ds = rd.from_pandas(pd.DataFrame(rows))
    fast = dd.minhash_dedup_pairs(ds, threshold=0.5)
    monkeypatch.setattr(dd, "_BROADCAST_VERIFY_BYTES", 0)
    slow = dd.minhash_dedup_pairs(ds, threshold=0.5)
    pd.testing.assert_frame_equal(fast, slow)


def test_signatures_batch_matches_scalar_oracle():
    """The vectorized batch signature path (unique-shingle hashing +
    per-lane segment-min) must be byte-identical to the per-doc scalar
    signature, including empty and shorter-than-n docs."""
    from pdf_parser_ray.stages.dedup import MinHasher
    texts = [_doc(0), _doc(0), _doc(2, mutate=2), "", "one two",
             "x", " ".join(f"u{i}" for i in range(50))]
    for mode in ("word3", "char5"):
        mh = MinHasher(64, mode)
        batch = mh.signatures_batch(texts)
        for i, t in enumerate(texts):
            np.testing.assert_array_equal(batch[i], mh.signature(t))


# ------------------------------------ exact Jaccard similarity join

def _brute_jaccard(df, k=3, max_df=None, threshold=0.0):
    """Scalar oracle: per-doc shingle sets, optional global df filter,
    all-pairs Jaccard."""
    sets = {}
    for _, r in df.iterrows():
        toks = r["text"].split()
        if len(toks) >= k:
            sets[r["doc_id"]] = {
                " ".join(toks[i:i + k]) for i in range(len(toks) - k + 1)}
    if max_df is not None:
        from collections import Counter
        dfc = Counter(s for v in sets.values() for s in v)
        sets = {d: {s for s in v if dfc[s] <= max_df}
                for d, v in sets.items()}
    rows = []
    ids = sorted(sets)
    for x in range(len(ids)):
        for y in range(x + 1, len(ids)):
            a, b = ids[x], ids[y]
            inter = len(sets[a] & sets[b])
            union = len(sets[a] | sets[b])
            if union and inter / union >= threshold and inter > 0:
                rows.append((a, b, inter, inter / union))
    return pd.DataFrame(rows, columns=["id_a", "id_b", "n_shared",
                                       "jaccard"])


def test_jaccard_pairs_exact_vs_brute(ray_session):
    import ray.data as rd
    from pdf_parser_ray.stages.dedup import jaccard_pairs_exact
    rng = np.random.RandomState(5)
    vocab = [f"w{i}" for i in range(40)]
    rows = []
    for i in range(60):
        n = rng.randint(3, 30)
        rows.append({"doc_id": i,
                     "text": " ".join(rng.choice(vocab, n))})
    # clones and near-clones to guarantee high-J pairs
    rows.append({"doc_id": 100, "text": rows[0]["text"]})
    rows.append({"doc_id": 101, "text": rows[0]["text"] + " extra"})
    df = pd.DataFrame(rows)
    want = _brute_jaccard(df, k=3, max_df=256, threshold=0.4)
    got = jaccard_pairs_exact(rd.from_pandas(df).repartition(5),
                              k=3, threshold=0.4, max_df=256)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True),
        want.sort_values(["id_a", "id_b"]).reset_index(drop=True),
        check_dtype=False)


def test_jaccard_pairs_df_cap_semantics(ray_session):
    """The df cap changes the shingle SPACE, not just candidates: a
    shingle in > max_df docs contributes to neither intersection nor
    union, exactly as the brute-force oracle defines it."""
    import ray.data as rd
    from pdf_parser_ray.stages.dedup import jaccard_pairs_exact
    common = "alpha beta gamma"  # one shingle shared by every doc
    df = pd.DataFrame([
        {"doc_id": i, "text": f"{common} tail{i} tail{i} end{i}"}
        for i in range(5)])
    want = _brute_jaccard(df, k=3, max_df=3, threshold=0.0)
    got = jaccard_pairs_exact(rd.from_pandas(df).repartition(2),
                              k=3, threshold=0.0001, max_df=3)
    w = want[want["jaccard"] >= 0.0001]
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True),
        w.sort_values(["id_a", "id_b"]).reset_index(drop=True),
        check_dtype=False)


def test_jaccard_pairs_shuffle_path_pins_broadcast(ray_session,
                                                   monkeypatch):
    """Force the hash_join fallback (sizes 'over' budget) and pin its
    output byte-equal to the broadcast path."""
    import ray.data as rd
    from pdf_parser_ray.stages import dedup
    rng = np.random.RandomState(11)
    vocab = [f"w{i}" for i in range(30)]
    df = pd.DataFrame([
        {"doc_id": i, "text": " ".join(rng.choice(vocab, 15))}
        for i in range(40)])
    df.loc[39, "text"] = df.loc[0, "text"]
    ds = rd.from_pandas(df).repartition(4)
    base = dedup.jaccard_pairs_exact(ds, k=3, threshold=0.3)
    monkeypatch.setattr(dedup, "_BROADCAST_VERIFY_BYTES", 0)
    forced = dedup.jaccard_pairs_exact(ds, k=3, threshold=0.3)
    pd.testing.assert_frame_equal(base, forced)


def _union_jaccard(rows_a, rows_b, k=3):
    """Brute-force union-set Jaccard over two groups of row texts."""
    def shingles(rows):
        out = set()
        for t in rows:
            toks = t.split()
            out |= {" ".join(toks[i:i + k])
                    for i in range(max(0, len(toks) - k + 1))}
        return out
    sa, sb = shingles(rows_a), shingles(rows_b)
    return len(sa & sb) / len(sa | sb) if (sa | sb) else 1.0


def test_grouped_minhash_union_signature(ray_session):
    """The mergeable group signature must equal the signature of the
    UNION shingle set (min over per-row signatures == sig of union),
    regardless of how rows are batched/partitioned."""
    import numpy as np
    import ray.data as rd
    import pandas as pd
    from pdf_parser_ray.stages.dedup import (MinHasher, _group_sig_partial,
                                             _sig_min_combine)
    import functools
    rows = pd.DataFrame({
        "gid": [1, 1, 1, 2, 2],
        "text": ["alpha beta gamma delta", "gamma delta epsilon zeta",
                 "one two three four five", "alpha beta gamma delta",
                 "totally different words here now"]})
    mh = MinHasher(128, "word3")
    # brute force: union of per-row shingle sets -> scalar signature
    want = {}
    for gid, g in rows.groupby("gid"):
        sh = set()
        for t in g["text"]:
            sh |= mh.shingle_strings(t)
        want[gid] = mh.signature_from_strings(sh)
    # distributed: partials over two different batchings, then combine
    for split in ((rows.iloc[:2], rows.iloc[2:]),
                  (rows.iloc[:4], rows.iloc[4:])):
        parts = pd.concat([_group_sig_partial(
            b, num_perm=128, shingle="word3", text_col="text",
            group_col="gid") for b in split], ignore_index=True)
        got = _sig_min_combine(parts, group_col="gid")
        for _, r in got.iterrows():
            np.testing.assert_array_equal(
                np.frombuffer(r["sig"], dtype=np.int64), want[r["gid"]])


def test_grouped_minhash_pairs_conv_level(ray_session):
    """End-to-end grouped near-dup: two 3-turn conversations sharing
    most turn content pair up with the exact union Jaccard; an
    unrelated conversation does not. Output invariant under
    repartitioning (turns of one conv deliberately scattered)."""
    import ray.data as rd
    import pandas as pd
    from pdf_parser_ray.stages.dedup import grouped_minhash_pairs
    base = ["the quick brown fox jumps over the lazy dog today",
            "pack my box with five dozen liquor jugs right now",
            "how vexingly quick daft zebras jump over fences"]
    near = base[:2] + ["how vexingly quick daft zebras jump over walls"]
    other = ["completely unrelated content about database systems",
             "streaming shuffles and actor pools all day long",
             "arrow record batches flow through the object store"]
    rows = []
    for gid, turns in ((1, base), (2, near), (3, other)):
        rows += [{"gid": gid, "text": t} for t in turns]
    df = pd.DataFrame(rows)
    outs = []
    for parts in (1, 6):
        got = grouped_minhash_pairs(
            rd.from_pandas(df).repartition(parts),
            group_col="gid", text_col="text", threshold=0.5)
        outs.append(got.reset_index(drop=True))
    pd.testing.assert_frame_equal(outs[0], outs[1])
    got = outs[0]
    assert list(zip(got["id_a"], got["id_b"])) == [(1, 2)]
    want_j = _union_jaccard(base, near)
    assert abs(got["jaccard"].iloc[0] - round(want_j, 4)) < 1e-9
    assert want_j >= 0.5  # the pair is genuinely near-dup


def test_jaccard_exact_multi_row_ids(ray_session):
    """multi_row_ids=True restores exact set semantics when one id
    spans several rows: equal to single-row Jaccard over the
    concatenated... union shingle sets computed brute-force."""
    import ray.data as rd
    import pandas as pd
    from pdf_parser_ray.stages.dedup import jaccard_pairs_exact_ds
    rows = pd.DataFrame({
        "doc_id": [1, 1, 2, 2, 3],
        "text": ["a b c d e f", "e f g h", "a b c d e f", "x y z w q v",
                 "a b c d e f"]})
    got = (jaccard_pairs_exact_ds(rd.from_pandas(rows).repartition(3),
                                  k=3, threshold=0.1, max_df=10**9,
                                  multi_row_ids=True)
           .to_pandas().sort_values(["id_a", "id_b"])
           .reset_index(drop=True))
    texts = {g: list(d["text"]) for g, d in rows.groupby("doc_id")}
    import itertools
    want = []
    for a, b in itertools.combinations(sorted(texts), 2):
        j = _union_jaccard(texts[a], texts[b])
        if j >= 0.1:
            want.append((a, b, round(j, 4)))
    got_t = [(int(r["id_a"]), int(r["id_b"]), round(float(r["jaccard"]), 4))
             for _, r in got.iterrows()]
    assert got_t == want, (got_t, want)


def test_minhash_lane_agreement_is_unbiased():
    """Estimator soundness — the regression test for the broken
    (a*h+b) mod p family (lanes with a < 2^30 never wrapped, stayed
    monotone in h, and all picked the global min-hash shingle; lane
    agreement was bimodal, 0.047 measured on a true J=0.51 pair).
    With the per-lane bijective mix, mean lane agreement must sit
    within a few binomial sigma of the true Jaccard across many
    random pairs at several similarity levels."""
    import numpy as np
    from pdf_parser_ray.stages.dedup import MinHasher
    mh = MinHasher(128, "word3")
    rng = np.random.RandomState(7)
    for target_j in (0.2, 0.5, 0.8):
        agrees, js = [], []
        for t in range(40):
            # |A| = |B| = 100 with s shared: J = s/(200-s) -> s
            n_shared = int(round(200 * target_j / (1 + target_j)))
            shared = {f"s{t}_{i} x y" for i in range(n_shared)}
            only_a = {f"a{t}_{i} p q" for i in range(100 - n_shared)}
            only_b = {f"b{t}_{i} u v" for i in range(100 - n_shared)}
            sa = mh.signature_from_strings(shared | only_a)
            sb = mh.signature_from_strings(shared | only_b)
            agrees.append((sa == sb).mean())
            js.append(n_shared / (2 * 100 - n_shared))
        bias = float(np.mean(agrees) - np.mean(js))
        # 40 pairs x 128 lanes: se ~ sqrt(J(1-J)/5120) < 0.007
        assert abs(bias) < 0.03, (target_j, bias, np.mean(js))
