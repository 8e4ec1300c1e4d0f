"""SemDeDup-style semantic dedup + unigram-CE quality score.

The oracle-parametrized suites (test_queries_oracle at sf0.001, the
sf0.01 sweep) already hash-verify the registry entries end to end;
these tests pin the pieces the SQL compare can't see: the tiled scan's
equality to the naive pairwise, partitioning invariance of the pair
stage, the size-3 transitive components the injection fixture is
designed to create, and typed empty-corpus frames.
"""

import numpy as np
import pandas as pd
import pytest


def _rand_group(n, dim, seed, dups=()):
    """n near-orthogonal vectors plus collinear copies at given idxs."""
    rng = np.random.RandomState(seed)
    X = rng.standard_normal((n, dim))
    rows = [{"vec_id": i, "embedding": X[i], "label": 0}
            for i in range(n)]
    for j, src in enumerate(dups):
        rows.append({"vec_id": 10_000 + j,
                     "embedding": X[src] * 2.0, "label": 0})
    return pd.DataFrame(rows)


def test_tiled_scan_equals_naive():
    from pdf_parser_ray.stages.similarity import semantic_pairs_group
    g = _rand_group(57, 16, seed=3, dups=(0, 5, 5))
    naive = semantic_pairs_group(g, threshold=0.9, tile=10**6)
    tiled = semantic_pairs_group(g, threshold=0.9, tile=7)
    pd.testing.assert_frame_equal(
        naive.sort_values(["vec_a", "vec_b"]).reset_index(drop=True),
        tiled.sort_values(["vec_a", "vec_b"]).reset_index(drop=True))
    # the two copies of vector 5 pair with each other AND the base
    got = set(map(tuple, naive[["vec_a", "vec_b"]].to_numpy()))
    assert {(0, 10_000), (5, 10_001), (5, 10_002),
            (10_001, 10_002)} <= got


def test_pair_stage_partitioning_invariance(ray_session, tmp_path):
    """Same pairs regardless of the input's physical block layout."""
    import ray.data as rd

    from pdf_parser_ray.queries import _semantic_pairs_ds

    src = pd.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    out = tmp_path / "emb"
    out.mkdir()
    # shuffled single file vs the original layout
    shuffled = src.sample(frac=1.0, random_state=7).reset_index(drop=True)
    shuffled.to_parquet(out / "embeddings.parquet")
    a = (_semantic_pairs_ds("/root/testdata/sf0.001").to_pandas()
         .sort_values(["vec_a", "vec_b"]).reset_index(drop=True))
    b = (_semantic_pairs_ds(str(out)).to_pandas()
         .sort_values(["vec_a", "vec_b"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)
    assert len(a) > 0


def test_semantic_dedup_components(ray_session):
    """%51 ids get TWO injected copies -> size-3 components whose rep
    is the base id; %17-only ids get size-2 components; kept marks
    exactly one exemplar per component."""
    from pdf_parser_ray.queries import embeddings_semantic_dedup
    out = embeddings_semantic_dedup("/root/testdata/sf0.001")
    assert set(out.columns) == {"vec_id", "rep", "kept"}
    src = pd.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    ids = src["vec_id"].to_numpy()
    by_rep = out.groupby("rep")
    for base in ids[ids % 51 == 0]:
        grp = by_rep.get_group(base)
        assert set(grp["vec_id"]) == {base, base + 1_000_000,
                                      base + 3_000_000}
    for base in ids[(ids % 17 == 0) & (ids % 51 != 0)]:
        grp = by_rep.get_group(base)
        assert set(grp["vec_id"]) == {base, base + 1_000_000}
    assert (out.groupby("rep")["kept"].sum() == 1).all()
    assert ((out["kept"] == 1) == (out["vec_id"] == out["rep"])).all()


def test_semantic_empty_corpus(ray_session, tmp_path):
    from pdf_parser_ray.queries import (embeddings_semantic_dedup,
                                        embeddings_semantic_pairs)
    out = tmp_path / "empty"
    out.mkdir()
    pd.DataFrame({"vec_id": pd.array([], dtype="int64"),
                  "embedding": pd.Series([], dtype=object),
                  "label": pd.array([], dtype="int32")}
                 ).to_parquet(out / "embeddings.parquet")
    pairs = embeddings_semantic_pairs(str(out))
    assert list(pairs.columns) == ["vec_a", "vec_b", "block"]
    assert pairs.empty
    keep = embeddings_semantic_dedup(str(out))
    assert list(keep.columns) == ["vec_id", "rep", "kept"]
    assert keep.empty


def test_unigram_ce_hand_computed(ray_session, tmp_path):
    """Tiny corpus where the CE is computable by hand: common-token
    docs score LOWER than rare-token docs (the quality-proxy
    contract)."""
    from pdf_parser_ray.queries import docs_unigram_ce
    out = tmp_path / "docs"
    out.mkdir()
    pd.DataFrame({"doc_id": [0, 1, 2],
                  "text": ["a a a a", "a a b b", "c d"]}
                 ).to_parquet(out / "documents.parquet")
    got = docs_unigram_ce(str(out))
    # counts: a=6, b=2, c=1, d=1, n=10
    p = {"a": 0.6, "b": 0.2, "c": 0.1, "d": 0.1}
    want = {0: -np.log(p["a"]),
            1: -(2 * np.log(p["a"]) + 2 * np.log(p["b"])) / 4,
            2: -(np.log(p["c"]) + np.log(p["d"])) / 2}
    assert got["doc_id"].tolist() == [0, 1, 2]
    assert got["dl"].tolist() == [4, 4, 2]
    for doc, ce in want.items():
        assert got.loc[got["doc_id"] == doc, "ce"].iloc[0] == \
            pytest.approx(round(ce, 3), abs=5e-4)
    # common-token doc scores lower than rare-token doc
    ces = got.set_index("doc_id")["ce"]
    assert ces[0] < ces[1] < ces[2]


def test_unigram_ce_empty_corpus(ray_session, tmp_path):
    from pdf_parser_ray.queries import docs_unigram_ce
    out = tmp_path / "docs"
    out.mkdir()
    pd.DataFrame({"doc_id": pd.array([], dtype="int64"),
                  "text": pd.array([], dtype="string")}
                 ).to_parquet(out / "documents.parquet")
    got = docs_unigram_ce(str(out))
    assert list(got.columns) == ["doc_id", "dl", "ce"]
    assert got.empty


def test_inject_refuses_colliding_ids():
    from pdf_parser_ray.stages.similarity import semantic_inject_batch
    b = pd.DataFrame({"vec_id": [0, 1_000_017],
                      "embedding": [np.ones(4), np.ones(4)],
                      "label": [0, 0]})
    with pytest.raises(ValueError, match="collides"):
        semantic_inject_batch(b)


def test_kmeans_blocking_finds_every_injected_pair(ray_session):
    """The production (kmeans-cluster) blocking must recall 100% of
    the injected collinear pairs — collinear vectors normalize to the
    same point, identical points share a nearest centroid — and on
    the fixture corpus (no natural pair above 0.9) its pair set
    therefore equals the label-blocked query's, minus the block
    column."""
    from pdf_parser_ray.queries import (embeddings_semantic_pairs,
                                        embeddings_semantic_pairs_kmeans)
    label_blocked = embeddings_semantic_pairs("/root/testdata/sf0.001")
    kmeans_blocked = embeddings_semantic_pairs_kmeans(
        "/root/testdata/sf0.001")
    pd.testing.assert_frame_equal(
        label_blocked[["vec_a", "vec_b"]].reset_index(drop=True),
        kmeans_blocked)
    # explicit recall statement on the injected fixture pairs
    src = pd.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    ids = src["vec_id"].to_numpy()
    injected = {(int(i), int(i) + 1_000_000) for i in ids[ids % 17 == 0]}
    got = set(map(tuple, kmeans_blocked.to_numpy()))
    assert injected <= got


def test_gopher_rules_hand_computed(ray_session, tmp_path):
    """Constructed docs exercising each Gopher rule: a good doc, a
    bullet wall, an ellipsis spammer, a duplicate-line wall, a
    symbol-ridden doc, and a numbers-only doc."""
    from pdf_parser_ray.queries import docs_gopher_rules
    out = tmp_path / "docs"
    out.mkdir()
    good = ("the quick brown fox and the lazy dog have been seen "
            "with that other animal of note near the old mill " * 5)
    bullets = "\n".join("- item the and of" for _ in range(10))
    ellipsis = "\n".join(f"the and of that line {i}..."
                         for i in range(10))
    dups = "\n".join(["the same line of text and that"] * 10)
    symbols = "the and " + "# " * 50
    numbers = " ".join(str(i) for i in range(100))
    pd.DataFrame({"doc_id": range(6),
                  "text": [good, bullets, ellipsis, dups, symbols,
                           numbers]}).to_parquet(out / "documents.parquet")
    got = docs_gopher_rules(str(out)).set_index("doc_id")
    assert got.loc[0, "passes"] == 1
    assert got.loc[1, "r_bullet"] == 0 and got.loc[1, "passes"] == 0
    assert got.loc[2, "r_ellipsis"] == 0
    assert got.loc[3, "r_dup_lines"] == 0 and got.loc[3, "dup_lines"] == 9
    assert got.loc[4, "r_symbol_ratio"] == 0
    assert got.loc[5, "r_alpha_words"] == 0
    assert got.loc[5, "r_stopwords"] == 0


def test_gopher_rules_unicode_parity(ray_session, tmp_path):
    """Engine (Python re) vs oracle (DuckDB RE2) on the unicode
    divergence cases a review pass reproduced against the first
    version: NBSP/vertical-tab whitespace, stop words adjacent to
    non-ASCII letters, unicode ellipsis/bullet. ASCII-explicit
    classes + token-equality stop words keep the two engines
    bit-equal."""
    from pdf_parser_ray.queries import QUERIES
    from tests.oracle_compare import oracle_frame
    texts = ["word joined the and of that be",
             "col1\x0bcol2 the be to of",
             "voilàthe café the and of be",
             "line one…\nline two…\n• bullet the of and",
             "the, and. of! that? be; with: to have",
             "こんにちはthe and of be",
             "of the\xa0be and that x"]
    out = tmp_path / "docs"
    out.mkdir()
    pd.DataFrame({"doc_id": range(len(texts)), "text": texts}
                 ).to_parquet(out / "documents.parquet")
    got = QUERIES["docs_gopher_rules"](str(out))
    want = oracle_frame(out, "docs_gopher_rules")
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True),
        want.astype(got.dtypes.to_dict()).reset_index(drop=True))
    g = got.set_index("doc_id")
    assert g.loc[0, "word_count"] == 6      # NBSP is NOT a separator
    assert g.loc[1, "word_count"] == 5      # \x0b is NOT a separator
    assert g.loc[3, "ellipsis_lines"] == 2  # unicode ellipsis counted
    assert g.loc[3, "bullet_lines"] == 1    # unicode bullet counted
    assert g.loc[4, "stop_distinct"] == 8   # edge punctuation stripped
    # stop-word-adjacent NBSP: 'the\xa0be' is ONE token in both engines
    # (not 'the' + 'be' — str.split() would have made it two)
    assert g.loc[6, "stop_hits"] == 3       # of, and, that only


def test_c4_filters_hand_computed():
    """Line/page rules on a constructed corpus: terminal punctuation,
    5-word minimum, javascript lines, brace/lorem page drops, and the
    3-sentence floor."""
    from pdf_parser_ray.stages.text_analysis import c4_filters_batch
    b = pd.DataFrame({"doc_id": [0, 1, 2], "text": [
        ("A good long sentence right here.\nshort one.\n"
         "No terminal punct here at all\n"
         "Another full sentence is here! And more? Yes."),
        "Uses javascript for the menu bar.\nlorem ipsum dolor sit.",
        "var x = {a: 1}\nA fine sentence with five words."]})
    got = c4_filters_batch(b).set_index("doc_id")
    assert got.loc[0, "kept_lines"] == 2      # short + unterminated drop
    assert got.loc[0, "n_sentences"] == 4 and got.loc[0, "keep_page"] == 1
    assert got.loc[1, "kept_lines"] == 0      # javascript line dropped
    assert got.loc[1, "has_lorem"] == 1 and got.loc[1, "keep_page"] == 0
    assert got.loc[2, "has_brace"] == 1 and got.loc[2, "keep_page"] == 0
    assert got.loc[0, "clean_text"].count("\n") == 1


def test_c4_fixture_parity_on_constructed_corpus(ray_session, tmp_path):
    """Engine vs oracle through the full injected path on ids hitting
    every fixture slice (7/11/13/17 multiples and none)."""
    from pdf_parser_ray.queries import QUERIES
    from tests.oracle_compare import oracle_frame
    out = tmp_path / "docs"
    out.mkdir()
    base = " ".join(f"w{i}" for i in range(40))
    ids = [0, 7, 11, 13, 17, 77, 91, 187, 221, 3]
    pd.DataFrame({"doc_id": ids, "text": [base] * len(ids)}
                 ).to_parquet(out / "documents.parquet")
    got = QUERIES["docs_c4_filters"](str(out))
    want = (oracle_frame(out, "docs_c4_filters")
            .astype(got.dtypes.to_dict()))
    pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                  want.reset_index(drop=True))
    g = got.set_index("doc_id")
    assert g.loc[7, "kept_lines"] > 0          # sentence-ized
    assert g.loc[13, "has_brace"] == 1         # brace marker
    assert g.loc[17, "has_lorem"] == 1
    assert g.loc[3, "kept_lines"] == 0         # untouched word salad


def test_kmeans_blocked_pairs_16x_replication_bounded(ray_session):
    """16x-replicated fixture embeddings (distinct ids, identical
    vectors per replica group) through the scale-shaped blocking:
    k scales with n, the scan task RAISES on any cluster past the
    4x-target row budget — so completion itself proves bounded
    per-task rows — and the pair set is exactly the within-replica
    cliques (identical vectors always share a nearest centroid, so
    the blocking loses none of them; natural cross-base cosine maxes
    out ~0.65 < 0.9)."""
    import numpy as np
    import ray.data as rd

    from pdf_parser_ray.stages.similarity import kmeans_blocked_pairs
    base = pd.read_parquet("/root/testdata/sf0.001/embeddings.parquet",
                           columns=["vec_id", "embedding"])
    reps = []
    for r in range(16):
        d = base.copy(deep=False)
        d["vec_id"] = base["vec_id"].to_numpy() + r * 10_000
        reps.append(d)
    big = pd.concat(reps, ignore_index=True)
    big["embedding"] = [np.asarray(v, dtype=np.float64)
                        for v in big["embedding"]]
    nds = rd.from_pandas(big).repartition(16).materialize()
    pairs = kmeans_blocked_pairs(nds, threshold=0.9,
                                 target_cluster_rows=256)
    # every replica pair, nothing else: 500 bases x C(16,2)
    assert len(pairs) == len(base) * 120
    assert (pairs["vec_a"] % 10_000 == pairs["vec_b"] % 10_000).all()


def test_kmeans_blocked_pairs_tiny_corpus(ray_session):
    """Fewer vectors than the k floor must return the pair set, not
    raise 'k exceeds corpus size' (k clamps to the corpus)."""
    import numpy as np
    import ray.data as rd

    from pdf_parser_ray.stages.similarity import kmeans_blocked_pairs
    df = pd.DataFrame({
        "vec_id": [0, 1, 2],
        "embedding": [np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                      np.array([0.0, 1.0])]})
    pairs = kmeans_blocked_pairs(rd.from_pandas(df), threshold=0.9)
    assert pairs.values.tolist() == [[0, 1]]


def test_kmeans_blocked_pairs_oversized_cluster_recurses(ray_session):
    """A skew-shaped corpus where the top-level clustering leaves one
    cluster past the row budget: 12 far-apart anchor points own the
    lowest ids (deterministic seeds), 501 distinct points pile onto
    anchor 0. The oversized cluster must be recursively re-clustered
    (bounded sub-scans — the scan raises past the budget) and the
    collinear duplicate pair planted inside the pile must survive
    the recursion."""
    import numpy as np
    import ray.data as rd

    from pdf_parser_ray.stages.similarity import kmeans_blocked_pairs
    rng = np.random.RandomState(7)
    anchors = np.eye(12)
    rows = [(i, anchors[i]) for i in range(12)]
    nid = 12
    for j in range(500):
        v = anchors[0] + rng.uniform(-0.01, 0.01, 12)
        rows.append((nid, v / np.linalg.norm(v)))
        nid += 1
    # the planted collinear pair, deep in the pile
    rows.append((9000, rows[100][1].copy()))
    for i in range(1, 12):           # ~60 per other anchor
        for j in range(60):
            v = anchors[i] + rng.uniform(-0.01, 0.01, 12)
            rows.append((nid, v / np.linalg.norm(v)))
            nid += 1
    df = pd.DataFrame({"vec_id": [r[0] for r in rows],
                       "embedding": [r[1] for r in rows]})
    nds = rd.from_pandas(df).repartition(8).materialize()
    pairs = kmeans_blocked_pairs(nds, threshold=0.999,
                                 target_cluster_rows=100)
    assert [100, 9000] in pairs.values.tolist()


def test_kmeans_blocked_pairs_unsplittable_cluster_refused(ray_session):
    """A cluster of IDENTICAL points past the budget cannot be split
    by any k — the guard must refuse loudly instead of scanning
    corpus/k rows in one task."""
    import numpy as np
    import ray.data as rd

    from pdf_parser_ray.stages.similarity import kmeans_blocked_pairs
    v = np.array([1.0, 0.0, 0.0])
    df = pd.DataFrame({"vec_id": range(600),
                       "embedding": [v.copy() for _ in range(600)]})
    nds = rd.from_pandas(df).repartition(4).materialize()
    with pytest.raises(Exception, match="cannot be split"):
        kmeans_blocked_pairs(nds, threshold=0.9,
                             target_cluster_rows=100)


def test_kmeans_semantic_cross_label_pair_fails_loudly(
        ray_session, tmp_path):
    """ADVICE r4: the kmeans variant's oracle is within-LABEL pairs,
    an invariant of the fixture corpus, not the operator. A corpus
    with a genuine cross-label near-duplicate must fail with the
    documented message, not an opaque driver hash mismatch."""
    import numpy as np

    from pdf_parser_ray.queries import QUERIES
    rng = np.random.RandomState(3)
    vecs = rng.standard_normal((20, 8))
    vecs[8] = vecs[3] * 1.5          # collinear across labels (1 vs 0)
    df = pd.DataFrame({"vec_id": np.arange(20, dtype="int64"),
                       "embedding": list(vecs),
                       "label": (np.arange(20) % 2).astype("int64")})
    out = tmp_path / "emb"
    out.mkdir()
    df.to_parquet(out / "embeddings.parquet")
    with pytest.raises(Exception, match="cross labels"):
        QUERIES["embeddings_semantic_pairs_kmeans"](str(out))


def test_gopher_repetition_hand_computed():
    """Constructed docs where every repetition signal is computable by
    hand: a clean doc, a top-bigram spammer, a duplicated-phrase doc
    (dup 5-grams), and a duplicated-line doc."""
    from pdf_parser_ray.stages.text_analysis import \
        gopher_repetition_batch
    clean = " ".join(f"uniqueword{i:02d}" for i in range(30))
    texts = [
        clean,                                                # clean
        "go go go go stop",                                   # top2
        "one two three four five six one two three four five six",
        "keep this\ndup line\ndup line",                      # dup line
    ]
    got = gopher_repetition_batch(
        pd.DataFrame({"doc_id": range(4), "text": texts})
    ).set_index("doc_id")
    # every bigram once -> top2 = chars of ONE bigram = 24 of 360
    assert got.loc[0, "top2_chars"] == 24
    assert got.loc[0, ["dup5_chars", "dup_line_chars"]].sum() == 0
    assert got.loc[0, "passes"] == 1
    # 'go go' x3 occurrences, 4 chars each -> 12 of word_chars 12
    assert got.loc[1, "top2_chars"] == 12
    assert got.loc[1, "r_top2"] == 0
    # phrase of 6 tokens repeated: 5-grams 'one..five'/'two..six'
    # each x2 (19 token chars each), spanning 5-grams once
    # -> dup5 = 2*19 + 2*19 = 76
    assert got.loc[2, "dup5_chars"] == 76
    assert got.loc[2, "r_dup5"] == 0
    # 'dup line' (8 chars) x2 -> 16 of word_chars 22
    assert got.loc[3, "dup_line_chars"] == 16
    assert got.loc[3, "r_dup_line_chars"] == 0


def test_gopher_repetition_oracle_parity_on_edge_corpus(
        ray_session, tmp_path):
    """Engine vs DuckDB on the divergence-prone inputs: unicode
    whitespace inside tokens, empty docs, docs shorter than n, the
    injected-id slices, multi-line docs."""
    from pdf_parser_ray.queries import QUERIES
    from tests.oracle_compare import oracle_frame
    texts = ["", "one", "a b c d e f g h i j k l m n o p",
             "nbsp\xa0joined token run " * 6,
             "line a\nline a\nline b\n\nline a",
             "short doc"]
    out = tmp_path / "docs"
    out.mkdir()
    # ids hitting both injection slices (9 and 23) and neither
    pd.DataFrame({"doc_id": [0, 9, 23, 207, 5, 7],
                  "text": texts}).to_parquet(out / "documents.parquet")
    got = QUERIES["docs_gopher_repetition"](str(out))
    want = oracle_frame(out, "docs_gopher_repetition")
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True),
        want[got.columns.tolist()].astype(got.dtypes.to_dict())
        .reset_index(drop=True))
    g = got.set_index("doc_id")
    assert g.loc[9, "dup5_chars"] > 0      # phrase injection fired
    assert g.loc[207, "dup_line_chars"] > 0  # 207 = 9*23: both fired


# ---------------------------------------------- product quantization

def _pq_corpus(n=120, dim=64, seed=11, spread=0.05):
    """Vectors drawn around 4 planted anchors PER SUBSPACE (16 dims
    each), so a trained ksub>=4 codebook must collapse SSE far below
    the subspace-mean baseline and co-anchored rows must share codes."""
    rng = np.random.RandomState(seed)
    anchors = rng.standard_normal((4, 4, 16)) * 3.0  # (anchor, sub, d)
    which = rng.randint(0, 4, size=n)
    X = np.concatenate(
        [anchors[which][:, s, :] +
         rng.standard_normal((n, 16)) * spread for s in range(4)],
        axis=1)
    return pd.DataFrame({
        "vec_id": np.arange(n, dtype=np.int64),
        "embedding": [X[i] for i in range(n)]}), X, which


def test_pq_assign_matches_numpy_and_planted_structure(ray_session):
    import ray.data as rd

    from pdf_parser_ray.stages.similarity import (pq_assign_report,
                                                  pq_train_codebooks)
    df, X, which = _pq_corpus()
    ds = rd.from_pandas(df).materialize()
    books = pq_train_codebooks(ds, m=4, ksub=16, iters=4)
    hist, err, base, n = pq_assign_report(ds, books)
    assert n == len(df)
    assert (hist.groupby("subspace")["n"].sum() == n).all()
    # planted 4-anchor structure: a 16-code codebook must capture it
    assert err < 0.05 * base
    # numpy reference for the ASSIGN kernel: same books, direct argmin
    for sub in range(4):
        Xm = X[:, sub * 16:(sub + 1) * 16]
        C = books[sub]
        d2 = ((Xm * Xm).sum(1)[:, None] - 2.0 * (Xm @ C.T)
              + (C * C).sum(1)[None, :])
        codes = d2.argmin(1)
        ref = pd.Series(codes).value_counts().sort_index()
        got = hist[hist["subspace"] == sub].set_index("code")["n"]
        got = got[got > 0]
        assert dict(ref) == dict(got)
        # ksub=16 splits a 4-anchor cloud across several codes (it
        # should — finer cells, lower SSE), but never straddles: with
        # spread 0.05 vs anchor distance ~3*sqrt(32), every code's
        # members come from ONE anchor
        for c in np.unique(codes):
            assert len(set(which[codes == c])) == 1


def test_pq_assign_partitioning_invariant(ray_session):
    import ray.data as rd

    from pdf_parser_ray.stages.similarity import (pq_assign_report,
                                                  pq_train_codebooks)
    df, _, _ = _pq_corpus(n=90, seed=7)
    ds = rd.from_pandas(df).materialize()
    books = pq_train_codebooks(ds, m=4, ksub=8, iters=3)
    h1, e1, b1, n1 = pq_assign_report(ds, books)
    h2, e2, b2, n2 = pq_assign_report(
        ds.repartition(7).materialize(), books)
    pd.testing.assert_frame_equal(h1, h2)
    assert n1 == n2
    np.testing.assert_allclose(e1, e2, rtol=1e-9)
    np.testing.assert_allclose(b1, b2, rtol=1e-9)


def test_pq_codes_empty_corpus(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_parser_ray.queries import QUERIES
    pq.write_table(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32())),
        "label": pa.array([], pa.int32())}),
        str(tmp_path / "embeddings.parquet"))
    out = QUERIES["embeddings_pq_codes"](str(tmp_path))
    assert len(out) == 0
    assert list(out.columns) == ["subspace", "code", "n"]
