"""Mergeable sketches: Bloom filter and HyperLogLog.

Sketches are the scale path for "does key exist" / "how many distinct"
questions: each block computes a small partial sketch inside
map_batches, partials are OR/max-merged (associative + commutative, so
any combine order works), and the merged sketch is broadcast — no key
set ever materializes on the driver.

- Bloom: semi/anti-join PRE-filter. False positives only, so a Bloom
  semi join passes a superset (follow with an exact join when exactness
  matters) and a Bloom ANTI join may wrongly drop rows — never use it
  for anti joins without exact verification.
- HyperLogLog (p=12, 4096 registers, ~1.6% standard error): distinct
  count estimation with the standard bias corrections.

All hashing is vectorized pd.util.hash_pandas_object (fixed-key
siphash: deterministic across processes/nodes).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..relational import bucketed_map_groups, pool_actor_cpus, pool_size


def _h1(s: pd.Series) -> np.ndarray:
    return pd.util.hash_pandas_object(s, index=False).to_numpy()


def _splitmix64(h: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (uint64 wrap intended)."""
    with np.errstate(over="ignore"):
        h = h + np.uint64(0x9E3779B97F4A7C15)
        h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return h ^ (h >> np.uint64(31))


def _h2(s: pd.Series) -> np.ndarray:
    # NOT a second hash_pandas_object call: pandas ignores hash_key for
    # numeric dtypes, making h2 == h1 and degenerating double hashing
    # to a linear probe pattern (measured ~7000x worse Bloom fp rate on
    # int keys). An independent 64-bit mixer of h1 restores uniformity;
    # h1 collisions themselves are ~2^-64.
    return _splitmix64(_h1(s))


class BloomFilter:
    """k-probe Bloom filter over a power-of-two bit array, probes via
    double hashing (h1 + i*h2). Mergeable by bitwise OR."""

    def __init__(self, n_bits: int = 1 << 22, k: int = 5,
                 bits: np.ndarray | None = None):
        assert n_bits & (n_bits - 1) == 0, "n_bits must be a power of two"
        self.n_bits = n_bits
        self.k = k
        self.bits = (np.zeros(n_bits // 8, dtype=np.uint8)
                     if bits is None else bits)

    def _positions(self, s: pd.Series) -> np.ndarray:
        h1, h2 = _h1(s), _h2(s) | np.uint64(1)
        idx = np.empty((self.k, len(s)), dtype=np.uint64)
        mask = np.uint64(self.n_bits - 1)
        for i in range(self.k):
            idx[i] = (h1 + np.uint64(i) * h2) & mask
        return idx

    def add_many(self, s: pd.Series) -> "BloomFilter":
        pos = self._positions(s).ravel()
        np.bitwise_or.at(self.bits, (pos >> np.uint64(3)).astype(np.int64),
                         np.uint8(1) << (pos & np.uint64(7)).astype(np.uint8))
        return self

    def contains_many(self, s: pd.Series) -> np.ndarray:
        pos = self._positions(s)
        hit = np.ones(len(s), dtype=bool)
        for i in range(self.k):
            p = pos[i]
            hit &= (self.bits[(p >> np.uint64(3)).astype(np.int64)]
                    >> (p & np.uint64(7)).astype(np.uint8)) & 1 == 1
        return hit

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        assert self.n_bits == other.n_bits and self.k == other.k
        self.bits |= other.bits
        return self


def bloom_from_dataset(ds, col: str, *, n_bits: int = 1 << 22, k: int = 5,
                       batch_size: int = 65536) -> BloomFilter:
    """Distributed build: one partial bitmap per batch, OR-merged.
    Partials are n_bits/8 bytes each (512 KiB at the default) — at
    cluster scale, merge them in a tree instead of on the driver."""
    def partial(b: pd.DataFrame) -> pd.DataFrame:
        bf = BloomFilter(n_bits, k).add_many(b[col])
        return pd.DataFrame({"bitmap": [bf.bits.tobytes()]})

    merged = BloomFilter(n_bits, k)
    parts = ds.map_batches(partial, batch_format="pandas",
                           batch_size=batch_size).to_pandas()
    for raw in parts["bitmap"]:
        merged.bits |= np.frombuffer(raw, dtype=np.uint8)
    return merged


def bloom_semi_join(ds, bloom: BloomFilter, on: str,
                    batch_size: int = 65536):
    """Approximate semi join: keeps every true match plus ~fp-rate false
    positives. Use as a shuffle-saving PRE-filter before an exact join."""
    import ray
    ref = ray.put(bloom.bits)
    n_bits, k = bloom.n_bits, bloom.k

    class Probe:
        def __init__(self):
            self.bf = BloomFilter(n_bits, k,
                                  bits=np.frombuffer(ray.get(ref),
                                                     dtype=np.uint8))

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            return b[self.bf.contains_many(b[on])]

    return ds.map_batches(Probe, batch_format="pandas",
                          batch_size=batch_size,
                          concurrency=pool_size(),
                          num_cpus=pool_actor_cpus())


# ------------------------------------------------------------- HyperLogLog

_HLL_P = 12
_HLL_M = 1 << _HLL_P


def hll_partial(s: pd.Series) -> np.ndarray:
    """Per-batch HLL registers (mergeable by element-wise max)."""
    h = _h1(s)
    reg_idx = (h >> np.uint64(64 - _HLL_P)).astype(np.int64)
    rest = (h << np.uint64(_HLL_P)) | np.uint64((1 << _HLL_P) - 1)
    # rank = leading zeros of `rest` + 1  (capped by construction)
    lz = np.zeros(len(h), dtype=np.uint8)
    probe = np.uint64(1) << np.uint64(63)
    cur = rest.copy()
    for _ in range(64 - _HLL_P + 1):
        zero_top = (cur & probe) == 0
        lz = np.where(zero_top, lz + 1, lz)
        cur = np.where(zero_top, cur << np.uint64(1), cur)
        if not zero_top.any():
            break
    regs = np.zeros(_HLL_M, dtype=np.uint8)
    np.maximum.at(regs, reg_idx, lz + 1)
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    m = float(_HLL_M)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.power(2.0, -regs.astype(np.float64)))
    if est <= 2.5 * m:
        zeros = int(np.count_nonzero(regs == 0))
        if zeros:
            est = m * np.log(m / zeros)   # linear counting
    return float(est)


def approx_distinct(ds, col: str, batch_size: int = 65536) -> int:
    """Distributed distinct-count estimate: per-batch registers,
    max-merged (associative), ~1.6% standard error at p=12."""
    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"regs": [hll_partial(b[col]).tobytes()]})

    parts = ds.map_batches(partial, batch_format="pandas",
                           batch_size=batch_size).to_pandas()
    merged = np.zeros(_HLL_M, dtype=np.uint8)
    for raw in parts["regs"]:
        merged = np.maximum(merged, np.frombuffer(raw, dtype=np.uint8))
    return int(round(hll_estimate(merged)))


# ------------------------------------------------------- bottom-k sampling

def bottomk_sample(ds, *, value_col: str, id_col: str,
                   group_col: str = None, k: int = 1024,
                   batch_size: int = 65536) -> pd.DataFrame:
    """Mergeable deterministic uniform sample: the k rows with the
    smallest fixed-key hash(id) per group. min-k of a union equals the
    merge of per-part min-k's, so per-batch partials are exact and the
    shuffle/driver only ever sees k rows per group per block — the
    classic bottom-k sketch. Deterministic: same ids -> same sample,
    independent of partitioning and task order."""
    gcol = group_col

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        df = pd.DataFrame({
            "g": (b[gcol].values if gcol is not None
                  else np.zeros(len(b), dtype=np.int8)),
            "v": b[value_col].values,
            "h": _h1(b[id_col]),
        })
        df = df.sort_values("h", kind="mergesort")
        return df.groupby("g", sort=False, observed=True).head(k)

    parts = ds.map_batches(partial, batch_format="pandas",
                           batch_size=batch_size).to_pandas()
    return (parts.sort_values("h", kind="mergesort")
            .groupby("g", sort=False, observed=True).head(k)
            .reset_index(drop=True))


def sample_quantile(values: np.ndarray, q: float) -> float:
    """Nearest-rank quantile of a sample."""
    v = np.sort(np.asarray(values))
    if len(v) == 0:
        return float("nan")
    return float(v[min(len(v) - 1, int(q * len(v)))])


def weighted_sample(ds, *, weight_col: str, id_col: str, k: int = 100,
                    batch_size: int = 65536) -> pd.DataFrame:
    """Weighted sampling without replacement (Efraimidis-Spirakis) as a
    deterministic mergeable bottom-k: each row gets key -ln(u)/w where
    u is a fixed multiplicative hash of its id (so the key — unlike a
    PRNG draw — is reproducible in SQL), and the k smallest keys win.
    min-k partials per batch are exact under any partitioning, like
    bottomk_sample; the streaming-sampling-over-joins literature uses
    the same key construction to push sampling below a join. Rows with
    weight <= 0 are excluded (zero inclusion probability)."""
    def partial(b: pd.DataFrame) -> pd.DataFrame:
        w = b[weight_col].to_numpy(dtype=np.float64)
        keep = w > 0
        ids = b[id_col].to_numpy(dtype=np.int64)[keep]
        w = w[keep]
        # uint64 so the multiply wraps mod 2^64 instead of overflowing
        # int64 at ids >= ~3.5e9; because 2^32 divides 2^64 the final
        # % 2^32 then equals EXACT arithmetic — mirrored in SQL with a
        # HUGEINT cast (DuckDB BIGINT raises on overflow)
        h = (ids.astype(np.uint64) * np.uint64(2654435761)) \
            % np.uint64(1 << 32)
        u = (h.astype(np.float64) + 0.5) / float(1 << 32)
        key = -np.log(u) / w
        out = b.loc[keep].assign(__wk=key)
        return out.sort_values(["__wk", id_col],
                               kind="mergesort").head(k)

    parts = ds.map_batches(partial, batch_format="pandas",
                           batch_size=batch_size).to_pandas()
    return (parts.sort_values(["__wk", id_col], kind="mergesort").head(k)
            .drop(columns="__wk").reset_index(drop=True))


# ------------------------------------------------------ heavy hitters (MG)

_MG_DEFICIT = "\x00__MG_DEFICIT__"   # sentinel token carrying the deficit


def mg_cap(df: pd.DataFrame, m: int) -> pd.DataFrame:
    """Cap a (token, cnt) summary to ``m`` entries Misra-Gries style:
    subtract the (m+1)-th largest count from everything and keep the
    strictly positive remainder. The subtracted mass accumulates in a
    sentinel deficit row, so deficits SUM through any merge tree via
    the same groupby the counts use — the final bound is
    ``est <= true <= est + deficit`` for every token, and any token
    with true count > deficit is guaranteed present (Misra-Gries /
    mergeable-summaries guarantee, independent of merge order)."""
    is_def = df["token"] == _MG_DEFICIT
    deficit = int(df.loc[is_def, "cnt"].sum())
    d = df.loc[~is_def]
    if len(d) > m:
        # deterministic under ties: order by (-cnt, token)
        d = d.sort_values(["cnt", "token"], ascending=[False, True],
                          kind="mergesort")
        thresh = int(d["cnt"].iloc[m])
        deficit += thresh
        d = d.assign(cnt=d["cnt"] - thresh)
        d = d.loc[d["cnt"] > 0]
    out = pd.concat(
        [d, pd.DataFrame({"token": [_MG_DEFICIT], "cnt": [deficit]})],
        ignore_index=True)
    return out


def _mg_sum(df: pd.DataFrame) -> pd.DataFrame:
    return (df.groupby("token", sort=False, observed=True)["cnt"]
            .sum().reset_index())


def heavy_hitters(ds, *, token_col: str, cnt_col: str, m: int = 4096,
                  n_reducers: int = 32):
    """Distributed Misra-Gries heavy-hitters sketch over (token, cnt)
    rows — the bounded-memory path when the token vocabulary is too
    large to shuffle/count exactly: per-batch exact counts capped to
    ``m`` (map side), partial summaries routed to ``n_reducers``
    reducers by BATCH-content hash (NOT by token — no vocabulary
    shuffle ever happens), k-way merged per reducer (concat +
    groupby-sum + one cap: multiset-deterministic), and the
    ``n_reducers`` bounded summaries folded once on the driver.
    Driver/reducer state is O(m), independent of vocabulary size.

    Returns (summary DataFrame(token, est) sorted by -est, deficit):
    for every token, est <= true <= est + deficit; any token with
    true > deficit is guaranteed in the summary."""
    def partial(b: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame({"token": b[token_col].values,
                          "cnt": b[cnt_col].values})
        d = mg_cap(_mg_sum(d), m)
        # deterministic batch-content reducer tag (any function of the
        # batch works for correctness; hashing content keeps it stable
        # for a given block layout)
        tag = int(pd.util.hash_pandas_object(d["token"], index=False)
                  .sum() % n_reducers)
        return d.assign(__red=np.int32(tag))

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for r, gg in g.groupby("__red", sort=False):
            outs.append(mg_cap(_mg_sum(gg.drop(columns="__red")), m)
                        .assign(__red=np.int32(r)))
        return pd.concat(outs, ignore_index=True)

    parts = bucketed_map_groups(
        ds.map_batches(partial, batch_format="pandas"), ["__red"],
        reduce_bucket, n_buckets=n_reducers).to_pandas()
    final = mg_cap(_mg_sum(parts.drop(columns="__red")), m)
    is_def = final["token"] == _MG_DEFICIT
    deficit = int(final.loc[is_def, "cnt"].sum())
    summary = (final.loc[~is_def]
               .sort_values(["cnt", "token"], ascending=[False, True],
                            kind="mergesort")
               .rename(columns={"cnt": "est"})
               .reset_index(drop=True))
    return summary, deficit


def approx_distinct_grouped(ds, *, group_col: str, col: str,
                            batch_size: int = 65536) -> pd.DataFrame:
    """Per-GROUP distinct-count estimate: per-batch per-group HLL
    registers shipped as a plain binary column (4 KiB/group/batch —
    never a value shuffle), max-merged per group in a bucketed
    combine. State per group is O(2^p) regardless of cardinality;
    groups shuffle, values never do. Returns (group, est)."""
    def partial(b: pd.DataFrame) -> pd.DataFrame:
        gs, regs = [], []
        for g, gg in b.groupby(group_col, sort=False, observed=True):
            gs.append(g)
            regs.append(hll_partial(gg[col]).tobytes())
        return pd.DataFrame({group_col: gs, "regs": regs})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out_g, out_e = [], []
        for k, gg in g.groupby(group_col, sort=False, observed=True):
            m = np.zeros(_HLL_M, dtype=np.uint8)
            for raw in gg["regs"]:
                m = np.maximum(m, np.frombuffer(raw, dtype=np.uint8))
            out_g.append(k)
            out_e.append(int(round(hll_estimate(m))))
        return pd.DataFrame({group_col: out_g, "est": out_e})

    parts = ds.map_batches(partial, batch_format="pandas",
                           batch_size=batch_size)
    return (bucketed_map_groups(parts, [group_col], merge).to_pandas()
            .sort_values(group_col).reset_index(drop=True))


# -------------------------------------------------- Count-Min sketch

def cms_bucket(r: int, key: int, w: int) -> int:
    """Row-r CMS bucket of an integer key: md5 upper-64 of "r:key"
    mod w — the shared md5_number_upper mirroring contract in
    functions/hashing.py, so a DuckDB oracle reproduces every bucket
    exactly. Memoized per worker (hot keys recur across batches)."""
    from ..functions.hashing import md5_bucket
    return md5_bucket(f"{r}:{key}", w)


def cms_partial_rows(b: pd.DataFrame, *, col: str, depth: int,
                     width: int) -> pd.DataFrame:
    """Per-batch Count-Min partial as (r, bucket, c) rows — a
    fixed-size (<= depth x width) mergeable sketch of the batch's key
    occurrences (Cormode & Muthukrishnan 2005). Summing partials per
    (r, bucket) IS the sketch of the whole stream; the hash runs once
    per DISTINCT key in the batch."""
    keys = b[col].to_numpy(dtype=np.int64)
    uu, cc = np.unique(keys, return_counts=True)
    if not len(uu):
        return pd.DataFrame({"r": pd.Series([], dtype="int64"),
                             "bucket": pd.Series([], dtype="int64"),
                             "c": pd.Series([], dtype="int64")})
    parts = []
    for r in range(depth):
        bkt = np.fromiter((cms_bucket(r, int(u), width) for u in uu),
                          np.int64, count=len(uu))
        df = pd.DataFrame({"bucket": bkt, "c": cc.astype(np.int64)})
        g = df.groupby("bucket", as_index=False)["c"].sum()
        g.insert(0, "r", np.int64(r))
        parts.append(g)
    return pd.concat(parts, ignore_index=True)
