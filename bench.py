"""Benchmark driver: the flagship pipeline and every registry query
over $GRAFT_SF_DIR.

Plain run: times the flagship extraction pipeline (best of two runs)
and then every QUERIES entry in registry order (best of two draws),
writes the full per-query table with both draws to a JSON file under
/tmp/graft_bench, and prints ONE compact JSON line (well under 1.5 KB):
  {"metric": ..., "value": <flagship sec>, "unit": "sec", "sf": ...,
   "num_cpus": N, "turns": T, "turns_per_sec": ...,
   "flagship_runs_sec": [...], "bench_mult": M, "n_queries": Q,
   "queries_total_sec": ..., "slowest_queries": {<5 slowest>},
   "query_table": <path>}
GRAFT_BENCH_ONLY_FLAGSHIP=1 skips the queries (the line then stops at
bench_mult).

--scaling: runs the flagship job twice in FRESH processes
(num_cpus=2 then num_cpus=8) on the same input and prints both
throughputs plus scaling efficiency (the in-sandbox evidence for the
north rule's N-vs-4N-node criterion; levels are logical CPU slots on
one node).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
# replicate the documents table this many times (distinct doc_id ranges)
# so the flagship job is long enough to measure scaling honestly.
# Default 16: at mult=2 the ~3 s job is fixed-overhead-dominated and
# underreports engine throughput 4-5x (round-1 verdict); mult=16
# (~534k turns at sf0.1) amortizes session+read startup honestly.
BENCH_MULT = int(os.environ.get("GRAFT_BENCH_MULT", "16"))
# two draws per query, best one reported (like the flagship):
# single-shot rows carry worker-pool/table-cache ramp (measured:
# dedup_minhash_eval 7.7 s first draw vs 3.4-3.9 steady), so the
# reported number should reflect plan cost, not ramp. Both draws go
# to the per-query table so the ramp stays visible.
QUERY_DRAWS = 2


def _ensure_transcripts() -> str:
    """Synthesize the transcript corpus ONCE (untimed) to parquet under
    /tmp and reuse it across runs/levels: the engine's workload is
    'transcript table in, extracted turns out' — fixture generation
    (~220 us/turn, 3x the extraction kernel cost) must not pollute the
    throughput measurement."""
    import pyarrow as pa
    import ray.data as rd

    from pdf_parser_ray.sources.transcripts import synth_batch

    tag = SF_DIR.strip("/").replace("/", "_")
    # v2: bump whenever the generator's LAYOUT changes (fixed 64-block
    # generation, combine_chunks, row_group_size=32768) — the layout
    # feeds the timed read, so a stale pre-fix cache reused through
    # _DONE would silently keep benchmarking the old pathological
    # layout (1,920 tiny row groups/file) and make results
    # incomparable with BASELINE.md
    out = f"/tmp/graft_bench/transcripts_{tag}_m{BENCH_MULT}_v2"
    if os.path.exists(f"{out}/_DONE"):
        return out
    if os.path.exists(out):
        # a previous run died mid-write: partial part files would be
        # silently appended to (write_parquet names files per-run) and
        # every later benchmark would read duplicated turns
        import shutil
        shutil.rmtree(out)

    # fixed block count so the corpus FILE LAYOUT is identical no
    # matter which process (2-cpu scaling leg, 32-cpu headline)
    # generates it first — the layout feeds the timed read, so a
    # generator-dependent file count would make runs incomparable
    docs = rd.read_parquet(f"{SF_DIR}/documents.parquet",
                           columns=["doc_id", "text"],
                           override_num_blocks=64)

    def synth_replicated(batch: pa.Table) -> pa.Table:
        outs = []
        for j in range(BENCH_MULT):
            if j:
                shifted = batch.set_column(
                    batch.schema.get_field_index("doc_id"), "doc_id",
                    pa.compute.add(batch.column("doc_id"), j * 1_000_000))
                outs.append(synth_batch(shifted))
            else:
                outs.append(synth_batch(batch))
        # combine_chunks: without it the parquet writer emits one row
        # group PER CONCAT CHUNK (~200 rows) — 1,920 tiny row groups
        # per file whose fixed decode overhead dominated the read and
        # skewed sub-file split costs (measured: the 8-core scaling leg
        # sat at the slow end of its band until this fix)
        return pa.concat_tables(outs).combine_chunks()

    (docs.map_batches(synth_replicated, batch_format="pyarrow",
                      batch_size=32)
     .write_parquet(out, row_group_size=32768))
    with open(f"{out}/_DONE", "w") as f:
        f.write("")
    return out


def _flagship_dataset():
    """transcripts parquet -> extraction (the timed engine pipeline).
    Column-pruned read: the kernel needs 4 of the 6 transcript columns
    (role/ts never leave storage). Blocks are pinned to
    max(n_files, 2 x cpus): Ray's default split heuristic fragments a
    many-small-file corpus into sub-file splits whose per-task
    overhead dominates the narrow fused chain (measured 4.75 -> 2.64 s
    at 32 cpus, 11.0 -> 7.9 s at 8 pinned cpus on the 64-file mult=16
    corpus), while a few-big-file corpus still needs >= 2 x cpus
    blocks or the pool starves (one-block-per-FILE on the 4-file
    mult=48 corpus cut 8-cpu scaling to 0.48: 4 tasks on 8 cores)."""
    from pdf_parser_ray.pipelines.extraction import \
        run_extraction_from_parquet

    path = _ensure_transcripts()
    n_files = sum(1 for f in os.listdir(path) if f.endswith(".parquet"))
    return run_extraction_from_parquet(
        path, override_num_blocks=max(n_files, 2 * NUM_CPUS))


def run_flagship() -> dict:
    """Best of two back-to-back runs: this shared host's >8-core wall
    clock varies up to 2.3x across contention windows (BASELINE.md),
    so a single draw under-reports engine throughput; both draws are
    reported so the noise stays visible."""
    _ensure_transcripts()          # untimed: corpus generation is cached
    secs = []
    total = 0
    for _ in range(2):
        t0 = time.perf_counter()
        ds = _flagship_dataset()
        # consume as a stream: count + checksum via aggregation, no
        # driver materialization of the payload
        total = ds.count()
        secs.append(time.perf_counter() - t0)
    sec = min(secs)
    return {"sec": round(sec, 3), "turns": total,
            "turns_per_sec": round(total / sec, 1),
            "flagship_runs_sec": [round(s, 3) for s in secs]}


def run_queries() -> dict:
    """{name: [draw seconds, ...]} for every registry query, in
    registry order."""
    import gc

    from pdf_parser_ray.queries import QUERIES
    table = {}
    for name, query in QUERIES.items():
        # transcript_wave_extract is deliberately NOT a bench row: it is
        # a commit-protocol demo (two full wave extractions +
        # checkpointed writes + a driver-built fixture corpus, 12.8 s at
        # sf0.1) whose throughput-relevant compute is exactly the
        # flagship's
        if name == "transcript_wave_extract":
            continue
        draws = []
        for _ in range(QUERY_DRAWS):
            t0 = time.perf_counter()
            query(SF_DIR)
            draws.append(round(time.perf_counter() - t0, 3))
            # release the query's Dataset/ObjectRef graph NOW: dropped
            # results sit in reference CYCLES until a full gc pass, and
            # the pinned object-store blocks they hold degraded
            # late-list queries ~3x (measured: docs_jaccard_pairs
            # 9.0-9.7 s after a 30-query session without this, 2.7 s
            # with it; 2.8-3.9 s in a fresh session)
            gc.collect()
        table[name] = draws
    return table


def _query_summary(table: dict) -> dict:
    """Write the full per-query table to a file; summarize it for the
    one-line record."""
    best = {name: min(draws) for name, draws in table.items()}
    os.makedirs("/tmp/graft_bench", exist_ok=True)
    path = (f"/tmp/graft_bench/queries_{SF_DIR.strip('/').replace('/', '_')}"
            f"_c{NUM_CPUS}_{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w") as f:
        json.dump({"sf": SF_DIR, "num_cpus": NUM_CPUS,
                   "queries": {name: {"best_sec": best[name],
                                      "draws_sec": draws}
                               for name, draws in table.items()}},
                  f, indent=1)
    slowest = sorted(best, key=best.get, reverse=True)[:5]
    return {"n_queries": len(best),
            "queries_total_sec": round(sum(best.values()), 3),
            "slowest_queries": {name: best[name] for name in slowest},
            "query_table": path}


def main():
    import ray
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    # warm the page cache so the timed runs measure compute+shuffle
    import pyarrow.parquet as pq
    for t in ("documents", "lineitem", "orders", "customer", "events",
              "embeddings"):
        pq.read_table(f"{SF_DIR}/{t}.parquet")

    flagship = run_flagship()
    record = {
        "metric": "flagship_extraction_wall_sec",
        "value": flagship["sec"],
        "unit": "sec",
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "turns": flagship["turns"],
        "turns_per_sec": flagship["turns_per_sec"],
        "flagship_runs_sec": flagship["flagship_runs_sec"],
        "bench_mult": BENCH_MULT,
    }
    if not os.environ.get("GRAFT_BENCH_ONLY_FLAGSHIP"):
        record.update(_query_summary(run_queries()))
    ray.shutdown()
    print(json.dumps(record))


def scaling():
    """Fresh process per parallelism level (N=2 vs 4N=8 CPUs), same
    input — the in-sandbox evidence for the north rule's N-vs-4N-node
    criterion.

    Each level is pinned with CPU AFFINITY (taskset) in addition to
    ray.init(num_cpus=N): Ray's logical slots alone don't confine
    worker-internal (pyarrow) threads, and this shared-host sandbox
    shows heavy wall-clock noise above ~8 cores, so 2-vs-8 pinned
    physical cores is the honest compute-bound measurement. The
    multiplier defaults high enough that the low level runs >=60 s
    (fixed session+read costs amortized)."""
    import shutil
    lo, hi = 2, 8
    results = {}
    for ncpu in (lo, hi):
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_BENCH_ONLY_FLAGSHIP="1")
        env.setdefault("GRAFT_BENCH_MULT", "48")
        cmd = [sys.executable, __file__]
        if shutil.which("taskset"):
            cmd = ["taskset", "-c", f"0-{ncpu - 1}"] + cmd
        out = subprocess.run(cmd, env=env,
                             capture_output=True, text=True, check=True)
        results[ncpu] = json.loads(out.stdout.strip().splitlines()[-1])
    tput_lo = results[lo]["turns_per_sec"]
    tput_hi = results[hi]["turns_per_sec"]
    eff = (tput_hi / tput_lo) / (hi / lo)
    print(json.dumps({
        "metric": f"scaling_efficiency_{lo}_to_{hi}_cpus",
        f"turns_per_sec_{lo}": tput_lo,
        f"turns_per_sec_{hi}": tput_hi,
        f"sec_{lo}": results[lo]["value"],
        f"sec_{hi}": results[hi]["value"],
        "scaling_efficiency": round(eff, 3),
        "turns": results[hi]["turns"],
        "sf": SF_DIR,
    }))


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    else:
        main()
