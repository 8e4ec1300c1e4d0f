"""One benchmark run: set up, measure, check, report.

End-to-end run (``--trace 0``):
  1. Generate (or reuse) the seed's input; compute the expected output.
  2. Set up ``SETUPS`` times: ``ray.init`` through one untimed warm-up
     pass. All but the last session are shut down again.
  3. Time passes back to back, each after a reference pass
     (``reference.py``), until ``--seconds`` of pass time and at least
     ``MIN_PASSES`` passes; check each pass's output after it.
  4. Report the median over passes, throughput and CPU scaled to the
     nominal host by the median reference pass (``nominal_host``), and
     the median over set-ups for ``setup_s``.

Traced run (``--trace 1``): one set-up, the same timed passes (with no
reference passes) and ``ds.stats()`` collected per pass, then an
in-process replay of each input file through ``extract_batch`` with spans
around the kernel's layers (``trace.installed``), alternating with an
untraced replay to measure the tracing overhead.
"""

from __future__ import annotations

import json
import logging
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List

import pyarrow as pa
import pyarrow.parquet as pq

from . import inputs, reference, session, trace
from .workloads import N_BUCKETS, WORKLOADS, Expected

SETUPS = 2
MIN_PASSES = 6
REPLAYS = 3
STALE_WAIT_S = 60
COLUMNS = ["conv_id", "turn_idx", "text", "tool"]

END_TO_END_UNITS = {"turns_per_s": "1/s", "cpu_us_per_turn": "us",
                    "setup_s": "s", "peak_pss_mb": "MiB"}
#: per-layer metrics printed on the result line (the full table, with
#: the layers a workload does not run, goes to the results file)
PER_LAYER_UNITS = {
    "read.cpu_us": "us",
    "extract.batch_us": "us",
    "extract.convert_dispatch_us": "us",
    "kernel.dispatch_us": "us",
    "kernel.parse_us": "us",
    "kernel.separator_us": "us",
    "kernel.classify_us": "us",
    "kernel.reading_order_us": "us",
    "kernel.normalize_assemble_us": "us",
    "kernel.metadata_json_us": "us",
    "extract.task_cpu_us": "us",
    "extract.peak_heap_mb": "MiB",
    "session.cpu_us": "us",
    "session.other_cpu_us": "us",
    "trace.overhead_pct": "%",
    "extract.tasks": "count",
    "extract.bytes_out": "bytes",
    "kernel.error_turns": "count",
    "kernel.blocks_per_turn": "count",
    "checkpoint.bytes_written": "bytes",
    "checkpoint.max_bucket_rows": "count",
}


def host_shape(seed: int, summary: dict) -> dict:
    with open("/proc/meminfo") as f:
        mem_kb = int(next(line for line in f
                          if line.startswith("MemTotal:")).split()[1])
    nproc = subprocess.run(["nproc"], capture_output=True, text=True,
                           check=False).stdout.strip()
    import ray
    return {
        "nproc": int(nproc) if nproc.isdigit() else None,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ray_cpus": session.NUM_CPUS,
        "ram_gib": round(mem_kb / 2**20, 1),
        "ray": ray.__version__, "pyarrow": pa.__version__,
        "python": platform.python_version(),
        "seed": seed,
        "input_turns": summary["turns"], "input_bytes": summary["bytes"],
        "turns_per_tool": summary["turns_per_tool"],
    }


# -- ds.stats() -------------------------------------------------------------

def _operators(summaries) -> list:
    ops, todo = [], list(summaries)
    while todo:
        s = todo.pop()
        todo.extend(s.parents)
        ops.extend(s.operators_stats)
    return ops


def operator_layers(summaries, turns: int) -> Dict[str, float]:
    """Per-turn CPU, wall and output of each engine operator of a pass."""
    out: Dict[str, float] = {}
    cpu_total = 0.0
    spans = {}
    for op in _operators(summaries):
        cpu = op.cpu_time["sum"] if op.cpu_time else 0.0
        cpu_total += cpu
        name = op.operator_name
        spans[name] = (op.earliest_start_time, op.latest_end_time)
        if name.startswith("ReadParquet"):
            out["extract.task_cpu_us"] = cpu / turns * 1e6
            out["extract.peak_heap_mb"] = op.memory["max"]
            out["extract.tasks"] = op.task_rows["count"]
            out["extract.bytes_out"] = op.output_size_bytes["sum"]
        elif name in ("SortMap", "SortReduce"):
            out["sort.cpu_us"] = out.get("sort.cpu_us", 0.0) + cpu / turns * 1e6
        elif name.startswith("MapBatches(_write_bucket)"):
            out["checkpoint.write_cpu_us"] = cpu / turns * 1e6
    if "SortMap" in spans:
        out["sort.wall_s"] = spans["SortReduce"][1] - spans["SortMap"][0]
    if "MapBatches(_write_bucket)" in spans:
        out["checkpoint.shuffle_wall_s"] = (
            spans["MapBatches(_write_bucket)"][1] - spans["SortMap"][0])
    out["operators.cpu_us"] = cpu_total / turns * 1e6
    return out


# -- in-process replay ---------------------------------------------------------

def replay(files: List[str], checkpoint: bool, tracer: trace.Tracer
           ) -> List[pa.Table]:
    """Read and extract each input file in this process, as one Ray task
    would, with a span around each layer call."""
    from pdf_parser_ray.stages.extract import extract_batch
    from pdf_parser_ray.state.checkpoint import add_bucket_column

    outs = []
    for f in files:
        with tracer.span("read"):
            table = pq.read_table(f, columns=COLUMNS)
        with tracer.span("extract.batch"):
            out = extract_batch(table)
        if checkpoint:
            with tracer.span("checkpoint.bucket"):
                add_bucket_column(out, key="conv_id", n_buckets=N_BUCKETS)
        outs.append(out)
    return outs


_REPLAY_LAYERS = {
    "read": "read.cpu_us",
    "extract.batch": "extract.convert_dispatch_us",
    "kernel.dispatch": "kernel.dispatch_us",
    "kernel.parse": "kernel.parse_us",
    "html_parse.parse": "html_parse.parse_us",
    "kernel.a000": "kernel.a000_us",
    "kernel.separator": "kernel.separator_us",
    "kernel.classify": "kernel.classify_us",
    "kernel.reading_order": "kernel.reading_order_us",
    "kernel.normalize_assemble": "kernel.normalize_assemble_us",
    "kernel.metadata_json": "kernel.metadata_json_us",
    "checkpoint.bucket": "checkpoint.bucket_cpu_us",
}


def replay_layers(input_dir: str, checkpoint: bool, turns: int,
                  spans_path: str) -> Dict[str, float]:
    """Per-turn self time of each layer (median of ``REPLAYS`` traced
    replays), the batch cost (median of as many untraced replays,
    alternating with the traced ones) and the tracing overhead."""
    files = inputs.input_files(input_dir)
    traced, plain = [], []
    for _ in range(REPLAYS):
        bare = trace.Tracer()
        replay(files, checkpoint, bare)
        plain.append(bare.total_ns("extract.batch"))
        tracer = trace.Tracer()
        with trace.installed(tracer):
            outs = replay(files, checkpoint, tracer)
        traced.append(tracer)
    self_ns = [t.self_ns() for t in traced]
    per_turn = {metric: median(s.get(span, 0) for s in self_ns) / turns / 1e3
                for span, metric in _REPLAY_LAYERS.items()}
    # the untraced replays give the batch cost; the traced ones split it
    per_turn["extract.batch_us"] = median(plain) / turns / 1e3
    per_turn["trace.overhead_pct"] = (
        median(t.total_ns("extract.batch") for t in traced)
        / median(plain) - 1) * 100
    traced[-1].write(spans_path)

    meta = [json.loads(m) for o in outs
            for m in o.column("metadata_json").to_pylist()]
    per_turn["kernel.error_turns"] = sum("error" in m for m in meta)
    per_turn["kernel.blocks_per_turn"] = sum(
        m.get("total_text_blocks", m.get("total_text_blocks_layoutlm", 0))
        for m in meta) / turns
    return per_turn


# -- the run -------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, traced: bool,
        root: str) -> int:
    logging.getLogger("ray").setLevel(logging.ERROR)
    work = os.path.join(root, ".perfbench")
    os.makedirs(work, exist_ok=True)

    stale = session.wait_gone(session.ray_daemons(), STALE_WAIT_S)
    if stale:
        print(f"Ray processes of another session still run: {stale}",
              file=sys.stderr)
        return 3

    phases = {}
    t_phase = time.perf_counter()
    input_dir = inputs.ensure_input(work, workload, seed)
    summary = inputs.input_summary(input_dir)
    expected = Expected.from_input(input_dir, seed)
    turns = expected.turns
    wl = WORKLOADS[workload](input_dir, os.path.join(work, "run"))
    host = host_shape(seed, summary)
    phases["inputs_s"] = time.perf_counter() - t_phase

    pythonpath = os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p)
    temp_dir = session.ray_temp_dir(work)
    if temp_dir:
        shutil.rmtree(temp_dir, ignore_errors=True)  # earlier runs' logs
    ray_session = session.RaySession(temp_dir, pythonpath)
    attempted = failed = 0
    setups: List[float] = []
    draws: List[dict] = []
    layers: Dict[str, float] = {}
    try:
        for k in range(1 if traced else SETUPS):
            if k:
                ray_session.stop()
            t0 = time.perf_counter()
            ray_session.start()
            result = wl.run_pass(capture_stats=False)
            setups.append(time.perf_counter() - t0)
            failed += wl.check(result, expected)
            attempted += turns

        phases["setups_s"] = time.perf_counter() - t_phase - phases["inputs_s"]
        if not traced:
            reference.reference_pass()  # warm the reference function up
        sampler = session.PssSampler(os.getpid()).start()
        try:
            measured = 0.0
            while measured < seconds or len(draws) < MIN_PASSES:
                draw = {}
                if not traced:
                    draw["ref_wall_s"], draw["ref_cpu_s"], _ = _timed(
                        reference.reference_pass)
                sampler.take_peak()
                wall, cpu, result = _timed(
                    lambda: wl.run_pass(capture_stats=traced))
                measured += wall + draw.get("ref_wall_s", 0.0)
                bad = wl.check(result, expected)
                failed += bad
                attempted += turns
                draw.update(wall_s=wall, cpu_s=cpu, failed=bad,
                            peak_pss_bytes=sampler.take_peak())
                if traced:
                    draw.update(operator_layers(result.stats, turns))
                    draw.update(wl.counts(result))
                draws.append(draw)
        finally:
            sampler.stop()

        if traced:
            layers = replay_layers(
                input_dir, wl.writes_checkpoint, turns,
                os.path.join(work, f"spans-{workload}-s{seed}.json.gz"))
    finally:
        phases["killed_after_shutdown"] = ray_session.stop()
        wl.reset()
    phases["total_s"] = time.perf_counter() - t_phase

    raw = {
        "turns_per_s": median(turns / d["wall_s"] for d in draws),
        "cpu_us_per_turn": median(d["cpu_s"] / turns * 1e6 for d in draws),
        "setup_s": median(setups),
        "peak_pss_mb": median(d["peak_pss_bytes"] / 2**20 for d in draws),
    }
    if traced:
        e2e = raw
        for key in draws[0]:
            if key not in ("wall_s", "cpu_s", "peak_pss_bytes", "failed"):
                layers[key] = median(d.get(key, 0) for d in draws)
        layers["session.cpu_us"] = raw["cpu_us_per_turn"]
        layers["session.other_cpu_us"] = (
            raw["cpu_us_per_turn"] - layers["operators.cpu_us"])
        layers.update(accounting(layers))
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in PER_LAYER_UNITS.items()}
    else:
        e2e = nominal_host(raw, draws, setups)
        metrics = {k: {"value": e2e[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}

    results = os.path.join(work, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(
            results, f"{workload}-s{seed}-trace{int(traced)}.json"), "w") as f:
        json.dump({"workload": workload, "host": host, "setups_s": setups,
                   "phases": phases,
                   "passes": draws, "raw": raw, "end_to_end": e2e,
                   "layers": layers},
                  f, indent=1, sort_keys=True)

    print("host " + json.dumps(host, sort_keys=True, separators=(",", ":")))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics},
                     separators=(",", ":")), flush=True)
    return 0


def _timed(fn):
    """(wall s, CPU s of the session's processes, result) of ``fn()``."""
    cpu0 = session.tree_cpu_seconds(session.process_tree(os.getpid()))
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    cpu = session.tree_cpu_seconds(session.process_tree(os.getpid())) - cpu0
    return wall, cpu, result


def nominal_host(raw: Dict[str, float], draws: List[dict],
                 setups: List[float]) -> Dict[str, float]:
    """End-to-end metrics on the nominal host: the run's median pass
    throughput and CPU time scaled by how much slower than nominal its
    median reference pass ran (``reference.py``). The reference pass's
    wall time is the factor for both: its CPU time comes in 10 ms ticks
    and tracked the host less closely. Set-up time stays as measured: it
    precedes the reference passes and did not track them."""
    slow = median(d["ref_wall_s"] for d in draws) / reference.NOMINAL_WALL_S
    return {"turns_per_s": raw["turns_per_s"] * slow,
            "cpu_us_per_turn": raw["cpu_us_per_turn"] / slow,
            "setup_s": median(setups),
            "peak_pss_mb": raw["peak_pss_mb"]}


def accounting(layers: Dict[str, float]) -> Dict[str, float]:
    """Split the all-process CPU per turn into layers; what the layers
    do not cover is the in-task cost the replay cannot see (Ray task
    set-up, block serialization, the object store)."""
    covered = (layers["read.cpu_us"] + layers["extract.batch_us"]
               + layers.get("checkpoint.bucket_cpu_us", 0.0)
               + layers.get("sort.cpu_us", 0.0)
               + layers.get("checkpoint.write_cpu_us", 0.0)
               + layers["session.other_cpu_us"])
    return {"accounting.covered_us": covered,
            "accounting.uncovered_us": layers["session.cpu_us"] - covered}
