"""Tests of the benchmark's own code (no Ray session needed).

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from perfbench import inputs, session, trace
from perfbench.workloads import Expected, count_failed

SMALL = 300


@pytest.fixture
def small_inputs(monkeypatch):
    for name, spec in list(inputs.WORKLOAD_INPUTS.items()):
        monkeypatch.setitem(inputs.WORKLOAD_INPUTS, name,
                            dataclasses.replace(spec, turns=SMALL))


def _digest(path):
    h = hashlib.sha256()
    for f in inputs.input_files(path):
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _read(path):
    return pa.concat_tables(pq.read_table(f) for f in inputs.input_files(path))


def test_same_seed_gives_byte_identical_inputs(small_inputs, tmp_path):
    a = inputs.ensure_input(str(tmp_path / "a"), "layout_stream", 5)
    b = inputs.ensure_input(str(tmp_path / "b"), "layout_stream", 5)
    assert len(inputs.input_files(a)) == inputs.N_FILES
    assert _digest(a) == _digest(b)


def test_other_seed_gives_other_doc_ids(small_inputs, tmp_path):
    a = _read(inputs.ensure_input(str(tmp_path), "fallback_ordered", 5))
    b = _read(inputs.ensure_input(str(tmp_path), "fallback_ordered", 6))
    assert not set(a.column("conv_id").to_pylist()) & set(
        b.column("conv_id").to_pylist())


@pytest.mark.parametrize("seed", [-1, 2**31 - 1, 2**64])
def test_any_seed_gives_a_valid_input(small_inputs, tmp_path, seed):
    t = _read(inputs.ensure_input(str(tmp_path), "plain_checkpoint", seed))
    assert t.num_rows == SMALL
    doc_ids = [int(c.rsplit("-", 1)[1]) for c in t.column("conv_id").to_pylist()]
    assert min(doc_ids) >= 0
    assert max(doc_ids) < inputs.SEED_SLOTS * inputs.DOC_ID_SHIFT


_EDGE_LAYOUT = ("#CORRUPT", "#PAGE 612.0,792.0\ngarbage without pipes")


@pytest.mark.parametrize("workload,tools", [
    ("layout_stream", {"pdf_layout", "colored", "vision"}),
    ("fallback_ordered", {"html", "layoutlm", "", "pdf_layout"}),
    ("plain_checkpoint", {""}),
])
def test_workload_input_holds_only_its_tools(small_inputs, tmp_path,
                                             workload, tools):
    t = _read(inputs.ensure_input(str(tmp_path), workload, 3))
    assert t.num_rows == SMALL
    rows = list(zip(t.column("tool").to_pylist(),
                    t.column("text").to_pylist()))
    assert {tool for tool, _ in rows} == tools
    edge = [text.startswith(_EDGE_LAYOUT) or not text.strip()
            for _, text in rows]
    if workload == "fallback_ordered":
        # layout-tagged turns here are only the malformed/corrupt edge
        assert all(e for (tool, _), e in zip(rows, edge)
                   if tool == "pdf_layout")
        assert any(edge)
    else:
        assert not any(edge)


class _FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_nested_children():
    # outer [0, 100] > a [10, 40] > a.x [15, 25]; outer > b [50, 90]
    tr = trace.Tracer(clock=_FakeClock(0, 10, 15, 25, 40, 50, 90, 100))
    with tr.span("outer"):
        with tr.span("a"):
            with tr.span("a.x"):
                pass
        with tr.span("b"):
            pass
    assert tr.self_ns() == {"outer": 100 - 30 - 40, "a": 30 - 10,
                            "a.x": 10, "b": 40}
    assert tr.total_ns("a") == 30
    assert sum(tr.self_ns().values()) == 100


def test_self_time_sums_repeated_names():
    tr = trace.Tracer(clock=_FakeClock(0, 1, 3, 4, 9, 10))
    with tr.span("batch"):
        for _ in range(2):
            with tr.span("turn"):
                pass
    assert tr.self_ns() == {"batch": 10 - 2 - 5, "turn": 7}
    assert tr.names.count("turn") == 2


def test_installed_traces_kernel_layers_and_restores():
    from pdf_parser_ray import kernel
    from pdf_parser_ray.stages import extract

    before = (kernel.parse_layout_payload, extract.extract_turn,
              dict(kernel.CLASSIFIERS))
    table = pa.table({
        "conv_id": ["c", "c"], "turn_idx": pa.array([0, 1], pa.int32()),
        "text": ["#PAGE 612,792\n40,30,500,42|14|F|Title\n"
                 "40,200,250,212|11|T|left body", "plain words"],
        "tool": ["pdf_layout", ""]})
    tr = trace.Tracer()
    with trace.installed(tr):
        extract.extract_batch(table)
    assert (kernel.parse_layout_payload, extract.extract_turn,
            dict(kernel.CLASSIFIERS)) == before
    assert tr.names.count("kernel.dispatch") == 2
    assert tr.names.count("kernel.parse") == 2
    assert tr.names.count("kernel.classify") == 2
    turn_spans = [i for i, n in enumerate(tr.names) if n == "kernel.dispatch"]
    assert all(tr.names[tr.parents[i]] == "kernel.dispatch"
               for i, n in enumerate(tr.names)
               if n in ("kernel.parse", "kernel.separator"))
    assert all(tr.parents[i] == -1 for i in turn_spans)


def test_cpu_sampler_covers_worker_pids():
    # a child that spawns a busy grandchild: both must be in the tree,
    # and the grandchild's CPU must count once it has exited and been
    # reaped by its parent
    code = ("import subprocess, sys;"
            "p = subprocess.Popen([sys.executable, '-c', "
            "'import time\\nt = time.process_time()\\n"
            "while time.process_time() - t < 0.4: pass\\n"
            "input()'], stdin=subprocess.PIPE);"
            "print(p.pid, flush=True); sys.stdin.readline();"
            "p.communicate(b'\\n')")
    before = session.tree_cpu_seconds(session.process_tree(os.getpid()))
    child = subprocess.Popen([sys.executable, "-c", code],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        grandchild = int(child.stdout.readline())
        tree = session.process_tree(os.getpid())
        assert child.pid in tree and grandchild in tree
        child.stdin.write(b"\n")
        child.stdin.flush()
        assert child.wait(timeout=30) == 0
    finally:
        child.kill()
        child.wait(timeout=30)
    after = session.tree_cpu_seconds(session.process_tree(os.getpid()))
    assert after - before >= 0.35


def _expected(keys, sample=None):
    return Expected(frozenset(keys), len(keys), sample or {})


def _out(keys, **cols):
    return pa.table({"conv_id": [k[0] for k in keys],
                     "turn_idx": [k[1] for k in keys], **cols})


def test_count_failed_counts_missing_duplicate_and_disorder():
    keys = [("a", 0), ("a", 1), ("b", 0)]
    exp = _expected(keys)
    assert count_failed(_out(keys), exp, ordered=True) == 0
    assert count_failed(_out(keys[:2]), exp, ordered=False) == 1
    assert count_failed(_out(keys + [("a", 0)]), exp, ordered=False) == 1
    assert count_failed(_out([keys[1], keys[0], keys[2]]), exp,
                        ordered=True) == 1
    assert count_failed(_out([keys[1], keys[0], keys[2]]), exp,
                        ordered=False) == 0


def test_count_failed_compares_sample_with_oracle():
    keys = [("a", 0), ("a", 1)]
    exp = _expected(keys, {("a", 1): {"header": "h", "page_width": 1.5}})
    good = _out(keys, header=["x", "h"], page_width=[0.0, 1.5])
    bad = _out(keys, header=["x", "h"], page_width=[0.0, 1.25])
    assert count_failed(good, exp, ordered=False) == 0
    assert count_failed(bad, exp, ordered=False) == 1


def test_nominal_host_cancels_a_uniform_slowdown():
    from perfbench import harness, reference

    def draws(slow):
        return [{"ref_wall_s": reference.NOMINAL_WALL_S * slow}] * 3
    def raw(slow):
        return {"turns_per_s": 1000.0 / slow, "cpu_us_per_turn": 2000.0 * slow,
                "peak_pss_mb": 1.0}
    fast = harness.nominal_host(raw(1.0), draws(1.0), [4.0])
    slow = harness.nominal_host(raw(1.5), draws(1.5), [6.0])
    assert fast == pytest.approx({"turns_per_s": 1000.0,
                                  "cpu_us_per_turn": 2000.0,
                                  "setup_s": 4.0, "peak_pss_mb": 1.0})
    assert slow == pytest.approx(dict(fast, setup_s=6.0))


def test_reference_batch_is_fixed_work():
    from perfbench.reference import reference_batch

    ids = pa.table({"id": pa.array(range(5), pa.int64())})
    assert reference_batch(ids).equals(reference_batch(ids))
    assert reference_batch(ids).num_rows == 5
