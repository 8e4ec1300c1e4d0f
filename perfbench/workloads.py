"""The three workloads: one timed pass each, and the checks on its output.

A pass drives the public extraction API from outside the engine:
``pipelines.extraction.run_extraction_from_parquet``, streaming to the
caller or, with ``out_dir``, through
``state.checkpoint.checkpointed_write``. Checks run after the pass,
outside its timed window, and count every missing, duplicated,
out-of-order or wrong turn as failed.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import pyarrow as pa
import pyarrow.parquet as pq

from pdf_parser_ray.pipelines.extraction import run_extraction_from_parquet
from tests.reference_oracle import oracle_extract_turn

from .inputs import N_FILES, input_files
from .trace import captured_executions

N_BUCKETS = 16
#: turns per pass compared field by field against the reference oracle
ORACLE_SAMPLE = 48

Key = Tuple[str, int]


@dataclass
class Expected:
    """What a correct pass returns, computed once per run."""
    keys: frozenset
    turns: int
    sample: Dict[Key, dict]   # key -> oracle record

    @classmethod
    def from_input(cls, path: str, seed: int) -> "Expected":
        table = pa.concat_tables(
            pq.read_table(f, columns=["conv_id", "turn_idx", "text", "tool"])
            for f in input_files(path))
        conv = table.column("conv_id").to_pylist()
        turn = table.column("turn_idx").to_pylist()
        text = table.column("text").to_pylist()
        tool = table.column("tool").to_pylist()
        rows = random.Random(seed).sample(range(len(conv)),
                                          min(ORACLE_SAMPLE, len(conv)))
        sample = {(conv[i], turn[i]): oracle_extract_turn(text[i], tool[i],
                                                          turn[i])
                  for i in rows}
        return cls(frozenset(zip(conv, turn)), len(conv), sample)


def _same(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, float):
        return got == want or (got != got and want != want)
    return got == want


def count_failed(out: pa.Table, expected: Expected, ordered: bool) -> int:
    """Turns missing, duplicated, unexpected, out of order or unequal to
    the oracle on the sample."""
    conv = out.column("conv_id").to_pylist()
    turn = out.column("turn_idx").to_pylist()
    keys = list(zip(conv, turn))
    seen = set(keys)
    failed = len(expected.keys - seen) + len(seen - expected.keys)
    failed += len(keys) - len(seen)
    if ordered:
        failed += sum(1 for a, b in zip(keys, keys[1:]) if not a < b)
    where = {k: i for i, k in enumerate(keys) if k in expected.sample}
    for key, want in expected.sample.items():
        i = where.get(key)
        if i is None:
            continue  # already counted as missing
        got = {name: out.column(name)[i].as_py() for name in want}
        if not all(_same(got[name], want[name]) for name in want):
            failed += 1
    return failed


@dataclass
class PassResult:
    turns_out: int
    output: Optional[pa.Table] = None   # streamed workloads
    stats: list = field(default_factory=list)  # DatasetStatsSummary


class Workload:
    name = ""
    ordered = False
    writes_checkpoint = False

    def __init__(self, input_dir: str, work_dir: str):
        self.input_dir = input_dir
        self.work_dir = work_dir

    def run_pass(self, capture_stats: bool) -> PassResult:
        ds = run_extraction_from_parquet(self.input_dir, ordered=self.ordered,
                                         override_num_blocks=N_FILES)
        batches = list(ds.iter_batches(batch_format="pyarrow",
                                       batch_size=None))
        out = pa.concat_tables(batches)
        stats = [ds._get_stats_summary()] if capture_stats else []
        return PassResult(out.num_rows, out, stats)

    def check(self, result: PassResult, expected: Expected) -> int:
        return count_failed(result.output, expected, self.ordered)

    def reset(self) -> None:
        """Remove what passes left on disk (nothing here)."""

    def counts(self, result: PassResult) -> Dict[str, float]:
        """Exact per-pass counts of what the pass wrote (none here)."""
        return {"checkpoint.bytes_written": 0, "checkpoint.max_bucket_rows": 0}


class LayoutStream(Workload):
    name = "layout_stream"


class FallbackOrdered(Workload):
    name = "fallback_ordered"
    ordered = True


class PlainCheckpoint(Workload):
    name = "plain_checkpoint"
    writes_checkpoint = True
    _MANIFEST = {"n_buckets": N_BUCKETS, "key": "conv_id", "salt_turns": 0}

    @property
    def out_dir(self) -> str:
        return os.path.join(self.work_dir, "checkpoint")

    def reset(self) -> None:
        """Clear the output so resume logic cannot skip buckets."""
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run_pass(self, capture_stats: bool) -> PassResult:
        self.reset()
        with captured_executions(capture_stats) as stats:
            lineage = run_extraction_from_parquet(
                self.input_dir, out_dir=self.out_dir, n_buckets=N_BUCKETS,
                override_num_blocks=N_FILES)
        return PassResult(int(lineage["rows"].sum()), None, stats)

    def _buckets(self) -> List[str]:
        return sorted(e for e in os.listdir(self.out_dir)
                      if re.fullmatch(r"bucket=\d{5}", e))

    def check(self, result: PassResult, expected: Expected) -> int:
        with open(os.path.join(self.out_dir, "_MANIFEST.json")) as f:
            if json.load(f) != self._MANIFEST:
                return expected.turns
        parts, lineage_rows = [], 0
        for b in self._buckets():
            bdir = os.path.join(self.out_dir, b)
            if not os.path.exists(os.path.join(bdir, "_SUCCESS")):
                continue  # its rows count as missing below
            with open(os.path.join(bdir, "_lineage.json")) as f:
                lineage_rows += json.load(f)["rows"]
            parts.extend(os.path.join(bdir, p) for p in os.listdir(bdir)
                         if p.endswith(".parquet"))
        if not parts:
            return expected.turns
        out = pa.concat_tables(pq.read_table(p) for p in sorted(parts))
        failed = count_failed(out, expected, ordered=False)
        failed += abs(lineage_rows - expected.turns)
        failed += abs(result.turns_out - expected.turns)
        return failed

    def counts(self, result: PassResult) -> Dict[str, float]:
        sizes, rows = 0, []
        for b in self._buckets():
            bdir = os.path.join(self.out_dir, b)
            sizes += sum(os.path.getsize(os.path.join(bdir, p))
                         for p in os.listdir(bdir) if p.endswith(".parquet"))
            with open(os.path.join(bdir, "_lineage.json")) as f:
                rows.append(json.load(f)["rows"])
        return {"checkpoint.bytes_written": sizes,
                "checkpoint.max_bucket_rows": max(rows)}


WORKLOADS = {w.name: w for w in (LayoutStream, FallbackOrdered,
                                 PlainCheckpoint)}
