"""Seeded, cached workload inputs: transcript Parquet files.

Each workload's input is a pure function of (workload, seed). Documents
get doc_ids shifted by ``seed_slot(seed) * DOC_ID_SHIFT`` (the same trick
``bench.py`` uses for its corpus multiplier) and word text drawn from a
seeded generator; ``sources.transcripts.synth_batch`` turns them into
transcript rows, and the workload keeps only the payload families it is
meant to exercise. Generation is untimed and cached on disk; the engine
only ever sees the Parquet files.
"""

from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass
from typing import FrozenSet, List

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from pdf_parser_ray.sources.transcripts import _FAMILIES, synth_batch

#: bump when generation changes, so stale caches are never reused
INPUT_VERSION = 4
#: doc_ids a seed owns; every workload's input spans fewer than this
DOC_ID_SHIFT = 1_000_000
#: seeds map onto this many doc_id ranges. ``synth_batch`` stamps a turn
#: at ``doc_id`` hours past its epoch in int64 microseconds, which
#: overflows for doc_ids above ~2.56e9; 2048 ranges stay below 2.05e9.
SEED_SLOTS = 2048
N_FILES = 4
#: input caches kept on disk; older ones are deleted
KEEP_CACHES = 32

_SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "sa", "to", "vi", "de", "po",
              "an", "el", "ix", "or", "um", "qu", "zh", "ty")
_VOCAB = tuple(a + b + c for a in _SYLLABLES for b in _SYLLABLES
               for c in ("", "n", "s", "ta", "ro"))


@dataclass(frozen=True)
class WorkloadInput:
    """What a workload feeds the engine."""
    name: str
    kinds: FrozenSet[str]   # synth payload families kept
    turns: int              # target input turns
    doc_stride: int = 1     # doc_ids step by this and are all
    doc_residue: int = 0    # = doc_residue (mod doc_stride)


WORKLOAD_INPUTS = {
    "layout_stream": WorkloadInput(
        "layout_stream",
        frozenset({"vline", "scan", "onecol", "colored", "questions",
                   "near_tie"}),
        turns=6000),
    "fallback_ordered": WorkloadInput(
        "fallback_ordered",
        frozenset({"html", "layoutlm", "plain", "edge"}),
        turns=6000),
    # doc_id = 7 (mod 11) puts the plain family on turn 0 and doc_id = 0
    # (mod 6) makes a 3-turn conversation, so a plain turn costs 3
    # synthesized turns, not 11 (mega-conversations keep 11 plain turns)
    "plain_checkpoint": WorkloadInput(
        "plain_checkpoint", frozenset({"plain"}), turns=8000,
        doc_stride=66, doc_residue=18),
}


def family_kind(conv_id: str, turn_idx: int) -> str:
    """The synth payload family of one transcript row."""
    doc_id = int(conv_id.rsplit("-", 1)[1])
    return _FAMILIES[(doc_id + 7 * turn_idx) % len(_FAMILIES)][1]


def seed_slot(seed: int) -> int:
    """The seed's doc_id range: any int, negative or past the
    generator's range, maps to one of ``SEED_SLOTS``; consecutive seeds
    get distinct ranges."""
    return seed % SEED_SLOTS


def make_documents(seed: int, first: int, n: int, spec: WorkloadInput
                   ) -> pa.Table:
    """``n`` documents (doc_id, text) of the seed's doc_id range."""
    base = seed_slot(seed) * DOC_ID_SHIFT
    base += (spec.doc_residue - base) % spec.doc_stride
    ids = [base + spec.doc_stride * i for i in range(first, first + n)]
    texts = []
    for doc_id in ids:
        rng = random.Random(doc_id)
        texts.append(" ".join(rng.choice(_VOCAB)
                              for _ in range(rng.randint(40, 120))))
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "text": pa.array(texts, pa.string())})


def generate(spec: WorkloadInput, seed: int) -> pa.Table:
    """The workload's transcript rows for ``seed`` (deterministic)."""
    parts: List[pa.Table] = []
    have = 0
    first = 0
    chunk = 512
    while have < spec.turns:
        rows = synth_batch(make_documents(seed, first, chunk, spec))
        first += chunk
        keep = [family_kind(c, t) in spec.kinds for c, t in zip(
            rows.column("conv_id").to_pylist(),
            rows.column("turn_idx").to_pylist())]
        rows = rows.filter(pa.array(keep))
        parts.append(rows)
        have += rows.num_rows
    return pa.concat_tables(parts).slice(0, spec.turns).combine_chunks()


def ensure_input(root: str, workload: str, seed: int) -> str:
    """Write (once) and return the workload's input directory:
    ``N_FILES`` Parquet files of one row group each, plus ``_DONE``."""
    spec = WORKLOAD_INPUTS[workload]
    out = os.path.join(root, "inputs", f"{workload}-s{seed}-v{INPUT_VERSION}")
    if os.path.exists(os.path.join(out, "_DONE")):
        os.utime(out)
        return out
    table = generate(spec, seed)
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    step = -(-table.num_rows // N_FILES)
    for i in range(N_FILES):
        part = table.slice(i * step, step)
        pq.write_table(part, os.path.join(tmp, f"part-{i:05d}.parquet"),
                       row_group_size=max(1, part.num_rows))
    open(os.path.join(tmp, "_DONE"), "w").close()
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)
    _prune(os.path.dirname(out))
    return out


def _prune(inputs_root: str) -> None:
    entries = [os.path.join(inputs_root, e) for e in os.listdir(inputs_root)
               if not e.endswith(".tmp")]
    entries.sort(key=os.path.getmtime, reverse=True)
    for stale in entries[KEEP_CACHES:]:
        shutil.rmtree(stale, ignore_errors=True)


def input_files(path: str) -> List[str]:
    return sorted(os.path.join(path, f) for f in os.listdir(path)
                  if f.endswith(".parquet"))


def input_summary(path: str) -> dict:
    """Turns, bytes on disk and turns per tool of an input directory."""
    files = input_files(path)
    tools = pa.concat_tables(pq.read_table(f, columns=["tool"])
                             for f in files).column("tool")
    counts = pc.value_counts(tools).to_pylist()
    return {
        "turns": len(tools),
        "bytes": sum(os.path.getsize(f) for f in files),
        "files": len(files),
        "turns_per_tool": {(c["values"] or "none"): c["counts"]
                           for c in counts},
    }
