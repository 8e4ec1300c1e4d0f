"""Flagship pipeline: streaming main-content extraction over transcripts.

One path: a transcript Dataset (synthesized by ``run_extraction``, read
by ``run_extraction_from_parquet`` through ``read_transcripts``, whose
Parquet read is planned from a file listing: no footer read and no Ray
task until the pipeline executes) ->
``extract_dataset``, a single stateless ``map_batches(extract_batch)``
fused with the read -> [optional] stable (conv_id, turn_idx) sort ->
[optional] checkpointed bucketed write with lineage sidecars. The
write is map-side: each read + extract task also writes its block's
part of every bucket it holds, and the calling process seals the
buckets, so the only all-to-all the job can run is the ``ordered``
sort.

The ordered sort is sized from bytes, not from the read's block
count: Ray's sort runs one sample, map and reduce task per input block
and its map -> reduce fan-out grows with the square of the block
count, while each task costs tens of ms of session CPU whatever it
holds. So ``ordered`` executes read + extract at the sort's barrier
(``materialize``), coalesces the blocks to max(Ray CPUs, ceil(bytes /
``DataContext.target_max_block_size``)) with the split ``repartition``
(adjacent blocks joined, no shuffle) when that is fewer, then sorts
and materializes the sorted blocks, which frees the input blocks.

Skew handling: a cheap pre-count (groupby conv_id count on a projected
dataset) identifies mega-conversations; the narrow extraction stage is
skew-immune (rows are independent), and so is the map-side write (a
task writes only its own block's rows). Salting bounds the bucket, the
resume unit: the bucket writer hashes conv_id (or, salted, conv_id and
a turn range) into many buckets (buckets ≫ heavy keys), and per-conv
assembly salts mega-convs into sub-groups (stages/assemble handles one
conv per group; mega convs are bounded by MAX turns per conv here, far
below block budget).
"""

from __future__ import annotations

from typing import Optional

from ..sources.transcripts import read_transcripts, transcripts_dataset
from ..stages.extract import INPUT_COLUMNS, extract_batch


def extract_dataset(transcripts):
    """transcript Dataset -> extracted-turn Dataset (narrow, streaming).

    Stateless tasks, one batch per input block: the stage's only state
    (strategy registry + compiled regexes) is module-level and free to
    rehydrate, and tasks are elastic — measured 143k turns/s vs 76k for
    a 28-actor pool on the same input at 32 CPUs. Without a batch_size
    the read FUSES with extraction into one task chain (an explicit
    batch_size forces a re-batching operator boundary — measured
    117k -> 159k turns/s on the mult=16 bench when fused) and the
    Arrow->Python conversion amortizes over whole blocks. Rows are
    ~1-2 KB of text, so even 128 MiB blocks are ~100k-row batches —
    far below worker heap."""
    return transcripts.map_batches(extract_batch, batch_format="pyarrow")


def compare_strategies(transcripts, strategies):
    """Run N extraction strategies over the SAME transcript Dataset and
    return {strategy_name: extracted Dataset} — the analog of the
    reference's multi-strategy comparison harness
    (pdf_layout_tester.py:325-365, compare_extractors). Each strategy
    routes every tool to itself (forced), so outputs are comparable
    row-for-row on (conv_id, turn_idx)."""
    import functools

    from ..kernel import CLASSIFIERS

    out = {}
    for name in strategies:
        if name not in CLASSIFIERS:
            raise ValueError(f"unknown strategy {name!r}; "
                             f"known: {sorted(CLASSIFIERS)}")
        forced = {tool: name for tool in
                  ("pdf_layout", "colored", "vision", "layoutlm", "html", "")}
        out[name] = transcripts.map_batches(
            functools.partial(extract_batch, registry=forced),
            batch_format="pyarrow")
    return out


def heavy_conversations(transcripts, *, threshold: int = 64):
    """Cheap skew pre-pass (SURVEY.md §4): conv_id -> turn count, heavy
    keys only. Projects to one column, pre-counts per batch, and only
    the tiny per-batch partials shuffle."""
    from ..relational import grouped_agg
    counts = grouped_agg(transcripts.select_columns(["conv_id"]),
                         ["conv_id"], {"count": ("count", None)})
    heavy = counts[counts["count"] >= threshold]
    return dict(zip(heavy["conv_id"], heavy["count"]))


def _sorted(extracted):
    """``extracted`` executed and globally sorted on (conv_id,
    turn_idx) over max(Ray CPUs, ceil(bytes / target block size))
    blocks (see the module docstring); its read's blocks when those are
    fewer. The sorted blocks are materialized too, so the executed
    input blocks are freed when this returns, not pinned by the
    result."""
    import math

    from ray.data import DataContext

    from ..relational import ray_cpus

    mat = extracted.materialize()
    target = DataContext.get_current().target_max_block_size
    blocks = max(ray_cpus(1),
                 math.ceil(mat.size_bytes() / target) if target else 1)
    if blocks < mat.num_blocks():
        mat = mat.repartition(blocks)
    return mat.sort(["conv_id", "turn_idx"]).materialize()


def _finish(extracted, out_dir, ordered, n_buckets, salt_turns=0):
    """The extracted Dataset, executed and globally sorted when
    ``ordered`` (the job's one all-to-all, ``_sorted``), lazy when not;
    with ``out_dir``, written through the shuffle-free
    ``checkpointed_write`` and its lineage returned."""
    if ordered:
        extracted = _sorted(extracted)
    if out_dir is not None:
        from ..state.checkpoint import checkpointed_write
        return checkpointed_write(extracted, out_dir, key="conv_id",
                                  n_buckets=n_buckets,
                                  salt_turns=salt_turns)
    return extracted


def run_extraction(sf_dir: str, out_dir: Optional[str] = None, *,
                   ordered: bool = False, n_buckets: int = 32,
                   salt_turns: int = 0):
    """The flagship run over the SYNTHESIZED corpus (documents ->
    transcripts -> extraction). Returns the extracted Dataset: lazy,
    or with ``ordered`` read, extracted and sorted over byte-sized
    blocks (``_sorted``); when ``out_dir`` is given, executes the
    checkpointed write and returns the lineage metrics DataFrame
    instead."""
    extracted = extract_dataset(transcripts_dataset(sf_dir))
    return _finish(extracted, out_dir, ordered, n_buckets, salt_turns)


def run_extraction_from_parquet(transcripts_path, out_dir: Optional[str] = None,
                                *, ordered: bool = False,
                                n_buckets: int = 32, salt_turns: int = 0,
                                override_num_blocks: Optional[int] = None):
    """The PRODUCTION entry: extract an existing transcript Parquet
    table (file, directory of part files, or list of paths — at real
    scale the file count drives read parallelism). The read goes
    through ``read_transcripts``, pruned to the kernel's
    INPUT_COLUMNS; for jsonl/csv exports, extract
    ``read_transcripts(path, format=...)`` with ``extract_dataset``.
    The read is planned from the file listing: contiguous files are
    grouped into at most ``override_num_blocks`` read tasks, each
    reading whole files row group by row group. ``override_num_blocks``:
    pin the read's block count — one block per file measured 1.4-1.8x
    faster than Ray's own choice on ~1-2 MB text-heavy files (bench.py
    pins it). Left None, Ray asks for at least 2 x its CPUs blocks
    (more for large inputs, by the listed file bytes) and splits each
    task's output to reach them: the point for a few large files.
    Returns
    what ``run_extraction`` returns; ``ordered`` sorts over
    max(Ray CPUs, ceil(bytes / target block size)) blocks, not over
    the read's, when those are fewer."""
    ts = read_transcripts(transcripts_path, columns=INPUT_COLUMNS,
                          override_num_blocks=override_num_blocks)
    return _finish(extract_dataset(ts), out_dir, ordered, n_buckets,
                   salt_turns)
