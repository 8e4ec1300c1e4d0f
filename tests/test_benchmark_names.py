"""The engine names the benchmark (perfbench/) resolves at run time.

The traced run wraps engine functions by module and attribute name,
replays input files through ``extract_batch`` and
``add_bucket_column``, and reads per-operator CPU from the stats the
checkpointed write's ``Dataset.to_pandas`` leaves and from an ordered
Dataset's stats summary. A renamed or deleted name, or an operator
layout the per-layer table cannot read, fails here rather than in the
traced run.
"""

import importlib

import pyarrow as pa
import pyarrow.parquet as pq

from perfbench import harness, trace

_LAYOUT = ("#PAGE 612,792\n40,150,280,162|11|Times|gauche\n"
           "330,150,570,162|11|Times|droite")


def _transcripts(n=160):
    """Layout, plain, null and #CORRUPT turns over 40 conversations."""
    texts = [_LAYOUT, "plain words", None, "#CORRUPT"]
    tools = ["pdf_layout", "", "pdf_layout", "vision"]
    return pa.table({
        "conv_id": [f"conv-{i % 40:05d}" for i in range(n)],
        "turn_idx": pa.array([i // 40 for i in range(n)], pa.int32()),
        "text": [texts[i % 4] for i in range(n)],
        "tool": [tools[i % 4] for i in range(n)]})


def _input_file(tmp_path):
    """One small transcript file."""
    path = str(tmp_path / "transcripts.parquet")
    pq.write_table(_transcripts(), path)
    return path


def test_traced_names_resolve():
    from pdf_parser_ray import kernel
    from pdf_parser_ray.stages import extract
    from pdf_parser_ray.state.checkpoint import add_bucket_column

    for module, attr, _layer in trace.LAYER_FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), \
            (module, attr)
    assert callable(extract.extract_turn)
    assert isinstance(kernel.CLASSIFIERS, dict) and kernel.CLASSIFIERS
    t = pa.table({"conv_id": ["a", "b"], "turn_idx": [0, 1]})
    got = add_bucket_column(t, key="conv_id", n_buckets=harness.N_BUCKETS)
    assert got.column_names == ["conv_id", "turn_idx", "bucket"]


def test_traced_replay_runs(tmp_path):
    from pdf_parser_ray import kernel

    files = [_input_file(tmp_path)]
    classifiers = dict(kernel.CLASSIFIERS)
    tracer = trace.Tracer()
    with trace.installed(tracer):
        outs = harness.replay(files, True, tracer)
    assert kernel.CLASSIFIERS == classifiers    # restored
    assert sum(o.num_rows for o in outs) == pq.read_metadata(
        files[0]).num_rows
    spans = tracer.self_ns()
    assert {"read", "extract.batch", "checkpoint.bucket"} <= set(spans)
    # null-text and #CORRUPT turns still go through the wrapped
    # per-turn entry point
    assert "kernel.dispatch" in spans


def test_checkpoint_operators_read_by_the_layer_table(ray_session,
                                                      tmp_path):
    from pdf_parser_ray.pipelines.extraction import \
        run_extraction_from_parquet

    path = _input_file(tmp_path)
    turns = pq.read_metadata(path).num_rows
    with trace.captured_executions(True) as stats:
        lineage = run_extraction_from_parquet(
            path, out_dir=str(tmp_path / "out"),
            n_buckets=harness.N_BUCKETS, override_num_blocks=1)
    assert int(lineage["rows"].sum()) == turns
    assert stats
    layers = harness.operator_layers(stats, turns)
    assert layers["extract.task_cpu_us"] > 0
    assert layers["extract.tasks"] == 1
    assert "checkpoint.shuffle_wall_s" not in layers


def test_ordered_operators_read_by_the_layer_table(ray_session, tmp_path):
    """An ordered pass over more read blocks than Ray CPUs (read +
    extract, the coalescing repartition, the sort): the layer table
    still finds the extract tasks and the sort."""
    from pdf_parser_ray.pipelines.extraction import \
        run_extraction_from_parquet

    table, files = _transcripts(), 8
    rows = table.num_rows // files
    for i in range(files):
        pq.write_table(table.slice(i * rows, rows),
                       str(tmp_path / f"part-{i}.parquet"))
    ds = run_extraction_from_parquet(str(tmp_path), ordered=True,
                                     override_num_blocks=files)
    batches = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    assert sum(b.num_rows for b in batches) == table.num_rows
    layers = harness.operator_layers([ds._get_stats_summary()],
                                     table.num_rows)
    assert layers["extract.task_cpu_us"] > 0
    assert layers["extract.tasks"] == files
    assert layers["sort.cpu_us"] > 0


def test_streamed_operators_read_by_the_layer_table(ray_session, tmp_path):
    """A streamed pass over 4 files at 4 CPUs: the layer table finds
    the read + extract operator (its name starts with ReadParquet) and
    every key the traced run reads from it."""
    from pdf_parser_ray.pipelines.extraction import \
        run_extraction_from_parquet

    table, files = _transcripts(), 4
    rows = table.num_rows // files
    for i in range(files):
        pq.write_table(table.slice(i * rows, rows),
                       str(tmp_path / f"part-{i}.parquet"))
    ds = run_extraction_from_parquet(str(tmp_path),
                                     override_num_blocks=files)
    batches = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    assert sum(b.num_rows for b in batches) == table.num_rows
    layers = harness.operator_layers([ds._get_stats_summary()],
                                     table.num_rows)
    for key in ("extract.task_cpu_us", "extract.peak_heap_mb",
                "extract.tasks", "extract.bytes_out"):
        assert key in layers, key
    assert layers["extract.tasks"] == files
