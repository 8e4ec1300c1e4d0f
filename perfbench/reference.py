"""A fixed reference pass that measures the host, not the engine.

It runs the same Ray Data machinery as a workload pass (tasks in the
session's worker, blocks streamed back to the caller) with a frozen
pure-Python map function that shares no code with the engine: format
layout-like lines, parse their floats, sort, join. Its input is fixed,
so its cost moves only with the speed the host gives the session at that
moment. A run's costs divided by how much slower than nominal its
reference passes ran are its costs on the nominal host.
"""

from __future__ import annotations

import pyarrow as pa

REF_ROWS = 12000
REF_BLOCKS = 2
#: the reference pass's wall time on the nominal host: its median on the
#: host the benchmark was tuned on (see README.md)
NOMINAL_WALL_S = 0.55


def reference_batch(batch: pa.Table) -> pa.Table:
    """For each id, build 12 ``x,y|text`` lines, order them by (y, x)
    and join their text; return the joined lengths."""
    lengths = []
    for i in batch.column("id").to_pylist():
        payload = "\n".join(f"{(i * 7 + k * 13) % 500}.5,{(i + k * 31) % 700}.0"
                            f"|word{k} of row {i}" for k in range(12))
        rows = []
        for line in payload.split("\n"):
            head, _, text = line.partition("|")
            x, y = (float(v) for v in head.split(","))
            rows.append((y, x, text))
        rows.sort()
        lengths.append(len(" ".join(r[2] for r in rows)))
    return pa.table({"length": pa.array(lengths, pa.int64())})


def reference_pass() -> int:
    """Run the reference pass; returns the rows it streamed back."""
    import ray.data as rd

    ds = rd.range(REF_ROWS, override_num_blocks=REF_BLOCKS)
    ds = ds.map_batches(reference_batch, batch_format="pyarrow")
    return sum(b.num_rows for b in ds.iter_batches(batch_format="pyarrow",
                                                    batch_size=None))
