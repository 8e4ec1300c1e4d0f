"""The extraction stage: transcript rows -> extracted-layout rows.

One ``map_batches`` stage fusing the reference's per-page chain
M1 tokenize -> M4/M5 separator -> M7/M8/M9 classify -> M11 reading
order -> M14 normalize (SURVEY.md §2.2) — the whole chain stays inside
one Arrow batch, so per-turn intermediates (block lists) never hit the
object store.

Stateless: the strategy registry and the html/question regexes are
module-level (built at import time), so a plain Ray task rehydrates
them for free and per-batch setup cost is zero. Used as::

    ds.map_batches(extract_batch, batch_format="pyarrow")
"""

from __future__ import annotations

from typing import Dict, Optional

import pyarrow as pa
import pyarrow.compute as pc

from ..kernel import OUTPUT_FIELDS, extract_turn
from ..strategies import TOOL_STRATEGY_MAP, DEFAULT_STRATEGY

#: the transcript columns the kernel reads — every extraction entry
#: prunes its read to these
INPUT_COLUMNS = ["conv_id", "turn_idx", "text", "tool"]

EXTRACTED_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("tool", pa.string()),
    ("page_number", pa.int32()),
    ("header", pa.large_string()),
    ("footer", pa.large_string()),
    ("left_column", pa.large_string()),
    ("right_column", pa.large_string()),
    ("page_width", pa.float64()),
    ("page_height", pa.float64()),
    ("column_separator_position", pa.float64()),
    ("extracted_text", pa.large_string()),
    ("metadata_json", pa.large_string()),
])


def extract_batch(batch: pa.Table,
                  registry: Optional[Dict[str, str]] = None) -> pa.Table:
    """Pure batch body: one output row per input row, in input order.
    The keys and the tool pass through as Arrow columns (turn_idx
    narrowed to int32, a null tool filled with ""); only text and tool
    cross into Python for the per-turn kernel."""
    reg = TOOL_STRATEGY_MAP if registry is None else registry
    conv_id = pc.cast(batch.column("conv_id"), pa.string())
    turn_idx = pc.cast(batch.column("turn_idx"), pa.int32())
    tool = pc.fill_null(pc.cast(batch.column("tool"), pa.string()), "")
    texts = batch.column("text").to_pylist()
    tools = tool.to_pylist()
    turn_idxs = turn_idx.to_pylist()

    n = len(texts)
    cols = {name: [None] * n for name in OUTPUT_FIELDS}
    for i in range(n):
        rec = extract_turn(texts[i], tools[i], turn_idxs[i],
                           reg.get(tools[i], DEFAULT_STRATEGY))
        for k in OUTPUT_FIELDS:
            cols[k][i] = rec[k]

    return pa.Table.from_arrays(
        [conv_id, turn_idx, tool]
        + [pa.array(cols[k], EXTRACTED_SCHEMA.field(k).type)
           for k in OUTPUT_FIELDS],
        schema=EXTRACTED_SCHEMA)
