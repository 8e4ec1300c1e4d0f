"""The extraction stage: transcript rows -> extracted-layout rows.

One ``map_batches`` stage fusing the reference's per-page chain
M1 tokenize -> M4/M5 separator -> M7/M8/M9 classify -> M11 reading
order -> M14 normalize (SURVEY.md §2.2) — the whole chain stays inside
one Arrow batch, so per-turn intermediates (block lists) never hit the
object store.

Three paths inside ``extract_batch``, merged back in input order:

- **Whole-batch layout path.** Turns whose tool parses as layout
  (``kernel.LAYOUT_TOOLS``) and whose strategy is a002/a003/a004 run as
  columns over the whole batch: Arrow string kernels split, trim and
  check the payload lines, numpy does the separator (a closed form),
  the classify masks and the reading order (two stable lexsorts), and
  Arrow joins build the region strings and the metadata JSON. Only the
  a003/a004 footer keyword tests run in Python, on the bottom-zone
  candidates (their ``str.lower`` / ``str.isdigit`` rules differ from
  Arrow's ``utf8_lower`` / ``utf8_is_digit``).
- **Whole-batch plain path.** A non-null turn whose tool is neither
  layout nor ``html``, under a002/a003/a004, is one block covering the
  default page (``kernel.plain_text_page``): the separator is W/2, the
  block's center is not left of it and sits in no header or footer
  zone, so its whole text lands in ``right_column``. That text is the
  per-line trim of the payload, joined by ``"\\n"`` and trimmed again
  (``normalize_text_field(text.strip())``), in Arrow kernels.
- **Per-turn path** (``kernel.extract_turn``) for everything else:
  html, a000, custom strategies, null text, ``#CORRUPT``, and any
  layout turn with a line whose fate the batch path cannot decide — a
  ``#PAGE``/``#VLINE``/``#RECT`` directive whose numbers are not ASCII
  ``BATCH_NUM``, or a record line (3+ pipes) whose coordinates or font
  size are neither ``BATCH_NUM`` nor certain to fail ``float()``.
  ``float()`` takes more spellings ("1e2", "inf", " 5", non-ASCII
  digits), so those turns keep the per-turn parse's exact behaviour.

Stateless: the strategy registry and the html/question regexes are
module-level (built at import time), so a plain Ray task rehydrates
them for free and per-batch setup cost is zero. Used as::

    ds.map_batches(extract_batch, batch_format="pyarrow")
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..kernel import (DEFAULT_PAGE_HEIGHT, DEFAULT_PAGE_WIDTH, LAYOUT_TOOLS,
                      OUTPUT_FIELDS, round2, extract_turn,
                      is_footer_text_a003, is_footer_text_a004)
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

#: strategies the whole-batch layout path runs; a turn's code is its
#: index here
BATCH_STRATEGIES = ("a002", "a003", "a004")
_A002, _A003, _A004 = range(3)
#: region codes, in ``kernel._REGIONS`` order
_HEADER, _FOOTER, _LEFT, _RIGHT = range(4)

#: ``kernel.NUM`` in ASCII digits, at most 15 before the point: every
#: value the batch path casts is finite and below 1e15, so the separator
#: grid fits int64 and float64 exactly
BATCH_NUM = r"[-+]?[0-9]{1,15}(?:\.[0-9]+)?"
_N = BATCH_NUM
#: (prefix, checked form, number count) per directive
_DIRECTIVES = (
    ("#PAGE ", rf"^#PAGE {_N},{_N}$", 2),
    ("#VLINE ", rf"^#VLINE {_N},{_N},{_N},{_N}$", 4),
    ("#RECT ", rf"^#RECT {_N},{_N},{_N},{_N}\|{_N},{_N},{_N}$", 7),
)
#: coordinates and font size of a ``x0,y0,x1,y1|size|font|text`` record
_RECORD_RE = rf"^{_N},{_N},{_N},{_N}\|{_N}\|"
#: a record whose coordinates or font size hold an ASCII character that
#: ``float()`` never takes (anything but digits, whitespace, "+-._" and
#: the letters of "e", "infinity", "nan") is skipped by the per-turn
#: parse, so the batch path can skip it too
_NEVER_FLOAT = "".join(
    f"\\x{c:02x}" for c in range(128)
    if not (chr(c).isspace() or chr(c) in "0123456789+-._aefintyAEFINTY,|"))
_SKIPPED_RE = rf"^(?:[^|]*\|)?[^|]*[{_NEVER_FLOAT}]"


def _lit(s: str) -> pa.Scalar:
    """A large_string literal (Arrow's string joins need one type)."""
    return pa.scalar(s, pa.large_string())


def _np(mask: pa.Array) -> np.ndarray:
    return mask.to_numpy(zero_copy_only=False)


def _numbers(lines: pa.Array, prefix: str, count: int) -> np.ndarray:
    """The ``count`` numbers of each checked ``prefix`` directive line,
    as rows."""
    body = pc.utf8_slice_codeunits(lines, len(prefix))
    if prefix == "#RECT ":
        body = pc.replace_substring(body, "|", ",")
    vals = pc.cast(pc.list_flatten(pc.split_pattern(body, ",")), pa.float64())
    return vals.to_numpy().reshape(-1, count)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Positions where a run of equal adjacent keys begins."""
    if not keys.size:
        return np.zeros(0, np.int64)
    return np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])


def _per_unique(values: np.ndarray, fn) -> tuple:
    """``fn`` applied once per distinct float64 bit pattern (so 0.0 and
    -0.0 stay apart): (results per distinct value, inverse index)."""
    uniq, inv = np.unique(values.view(np.int64), return_inverse=True)
    return [fn(float(u)) for u in uniq.view(np.float64)], inv


def _join_runs(values: pa.Array, starts: np.ndarray, n: int,
               sep: str) -> pa.Array:
    """Join ``values`` over the runs that begin at ``starts``."""
    offsets = pa.array(np.r_[starts, n], pa.int64())
    return pc.binary_join(pa.LargeListArray.from_arrays(offsets, values),
                          _lit(sep))


def _layout_turns(text: pa.Array, strat: np.ndarray):
    """The whole-batch layout path over ``text`` (large_string, no
    nulls) with strategy codes ``strat``. Returns (fallback mask over
    the turns, output columns of the other turns in order)."""
    n_turns = len(text)
    lines = pc.split_pattern(text, "\n")
    line_turn = pc.list_parent_indices(lines).to_numpy()
    flat = pc.utf8_trim_whitespace(pc.list_flatten(lines))
    keep = pc.greater(pc.binary_length(flat), 0)
    flat, line_turn = flat.filter(keep), line_turn[_np(keep)]
    is_dir = pc.starts_with(flat, "#")
    dirs, recs = flat.filter(is_dir), flat.filter(pc.invert(is_dir))
    is_dir = _np(is_dir)
    dir_turn, rec_turn = line_turn[is_dir], line_turn[~is_dir]

    # directives: a checked #PAGE/#VLINE/#RECT is parsed; a #CORRUPT or
    # a failed check sends the turn to the per-turn path
    fallback = np.zeros(n_turns, bool)
    fallback[dir_turn[_np(pc.starts_with(dirs, "#CORRUPT"))]] = True
    directives = []
    for prefix, pattern, count in _DIRECTIVES:
        claimed = pc.starts_with(dirs, prefix)
        lines, turns = dirs.filter(claimed), dir_turn[_np(claimed)]
        ok = _np(pc.match_substring_regex(lines, pattern))
        fallback[turns[~ok]] = True
        directives.append((prefix, count, lines, turns, ok))

    # records: 3+ pipes make a record (fewer are skipped); its numbers
    # must pass the check, or be ones float() rejects
    parts = pc.split_pattern(recs, "|", max_splits=3)
    record = _np(pc.equal(pc.list_value_length(parts), 4))
    ok = _np(pc.match_substring_regex(recs, _RECORD_RE))
    unsure = np.flatnonzero(record & ~ok)
    skipped = _np(pc.match_substring_regex(recs.take(unsure), _SKIPPED_RE))
    fallback[rec_turn[unsure[~skipped]]] = True

    # keep only the turns this path owns, renumbered 0..n-1
    owned = ~fallback
    renum = np.cumsum(owned) - 1
    n = int(owned.sum())
    strat = strat[owned]
    (page_t, page), (vline_t, vline), (rect_t, rect) = [
        (renum[turns[ok & owned[turns]]],
         _numbers(lines.filter(pa.array(ok & owned[turns])), prefix, count))
        for prefix, count, lines, turns, ok in directives]
    take = record & ok & owned[rec_turn]
    fields = pc.list_flatten(parts.filter(pa.array(take)))
    rec_turn = renum[rec_turn[take]]

    width = np.full(n, DEFAULT_PAGE_WIDTH)
    height = np.full(n, DEFAULT_PAGE_HEIGHT)
    last = page_t.size - 1 - _run_starts(page_t[::-1])
    width[page_t[last]] = page[last, 0]      # the last #PAGE of a turn wins
    height[page_t[last]] = page[last, 1]

    # blocks: text stripped, empty ones dropped
    k = len(fields) // 4
    block_text = pc.utf8_trim_whitespace(fields.take(np.arange(3, 4 * k, 4)))
    nonempty = pc.greater(pc.binary_length(block_text), 0)
    coords = pc.cast(pc.list_flatten(pc.split_pattern(
        fields.take(np.arange(0, 4 * k, 4)), ",")), pa.float64())
    block_text = block_text.filter(nonempty)
    nonempty = _np(nonempty)
    coords = coords.to_numpy().reshape(-1, 4)[nonempty]
    bt = rec_turn[nonempty]
    x0, y0, x1, y1 = coords.T
    n_blocks = np.bincount(bt, minlength=n)

    # kernel.detect_vertical_lines / detect_colored_footer_rects as masks
    vertical = ((np.abs(vline[:, 2] - vline[:, 0]) < 5)
                & (np.abs(vline[:, 3] - vline[:, 1]) > 100))
    nonwhite = ~((rect[:, 4] == 1.0) & (rect[:, 5] == 1.0)
                 & (rect[:, 6] == 1.0))
    footer_rect = nonwhite & (rect[:, 1] > height[rect_t] * 0.5)

    separator = _separators(width, bt, x0, x1, vline_t[vertical],
                            vline[vertical])
    region = _classify(strat, height, separator, bt, x0, y0, x1, y1,
                       block_text, rect_t[footer_rect], rect[footer_rect])
    counts = np.bincount(bt * 4 + region, minlength=4 * n).reshape(n, 4)
    regions = _reading_order(n, bt, region, x0, y0, y1, block_text)

    n_vertical = np.bincount(vline_t[vertical], minlength=n)
    n_colored = np.bincount(rect_t[nonwhite], minlength=n)
    cols = dict(zip(("header", "footer", "left_column", "right_column"),
                    regions))
    cols["extracted_text"] = _assemble(regions, counts)
    cols["metadata_json"] = _metadata_json(
        strat, width, height, n_blocks, counts, n_vertical, n_colored)
    for name, values in (("page_width", width), ("page_height", height),
                         ("column_separator_position", separator)):
        rounded, inv = _per_unique(values, round2)
        cols[name] = pa.array(np.asarray(rounded, np.float64)[inv])
    return fallback, cols


def _plain_turns(text: pa.Array, strat: np.ndarray) -> Dict[str, pa.Array]:
    """The whole-batch plain path over ``text`` (large_string, no
    nulls) with strategy codes ``strat``: kernel.plain_text_page's one
    block spans the default page, so the separator is W/2, no block is
    header or footer, and the normalized text is the right column.
    Returns the output columns in order."""
    n = len(text)
    lines = pc.split_pattern(text, "\n")
    trimmed = pc.utf8_trim_whitespace(pc.list_flatten(lines))
    right = pc.utf8_trim_whitespace(pc.binary_join(
        pa.ListArray.from_arrays(lines.offsets, trimmed), _lit("\n")))
    n_blocks = _np(pc.greater(pc.binary_length(right), 0)).astype(np.int64)
    counts = np.zeros((n, 4), np.int64)
    counts[:, _RIGHT] = n_blocks
    width = np.full(n, DEFAULT_PAGE_WIDTH)
    height = np.full(n, DEFAULT_PAGE_HEIGHT)
    empty = pa.repeat(_lit(""), n)
    zero = np.zeros(n, np.int64)
    return {"header": empty, "footer": empty, "left_column": empty,
            "right_column": right, "extracted_text": right,
            "page_width": pa.array(width), "page_height": pa.array(height),
            "column_separator_position": pa.array(width / 2),
            "metadata_json": _metadata_json(strat, width, height, n_blocks,
                                            counts, zero, zero)}


def _separators(width, bt, x0, x1, vline_t, vline) -> np.ndarray:
    """kernel.find_column_separator per turn, given its vertical lines.
    The scan over range(int(0.3W), int(0.7W), 10) is a closed form: the
    first grid point above the turn's smallest x1, if it is below both
    the grid's end and the turn's largest x0; else W/2."""
    separator = width / 2
    if bt.size:
        starts = _run_starts(bt)
        turns = bt[starts]
        left_edge = np.minimum.reduceat(x1, starts)
        right_edge = np.maximum.reduceat(x0, starts)
        lo = np.trunc(width[turns] * 0.3).astype(np.int64)
        hi = np.trunc(width[turns] * 0.7).astype(np.int64)
        x = np.where(left_edge < lo, lo,
                     lo + ((np.floor(left_edge).astype(np.int64) - lo) // 10
                           + 1) * 10)
        hit = (x < hi) & (x < right_edge)
        separator[turns[hit]] = x[hit]

    # the longest vertical line near the center wins, first on ties
    w = width[vline_t]
    mid = (vline[:, 0] + vline[:, 2]) / 2
    near = np.abs(mid - w / 2) < w * 0.3
    length = np.abs(vline[near, 3] - vline[near, 1])
    turns = vline_t[near]
    order = np.lexsort((np.arange(turns.size), -length, turns))
    best = order[_run_starts(turns[order])]
    separator[turns[best]] = mid[near][best]
    return separator


def _classify(strat, height, separator, bt, x0, y0, x1, y1, block_text,
              rect_t, rect) -> np.ndarray:
    """Region code per block: the threshold masks of kernel.classify_a002
    / a003 / a004, with the footer text tests on bottom-zone candidates
    only. ``rect_t``/``rect`` are the colored footer rects."""
    s = strat[bt]
    h = height[bt]
    cy = (y0 + y1) / 2
    cx = (x0 + x1) / 2
    header = cy < np.where(s == _A004, h * 0.10, h * 0.15)
    bottom = cy > h * 0.95
    footer = (s == _A002) & (cy > h * 0.9)

    # a003: colored rects in the bottom half hold footer blocks; the
    # bottom-zone texts of a turn, joined in page order, decide has_footer
    a003 = s == _A003
    cand = np.flatnonzero(a003 & bottom)
    if cand.size:
        texts = block_text.take(cand).to_pylist()
        turns = bt[cand]
        starts = _run_starts(turns)
        has_footer = np.zeros(len(strat), bool)
        for a, b in zip(starts, np.r_[starts[1:], cand.size]):
            has_footer[turns[a]] = is_footer_text_a003(texts[a:b])
        footer |= a003 & bottom & has_footer[bt]
    footer |= a003 & _inside_any(bt, x0, y0, x1, y1, rect_t, rect,
                                 len(strat))

    cand = np.flatnonzero((s == _A004) & ~header & bottom)
    if cand.size:
        footer[cand] = [is_footer_text_a004(t)
                        for t in block_text.take(cand).to_pylist()]

    left = cx < separator[bt]
    return np.where(header, _HEADER, np.where(
        footer, _FOOTER, np.where(left, _LEFT, _RIGHT)))


def _inside_any(bt, x0, y0, x1, y1, rect_t, rect, n_turns) -> np.ndarray:
    """Per block: inside some rect of its own turn (full containment,
    A003:225-230)."""
    inside = np.zeros(bt.size, bool)
    if not rect_t.size:
        return inside
    per_turn = np.bincount(rect_t, minlength=n_turns)
    first = np.cumsum(per_turn) - per_turn
    reps = per_turn[bt]
    block = np.repeat(np.arange(bt.size), reps)
    run = np.repeat(np.cumsum(reps) - reps, reps)
    r = first[bt[block]] + np.arange(block.size) - run
    hit = ((x0[block] >= rect[r, 0]) & (x1[block] <= rect[r, 2])
           & (y0[block] >= rect[r, 1]) & (y1[block] <= rect[r, 3]))
    inside[block[hit]] = True
    return inside


def _reading_order(n, bt, region, x0, y0, y1, block_text) -> List[pa.Array]:
    """kernel.blocks_to_text for every (turn, region) at once: a stable
    sort on (y0, x0); a new line where adjacent midpoints differ by 10
    or more; within a line a stable sort on x0; " " within lines, "\\n"
    between them. Returns the four region columns."""
    group = bt * 4 + region
    first = np.lexsort((x0, y0, group))
    g = group[first]
    mid = ((y0 + y1) / 2)[first]
    new_line = np.ones(g.size, bool)
    new_line[1:] = (g[1:] != g[:-1]) | (np.abs(np.diff(mid)) >= 10)
    line = np.cumsum(new_line) - 1
    order = first[np.lexsort((x0[first], line))]

    line_starts = np.flatnonzero(new_line)
    lines = _join_runs(block_text.take(order), line_starts, g.size, " ")
    line_group = g[line_starts]
    region_starts = _run_starts(line_group)
    texts = _join_runs(lines, region_starts, line_starts.size, "\n")

    # (turn, region) grid; an empty region points at a trailing ""
    slot = np.full(4 * n, len(texts))
    slot[line_group[region_starts]] = np.arange(len(texts))
    texts = pa.concat_arrays([texts, pa.array([""], pa.large_string())])
    slot = slot.reshape(n, 4)
    return [texts.take(slot[:, r]) for r in range(4)]


def _assemble(regions, counts) -> pa.Array:
    """kernel.assemble_extracted_text: the non-empty regions in the
    order header, left, right, footer, joined by a blank line."""
    order = (_HEADER, _LEFT, _RIGHT, _FOOTER)
    present = counts[:, order] > 0
    cells = np.flatnonzero(present.ravel())
    stacked = pa.concat_arrays([regions[r] for r in order])
    # stacked is region-major; cell (turn, j) sits at j * n + turn
    n = counts.shape[0]
    values = stacked.take(cells % 4 * n + cells // 4)
    per_turn = present.sum(axis=1)
    return _join_runs(values, np.cumsum(per_turn) - per_turn, cells.size,
                      "\n\n")


def _metadata_json(strat, width, height, n_blocks, counts, n_vertical,
                   n_colored) -> pa.Array:
    """kernel.canonical_metadata_json of the a002/a003/a004 metadata:
    sorted keys, ints, ``true``/``false``, float reprs."""
    def ints(values):
        return pc.cast(pa.array(values, pa.int64()), pa.large_string())

    def reprs(values):
        text, inv = _per_unique(values, repr)
        return pa.array(text, pa.large_string()).take(inv)

    null = pa.scalar(None, pa.large_string())
    a003 = pa.array(strat == _A003)
    has_footer = pa.array(counts[:, _FOOTER] > 0)
    colored = pc.if_else(a003, pc.binary_join_element_wise(
        _lit('"colored_footer_regions": '), ints(n_colored), _lit(", "),
        _lit("")), null)
    footer_flag = pc.if_else(
        pa.array(strat == _A002), null,
        pc.if_else(has_footer, _lit(', "has_footer": true'),
                   _lit(', "has_footer": false')))
    return pc.binary_join_element_wise(
        _lit("{"), colored,
        _lit('"footer_blocks": '), ints(counts[:, _FOOTER]), footer_flag,
        _lit(', "header_blocks": '), ints(counts[:, _HEADER]),
        _lit(', "left_column_blocks": '), ints(counts[:, _LEFT]),
        _lit(', "page_rect": [0.0, 0.0, '), reprs(width), _lit(", "),
        reprs(height),
        _lit('], "right_column_blocks": '), ints(counts[:, _RIGHT]),
        _lit(', "total_text_blocks": '), ints(n_blocks),
        _lit(', "vertical_lines_detected": '), ints(n_vertical), _lit("}"),
        _lit(""), null_handling="skip")


def extract_batch(batch: pa.Table,
                  registry: Optional[Dict[str, str]] = None) -> pa.Table:
    """Pure batch body: one output row per input row, in input order.
    The keys and the tool pass through as Arrow columns (turn_idx
    narrowed to int32, a null tool filled with ""). Layout and plain
    turns run on the whole-batch paths; the rest cross into Python for
    the per-turn kernel."""
    reg = TOOL_STRATEGY_MAP if registry is None else registry
    conv_id = pc.cast(batch.column("conv_id"), pa.string())
    turn_idx = pc.cast(batch.column("turn_idx"), pa.int32())
    if turn_idx.null_count:
        raise ValueError("turn_idx must not be null")
    tool = pc.fill_null(pc.cast(batch.column("tool"), pa.string()), "")
    text = pc.cast(batch.column("text"), pa.large_string()).combine_chunks()
    n = batch.num_rows

    # strategy per row, looked up once per distinct tool
    tools = pc.unique(tool).to_pylist()
    names = [reg.get(t, DEFAULT_STRATEGY) for t in tools]
    code = np.array([BATCH_STRATEGIES.index(s) if t != "html"
                     and s in BATCH_STRATEGIES else -1
                     for t, s in zip(tools, names)], np.int8)
    is_layout = np.array([t in LAYOUT_TOOLS for t in tools], bool)
    tool_of = _np(pc.index_in(tool, pa.array(tools, pa.string())))
    strat = code[tool_of]
    is_layout = is_layout[tool_of]

    batch = (strat >= 0) & _np(text.is_valid())
    layout = np.flatnonzero(batch & is_layout)
    plain = np.flatnonzero(batch & ~is_layout)
    fallback, cols = _layout_turns(text.take(layout), strat[layout])
    plain_cols = _plain_turns(text.take(plain), strat[plain])
    batch_rows = np.r_[layout[~fallback], plain]
    per_turn = np.setdiff1d(np.arange(n), batch_rows)

    recs = [extract_turn(t, tools[i], ti, names[i]) for t, i, ti in zip(
        text.take(per_turn).to_pylist(), tool_of[per_turn],
        turn_idx.take(per_turn).to_pylist())]
    position = np.empty(n, np.int64)
    position[np.r_[batch_rows, per_turn]] = np.arange(n)
    page_number = pc.add_checked(turn_idx, pa.scalar(1, pa.int32()))
    out = [conv_id, turn_idx, tool, page_number]
    for name in OUTPUT_FIELDS[1:]:
        per_turn_col = pa.array([r[name] for r in recs],
                                EXTRACTED_SCHEMA.field(name).type)
        out.append(pa.concat_arrays([cols[name], plain_cols[name],
                                     per_turn_col]).take(position))
    return pa.Table.from_arrays(out, schema=EXTRACTED_SCHEMA)
