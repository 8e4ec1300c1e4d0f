"""The extraction stage: transcript rows -> extracted-layout rows.

One ``map_batches`` stage fusing the reference's per-page chain
M1 tokenize -> M4/M5 separator -> M7/M8/M9 classify -> M11 reading
order -> M14 normalize (SURVEY.md §2.2) — the whole chain stays inside
one Arrow batch, so per-turn intermediates (block lists) never hit the
object store.

Three paths inside ``extract_batch``, merged back in input order:

- **Whole-batch block chain.** Layout turns (``kernel.LAYOUT_TOOLS``)
  and ``html`` turns under any built-in strategy run as columns over the
  whole batch, in two stages:

  - a *parse stage* per payload family emits ``_Pages``: per-block
    columns (turn, text, x0, y0, x1, y1), per-turn page size, and the
    vlines and rects. Layout payloads are split, trimmed and checked by
    Arrow string kernels; html payloads go through the RE2 tokenizer
    ``html_parse.html_block_columns``, which places its lines on the
    same synthetic geometry as ``html_parse.parse_html_payload``.
  - a *strategy stage* (``_chain``) over those columns, whatever parsed
    them: numpy does the separator (a closed form of each strategy's
    scan), the classify masks and the reading order (stable lexsorts;
    a000's overlap line grouping is a segmented running max), and Arrow
    joins build the region strings and the metadata JSON. Only the
    a003/a004 footer keyword tests run in Python, on the bottom-zone
    candidates (their ``str.lower`` / ``str.isdigit`` rules differ from
    Arrow's ``utf8_lower`` / ``utf8_is_digit``).
- **Whole-batch plain path.** A non-null turn whose tool is neither
  layout nor ``html`` is one block covering the default page
  (``kernel.plain_text_page``): every built-in strategy puts it at W/2,
  in no header or footer zone, so its whole text lands in
  ``right_column``. That text is the per-line trim of the payload,
  joined by ``"\\n"`` and trimmed again
  (``normalize_text_field(text.strip())``), in Arrow kernels.
- **Per-turn path** (``kernel.extract_turn``) only for what the batch
  grammar cannot decide: null text, custom strategies, ``#CORRUPT``,
  an html payload the tokenizer refuses, and any layout turn with a
  line whose fate the batch parse cannot decide — a
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

from typing import Dict, List, NamedTuple, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import html_parse
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

#: the strategies that classify around the shared separator; a turn's
#: code is its index here, and a000 (the model-stub flow) is code 3
BATCH_STRATEGIES = ("a002", "a003", "a004")
_A002, _A003, _A004, _A000 = range(4)
_CODES = BATCH_STRATEGIES + ("a000",)
#: region codes, in ``kernel._REGIONS`` order
_HEADER, _FOOTER, _LEFT, _RIGHT = range(4)
#: payload families: how a tool's text is parsed
_LAYOUT, _HTML, _PLAIN = range(3)

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


class _Pages(NamedTuple):
    """Parsed pages as columns, the parse stage's output. Blocks are
    grouped by turn, in page order."""
    width: np.ndarray     # per turn
    height: np.ndarray
    bt: np.ndarray        # per block: its turn
    x0: np.ndarray
    y0: np.ndarray
    x1: np.ndarray
    y1: np.ndarray
    text: pa.Array        # large_string
    vline_t: np.ndarray   # per #VLINE: its turn, and (x0, y0, x1, y1)
    vline: np.ndarray
    rect_t: np.ndarray    # per #RECT: its turn, and (bbox, r, g, b)
    rect: np.ndarray


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


def _merge(mask: np.ndarray, when_false: pa.Array,
           when_true: pa.Array) -> pa.Array:
    """Rows of ``when_true`` where ``mask`` holds, of ``when_false``
    elsewhere, each given in order over its own rows."""
    if not mask.any():
        return when_false
    order = np.r_[np.flatnonzero(~mask), np.flatnonzero(mask)]
    position = np.empty(mask.size, np.int64)
    position[order] = np.arange(mask.size)
    return pa.concat_arrays([when_false, when_true]).take(position)


# ---------------------------------------------------------------------------
# Parse stage: one parser per payload family, all emitting _Pages
# ---------------------------------------------------------------------------

def _parse_layout(text: pa.Array):
    """``kernel.parse_layout_payload`` over ``text`` (large_string, no
    nulls). Returns (fallback mask over the turns, _Pages of the other
    turns, renumbered 0..n-1)."""
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
    x0, y0, x1, y1 = coords.T
    return fallback, _Pages(width, height, rec_turn[nonempty], x0, y0, x1,
                            y1, block_text, vline_t, vline, rect_t, rect)


def _parse_html(text: pa.Array):
    """``html_parse.parse_html_payload`` over ``text`` (large_string, no
    nulls): (refused mask over the turns, _Pages of the others)."""
    refused, bt, x0, y0, x1, y1, block_text = \
        html_parse.html_block_columns(text)
    n = int((~refused).sum())
    return refused, _Pages(
        np.full(n, html_parse.PAGE_W), np.full(n, html_parse.PAGE_H),
        bt, x0, y0, x1, y1, block_text, np.arange(n),
        np.tile(html_parse.SEPARATOR_VLINE, (n, 1)),
        np.zeros(0, np.int64), np.zeros((0, 7)))


def _concat_pages(*pages: _Pages) -> _Pages:
    """The pages of each argument in turn, renumbered."""
    if len(pages) == 1:
        return pages[0]
    first = np.cumsum([0] + [p.width.size for p in pages])
    return _Pages(*[
        pa.concat_arrays(cols) if name == "text" else np.concatenate(
            [c + k for c, k in zip(cols, first)]
            if name in ("bt", "vline_t", "rect_t") else cols)
        for name, cols in zip(_Pages._fields, zip(*pages))])


# ---------------------------------------------------------------------------
# Strategy stage: one chain over the block columns
# ---------------------------------------------------------------------------

def _chain(strat: np.ndarray, p: _Pages) -> Dict[str, pa.Array]:
    """The built-in strategies over parsed pages, with strategy codes
    ``strat`` per turn. Returns the output columns in turn order."""
    n = len(strat)
    a000 = strat == _A000
    n_blocks = np.bincount(p.bt, minlength=n)

    # kernel.detect_vertical_lines(_a000) / detect_colored_footer_rects
    # as masks: a000's thresholds are relative to the page
    w, h = p.width[p.vline_t], p.height[p.vline_t]
    dx = np.abs(p.vline[:, 2] - p.vline[:, 0])
    dy = np.abs(p.vline[:, 3] - p.vline[:, 1])
    vertical = np.where(a000[p.vline_t], (dx < w * 0.01) & (dy > h * 0.2),
                        (dx < 5) & (dy > 100))
    rect = p.rect
    nonwhite = ~((rect[:, 4] == 1.0) & (rect[:, 5] == 1.0)
                 & (rect[:, 6] == 1.0))
    footer_rect = nonwhite & (rect[:, 1] > p.height[p.rect_t] * 0.5)

    separator, top, bottom = _separators(
        a000, p.width, p.bt, p.x0, p.x1, p.vline_t[vertical],
        p.vline[vertical])
    region = _classify(strat, p.height, separator, top, bottom, p.bt, p.x0,
                       p.y0, p.x1, p.y1, p.text, p.rect_t[footer_rect],
                       rect[footer_rect])
    counts = np.bincount(p.bt * 4 + region, minlength=4 * n).reshape(n, 4)
    regions = _reading_order(n, a000, p.bt, region, p.x0, p.y0, p.y1,
                             p.text)

    cols = dict(zip(("header", "footer", "left_column", "right_column"),
                    regions))
    cols["extracted_text"] = _assemble(regions, counts)
    cols["metadata_json"] = _metadata_json(
        strat, p.width, p.height, n_blocks, counts,
        np.bincount(p.vline_t[vertical], minlength=n),
        np.bincount(p.rect_t[nonwhite], minlength=n), top, bottom)
    for name, values in (("page_width", p.width), ("page_height", p.height),
                         ("column_separator_position", separator)):
        rounded, inv = _per_unique(values, round2)
        cols[name] = pa.array(np.asarray(rounded, np.float64)[inv])
    return cols


def _plain_turns(text: pa.Array, strat: np.ndarray) -> Dict[str, pa.Array]:
    """The whole-batch plain path over ``text`` (large_string, no
    nulls) with strategy codes ``strat``: kernel.plain_text_page's one
    block spans the default page, so every built-in strategy puts the
    separator at W/2, no block in a header or footer, and the
    normalized text in the right column. Returns the output columns in
    order."""
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
    none = np.full(n, np.nan)
    return {"header": empty, "footer": empty, "left_column": empty,
            "right_column": right, "extracted_text": right,
            "page_width": pa.array(width), "page_height": pa.array(height),
            "column_separator_position": pa.array(width / 2),
            "metadata_json": _metadata_json(strat, width, height, n_blocks,
                                            counts, zero, zero, none, none)}


def _separators(a000, width, bt, x0, x1, vline_t, vline) -> tuple:
    """kernel.find_column_separator(_a000) per turn, given its vertical
    lines: (separator, and the y0 and y1 of the line a000 took, NaN
    where it took none)."""
    separator = width / 2
    if a000.any():
        on = a000[bt]
        _scan(separator, width, bt[~on], x0[~on], x1[~on])
        _scan_a000(separator, width, bt[on], (x0[on] + x1[on]) / 2)
    else:
        _scan(separator, width, bt, x0, x1)

    # the longest vertical line near the center wins, first on ties;
    # "near" is within 0.3W (0.25W for a000)
    w = width[vline_t]
    mid = (vline[:, 0] + vline[:, 2]) / 2
    length = np.abs(vline[:, 3] - vline[:, 1])
    near = ((np.abs(mid - w / 2)
             < np.where(a000[vline_t], w * 0.25, w * 0.3)) & (length > 0))
    turns = vline_t[near]
    order = np.lexsort((np.arange(turns.size), -length[near], turns))
    best = np.flatnonzero(near)[order[_run_starts(turns[order])]]
    separator[vline_t[best]] = mid[best]
    top = np.full(width.size, np.nan)
    bottom = top.copy()
    best = best[a000[vline_t[best]]]
    top[vline_t[best]] = vline[best, 1]
    bottom[vline_t[best]] = vline[best, 3]
    return separator, top, bottom


def _grid_above(value, width, step) -> tuple:
    """The first point of range(int(0.3W), ..., step) above ``value``,
    and int(0.7W), per turn."""
    lo = np.trunc(width * 0.3).astype(np.int64)
    above = lo + ((np.floor(value).astype(np.int64) - lo) // step + 1) * step
    return np.where(value < lo, lo, above), np.trunc(width * 0.7)


def _scan(separator, width, bt, x0, x1) -> None:
    """The a002-a004 scan over range(int(0.3W), int(0.7W), 10) as a
    closed form: the first grid point above the turn's smallest x1, if
    it is below both the grid's end and the turn's largest x0."""
    if not bt.size:
        return
    starts = _run_starts(bt)
    turns = bt[starts]
    x, hi = _grid_above(np.minimum.reduceat(x1, starts), width[turns], 10)
    hit = (x < hi) & (x < np.maximum.reduceat(x0, starts))
    separator[turns[hit]] = x[hit]


def _scan_a000(separator, width, bt, center) -> None:
    """The a000 scan over range(int(0.3W), int(0.7W) + 1, 5) as a
    closed form. A side holds more than 10% of a turn's n blocks once
    it holds k = floor(0.1n) + 1 block centers, so the first grid point
    that passes is the first one above the k-th smallest center, if the
    k-th largest center is still above it."""
    if not bt.size:
        return
    order = np.lexsort((center, bt))
    center = center[order]
    starts = _run_starts(bt[order])
    turns = bt[order][starts]
    count = np.diff(np.r_[starts, bt.size])
    k = np.floor(count * 0.1).astype(np.int64) + 1
    x, hi = _grid_above(center[starts + k - 1], width[turns], 5)
    hit = (x <= hi) & (center[starts + count - k] > x)
    separator[turns[hit]] = x[hit]


def _classify(strat, height, separator, top, bottom, bt, x0, y0, x1, y1,
              block_text, rect_t, rect) -> np.ndarray:
    """Region code per block: the threshold masks of kernel.classify_a002
    / a003 / a004 / a000, with the footer text tests on bottom-zone
    candidates only. ``rect_t``/``rect`` are the colored footer rects;
    ``top``/``bottom`` the extent of the line a000 took (NaN: none)."""
    s = strat[bt]
    h = height[bt]
    cy = (y0 + y1) / 2
    cx = (x0 + x1) / 2
    header = cy < np.where(s == _A004, h * 0.10, h * 0.15)
    bottom_zone = cy > h * 0.95
    footer = (s == _A002) & (cy > h * 0.9)

    # a003: colored rects in the bottom half hold footer blocks; the
    # bottom-zone texts of a turn, joined in page order, decide has_footer
    a003 = s == _A003
    cand = np.flatnonzero(a003 & bottom_zone)
    if cand.size:
        texts = block_text.take(cand).to_pylist()
        turns = bt[cand]
        starts = _run_starts(turns)
        has_footer = np.zeros(len(strat), bool)
        for a, b in zip(starts, np.r_[starts[1:], cand.size]):
            has_footer[turns[a]] = is_footer_text_a003(texts[a:b])
        footer |= a003 & bottom_zone & has_footer[bt]
    footer |= a003 & _inside_any(bt, x0, y0, x1, y1, rect_t, rect,
                                 len(strat))

    cand = np.flatnonzero((s == _A004) & ~header & bottom_zone)
    if cand.size:
        footer[cand] = [is_footer_text_a004(t)
                        for t in block_text.take(cand).to_pylist()]

    # a000 tests the block's edges against the line's extent +-10, or
    # else 0.15H / 0.90H
    a000 = s == _A000
    if a000.any():
        t, b = top[bt], bottom[bt]
        header = np.where(a000, y1 < np.where(np.isnan(t), h * 0.15, t + 10),
                          header)
        footer |= a000 & (y0 > np.where(np.isnan(b), h * 0.9, b - 10))

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


def _reading_order(n, overlap, bt, region, x0, y0, y1,
                   block_text) -> List[pa.Array]:
    """kernel.blocks_to_text(_a000) for every (turn, region) at once: a
    stable sort on (y0, x0); lines; within a line a stable sort on x0;
    " " within lines, "\\n" between them. A new line starts where
    adjacent midpoints differ by 10 or more, or on the turns marked in
    ``overlap`` (a000) by ``_overlap_lines``. Returns the four region
    columns."""
    group = bt * 4 + region
    first = np.lexsort((x0, y0, group))
    g = group[first]
    mid = ((y0 + y1) / 2)[first]
    new_group = np.ones(g.size, bool)
    new_group[1:] = g[1:] != g[:-1]
    new_line = new_group.copy()
    new_line[1:] |= np.abs(np.diff(mid)) >= 10
    if overlap.any():
        on = np.flatnonzero(overlap[g // 4])
        new_line[on] = _overlap_lines(new_group[on], y0[first][on],
                                      y1[first][on])
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


def _overlap_lines(new_group, y0, y1) -> np.ndarray:
    """A000's line starts over blocks sorted by (group, y0, x0): a block
    joins the line while its y0 is below the line's largest y1 + 10;
    the group's first line starts that largest y1 at -1.

    The line's largest y1 may stand for the group's running max (with
    the -1 floor), inverted boxes included: if a block lies below its
    line's max + 10 but not below the running max + 10, that max came
    from an earlier line, yet the current line's first block already
    had a y0 at least 10 above it, and y0 only grows. So one
    maximum.accumulate over int ranks offset per group decides it."""
    group = np.cumsum(new_group) - 1
    uniq, rank = np.unique(np.maximum(y1, -1.0), return_inverse=True)
    offset = group * uniq.size
    running = uniq[np.maximum.accumulate(rank + offset) - offset]
    start = new_group.copy()
    start[1:] |= y0[1:] >= running[:-1] + 10
    return start


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
                   n_colored, top, bottom) -> pa.Array:
    """kernel.canonical_metadata_json of the a002/a003/a004 and the a000
    metadata: sorted keys, ints, ``true``/``false``, ``null``, float
    reprs."""
    def ints(values):
        return pc.cast(pa.array(values, pa.int64()), pa.large_string())

    def reprs(values, fn=repr):
        text, inv = _per_unique(values, fn)
        return pa.array(text, pa.large_string()).take(inv)

    null = pa.scalar(None, pa.large_string())
    a000 = strat == _A000
    s = ~a000 if a000.any() else slice(None)
    a003 = pa.array(strat[s] == _A003)
    has_footer = pa.array(counts[s, _FOOTER] > 0)
    colored = pc.if_else(a003, pc.binary_join_element_wise(
        _lit('"colored_footer_regions": '), ints(n_colored[s]), _lit(", "),
        _lit("")), null)
    footer_flag = pc.if_else(
        pa.array(strat[s] == _A002), null,
        pc.if_else(has_footer, _lit(', "has_footer": true'),
                   _lit(', "has_footer": false')))
    a00x = pc.binary_join_element_wise(
        _lit("{"), colored,
        _lit('"footer_blocks": '), ints(counts[s, _FOOTER]), footer_flag,
        _lit(', "header_blocks": '), ints(counts[s, _HEADER]),
        _lit(', "left_column_blocks": '), ints(counts[s, _LEFT]),
        _lit(', "page_rect": [0.0, 0.0, '), reprs(width[s]), _lit(", "),
        reprs(height[s]),
        _lit('], "right_column_blocks": '), ints(counts[s, _RIGHT]),
        _lit(', "total_text_blocks": '), ints(n_blocks[s]),
        _lit(', "vertical_lines_detected": '), ints(n_vertical[s]),
        _lit("}"), _lit(""), null_handling="skip")
    if not a000.any():
        return a00x

    def boundary(values):     # NaN: no line
        return reprs(values, lambda v: "null" if v != v else repr(v))

    s = a000
    a000_json = pc.binary_join_element_wise(
        _lit('{"footer_blocks": '), ints(counts[s, _FOOTER]),
        _lit(', "footer_y_boundary": '), boundary(bottom[s]),
        _lit(', "header_blocks": '), ints(counts[s, _HEADER]),
        _lit(', "header_y_boundary": '), boundary(top[s]),
        _lit(', "left_column_blocks": '), ints(counts[s, _LEFT]),
        _lit(', "page_rect": [0.0, 0.0, '), reprs(width[s]), _lit(", "),
        reprs(height[s]),
        _lit('], "right_column_blocks": '), ints(counts[s, _RIGHT]),
        _lit(', "total_text_blocks_layoutlm": '), ints(n_blocks[s]),
        _lit(', "vertical_lines_detected_count": '), ints(n_vertical[s]),
        _lit("}"), _lit(""))
    return _merge(a000, a00x, a000_json)


def extract_batch(batch: pa.Table,
                  registry: Optional[Dict[str, str]] = None) -> pa.Table:
    """Pure batch body: one output row per input row, in input order.
    The keys and the tool pass through as Arrow columns (turn_idx
    narrowed to int32, a null tool filled with ""). Layout, html and
    plain turns under the built-in strategies run on the whole-batch
    paths; the rest cross into Python for the per-turn kernel."""
    reg = TOOL_STRATEGY_MAP if registry is None else registry
    conv_id = pc.cast(batch.column("conv_id"), pa.string())
    turn_idx = pc.cast(batch.column("turn_idx"), pa.int32())
    if turn_idx.null_count:
        raise ValueError("turn_idx must not be null")
    tool = pc.fill_null(pc.cast(batch.column("tool"), pa.string()), "")
    text = pc.cast(batch.column("text"), pa.large_string()).combine_chunks()
    n = batch.num_rows

    # strategy and payload family per row, looked up once per distinct
    # tool
    tools = pc.unique(tool).to_pylist()
    names = [reg.get(t, DEFAULT_STRATEGY) for t in tools]
    code = np.array([_CODES.index(s) if s in _CODES else -1 for s in names],
                    np.int8)
    family = np.array([_LAYOUT if t in LAYOUT_TOOLS else
                       _HTML if t == "html" else _PLAIN for t in tools],
                      np.int8)
    tool_of = _np(pc.index_in(tool, pa.array(tools, pa.string())))
    strat = code[tool_of]
    family = family[tool_of]

    batch = (strat >= 0) & _np(text.is_valid())
    layout, html, plain = (np.flatnonzero(batch & (family == f))
                           for f in (_LAYOUT, _HTML, _PLAIN))
    # one block chain over whatever the layout and html parsers decide
    chain_rows, pages = [np.zeros(0, np.int64)], []
    for rows, parse in ((layout, _parse_layout), (html, _parse_html)):
        if rows.size:
            undecided, parsed = parse(text.take(rows))
            chain_rows.append(rows[~undecided])
            pages.append(parsed)
    chain_rows = np.concatenate(chain_rows)
    parts = []
    if chain_rows.size:
        parts.append(_chain(strat[chain_rows], _concat_pages(*pages)))
    if plain.size:
        parts.append(_plain_turns(text.take(plain), strat[plain]))
    batch_rows = np.r_[chain_rows, plain]
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
        out.append(pa.concat_arrays([p[name] for p in parts]
                                    + [per_turn_col]).take(position))
    return pa.Table.from_arrays(out, schema=EXTRACTED_SCHEMA)
