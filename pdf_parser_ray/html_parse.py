"""DOM-lite HTML → synthetic text blocks (boilerplate-strip fallback).

HTML-ish turns (``tool="html"``) carry ``<header>/<nav>/<main>/<footer>``
wrappers with two-column ``<div>``s inside ``<main>``. A DOM-lite parse
assigns deterministic synthetic bboxes so the SAME classify-and-strip
path used for layout-serialized turns recovers the regions — per the
reference's single-protocol design (pdf_extractor_protocol.py:52-115:
every extractor feeds one PageLayout shape) and the north-star
requirement that HTML fallbacks share the classify-and-strip path.

Synthetic geometry (612x792 page, chosen so the a002 thresholds
header<0.15H=118.8 / footer>0.90H=712.8 hold), one row of ``GEOMETRY``
per region:
  header/nav lines:  x 36..576, y0 = 20 + 14*i   (center_y <= ~106)
  left column div:   x 36..290, y0 = 140 + 16*i
  right column div:  x 322..576, y0 = 140 + 16*i
  footer lines:      x 36..576, y0 = 760 + 10*i  (center_y >= 766)
  column separator:  a synthetic vertical line at x=306 (y 130..750)

Two forms of the same grammar live here:
  ``parse_html_payload``  one turn, Python ``re``. The reference oracle
      and the per-turn kernel use it.
  ``html_block_columns``  a whole Arrow column. numpy finds the
      sections and divs over the UTF-8 bytes, RE2 replaces the line
      breakers and strips the tags of each fragment, and the lines land
      on ``GEOMETRY`` as block columns for the whole-batch block chain
      in ``stages/extract.py``. It folds tag letters in ASCII, so it
      refuses a payload holding ``ı`` or ``İ`` (``re.I`` folds both onto
      ``i``; that turn is parsed per turn), and its line-breaker class
      spells out Python's Unicode ``\\s``.
"""

from __future__ import annotations

import html as _html
import re
from typing import List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .kernel import TextBlock, ParsedPage

_TAG_BLOCKS = {
    "header": re.compile(r"<header[^>]*>(.*?)</header>", re.S | re.I),
    "nav": re.compile(r"<nav[^>]*>(.*?)</nav>", re.S | re.I),
    "main": re.compile(r"<main[^>]*>(.*?)</main>", re.S | re.I),
    "footer": re.compile(r"<footer[^>]*>(.*?)</footer>", re.S | re.I),
}
_DIV = re.compile(r"<div[^>]*>(.*?)</div>", re.S | re.I)
_LINE_BREAKERS = re.compile(r"<\s*(?:br\s*/?|/p|/li|/h[1-6]|/div)\s*>", re.I)
_ANY_TAG = re.compile(r"<[^>]+>")

PAGE_W, PAGE_H = 612.0, 792.0
SEPARATOR_VLINE = (306.0, 130.0, 306.0, 750.0)

#: region codes of the synthetic page
TOP, LEFT, RIGHT, FOOTER = range(4)
#: per region: x0, x1, first y0, y0 step, block height, font size
GEOMETRY = (
    (36.0, 576.0, 20.0, 14.0, 12.0, 12.0),    # header and nav lines
    (36.0, 290.0, 140.0, 16.0, 12.0, 11.0),   # first div / divless main
    (322.0, 576.0, 140.0, 16.0, 12.0, 11.0),  # further divs
    (36.0, 576.0, 760.0, 10.0, 10.0, 9.0),    # footer lines
)


def _text_lines(fragment: str) -> List[str]:
    """Tag-strip a fragment into stripped, non-empty text lines."""
    frag = _LINE_BREAKERS.sub("\n", fragment)
    frag = _ANY_TAG.sub("", frag)
    frag = _html.unescape(frag)
    return [ln.strip() for ln in frag.split("\n") if ln.strip()]


def _place(blocks: List[TextBlock], lines: List[str], region: int) -> None:
    x0, x1, y, step, height, size = GEOMETRY[region]
    for ln in lines:
        blocks.append(TextBlock(ln, x0, y, x1, y + height, size, "Html"))
        y += step


def parse_html_payload(text: str) -> ParsedPage:
    blocks: List[TextBlock] = []

    # header + nav stack from the top of the synthetic page
    top: List[str] = []
    for section in ("header", "nav"):
        m = _TAG_BLOCKS[section].search(text)
        if m:
            top.extend(_text_lines(m.group(1)))
    _place(blocks, top, TOP)

    # main content: first <div> = left column, second = right column,
    # extra divs continue in the right column; divless <main> text flows
    # into the left column.
    m = _TAG_BLOCKS["main"].search(text)
    if m:
        body = m.group(1)
        divs = _DIV.findall(body)
        if divs:
            _place(blocks, _text_lines(divs[0]), LEFT)
            right: List[str] = []
            for extra in divs[1:]:
                right.extend(_text_lines(extra))
            _place(blocks, right, RIGHT)
        else:
            _place(blocks, _text_lines(body), LEFT)

    m = _TAG_BLOCKS["footer"].search(text)
    if m:
        _place(blocks, _text_lines(m.group(1)), FOOTER)

    # no wrappers at all -> treat entire payload as divless main text
    if not blocks and not any(p.search(text) for p in _TAG_BLOCKS.values()):
        _place(blocks, _text_lines(text), LEFT)

    return ParsedPage(PAGE_W, PAGE_H, blocks, [SEPARATOR_VLINE], [])


# ---------------------------------------------------------------------------
# The same grammar over a whole Arrow column
# ---------------------------------------------------------------------------

#: Python's ``\\s`` (``str.isspace``; none lies above U+3000): RE2's
#: ``\\s`` is ASCII only and leaves out ``\\x0b``
_S = "[" + "".join(f"\\x{{{c:x}}}" for c in range(0x3001)
                   if chr(c).isspace()) + "]"
_RE2_LINE_BREAKERS = rf"(?i)<{_S}*(?:br{_S}*/?|/p|/li|/h[1-6]|/div){_S}*>"
#: UTF-8 of the two letters ``re.I`` folds onto ``i`` beyond ASCII (ı,
#: İ): the tokenizer's case folding is ASCII, so it refuses them
_LEAD, _FOLDS_TO_I = 0xC4, (0xB0, 0xB1)
_NONE = np.iinfo(np.int64).max // 2


def _tag_positions(buf: np.ndarray, lt: np.ndarray, tags) -> dict:
    """Per tag (each starts with "<", at most 9 bytes): the sorted
    positions in ``buf`` where it begins, its letters matched in either
    ASCII case. The 8 bytes after each "<", case-folded, pack into one
    uint64, so each tag is one masked compare."""
    window = np.r_[buf, np.zeros(8, np.uint8)][lt[:, None] + np.arange(1, 9)]
    folded = window | 0x20
    packed = np.where(folded - ord("a") < 26, folded, window).view("<u8")[:, 0]
    found = {}
    for tag in tags:
        rest = tag[1:].encode()
        mask = (1 << 8 * len(rest)) - 1
        found[tag] = lt[packed & mask == int.from_bytes(rest, "little")]
    return found


def _first(found: np.ndarray, at: np.ndarray, end: np.ndarray,
           size: int) -> np.ndarray:
    """Per row: the first of the sorted positions ``found`` at or after
    ``at`` whose ``size`` bytes end by ``end``; -1 where there is none
    or ``at`` is -1."""
    p = np.r_[found, _NONE][np.searchsorted(found, at)]
    return np.where((at >= 0) & (p + size <= end), p, -1)


def _element(tags, gt, name, start, end):
    """``<name[^>]*>(.*?)</name>`` searched in each [start, end) byte
    range: (body start, body end), -1 where no match. ``tags`` holds
    the positions of ``<name`` and ``</name>``. A later ``<name`` can
    match only if the first one does."""
    tag = _first(tags["<" + name], start, end, len(name) + 1)
    opened = _first(gt, np.where(tag >= 0, tag + len(name) + 1, -1), end, 1)
    body = np.where(opened >= 0, opened + 1, -1)
    close = _first(tags[f"</{name}>"], body, end, len(name) + 3)
    return np.where(close >= 0, body, -1), close


def _slices(data: pa.Buffer, start: np.ndarray, end: np.ndarray) -> pa.Array:
    """The byte ranges [start, end) of ``data`` as strings, zero copy;
    the ranges must be ascending and disjoint."""
    if not start.size:
        return pa.array([], pa.large_string())
    bounds = np.empty(2 * start.size, np.int64)
    bounds[0::2], bounds[1::2] = start, end
    # odd rows are the gaps between the ranges
    both = pa.LargeStringArray.from_buffers(
        bounds.size - 1, pa.py_buffer(bounds), data)
    return both.take(np.arange(0, bounds.size, 2))


def _fragment_lines(frags: pa.Array):
    """``_text_lines`` of every fragment: (fragment index per line, the
    lines). ``html.unescape`` runs in Python, on fragments with ``&``."""
    frags = pc.replace_substring_regex(frags, _RE2_LINE_BREAKERS, "\n")
    frags = pc.replace_substring_regex(frags, "<[^>]+>", "")
    amp = pc.match_substring(frags, "&")
    if amp.true_count:
        frags = pc.replace_with_mask(frags, amp, pa.array(
            [_html.unescape(f) for f in frags.filter(amp).to_pylist()],
            pa.large_string()))
    lines = pc.split_pattern(frags, "\n")
    frag_of = pc.list_parent_indices(lines).to_numpy()
    flat = pc.utf8_trim_whitespace(pc.list_flatten(lines))
    keep = pc.greater(pc.binary_length(flat), 0)
    return frag_of[keep.to_numpy(zero_copy_only=False)], flat.filter(keep)


def html_block_columns(text: pa.Array):
    """``parse_html_payload`` over ``text`` (large_string, no nulls).

    The sections and divs are found with numpy over the UTF-8 bytes
    (tags in ASCII case folding); RE2 replaces the line breakers and
    strips the tags of each fragment. Returns (refused mask over the
    turns, then per block of the other turns, renumbered 0..n-1 and in
    page order: turn, x0, y0, x1, y1, text). Every page is PAGE_W x
    PAGE_H with the one SEPARATOR_VLINE.
    """
    _, offsets, data = text.buffers()
    data = data or pa.py_buffer(b"")
    buf = np.frombuffer(data, np.uint8)
    offsets = np.frombuffer(offsets, np.int64)[
        text.offset:text.offset + len(text) + 1]
    lead = np.flatnonzero(buf[:-1] == _LEAD)
    folds = lead[np.isin(buf[lead + 1], _FOLDS_TO_I)]
    refused = np.zeros(len(text), bool)
    refused[np.searchsorted(offsets, folds, "right") - 1] = True
    owned = np.flatnonzero(~refused)
    start, end = offsets[owned], offsets[owned + 1]
    names = ("header", "nav", "main", "footer", "div")
    tags = _tag_positions(buf, np.flatnonzero(buf == ord("<")),
                          [t for n in names for t in ("<" + n, f"</{n}>")])
    gt = np.flatnonzero(buf == ord(">"))

    # fragments: (turn, slot, order, text); slots 0 header, 1 nav, 2 the
    # first div or divless main or a payload without wrappers, 3 the
    # other divs, 4 footer. One add() holds ascending disjoint ranges.
    frags = []

    def add(turn, slot, order, a, b):
        frags.append((turn, np.broadcast_to(slot, turn.shape),
                      np.broadcast_to(order, turn.shape),
                      _slices(data, a, b)))

    sections = {name: _element(tags, gt, name, start, end)
                for name in names[:4]}
    for slot, name in ((0, "header"), (1, "nav"), (4, "footer")):
        a, b = sections[name]
        has = np.flatnonzero(a >= 0)
        add(has, slot, 0, a[has], b[has])
    a, b = sections["main"]
    mains = np.flatnonzero(a >= 0)
    rows, cursor, body_end = np.arange(mains.size), a[mains], b[mains]
    divless = np.ones(mains.size, bool)
    k = 0
    while rows.size:          # findall: the k-th div of every main
        a, b = _element(tags, gt, "div", cursor, body_end)
        ok = a >= 0
        rows, a, b = rows[ok], a[ok], b[ok]
        add(mains[rows], 2 if k == 0 else 3, k, a, b)
        divless[rows] = False
        cursor, body_end, k = b + len("</div>"), body_end[ok], k + 1
    a, b = sections["main"]
    body = mains[divless]
    add(body, 2, 0, a[body], b[body])
    bare = np.flatnonzero(np.all([a < 0 for a, _ in sections.values()],
                                 axis=0))
    add(bare, 2, 0, start[bare], end[bare])

    turn, slot, order = (np.concatenate(c) for c in list(zip(*frags))[:3])
    first = np.lexsort((order, slot, turn))
    frag_of, block_text = _fragment_lines(
        pa.concat_arrays([f[3] for f in frags]).take(first))
    bt = turn[first][frag_of]
    region = np.array([TOP, TOP, LEFT, RIGHT, FOOTER])[slot[first][frag_of]]

    # the i-th line of a (turn, region) sits i steps down its column
    key = bt * 4 + region
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]]) \
        if key.size else np.zeros(0, np.int64)
    rank = np.arange(key.size) - np.repeat(
        starts, np.diff(np.r_[starts, key.size]))
    x0, x1, y, step, height, _ = np.array(GEOMETRY)[region].T
    y0 = y + step * rank
    return refused, bt, x0, y0, x1, y0 + height, block_text
