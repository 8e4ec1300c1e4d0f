"""Pure per-turn extraction kernel (no Ray imports).

Faithful re-expression of the reference layout-extraction semantics
(``ai-tools-all/pdf-parser``) over *serialized* page payloads carried in
the ``text`` column of a transcript table row. One transcript turn is one
"page"; a conversation (``conv_id``) is one "document".

The payload families (see FIXTURES.md §1):

  (a) layout-serialized (``tool="pdf_layout" | "colored" | "vision"``)::

        #PAGE width,height
        #VLINE x0,y0,x1,y1                      -> page.get_drawings() line item
        #RECT x0,y0,x1,y1|r,g,b                 -> filled rect (colored footer)
        x0,y0,x1,y1|font_size|font_name|text    -> one TextBlock per line

  (b) HTML-ish (``tool="html"``) — DOM-lite parse assigns synthetic
      bboxes (html_parse.py), then the SAME classify-and-strip path runs.

  (c) plain text (any other tool, incl. ``""``) — whole-page fallback:
      the entire text becomes one block with font_size=12.0,
      font_name="Unknown" (reference A002_header_footer_2_col.py:94-106).

Reference semantics replicated bit-exactly (file:line cites refer to the
read-only reference at /root/reference):

  - tokenize:   A002_header_footer_2_col.py:64-108  (get_text_blocks)
  - vline scan: A002_header_footer_2_col.py:31-62   (abs(dx)<5, abs(dy)>100)
  - separator:  A002_header_footer_2_col.py:110-151 (longest line within
                0.3W of center; else scan range(int(0.3W),int(0.7W),10);
                default W/2)
  - colored bg: A003_colored_footer.py:155-175      (fill != [1,1,1])
  - classify:   A002:153-185 (0.15H / 0.90H), A003:177-244 (colored rects
                + keyword/short-digit footer, 0.95H), A004:152-199
                (0.10H / 0.95H, 'vision ias' keyword)
  - reading order: A002:187-221 (stable (y0,x0) sort, <10 line tolerance,
                " " within line, "\n" between lines)
  - orchestration + error containment: A002:223-280 (errors become
                metadata={'error': ...} records, never raised)
  - normalization: pdf_extractor_protocol.py:158-193 (2dp floats, sorted
                metadata keys, per-line strip)
  - reading-order assembly of extracted_text: C002_json_to_md.py:67-77
                (left then right joined with blank line; header first,
                footer last)

This is the per-turn path, scalar Python: one turn in, one record out.
The extraction stage (stages/extract.py) runs layout, html and plain
turns under every built-in strategy (a000/a002/a003/a004) as whole Arrow
batches instead and calls ``extract_turn`` only for what its batch
grammar cannot decide: null text, custom strategies, ``#CORRUPT``, html
payloads its tokenizer refuses and layout turns with a line its number
check cannot decide. The batch path reuses this module's constants,
``round2`` and the footer text predicates, and must produce the same
records; the per-turn path stays the reference the batch path is tested
against.
"""

from __future__ import annotations

import json
import math
import re
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

DEFAULT_PAGE_WIDTH = 612.0
DEFAULT_PAGE_HEIGHT = 792.0
#: tools whose payload is layout-serialized (family (a) above)
LAYOUT_TOOLS = ("pdf_layout", "colored", "vision", "layoutlm")

# A003_colored_footer.py:204-205
FOOTER_INDICATORS_A003 = (
    "page", "copyright", "©", "®", "www.", ".com", ".org",
    "all rights reserved", "confidential",
)
# A004_Vision_2025.py:163-164
FOOTER_INDICATORS_A004 = (
    "page", "copyright", "©", "www.", ".com", ".org",
    "all rights reserved", "vision ias",
)


class TextBlock(NamedTuple):
    text: str
    x0: float
    y0: float
    x1: float
    y1: float
    font_size: float
    font_name: str


# C-level sort keys for the hot reading-order sorts (attrgetter avoids a
# Python-frame lambda call per element; ordering is identical)
_KEY_Y0_X0 = attrgetter("y0", "x0")
_KEY_X0 = attrgetter("x0")


class ParsedPage(NamedTuple):
    width: float
    height: float
    blocks: List[TextBlock]
    vlines: List[Tuple[float, float, float, float]]   # raw line items
    rects: List[Tuple[Tuple[float, float, float, float],
                      Tuple[float, float, float, float]]]  # (bbox, rgb+pad)


class CorruptPayload(Exception):
    """Raised for an unparseable turn; caught by extract_turn into an
    error record (reference A002_header_footer_2_col.py:267-280)."""


# ---------------------------------------------------------------------------
# Payload parsing (the analog of page.get_text("dict") / get_drawings())
# ---------------------------------------------------------------------------

#: a directive number (FIXTURES.md §1): optional sign, digits, optional
#: fraction. A directive whose arguments do not fit is ignored like an
#: unknown one; ``float()`` alone would also take "inf", "1e2", "1_0"
#: or " 5".
NUM = r"[-+]?\d+(?:\.\d+)?"
_PAGE_ARGS = re.compile(rf"({NUM}),({NUM})")
_VLINE_ARGS = re.compile(rf"({NUM}),({NUM}),({NUM}),({NUM})")
_RECT_ARGS = re.compile(
    rf"({NUM}),({NUM}),({NUM}),({NUM})\|({NUM}),({NUM}),({NUM})")

def parse_layout_payload(text: str) -> ParsedPage:
    """Parse a layout-serialized turn payload into page geometry.

    Mirrors the reference tokenizer A002_header_footer_2_col.py:64-108:
    per-line records, span text stripped, empty lines dropped, malformed
    records skipped via length guards (A002:40,87), directives whose
    arguments are not ``NUM`` ignored.
    """
    width, height = DEFAULT_PAGE_WIDTH, DEFAULT_PAGE_HEIGHT
    blocks: List[TextBlock] = []
    vlines: List[Tuple[float, float, float, float]] = []
    rects: List[Tuple[Tuple[float, float, float, float],
                      Tuple[float, float, float, float]]] = []
    blocks_append = blocks.append     # hot loop: bind the method once

    for raw_line in text.split("\n"):
        line = raw_line.strip()
        if not line:
            continue
        if line[0] == "#":
            if line.startswith("#CORRUPT"):
                raise CorruptPayload("corrupt page payload")
            if line.startswith("#PAGE "):
                m = _PAGE_ARGS.fullmatch(line, 6)
                if m:
                    width, height = float(m[1]), float(m[2])
            elif line.startswith("#VLINE "):
                m = _VLINE_ARGS.fullmatch(line, 7)
                if m:
                    vlines.append(tuple(map(float, m.groups())))
            elif line.startswith("#RECT "):
                m = _RECT_ARGS.fullmatch(line, 6)
                if m:
                    nums = tuple(map(float, m.groups()))
                    rects.append((nums[:4], nums[4:]))
            # unknown directives ignored
            continue

        # TextBlock record: x0,y0,x1,y1|font_size|font_name|text
        parts = line.split("|", 3)
        if len(parts) != 4:
            continue  # malformed record skipped (A002:87 length guard)
        try:
            # tuple unpack doubles as the 4-coord length guard
            # (ValueError on any other count, same skip semantics)
            c0, c1, c2, c3 = parts[0].split(",")
            x0 = float(c0)
            y0 = float(c1)
            x1 = float(c2)
            y1 = float(c3)
            font_size = float(parts[1])
        except ValueError:
            continue
        block_text = parts[3].strip()  # A002:83-88: keep stripped non-empty
        if block_text:
            blocks_append(TextBlock(block_text, x0, y0, x1, y1,
                                    font_size, parts[2]))
    return ParsedPage(width, height, blocks, vlines, rects)


def plain_text_page(text: str) -> ParsedPage:
    """Whole-page fallback (A002_header_footer_2_col.py:94-106): the
    entire stripped text becomes one block spanning the page rect with
    font_size=12.0, font_name="Unknown"."""
    stripped = text.strip()
    blocks: List[TextBlock] = []
    if stripped:
        blocks.append(TextBlock(stripped, 0.0, 0.0,
                                DEFAULT_PAGE_WIDTH, DEFAULT_PAGE_HEIGHT,
                                12.0, "Unknown"))
    return ParsedPage(DEFAULT_PAGE_WIDTH, DEFAULT_PAGE_HEIGHT,
                      blocks, [], [])


# ---------------------------------------------------------------------------
# Geometry heuristics
# ---------------------------------------------------------------------------

def detect_vertical_lines(
    vlines: List[Tuple[float, float, float, float]],
) -> List[Tuple[float, float, float, float]]:
    """Keep near-vertical, long-enough line items
    (A002_header_footer_2_col.py:43: abs(dx) < 5 and abs(dy) > 100)."""
    out = []
    for x1, y1, x2, y2 in vlines:
        if abs(x2 - x1) < 5 and abs(y2 - y1) > 100:
            out.append((x1, y1, x2, y2))
    return out


def find_column_separator(
    page_width: float,
    blocks: List[TextBlock],
    vlines: List[Tuple[float, float, float, float]],
) -> Optional[float]:
    """Column separator choice (A002_header_footer_2_col.py:110-151).

    1. Longest detected vertical line whose midpoint is within 0.3*W of
       center -> its x midpoint.
    2. No blocks -> W/2.
    3. Scan separator_x in range(int(0.3W), int(0.7W), 10); first x with
       >=1 block fully left (x1 < sep) and >=1 fully right (x0 > sep),
       each side tested on its own (a block with x0 > x1 may count as
       both).
    4. Default W/2.
    """
    vertical = detect_vertical_lines(vlines)
    if vertical:
        center_x = page_width / 2
        best_line = None
        best_length = 0.0
        for line in vertical:
            x1, _y1, x2, y2 = line
            length = abs(y2 - line[1])
            distance_from_center = abs((x1 + x2) / 2 - center_x)
            if distance_from_center < page_width * 0.3 and length > best_length:
                best_line = line
                best_length = length
        if best_line:
            return (best_line[0] + best_line[2]) / 2

    if not blocks:
        return page_width / 2

    # Closed form of the scan: a block lies fully left of x iff its x1 <
    # x, so the first grid x with a block on each side is the first grid
    # point above the smallest x1, if it is also below the largest x0.
    # (NaN coordinates are on neither side, as in the scan.)
    lo, hi = int(page_width * 0.3), int(page_width * 0.7)
    left_edge = min((b.x1 for b in blocks if b.x1 == b.x1), default=math.inf)
    right_edge = max((b.x0 for b in blocks if b.x0 == b.x0),
                     default=-math.inf)
    if left_edge < lo:
        separator_x = lo
    elif left_edge < math.inf:
        separator_x = lo + ((math.floor(left_edge) - lo) // 10 + 1) * 10
    else:
        return page_width / 2
    if separator_x < hi and separator_x < right_edge:
        return float(separator_x)
    return page_width / 2


def detect_colored_footer_rects(
    rects, page_height: float,
) -> List[Tuple[float, float, float, float]]:
    """Non-white filled rects (A003_colored_footer.py:166) restricted to
    the bottom half (A003:188-191)."""
    out = []
    for bbox, fill in rects:
        if tuple(fill) != (1.0, 1.0, 1.0):
            if bbox[1] > page_height * 0.5:
                out.append(bbox)
    return out


def count_colored_backgrounds(rects) -> int:
    """Metadata count analog of detect_colored_backgrounds
    (A003_colored_footer.py:155-175): all non-white filled rects."""
    return sum(1 for _bbox, fill in rects if tuple(fill) != (1.0, 1.0, 1.0))


# ---------------------------------------------------------------------------
# Region classification strategies
# ---------------------------------------------------------------------------

def classify_a002(page: ParsedPage, separator_x: float) -> Dict[str, List[TextBlock]]:
    """Baseline classify (A002_header_footer_2_col.py:153-185):
    header = center_y < 0.15H; footer = center_y > 0.90H; else column."""
    header_threshold = page.height * 0.15
    footer_threshold = page.height * 0.9
    regions: Dict[str, List[TextBlock]] = {
        "header": [], "footer": [], "left_column": [], "right_column": []}
    for b in page.blocks:
        center_y = (b.y0 + b.y1) / 2
        center_x = (b.x0 + b.x1) / 2
        if center_y < header_threshold:
            regions["header"].append(b)
        elif center_y > footer_threshold:
            regions["footer"].append(b)
        elif center_x < separator_x:
            regions["left_column"].append(b)
        else:
            regions["right_column"].append(b)
    return regions


def classify_a003(page: ParsedPage, separator_x: float) -> Dict[str, List[TextBlock]]:
    """Colored-footer classify (A003_colored_footer.py:177-244)."""
    header_threshold = page.height * 0.15
    footer_regions = detect_colored_footer_rects(page.rects, page.height)

    footer_threshold = page.height * 0.95
    potential = [b for b in page.blocks
                 if (b.y0 + b.y1) / 2 > footer_threshold]
    has_footer = bool(potential) and is_footer_text_a003(
        [b.text for b in potential])

    regions: Dict[str, List[TextBlock]] = {
        "header": [], "footer": [], "left_column": [], "right_column": []}
    for b in page.blocks:
        center_y = (b.y0 + b.y1) / 2
        center_x = (b.x0 + b.x1) / 2
        in_colored_footer = False
        for fx0, fy0, fx1, fy1 in footer_regions:
            # full containment test (A003:225-230)
            if b.x0 >= fx0 and b.x1 <= fx1 and b.y0 >= fy0 and b.y1 <= fy1:
                in_colored_footer = True
                break
        if center_y < header_threshold:
            regions["header"].append(b)
        elif in_colored_footer or (has_footer and center_y > footer_threshold):
            regions["footer"].append(b)
        elif center_x < separator_x:
            regions["left_column"].append(b)
        else:
            regions["right_column"].append(b)
    return regions


def is_footer_text_a003(texts: List[str]) -> bool:
    """A003_colored_footer.py:200-215: the bottom-zone block texts, in
    page order, joined and lowered, hold a footer keyword or are short
    and hold a digit (both tests on the lowered text)."""
    footer_text = " ".join(texts).lower()
    if any(ind in footer_text for ind in FOOTER_INDICATORS_A003):
        return True
    return len(footer_text.strip()) < 50 and any(
        c.isdigit() for c in footer_text)


def is_footer_text_a004(text: str) -> bool:
    """A004_Vision_2025.py:160-170: one bottom-zone block's text holds a
    footer keyword (lowered) or is short and holds a digit."""
    text_lower = text.lower()
    if any(ind in text_lower for ind in FOOTER_INDICATORS_A004):
        return True
    return len(text.strip()) < 50 and any(c.isdigit() for c in text)


def _is_footer_a004(b: TextBlock, page_height: float) -> bool:
    """A004_Vision_2025.py:152-171 (called after the header branch, so
    only the bottom-zone tests matter here)."""
    y_center = (b.y0 + b.y1) / 2
    if y_center < page_height * 0.10:
        return True
    return y_center > page_height * 0.95 and is_footer_text_a004(b.text)


def classify_a004(page: ParsedPage, separator_x: float) -> Dict[str, List[TextBlock]]:
    """Vision classify (A004_Vision_2025.py:173-199): header = top 10%;
    footer via keyword/short-digit predicate in the bottom 5%."""
    regions: Dict[str, List[TextBlock]] = {
        "header": [], "footer": [], "left_column": [], "right_column": []}
    for b in page.blocks:
        center_x = (b.x0 + b.x1) / 2
        y_center = (b.y0 + b.y1) / 2
        if y_center < page.height * 0.10:
            regions["header"].append(b)
        elif _is_footer_a004(b, page.height):
            regions["footer"].append(b)
        elif center_x < separator_x:
            regions["left_column"].append(b)
        else:
            regions["right_column"].append(b)
    return regions


CLASSIFIERS = {
    "a002": classify_a002,
    "a003": classify_a003,
    "a004": classify_a004,
    # "a000" is registered below: it has its own whole-turn flow
    # (model tokenize + extent-based classify), not a plain classifier.
}


# ---------------------------------------------------------------------------
# A000 model-based strategy (A000_layoutlm_extractor.py)
# ---------------------------------------------------------------------------

def model_stub_blocks(blocks: List[TextBlock]) -> List[TextBlock]:
    """Deterministic stand-in for the layout model
    (A000_layoutlm_extractor.py:66-99): each native block becomes a
    model region with a semantic type; the region's text is the native
    text inside its bbox (J2 in-record lookup — identity here because
    regions coincide with blocks), font_size=-1.0, font_name
    "PDF_native" (A000:94-95). Type heuristic (fake model, stands in
    for PubLayNet faster_rcnn): large font -> Title, leading bullet ->
    List, else Text; all three pass the A000:82 type filter."""
    out = []
    for b in blocks:
        if b.font_size >= 13.0:
            btype = "Title"
        elif b.text.startswith(("-", "*", "•")):
            btype = "List"
        else:
            btype = "Text"
        if btype in ("Text", "Title", "List"):  # A000:82
            out.append(TextBlock(b.text, b.x0, b.y0, b.x1, b.y1,
                                 -1.0, "PDF_native"))
    return out


def detect_vertical_lines_a000(
    vlines, page_width: float, page_height: float,
) -> List[Tuple[float, float, float, float]]:
    """Relative thresholds (A000_layoutlm_extractor.py:121):
    abs(dx) < 0.01*W and abs(dy) > 0.2*H."""
    out = []
    for x0, y0, x1, y1 in vlines:
        if abs(x1 - x0) < page_width * 0.01 and abs(y1 - y0) > page_height * 0.2:
            out.append((x0, y0, x1, y1))
    return out


def find_column_separator_a000(page: ParsedPage, blocks: List[TextBlock]):
    """A000_layoutlm_extractor.py:128-181: returns (separator_x,
    line_y0, line_y1); center window 0.25*W; fallback scan on block
    CENTERS with step 5 requiring each side > 10% of blocks."""
    page_width = page.width
    separator_x = page_width / 2
    vertical = detect_vertical_lines_a000(page.vlines, page_width, page.height)
    if vertical:
        center_x = page_width / 2
        best_line = None
        best_length = 0.0
        for line in vertical:
            x0, y0, x1, y1 = line
            length = abs(y1 - y0)
            distance_from_center = abs((x0 + x1) / 2 - center_x)
            if distance_from_center < page_width * 0.25 and length > best_length:
                best_line = line
                best_length = length
        if best_line:
            return ((best_line[0] + best_line[2]) / 2,
                    best_line[1], best_line[3])
    if not blocks:
        return page_width / 2, None, None
    for test_x in range(int(page_width * 0.3), int(page_width * 0.7) + 1, 5):
        left_count = 0
        right_count = 0
        for b in blocks:
            cx = (b.x0 + b.x1) / 2
            if cx < test_x:
                left_count += 1
            elif cx > test_x:
                right_count += 1
        if (left_count > len(blocks) * 0.1
                and right_count > len(blocks) * 0.1):
            separator_x = float(test_x)
            break
    return separator_x, None, None


def classify_a000(blocks: List[TextBlock], page_height: float,
                  separator_x: float, header_y_max, footer_y_min):
    """A000_layoutlm_extractor.py:183-215: boundaries from the dominant
    line extent ±10, else 0.15H/0.90H; EDGE-based tests (y1 < header
    bound, y0 > footer bound)."""
    eff_header = (header_y_max + 10 if header_y_max is not None
                  else page_height * 0.15)
    eff_footer = (footer_y_min - 10 if footer_y_min is not None
                  else page_height * 0.9)
    regions: Dict[str, List[TextBlock]] = {
        "header": [], "footer": [], "left_column": [], "right_column": []}
    for b in blocks:
        if b.y1 < eff_header:
            regions["header"].append(b)
        elif b.y0 > eff_footer:
            regions["footer"].append(b)
        elif (b.x0 + b.x1) / 2 < separator_x:
            regions["left_column"].append(b)
        else:
            regions["right_column"].append(b)
    return regions


def blocks_to_text_a000(blocks: List[TextBlock]) -> str:
    """Overlap-based line grouping (A000_layoutlm_extractor.py:217-248):
    a block joins the current visual line while its y0 is above the
    line's max y1 + 10."""
    if not blocks:
        return ""
    sorted_blocks = sorted(blocks, key=_KEY_Y0_X0)
    lines = []
    current_line_blocks: List[TextBlock] = []
    current_line_y_max = -1.0
    for b in sorted_blocks:
        if not current_line_blocks or (b.y0 < current_line_y_max + 10):
            current_line_blocks.append(b)
            current_line_y_max = max(current_line_y_max, b.y1)
        else:
            lines.append(current_line_blocks)
            current_line_blocks = [b]
            current_line_y_max = b.y1
    if current_line_blocks:
        lines.append(current_line_blocks)
    return "\n".join(
        " ".join(b.text for b in sorted(line, key=_KEY_X0))
        for line in lines)


def _extract_turn_a000(page: ParsedPage, turn_idx: int) -> Dict:
    blocks = model_stub_blocks(page.blocks)
    separator_x, header_y_max, footer_y_min = \
        find_column_separator_a000(page, blocks)
    regions = classify_a000(blocks, page.height, separator_x,
                            header_y_max, footer_y_min)
    texts = [blocks_to_text_a000(regions[k]) for k in _REGIONS]
    metadata = {  # A000_layoutlm_extractor.py:271-281
        "total_text_blocks_layoutlm": len(blocks),
        "header_blocks": len(regions["header"]),
        "footer_blocks": len(regions["footer"]),
        "left_column_blocks": len(regions["left_column"]),
        "right_column_blocks": len(regions["right_column"]),
        "vertical_lines_detected_count": len(
            detect_vertical_lines_a000(page.vlines, page.width, page.height)),
        "page_rect": [0.0, 0.0, page.width, page.height],
        "header_y_boundary": header_y_max,
        "footer_y_boundary": footer_y_min,
    }
    return _record(turn_idx, page.width, page.height, separator_x,
                   *texts, metadata)


# ---------------------------------------------------------------------------
# Reading-order reconstruction
# ---------------------------------------------------------------------------

def blocks_to_text(blocks: List[TextBlock]) -> str:
    """Bit-exact reading order (A002_header_footer_2_col.py:187-221):
    stable sort by (y0, x0); group into visual lines while the block's
    y-midpoint is within <10 of the PREVIOUS block's midpoint (the
    anchor updates to each accepted block); within a line sort by x0 and
    join with " "; join lines with "\\n"."""
    if not blocks:
        return ""
    sorted_blocks = sorted(blocks, key=_KEY_Y0_X0)
    lines: List[List[TextBlock]] = []
    b0 = sorted_blocks[0]
    current_line: List[TextBlock] = [b0]
    current_y: float = (b0.y0 + b0.y1) / 2
    for b in sorted_blocks[1:]:
        block_y = (b.y0 + b.y1) / 2
        if -10 < block_y - current_y < 10:
            current_line.append(b)
        else:
            lines.append(current_line)
            current_line = [b]
        current_y = block_y
    lines.append(current_line)
    text_lines = []
    for line in lines:
        if len(line) == 1:
            text_lines.append(line[0].text)
        else:
            text_lines.append(
                " ".join(b.text for b in sorted(line, key=_KEY_X0)))
    return "\n".join(text_lines)


# ---------------------------------------------------------------------------
# Normalization (pdf_extractor_protocol.py:158-193)
# ---------------------------------------------------------------------------

def normalize_text_field(t: str) -> str:
    """Per-line strip + outer strip (pdf_extractor_protocol.py:186-191);
    falsy values pass through unchanged. Single-line fast path: the
    per-line strip and the outer strip coincide."""
    if not t:
        return t
    if "\n" not in t:
        return t.strip()
    return "\n".join(line.strip() for line in t.split("\n")).strip()


def round2(v: Optional[float]) -> Optional[float]:
    # reference uses truthiness, not `is not None` (protocol:174-179)
    return round(v, 2) if v else v


def canonical_metadata_json(metadata: Dict) -> str:
    """Sorted-key canonical JSON (pdf_extractor_protocol.py:181-183).

    Fast path for the hot per-turn shape (ASCII identifier keys;
    int/bool/float-list values — json encodes bools as true/false and
    floats via float.__repr__, both matched exactly here); anything
    else (error strings, nested dicts, keys with control/quote/
    backslash chars) falls back to json.dumps, so output is
    byte-identical either way (pinned by the equality suites). The
    per-key printable-ASCII scan is memoized: metadata keys are a
    handful of fixed identifiers, so the hot loop is one dict hit."""
    parts = []
    for k in sorted(metadata):
        v = metadata[k]
        if v is True:
            sv = "true"
        elif v is False:
            sv = "false"
        elif type(v) is int:
            sv = repr(v)
        elif type(v) is list and all(
                type(x) is float and -1e308 < x < 1e308 for x in v):
            # (json spells non-finite floats NaN/Infinity; repr says
            # nan/inf — non-finite lists take the fallback)
            sv = "[" + ", ".join(repr(x) for x in v) + "]"
        else:
            return json.dumps(metadata, sort_keys=True,
                              ensure_ascii=False)
        ok = _SAFE_KEY_CACHE.get(k)
        if ok is None:
            # printable-ASCII only, no quote/backslash: a control
            # character ('\n', '\t') must take json.dumps so it is
            # escaped, not emitted raw
            ok = (type(k) is str
                  and all(" " <= ch <= "~" for ch in k)
                  and '"' not in k and "\\" not in k)
            if len(_SAFE_KEY_CACHE) < 4096:
                _SAFE_KEY_CACHE[k] = ok
        if not ok:
            return json.dumps(metadata, sort_keys=True,
                              ensure_ascii=False)
        parts.append('"%s": %s' % (k, sv))
    return "{" + ", ".join(parts) + "}"


_SAFE_KEY_CACHE: Dict = {}


def assemble_extracted_text(header: str, left: str, right: str, footer: str) -> str:
    """Reading-order concat — the per-turn equality target. Columns are
    merged left-then-right with a blank line (C002_json_to_md.py:67-77);
    header leads and footer trails the page, same separator."""
    parts = [p for p in (header, left, right, footer) if p]
    return "\n\n".join(parts)


# ---------------------------------------------------------------------------
# Per-turn orchestration (A002_header_footer_2_col.py:223-280)
# ---------------------------------------------------------------------------

CLASSIFIERS["a000"] = None  # routed via the dedicated flow in extract_turn

OUTPUT_FIELDS = (
    "page_number", "header", "footer", "left_column", "right_column",
    "page_width", "page_height", "column_separator_position",
    "extracted_text", "metadata_json",
)

_REGIONS = ("header", "footer", "left_column", "right_column")


def _record(turn_idx: int, width: float, height: float,
            separator_x: Optional[float], header: str, footer: str,
            left: str, right: str, metadata: Dict) -> Dict:
    """The output record (OUTPUT_FIELDS) from one turn's region texts:
    the normalization pass of pdf_extractor_protocol.py:158-193."""
    header = normalize_text_field(header)
    footer = normalize_text_field(footer)
    left = normalize_text_field(left)
    right = normalize_text_field(right)
    return {
        "page_number": turn_idx + 1,
        "header": header,
        "footer": footer,
        "left_column": left,
        "right_column": right,
        "page_width": round2(width),
        "page_height": round2(height),
        "column_separator_position": round2(separator_x),
        "extracted_text": assemble_extracted_text(header, left, right,
                                                  footer),
        "metadata_json": canonical_metadata_json(metadata),
    }


def extract_turn(text: str, tool: str, turn_idx: int,
                 strategy: Optional[str] = None) -> Dict:
    """Extract one turn ("page") into the normalized output record.

    ``strategy`` selects the classify variant; when None it is resolved
    from ``tool`` via the strategy registry (strategies.py). Any
    exception becomes an error record with metadata={'error': str(e)} —
    never raised — so Ray task retries can never change output
    (A002_header_footer_2_col.py:267-280).
    """
    if strategy is None:
        from .strategies import get_strategy_for_tool
        strategy = get_strategy_for_tool(tool or "")
    try:
        if text is None:
            raise CorruptPayload("null text payload")
        if tool == "html":
            from .html_parse import parse_html_payload
            page = parse_html_payload(text)
        elif tool in LAYOUT_TOOLS:
            page = parse_layout_payload(text)
        else:
            page = plain_text_page(text)

        if strategy == "a000":
            return _extract_turn_a000(page, turn_idx)

        separator_x = find_column_separator(page.width, page.blocks, page.vlines)
        classify = CLASSIFIERS[strategy]
        regions = classify(page, separator_x)
        texts = [blocks_to_text(regions[k]) for k in _REGIONS]

        metadata = {
            "total_text_blocks": len(page.blocks),
            "header_blocks": len(regions["header"]),
            "footer_blocks": len(regions["footer"]),
            "left_column_blocks": len(regions["left_column"]),
            "right_column_blocks": len(regions["right_column"]),
            "vertical_lines_detected": len(detect_vertical_lines(page.vlines)),
            "page_rect": [0.0, 0.0, page.width, page.height],
        }
        if strategy == "a003":
            # A003_colored_footer.py:311-312
            metadata["colored_footer_regions"] = count_colored_backgrounds(page.rects)
            metadata["has_footer"] = len(regions["footer"]) > 0
        elif strategy == "a004":
            # A004_Vision_2025.py:274
            metadata["has_footer"] = len(regions["footer"]) > 0

        return _record(turn_idx, page.width, page.height, separator_x,
                       *texts, metadata)
    except Exception as e:  # noqa: BLE001 — record-level containment
        return _record(turn_idx, 0.0, 0.0, None, "", "", "", "",
                       {"error": str(e)})
