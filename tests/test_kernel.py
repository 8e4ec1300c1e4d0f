"""Golden unit tests for the pure per-turn kernel — every heuristic
branch of SURVEY.md §2.2 M1-M14 exercised with hand-built payloads."""

import json
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from pdf_parser_ray import kernel
from pdf_parser_ray.kernel import (
    TextBlock, blocks_to_text, extract_turn, find_column_separator,
    parse_layout_payload,
)
from tests.reference_oracle import oracle_extract_turn

W, H = 612.0, 792.0


def blk(text, x0, y0, x1, y1):
    return TextBlock(text, x0, y0, x1, y1, 11.0, "Times")


# ---------------------------------------------------------------- tokenizer

def test_parse_layout_payload_basic():
    page = parse_layout_payload(
        "#PAGE 612.0,792.0\n"
        "#VLINE 306.0,140.0,306.0,700.0\n"
        "#RECT 40.0,720.0,570.0,780.0|0.9,0.9,0.5\n"
        "40.0,150.0,280.0,162.0|11.0|Times|hello world\n"
        "   \n"
        "malformed line no pipes\n"
        "1,2|too|few\n"
        "a,b,c,d|11|Times|bad coords\n"
        "40.0,170.0,280.0,182.0|11.0|Times|  spaced  \n")
    assert page.width == 612.0 and page.height == 792.0
    assert len(page.vlines) == 1 and len(page.rects) == 1
    assert [b.text for b in page.blocks] == ["hello world", "spaced"]


def test_parse_keeps_pipes_in_text():
    page = parse_layout_payload("10,10,20,20|9.0|F|a | b | c")
    assert page.blocks[0].text == "a | b | c"


@pytest.mark.parametrize("directive", [
    "#PAGE inf,1e2", "#PAGE nan,792", "#PAGE 1_0,792", "#PAGE .5,792",
    "#PAGE 612, 792", "#PAGE  612,792", "#PAGE 612,792,1",
    "#VLINE 306,140,306,7e2", "#VLINE inf,0,inf,700",
    "#RECT 40,720,570,780|0.9,0.9,-inf", "#RECT 40,720,570,7.8e2|1,1,1",
])
def test_directive_outside_number_grammar_is_ignored(directive):
    """A #PAGE/#VLINE/#RECT whose numbers are not ``kernel.NUM`` is
    ignored like an unknown directive, as in the reference oracle;
    ``float()`` alone took "inf" and made the turn an error record."""
    payload = ("#PAGE 500,700\n" + directive +
               "\n40,150,180,162|11|T|left\n330,150,470,162|11|T|right")
    for tool in ("pdf_layout", "colored", "vision"):
        rec = extract_turn(payload, tool, 0)
        assert rec == oracle_extract_turn(payload, tool, 0)
        assert "error" not in rec["metadata_json"]
        assert rec["page_width"] == 500.0


def test_directive_grammar_takes_signs_and_unicode_digits():
    # the oracle's \d is Unicode, like the kernel's
    payload = "#PAGE +６１２,0792.50\n40,150,180,162|11|T|x"
    page = parse_layout_payload(payload)
    assert (page.width, page.height) == (612.0, 792.5)
    assert extract_turn(payload, "pdf_layout", 0) == \
        oracle_extract_turn(payload, "pdf_layout", 0)


def test_parse_empty_text_blocks_dropped():
    page = parse_layout_payload("10,10,20,20|9.0|F|   ")
    assert page.blocks == []


def test_corrupt_payload_becomes_error_record():
    rec = extract_turn("#CORRUPT nope", "pdf_layout", 4)
    assert rec["page_number"] == 5
    assert rec["page_width"] == 0.0 and rec["page_height"] == 0.0
    assert rec["column_separator_position"] is None
    assert rec["extracted_text"] == ""
    assert json.loads(rec["metadata_json"])["error"] == "corrupt page payload"


# ------------------------------------------------------- separator choice

def test_separator_prefers_longest_center_line():
    vlines = [(300.0, 100.0, 300.0, 300.0),   # length 200
              (310.0, 100.0, 310.0, 700.0),   # length 600 -> wins
              (50.0, 0.0, 50.0, 792.0)]       # long but off-center (|50-306|=256 > 183.6)
    assert find_column_separator(W, [], vlines) == 310.0


def test_separator_ignores_short_and_slanted_lines():
    vlines = [(306.0, 300.0, 306.0, 360.0),   # dy=60 < 100
              (100.0, 100.0, 400.0, 700.0)]   # dx too big
    # falls through to: no blocks -> W/2
    assert find_column_separator(W, [], vlines) == W / 2


def test_separator_scan_finds_first_split():
    blocks = [blk("L", 40, 150, 280, 162), blk("R", 330, 150, 570, 162)]
    # range(183, 428, 10): first x with L fully left (280 < x) and R fully
    # right (330 > x) is 283
    assert find_column_separator(W, blocks, []) == 283.0


def test_separator_counts_inverted_block_on_both_sides():
    """A block with x0 > x1 is left of x (x1 < x) and right of x (x0 > x)
    at once; the reference tests the two sides independently."""
    payload = ("#PAGE 612.0,792.0\n"
               "400.0,300.0,100.0,320.0|11.0|Times|inverted")
    rec = extract_turn(payload, "pdf_layout", 0)
    assert rec["column_separator_position"] == 183.0
    assert rec == oracle_extract_turn(payload, "pdf_layout", 0)
    assert find_column_separator(W, [blk("i", 400, 300, 100, 320)], []) \
        == 183.0


def test_separator_grid_edges():
    # first grid point strictly above the smallest x1 (x1 = 283 -> 293),
    # and strictly below the largest x0 (x0 = 293 -> none -> W/2)
    assert find_column_separator(
        W, [blk("L", 0, 0, 283, 1), blk("R", 294, 0, 400, 1)], []) == 293.0
    assert find_column_separator(
        W, [blk("L", 0, 0, 283, 1), blk("R", 293, 0, 400, 1)], []) == W / 2
    # the grid ends at 423 (range(183, 428, 10))
    assert find_column_separator(
        W, [blk("L", 0, 0, 422, 1), blk("R", 500, 0, 600, 1)], []) == 423.0
    assert find_column_separator(
        W, [blk("L", 0, 0, 423, 1), blk("R", 500, 0, 600, 1)], []) == W / 2
    # NaN coordinates are on neither side
    nan = float("nan")
    assert find_column_separator(
        W, [blk("n", nan, 0, nan, 1), blk("L", 0, 0, 100, 1),
            blk("R", 300, 0, 400, 1)], []) == 183.0


def test_separator_default_half_width():
    blocks = [blk("wide", 40, 150, 570, 162)]  # spans both sides
    assert find_column_separator(W, blocks, []) == W / 2


# ------------------------------------------------------------ classify a002

def test_a002_regions():
    payload = "\n".join([
        f"#PAGE {W},{H}",
        "#VLINE 306.0,140.0,306.0,700.0",
        "40.0,30.0,570.0,42.0|14.0|Bold|The Header",        # cy=36 < 118.8
        "40.0,150.0,280.0,162.0|11.0|Times|left text",
        "330.0,150.0,570.0,162.0|11.0|Times|right text",
        "40.0,770.0,570.0,780.0|8.0|Times|Page 7",          # cy=775 > 712.8
    ])
    rec = extract_turn(payload, "pdf_layout", 0)
    assert rec["header"] == "The Header"
    assert rec["left_column"] == "left text"
    assert rec["right_column"] == "right text"
    assert rec["footer"] == "Page 7"
    assert rec["column_separator_position"] == 306.0
    md = json.loads(rec["metadata_json"])
    assert md["total_text_blocks"] == 4
    assert md["vertical_lines_detected"] == 1
    assert md["page_rect"] == [0.0, 0.0, W, H]
    assert rec["extracted_text"] == "The Header\n\nleft text\n\nright text\n\nPage 7"


# ------------------------------------------------------------ classify a003

def _a003_payload(footer_line, rects=()):
    lines = [f"#PAGE {W},{H}", "#VLINE 306.0,140.0,306.0,700.0"]
    lines += list(rects)
    lines += [
        "40.0,150.0,280.0,162.0|11.0|Times|body left",
        "330.0,150.0,570.0,162.0|11.0|Times|body right",
        footer_line,
    ]
    return "\n".join(lines)


def test_a003_keyword_footer():
    # cy = 776 > 0.95*792 = 752.4 and contains 'copyright'
    rec = extract_turn(_a003_payload(
        "40.0,770.0,570.0,782.0|8.0|Times|Copyright © example.com"),
        "colored", 0)
    assert rec["footer"] == "Copyright © example.com"
    assert json.loads(rec["metadata_json"])["has_footer"] is True


def test_a003_short_digit_footer():
    rec = extract_turn(_a003_payload(
        "290.0,770.0,330.0,782.0|8.0|Times|17"), "colored", 0)
    assert rec["footer"] == "17"


def test_a003_long_plain_footer_not_stripped():
    # >=50 chars, no keyword, no colored rect -> has_footer False,
    # the block stays in a column (reference behavior)
    long_text = "x" * 60
    rec = extract_turn(_a003_payload(
        f"40.0,770.0,570.0,782.0|8.0|Times|{long_text}"), "colored", 0)
    assert rec["footer"] == ""
    assert long_text in rec["left_column"] + rec["right_column"]


def test_a003_colored_rect_containment():
    # block fully inside a non-white bottom-half rect -> footer even
    # though its center_y (741) is below the 0.95H threshold
    rects = ["#RECT 30.0,700.0,580.0,780.0|0.9,0.9,0.5"]
    payload = _a003_payload("40.0,735.0,570.0,747.0|8.0|Times|inside rect",
                            rects)
    rec = extract_turn(payload, "colored", 0)
    assert rec["footer"] == "inside rect"
    md = json.loads(rec["metadata_json"])
    assert md["colored_footer_regions"] == 1


def test_a003_white_and_tophalf_rects_ignored():
    rects = ["#RECT 30.0,700.0,580.0,780.0|1.0,1.0,1.0",   # white
             "#RECT 30.0,100.0,580.0,200.0|0.5,0.5,0.5"]   # top half
    payload = _a003_payload("40.0,735.0,570.0,747.0|8.0|Times|not footer",
                            rects)
    rec = extract_turn(payload, "colored", 0)
    assert rec["footer"] == ""
    assert json.loads(rec["metadata_json"])["colored_footer_regions"] == 1


# ------------------------------------------------------------ classify a004

def test_a004_header_ten_percent():
    # cy=90 < 0.10*792=79.2? No: 90 > 79.2 -> NOT header under a004,
    # but would be under a002's 15% rule.
    payload = "\n".join([
        f"#PAGE {W},{H}",
        "#VLINE 306.0,140.0,306.0,700.0",
        "40.0,60.0,570.0,72.0|14.0|Bold|top band a",   # cy=66 < 79.2 header
        "40.0,84.0,570.0,96.0|14.0|Bold|top band b",   # cy=90 -> column
    ])
    rec = extract_turn(payload, "vision", 0)
    assert rec["header"] == "top band a"
    assert "top band b" in rec["left_column"] + rec["right_column"]


def test_a004_vision_ias_keyword():
    payload = "\n".join([
        f"#PAGE {W},{H}",
        "#VLINE 306.0,140.0,306.0,700.0",
        "40.0,770.0,570.0,782.0|8.0|Times|VISION IAS academy material list",
    ])
    rec = extract_turn(payload, "vision", 0)
    assert rec["footer"] == "VISION IAS academy material list"


# ------------------------------------------------- reading order / lines

def test_blocks_to_text_line_grouping_and_sort():
    blocks = [
        blk("world", 300, 100, 400, 112),
        blk("hello", 100, 101, 200, 113),   # same visual line, left first
        blk("next", 100, 130, 200, 142),
    ]
    assert blocks_to_text(blocks) == "hello world\nnext"


def test_blocks_to_text_anchor_drift():
    # midpoints 106, 114, 122: each within <10 of the PREVIOUS anchor,
    # though 122-106=16 — the anchor updates per accepted block.
    blocks = [blk("a", 0, 100, 10, 112), blk("b", 0, 108, 10, 120),
              blk("c", 0, 116, 10, 128)]
    assert blocks_to_text(blocks) == "a b c"


def test_blocks_to_text_tolerance_boundary():
    # midpoint delta exactly 10 -> NOT grouped (strict <)
    blocks = [blk("a", 0, 100, 10, 112), blk("b", 0, 110, 10, 122)]
    assert blocks_to_text(blocks) == "a\nb"


def test_blocks_to_text_stable_tie():
    # equal (y0, x0): stable sort preserves input order
    blocks = [blk("first", 50, 100, 60, 112), blk("second", 50, 100, 60, 112)]
    assert blocks_to_text(blocks) == "first second"


# ------------------------------------------------------- fallback + html

def test_plain_text_fallback_whole_page_block():
    rec = extract_turn("just a plain\nanswer text", "", 2)
    # one block covering the page rect: cy = H/2 -> column zone; cx = W/2
    # vs separator W/2 -> not < -> right column (reference geometry)
    assert rec["right_column"] == "just a plain\nanswer text"
    assert rec["left_column"] == "" and rec["header"] == ""
    assert rec["page_width"] == 612.0
    md = json.loads(rec["metadata_json"])
    assert md["total_text_blocks"] == 1


def test_empty_and_whitespace_payloads():
    for payload in ("", "   \n\t  "):
        rec = extract_turn(payload, "", 0)
        assert rec["extracted_text"] == ""
        assert json.loads(rec["metadata_json"])["total_text_blocks"] == 0


def test_html_boilerplate_strip():
    payload = ("<html><body><header><h1>Site Title</h1></header>"
               "<nav>Home | About</nav>"
               "<main><div><p>left para one</p><p>left para two</p></div>"
               "<div><p>right para</p></div></main>"
               "<footer>© 2025 example.org</footer></body></html>")
    rec = extract_turn(payload, "html", 0)
    assert rec["header"] == "Site Title\nHome | About"
    assert rec["left_column"] == "left para one\nleft para two"
    assert rec["right_column"] == "right para"
    assert rec["footer"] == "© 2025 example.org"
    assert rec["column_separator_position"] == 306.0


# ------------------------------------------------------- normalization

def test_normalization_strips_lines_and_rounds():
    payload = "\n".join([
        "#PAGE 595.275591,841.889764",
        "#VLINE 297.64,140.0,297.64,700.0",
        "40.0,150.0,280.0,162.0|11.0|Times|  padded  ",
    ])
    rec = extract_turn(payload, "pdf_layout", 0)
    assert rec["page_width"] == 595.28
    assert rec["page_height"] == 841.89
    assert rec["column_separator_position"] == 297.64
    assert rec["left_column"] == "padded"


def test_metadata_json_sorted_keys():
    rec = extract_turn("plain", "", 0)
    md = rec["metadata_json"]
    keys = list(json.loads(md).keys())
    assert keys == sorted(keys)


def test_canonical_metadata_json_control_char_keys():
    """ADVICE r3: a key with an ASCII control character must take the
    json.dumps fallback (escaped), not the raw fast path — pinned
    byte-identical to json.dumps for every key shape."""
    import json
    from pdf_parser_ray.kernel import canonical_metadata_json
    for md in ({"a\nb": 1}, {"a\tb": 2}, {"\x00k": 3},
               {"plain": 4}, {"mixed": True, "x\ry": [1.5]}):
        assert canonical_metadata_json(md) == json.dumps(
            md, sort_keys=True, ensure_ascii=False), md


def test_chunk_audio_rejects_gapping_stride():
    """ADVICE r3: stride > window would silently skip bytes between
    windows; it must raise instead."""
    import pytest
    from pdf_parser_ray.stages.multimodal import ChunkAudio
    with pytest.raises(ValueError, match="stride"):
        ChunkAudio(window=32, stride=48)
    ChunkAudio(window=32, stride=32)  # contiguous, zero overlap: fine


# ------------------------------- Arrow string rules the batch path uses

_CODE_POINTS = [chr(c) for c in range(sys.maxunicode + 1)
                if not 0xD800 <= c <= 0xDFFF]


def test_arrow_trim_whitespace_equals_str_strip():
    """The batch path trims lines and block texts with
    ``utf8_trim_whitespace``; the per-turn path uses ``str.strip``."""
    wrapped = [f"{c}{c}x{c}" for c in _CODE_POINTS]
    got = pc.utf8_trim_whitespace(pa.array(wrapped)).to_pylist()
    assert [i for i, (g, w) in enumerate(zip(got, wrapped))
            if g != w.strip()] == []


def test_arrow_lower_and_is_digit_differ_from_str():
    """Why the footer keyword tests stay in Python: ``utf8_lower`` and
    ``utf8_is_digit`` are not ``str.lower`` / ``str.isdigit``. An Arrow
    upgrade that changes either fact fails here."""
    arr = pa.array(_CODE_POINTS)
    lower = pc.utf8_lower(arr).to_pylist()
    assert [hex(ord(c)) for c, g in zip(_CODE_POINTS, lower)
            if g != c.lower()] == ["0x130"]
    digit = pc.utf8_is_digit(arr).to_pylist()
    assert sum(g != c.isdigit() for c, g in zip(_CODE_POINTS, digit)) == 128


# ------------------------------------------------------ strategy registry

def test_register_strategy_refuses_builtin_name_for_custom_classifier():
    from pdf_parser_ray import strategies

    def mine(page, separator_x):
        return kernel.classify_a002(page, separator_x)

    for name in ("a000", "a002", "a003", "a004"):
        with pytest.raises(ValueError, match="built in"):
            strategies.register_strategy("custom_tool", name, mine)
    assert kernel.CLASSIFIERS["a002"] is kernel.classify_a002
    assert "custom_tool" not in strategies.TOOL_STRATEGY_MAP
    try:
        strategies.register_strategy("custom_tool", "mine", mine)
        assert kernel.CLASSIFIERS["mine"] is mine
        rec = extract_turn("40,150,180,162|11|T|x", "pdf_layout", 0, "mine")
        assert rec == extract_turn("40,150,180,162|11|T|x", "pdf_layout", 0,
                                   "a002")
        strategies.register_strategy("other_tool", "a003")   # no classifier
    finally:
        kernel.CLASSIFIERS.pop("mine", None)
        strategies.TOOL_STRATEGY_MAP.pop("custom_tool", None)
        strategies.TOOL_STRATEGY_MAP.pop("other_tool", None)
