"""html and a000 turns on the whole-batch block chain: property tests of
``stages/extract.extract_batch`` against ``tests/reference_oracle``,
under the default routing and under every forced built-in strategy, and
the per-turn share that is left."""

import re
import sys
from unittest import mock

import hypothesis.strategies as st
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import HealthCheck, given, settings

from pdf_parser_ray import html_parse
from pdf_parser_ray.html_parse import parse_html_payload
from pdf_parser_ray.kernel import LAYOUT_TOOLS
from pdf_parser_ray.sources.transcripts import transcripts_table
from pdf_parser_ray.stages import extract
from tests import reference_oracle
from tests.reference_oracle import (A000OracleExtractor, OPage, OTextBlock,
                                    OracleExtractor, oracle_extract_turn)
from tests.test_derived_pipelines import SF_DIR
from tests.test_property_kernel import extract_counting, transcript

_SETTINGS = dict(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])
_FORCED = ("a000", "a002", "a003", "a004")


def oracle_page(text, tool):
    """The page the oracle's a002 flow parses for ``tool``."""
    if tool == "html":
        hp = parse_html_payload(text)
        return OPage(hp.width, hp.height,
                     [OTextBlock(b.text, (b.x0, b.y0, b.x1, b.y1),
                                 b.font_size, b.font_name)
                      for b in hp.blocks], list(hp.vlines), [])
    if tool in LAYOUT_TOOLS:
        return reference_oracle.parse_page(text)
    stripped = text.strip()
    return OPage(612.0, 792.0,
                 [OTextBlock(stripped, (0.0, 0.0, 612.0, 792.0), 12.0,
                             "Unknown")] if stripped else [], [], [])


def oracle(text, tool, turn_idx, strategy=None):
    """The oracle's record under ``strategy`` (None: the tool's own)."""
    if strategy is None:
        return oracle_extract_turn(text, tool, turn_idx)
    if strategy != "a000":
        return OracleExtractor(strategy).extract_page_layout(
            text, tool, turn_idx)
    # the a000 oracle parses every payload as layout; give it the page
    # the engine parses for the tool
    try:
        page = oracle_page(text, tool)
    except ValueError:      # #CORRUPT: let the oracle's own parse raise
        return A000OracleExtractor().extract_page_layout(text, turn_idx)
    with mock.patch.object(reference_oracle, "parse_page",
                           lambda _text: page):
        return A000OracleExtractor().extract_page_layout(text, turn_idx)


def check_rows(rows, strategy=None):
    """extract_batch over ``rows`` equals the oracle; returns how many
    turns took the per-turn path."""
    registry = None if strategy is None else {
        tool: strategy for _, tool in rows}
    out, per_turn = extract_counting(transcript(rows), registry)
    for (text, tool), got in zip(rows, out.to_pylist()):
        want = oracle(text, tool, got["turn_idx"], strategy)
        assert {k: got[k] for k in want} == want, (text, tool, strategy)
    return per_turn


# ------------------------------------------------------------------ html

def cased(name):
    """A tag name in mixed case, its i sometimes ı or İ."""
    return st.tuples(*[st.sampled_from(
        [c, c.upper()] + (["ı", "İ"] if c == "i" else [])) for c in name]
    ).map("".join)


attrs = st.sampled_from(["", ' class="col"', " ID='x'", "\n data-a=b",
                         " style=\"a<b\""])
#: Python's ``\s`` beyond ASCII, and ASCII
space = st.sampled_from(["", " ", "\t", "\n", "\x0b", "\x1c", "\x85", "\xa0",
                         "　", " "])
breaker = st.one_of(
    st.builds(lambda a, b, s, c, d: f"<{a}{b}{c}{s}{d}>",
              space, cased("br"), st.sampled_from(["", "/"]), space, space),
    st.builds(lambda a, t, b: f"<{a}/{t}{b}>", space,
              cased("p") | cased("li") | cased("h3") | cased("div")
              | st.just("h7"), space))
word = st.text(alphabet=st.characters(
    whitelist_categories=("Lu", "Ll", "Nd"),
    whitelist_characters=" \t©.|-中"), max_size=12)
piece = st.one_of(
    word, word, breaker, space,
    st.sampled_from(["&amp;", "&#10;", "&copy;", "&lt;b&gt;", "& ", "&nbsp;",
                     "<", "<p>", "<b>x</b>", "<>", "a < b",
                     "page 3", "www.example.com"]),
    # many lines, so blocks cross the 0.15H / 0.90H region thresholds
    st.integers(0, 45).map(lambda k: "<br>".join(f"w{i}" for i in range(k))))
content = st.lists(piece, max_size=8).map("".join)


@st.composite
def element(draw, name, inner=content):
    body = draw(inner)
    close = draw(st.sampled_from(["close", "close", "none", "spaced"]))
    tail = {"close": f"</{draw(cased(name))}>", "none": "",
            "spaced": f"</{name} >"}[close]
    return f"<{draw(cased(name))}{draw(attrs)}>{body}{tail}"


divs = st.lists(st.one_of(element("div"), element("div"), content,
                          element("div", element("div"))),
                max_size=5).map("".join)
section = st.one_of(
    element("header"), element("nav"), element("footer"),
    element("main", divs), element("main", divs),
    element("header", element("nav")), content)
html_payloads = st.one_of(
    st.lists(section, max_size=6).map(
        lambda s: "<html><body>" + "".join(s) + "</body></html>"),
    st.lists(section, max_size=4).map("".join),
    content)                                  # no wrappers at all


def folds_to_i(text):
    return "ı" in text or "İ" in text


@pytest.mark.parametrize("strategy", (None,) + _FORCED)
@settings(**_SETTINGS)
@given(texts=st.lists(html_payloads, min_size=1, max_size=6))
def test_html_batch_equals_oracle(strategy, texts):
    """html turns run on the batch path under the default and every
    forced strategy; only payloads holding ı or İ go per turn."""
    rows = [(t, "html") for t in texts]
    assert check_rows(rows, strategy) == sum(map(folds_to_i, texts))


def test_html_tokenizer_matches_python_re_on_its_tags():
    """The tokenizer folds tag letters in ASCII and refuses ı/İ; its
    line-breaker class is Python's ``\\s``."""
    chars = "".join(chr(c) for c in range(sys.maxunicode + 1)
                    if not 0xD800 <= c < 0xE000)
    for letter in set("headernavmainfooterdivbrplih"):
        folds = set(re.findall(letter, chars, re.I)) - {letter,
                                                        letter.upper()}
        assert folds == ({"ı", "İ"} if letter == "i" else set()), letter
    every = pa.array(list(chars), pa.large_string())
    re2 = every.filter(pc.match_substring_regex(
        every, "^" + html_parse._S + "$")).to_pylist()
    assert set(re2) == set(re.findall(r"\s", chars))


# ------------------------------------------------------------------ a000

@st.composite
def a000_page(draw):
    """A layout page built for the a000 rules: vlines on both sides of
    the 0.25W window with equal lengths, fewer and more than 10 blocks,
    centers on the step-5 grid, inverted boxes, repeated (y0, x0)."""
    width = draw(st.sampled_from([612.0, 600.0, 1000.0, 400.0]))
    height = draw(st.sampled_from([792.0, 800.0, 500.0]))
    lines = [f"#PAGE {width},{height}"] if draw(st.booleans()) else []
    if not lines:
        width, height = 612.0, 792.0
    lo = int(width * 0.3)
    for _ in range(draw(st.integers(0, 3))):
        x = draw(st.sampled_from([
            width / 2, width / 2 + width * 0.25, width / 2 - width * 0.25,
            width / 2 + width * 0.2, width / 2 - width * 0.3, 10.0]))
        dx = draw(st.sampled_from([0.0, 0.0, width * 0.01, 1.0]))
        y0 = draw(st.sampled_from([50.0, 100.0, 200.0]))
        dy = draw(st.sampled_from([height * 0.2, height * 0.5, 400.0, -400.0,
                                   50.0]))
        lines.append(f"#VLINE {round(x, 2)},{y0},{round(x + dx, 2)},"
                     f"{round(y0 + dy, 2)}")
    # centers on and next to the step-5 grid's first and last points
    hi = int(width * 0.7)
    anchor = draw(st.sampled_from([lo, hi, lo + 5 * ((hi - lo) // 10)]))
    near = st.sampled_from([-100.0, -5.0, -0.5, 0.0, 0.0, 0.5, 5.0,
                            100.0]).map(lambda d: anchor + d)
    for _ in range(draw(st.sampled_from([0, 1, 2, 2, 3, 3, 5, 9, 10, 11,
                                         14]))):
        cx = draw(st.one_of(near, near, near, st.floats(0, width).map(
            lambda v: round(v, 1))))
        half = draw(st.sampled_from([10.0, 30.0, 2.5]))
        y0 = draw(st.sampled_from([20.0, 100.0, 105.0, 300.0, 700.0, 760.0,
                                   -5.0]) | st.floats(0, height).map(
                                       lambda v: round(v, 1)))
        h = draw(st.sampled_from([12.0, 12.0, 30.0, -20.0, -200.0, 0.0]))
        size = draw(st.sampled_from(["11", "14", "13.0"]))
        text = draw(st.sampled_from(["- item", "* star", "•dot", "Title"])
                    | word)
        lines.append(f"{cx - half},{y0},{cx + half},{y0 + h}|{size}|T|"
                     f"{text}")
    if draw(st.integers(0, 20)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), "#CORRUPT")
    draw(st.randoms()).shuffle(lines)
    return "\n".join(lines)


def corrupt(text, tool):
    return tool in LAYOUT_TOOLS and any(
        ln.strip().startswith("#CORRUPT") for ln in text.split("\n"))


@pytest.mark.parametrize("strategy", (None, "a000"))
@settings(**_SETTINGS)
@given(rows=st.lists(st.one_of(
    st.tuples(a000_page(), st.sampled_from(["layoutlm", "pdf_layout", ""])),
    st.tuples(html_payloads.filter(lambda t: not folds_to_i(t)),
              st.just("html"))), min_size=1, max_size=6))
def test_a000_batch_equals_oracle(strategy, rows):
    """layoutlm turns under their own a000, and pdf_layout, html and
    plain turns under a forced a000, run on the batch path; only
    ``#CORRUPT`` goes per turn."""
    if strategy is None:
        rows = [(t, "layoutlm" if tool != "html" else tool)
                for t, tool in rows]
    assert check_rows(rows, strategy) == sum(corrupt(t, tool)
                                             for t, tool in rows)


@pytest.mark.parametrize("centers", [
    (425.0, 430.0),          # the first passing grid point is int(0.7W)
    (183.0, 188.0),          # centers on grid points: strict on both sides
    (182.5, 190.0),          # the first grid point, int(0.3W), passes
    (300.0,) * 9 + (500.0,),  # 10 blocks: each side needs 2
    (300.0,) * 8 + (500.0,) * 2,
    (306.0,)])
def test_a000_scan_edges(centers):
    page = "\n".join(f"{c - 10},{100 + 20 * i},{c + 10},{112 + 20 * i}"
                     f"|11|T|b{i}" for i, c in enumerate(centers))
    assert check_rows([(page, "pdf_layout")], "a000") == 0


# ----------------------------------------------------------- routing share

def test_sf0001_per_turn_calls_are_null_and_corrupt_rows():
    """On the sf0.001 transcripts only null text and ``#CORRUPT`` layout
    turns cross into the per-turn kernel; every row equals the oracle."""
    t = transcripts_table(SF_DIR)
    texts, tools = t.column("text").to_pylist(), t.column("tool").to_pylist()
    out, per_turn = extract_counting(t.select(extract.INPUT_COLUMNS))
    nulls = sum(text is None for text in texts)
    corrupts = sum(text is not None and corrupt(text, tool)
                   for text, tool in zip(texts, tools))
    assert corrupts > 0
    assert per_turn == nulls + corrupts
    for text, tool, got in zip(texts, tools, out.to_pylist()):
        if text is not None:
            want = oracle_extract_turn(text, tool or "", got["turn_idx"])
            assert {k: got[k] for k in want} == want
