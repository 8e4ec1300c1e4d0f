"""Property-based equality: random payloads through the engine kernel
must match the independent reference-shaped oracle byte-for-byte."""

import hypothesis.strategies as st
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings

from pdf_parser_ray.kernel import extract_turn
from pdf_parser_ray.stages import extract
from tests.reference_oracle import OracleExtractor, oracle_extract_turn

_SETTINGS = dict(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

coord = st.floats(min_value=0.0, max_value=900.0, allow_nan=False,
                  allow_infinity=False).map(lambda v: round(v, 2))
word = st.text(alphabet=st.characters(
    whitelist_categories=("Lu", "Ll", "Nd"),
    whitelist_characters=" ©®.…中文🚀|-"), min_size=0, max_size=24)


@st.composite
def block_line(draw):
    x0, y0 = draw(coord), draw(coord)
    w, h = draw(coord), draw(st.floats(4, 30).map(lambda v: round(v, 1)))
    size = draw(st.floats(5, 20).map(lambda v: round(v, 1)))
    font = draw(st.sampled_from(["Times", "Helvetica-Bold", "F|weird"]))
    text = draw(word)
    return f"{x0},{y0},{x0 + w},{y0 + h}|{size}|{font}|{text}"


@st.composite
def directive(draw):
    kind = draw(st.sampled_from(["page", "vline", "rect", "junk"]))
    if kind == "page":
        return f"#PAGE {draw(coord)},{draw(coord)}"
    if kind == "vline":
        return (f"#VLINE {draw(coord)},{draw(coord)},"
                f"{draw(coord)},{draw(coord)}")
    if kind == "rect":
        r = draw(st.sampled_from(["1.0,1.0,1.0", "0.9,0.8,0.2"]))
        return (f"#RECT {draw(coord)},{draw(coord)},"
                f"{draw(coord)},{draw(coord)}|{r}")
    return draw(st.sampled_from([
        "#UNKNOWN x", "no pipes here", "1,2|short", "a,b,c,d|x|F|bad",
        "", "   "]))


payloads = st.lists(st.one_of(block_line(), directive()),
                    min_size=0, max_size=25).map("\n".join)
tools = st.sampled_from(["pdf_layout", "colored", "vision", "layoutlm",
                         "", "unknown_tool"])


@settings(**_SETTINGS)
@given(payload=payloads, tool=tools, turn_idx=st.integers(0, 500))
def test_kernel_equals_oracle_on_random_layouts(payload, tool, turn_idx):
    assert extract_turn(payload, tool, turn_idx) == \
        oracle_extract_turn(payload, tool, turn_idx)


@settings(**_SETTINGS)
@given(text=st.text(max_size=300), tool=tools)
def test_kernel_equals_oracle_on_arbitrary_text(text, tool):
    assert extract_turn(text, tool, 0) == oracle_extract_turn(text, tool, 0)


@settings(**_SETTINGS)
@given(text=st.text(max_size=400))
def test_html_path_never_raises_and_matches(text):
    payload = f"<html><body><main><div>{text}</div></main></body></html>"
    got = extract_turn(payload, "html", 3)
    want = oracle_extract_turn(payload, "html", 3)
    assert got == want
    assert got["page_number"] == 4


# ---------------------------------------- whole batches vs the oracle

#: numbers outside the batch path's check: float() takes some of them
odd_number = st.sampled_from([
    "1e2", "inf", "-inf", "nan", " 5", "5 ", "1_0", ".5", "5.", "+3", "-0",
    "\uff15", "\u0665", "0x10", "", "a"])
num = st.one_of(coord.map(str), coord.map(str), coord.map(str), odd_number)
#: more than 15 digits before the point (kept out of #PAGE: the oracle
#: scans range(int(0.3W), int(0.7W), 10) one step at a time)
record_number = st.one_of(odd_number, st.just("1" * 17))


@st.composite
def any_block_line(draw):
    """Records the fixtures never make: inverted boxes, midpoints exactly
    10 apart, repeated (y0, x0), odd numbers and fonts."""
    x0 = draw(st.sampled_from([40.0, 40.0, 300.0]) | coord)
    x1 = draw(st.sampled_from([280.0, 570.0, 20.0]) | coord)
    y0 = draw(st.sampled_from([100.0, 105.0, 110.0, 115.0, 120.0]) | coord)
    h = draw(st.sampled_from([10.0, 12.0, 20.0]))
    xs = [str(x0), str(y0), str(x1), str(y0 + h)]
    if draw(st.integers(0, 9)) == 0:
        xs[draw(st.integers(0, 3))] = draw(record_number)
    size = draw(st.sampled_from(["11.0", "8", "-1"]) | odd_number)
    font = draw(st.sampled_from(["Times", "F|weird", ""]))
    return f"{','.join(xs)}|{size}|{font}|{draw(word)}"


@st.composite
def any_directive(draw):
    kind = draw(st.sampled_from(["page", "vline", "rect", "other"]))
    if kind == "page":
        return f"#PAGE {draw(num)},{draw(num)}"
    if kind == "vline":
        x = draw(num)
        return f"#VLINE {x},{draw(num)},{x},{draw(num)}"
    if kind == "rect":
        r = draw(st.sampled_from(["1.0,1.0,1.0", "1,1,1", "0.9,0.8,0.2"]))
        return (f"#RECT {draw(num)},{draw(num)},{draw(num)},"
                f"{draw(num)}|{r}")
    return draw(st.sampled_from([
        "#CORRUPT", "#UNKNOWN x", "#PAGE", "no pipes", "1,2|short",
        "a,b,c,d|x|F|bad", "\x1c", "\x85 ", "\u3000"]))


layout_payloads = st.lists(
    st.one_of(any_block_line(), any_block_line(), any_directive(), word),
    min_size=0, max_size=20).map("\n".join)
batch_tools = st.sampled_from(["pdf_layout", "colored", "vision",
                               "layoutlm", "html", "", "unknown_tool", None])
# (the a000 oracle has no null-text guard, so its error message differs)
turns = st.tuples(st.one_of(layout_payloads, st.none(), st.text(max_size=40)),
                  batch_tools).filter(lambda r: r != (None, "layoutlm"))

#: a turn the batch path always takes
_CLEAN = ("#PAGE 612,792\n40,150,280,162|11|Times|left\n"
          "330,150,570,162|11|Times|right", "pdf_layout")


def extract_counting(table, registry=None):
    """extract_batch, and how many turns it sent to the per-turn path."""
    calls = []
    per_turn = extract.extract_turn

    def counted(*args):
        calls.append(args)
        return per_turn(*args)

    extract.extract_turn = counted
    try:
        return extract.extract_batch(table, registry), len(calls)
    finally:
        extract.extract_turn = per_turn


def transcript(rows):
    return pa.table({
        "conv_id": pa.array([f"c{i % 3}" for i in range(len(rows))],
                            pa.string()),
        "turn_idx": pa.array(range(len(rows)), pa.int64()),
        "text": pa.array([t for t, _ in rows], pa.string()),
        "tool": pa.array([tool for _, tool in rows], pa.string())})


@settings(**_SETTINGS)
@given(rows=st.lists(turns, max_size=12))
def test_extract_batch_equals_oracle_on_mixed_batches(rows):
    rows = rows + [_CLEAN]
    out, per_turn = extract_counting(transcript(rows))
    assert per_turn < len(rows)          # the batch path ran
    for (text, tool), got in zip(rows, out.to_pylist()):
        want = oracle_extract_turn(text, tool or "", got["turn_idx"])
        assert {k: got[k] for k in want} == want, (text, tool)


def test_extract_batch_empty_and_no_layout_batches():
    out, per_turn = extract_counting(transcript([]))
    assert out.num_rows == 0 and per_turn == 0
    assert out.schema == extract.EXTRACTED_SCHEMA
    rows = [("<html><body><main>x</main></body></html>", "html"),
            ("plain", ""), (None, "pdf_layout"), ("#CORRUPT", "vision"),
            ("40,150,280,162|11|T|x", "layoutlm")]
    out, per_turn = extract_counting(transcript(rows))
    assert per_turn == 2                 # the null and #CORRUPT turns
    for (text, tool), got in zip(rows, out.to_pylist()):
        assert {k: got[k] for k in extract.OUTPUT_FIELDS} == \
            oracle_extract_turn(text, tool, got["turn_idx"])


def test_records_float_must_reject_stay_on_the_batch_path():
    """A record whose numbers hold a character float() never takes is
    skipped on the batch path; one float() may take goes per turn."""
    rows = [(_CLEAN[0] + "\na,b,c,d|12|F|unparseable coords", "pdf_layout"),
            (_CLEAN[0] + "\n1e2,150,9,162|12|F|float takes it", "colored")]
    out, per_turn = extract_counting(transcript(rows))
    assert per_turn == 1
    for (text, tool), got in zip(rows, out.to_pylist()):
        assert {k: got[k] for k in extract.OUTPUT_FIELDS} == \
            oracle_extract_turn(text, tool, got["turn_idx"])
    assert "float takes it" in out.column("left_column")[1].as_py()


def test_forced_strategy_runs_html_on_the_batch_path():
    """compare_strategies forces a strategy onto every tool: html,
    pdf_layout and plain text under a003 all take the batch paths."""
    html = ("<html><body><header>Top</header><main><div><p>a</p></div>"
            "<div><p>b</p></div></main><footer>page 3</footer>"
            "</body></html>")
    rows = [(html, "html"), _CLEAN, ("plain words", "")]
    forced = {tool: "a003" for _, tool in rows}
    out, per_turn = extract_counting(transcript(rows), forced)
    assert per_turn == 0
    for (text, tool), got in zip(rows, out.to_pylist()):
        assert {k: got[k] for k in extract.OUTPUT_FIELDS} == \
            extract_turn(text, tool, got["turn_idx"], "a003")


#: what ``str.strip`` takes beyond ASCII spaces, tabs and newlines
_PLAIN_SPACE = "\r \x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2002\u2028\u3000"
plain_line = st.one_of(
    st.text(alphabet=_PLAIN_SPACE + "\t", max_size=4),
    st.sampled_from(["#CORRUPT", "#PAGE 612,792", "40,150,280,162|11|T|x",
                     "a | b", "|||", "#"]),
    st.text(alphabet=st.characters(
        whitelist_categories=("Lu", "Ll", "Nd"),
        whitelist_characters=_PLAIN_SPACE + "\t|#,.中🚀"), max_size=24))
plain_texts = st.lists(plain_line, max_size=8).map("\n".join)


@pytest.mark.parametrize("strategy", extract.BATCH_STRATEGIES)
@settings(**_SETTINGS)
@given(rows=st.lists(st.tuples(plain_texts, st.sampled_from(
    ["", "unknown_tool", None])), min_size=1, max_size=8))
def test_plain_turns_on_the_batch_path_equal_oracle(strategy, rows):
    """Plain turns never cross into the per-turn kernel under a forced
    a002/a003/a004, and equal the oracle's whole-page block."""
    forced = {tool or "": strategy for _, tool in rows}
    out, per_turn = extract_counting(transcript(rows), forced)
    assert per_turn == 0
    for (text, tool), got in zip(rows, out.to_pylist()):
        want = OracleExtractor(strategy).extract_page_layout(
            text, tool or "", got["turn_idx"])
        assert {k: got[k] for k in want} == want, (text, tool)


def test_compare_strategies_a003_on_html_matches_per_turn(ray_session):
    import ray.data as rd
    from pdf_parser_ray.pipelines.extraction import compare_strategies
    html = ("<html><body><header>Top</header><main><div><p>a</p></div>"
            "</main><footer>page 3</footer></body></html>")
    t = transcript([(html, "html"), _CLEAN])
    got = compare_strategies(rd.from_arrow(t), ["a003"])["a003"]
    for row in got.to_pandas().to_dict("records"):
        text = t.column("text")[row["turn_idx"]].as_py()
        want = extract_turn(text, row["tool"], row["turn_idx"], "a003")
        assert {k: row[k] for k in extract.OUTPUT_FIELDS} == want


def test_page_number_overflow_fails_loudly():
    t = transcript([_CLEAN]).set_column(
        1, "turn_idx", pa.array([2**31 - 1], pa.int64()))
    with pytest.raises(pa.ArrowInvalid, match="overflow"):
        extract.extract_batch(t)


def test_dedup_keep_components(ray_session):
    import pandas as pd
    import ray.data as rd
    from pdf_parser_ray.stages.dedup import (components_from_pairs,
                                             minhash_dedup_keep)
    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lambda mu nu xi omicron pi rho sigma tau upsilon " * 4).split()
    rows = [
        {"doc_id": 0, "text": " ".join(base)},
        {"doc_id": 1, "text": " ".join(base)},                 # dup of 0
        {"doc_id": 2, "text": " ".join(base[:-2] + ["x", "y"])},  # near 0
        {"doc_id": 3, "text": " ".join(f"z{i}" for i in range(80))},
    ]
    kept = minhash_dedup_keep(rd.from_pandas(pd.DataFrame(rows)),
                              threshold=0.5)
    assert kept["doc_id"].tolist() == [0, 3]   # 1,2 collapse into 0

    comp = components_from_pairs(pd.DataFrame(
        {"id_a": [1, 2, 5], "id_b": [2, 3, 6]}))
    assert comp[3] == 1 and comp[2] == 1 and comp[6] == 5
