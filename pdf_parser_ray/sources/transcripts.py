"""Deterministic transcript synthesis (the engine's primary input table).

Builds the Parquet-transcript-shaped table
``(conv_id:string, turn_idx:int32, role:string, text:string,
tool:string, ts:timestamp[us])`` (BASELINE.json input_hint) from the
driver's ``documents`` table: one document -> one conversation, the
document text split across turns whose payloads are serialized "pages"
in the families of FIXTURES.md §1 — layout-serialized, HTML-ish and
plain-text — covering every branch of the reference heuristics
(vline near center / scan fallback / W/2 default, colored footers,
keyword + short-digit footers, near-tie line grouping, question
patterns, malformed records, corrupt turns, unicode, a mega-conversation
for skew, physically out-of-order rows).

Everything is a pure function of (doc_id, text): no wall clock, no
global RNG — so the same sf dir always produces the same corpus and a
failed run resumes deterministically.
"""

from __future__ import annotations

import random
from typing import Dict, List

import numpy as np
import pyarrow as pa
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

# 2025-01-01 00:00:00 UTC in microseconds
_EPOCH_US = 1_735_689_600_000_000

TRANSCRIPT_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("role", pa.string()),
    ("text", pa.string()),
    ("tool", pa.string()),
    ("ts", pa.timestamp("us")),
])

_FILLER = ("lorem ipsum dolor sit amet consectetur adipiscing elit sed do "
           "eiusmod tempor incididunt ut labore et dolore magna aliqua").split()

_UNICODE_SNIPPETS = [
    "© 2025 Example Corp — 株式会社",
    "naïve café déjà-vu 🚀 emoji line",
    "® registered — 中文测试 …",
]


def _chunk_words(words: List[str], start: int, n: int) -> List[str]:
    """Cyclic word window; deterministic, never empty."""
    if not words:
        words = _FILLER
    return [words[(start + i) % len(words)] for i in range(n)]


def _lines_from_words(rng: random.Random, words: List[str], start: int,
                      n_lines: int, words_per_line=(4, 8)) -> List[str]:
    lines = []
    pos = start
    for _ in range(n_lines):
        k = rng.randint(*words_per_line)
        lines.append(" ".join(_chunk_words(words, pos, k)))
        pos += k
    return lines


def _make_layout_payload(rng: random.Random, words: List[str], *,
                         vline: str, columns: int, colored: bool,
                         footer_kind: str, near_tie: bool,
                         questions: bool, malformed: bool,
                         q_base: int = 1) -> str:
    """Serialize one layout page exercising chosen heuristic branches."""
    w, h = rng.choice([(612.0, 792.0), (595.28, 841.89)])
    out = [f"#PAGE {w},{h}"]

    if vline == "center":
        x = round(w / 2 + rng.uniform(-15, 15), 2)
        out.append(f"#VLINE {x},140.0,{x},700.0")
        sep_hint = x
    elif vline == "short":
        # too short to pass the abs(dy)>100 filter -> falls through to scan
        out.append(f"#VLINE {round(w/2, 2)},300.0,{round(w/2, 2)},360.0")
        sep_hint = None
    else:
        sep_hint = None

    if colored:
        # non-white rect in the bottom half (a003 footer region) + a white
        # one and a top-half colored one that must NOT become footers
        out.append(f"#RECT 40.0,{h - 70:.1f},{w - 40:.1f},{h - 10:.1f}|0.9,0.85,0.4")
        out.append(f"#RECT 40.0,100.0,{w - 40:.1f},160.0|1.0,1.0,1.0")
        out.append(f"#RECT 50.0,200.0,200.0,260.0|0.2,0.4,0.8")

    pos = rng.randint(0, 1000)

    # header lines (center_y < 0.15*h)
    for i, ln in enumerate(_lines_from_words(rng, words, pos, rng.randint(1, 2),
                                             (2, 5))):
        y0 = 28.0 + 14 * i
        out.append(f"40.0,{y0},{w - 40:.1f},{y0 + 12}|14.0|Helvetica-Bold|{ln}")
        pos += 5

    if malformed:
        out.append("12.0,34.0|truncated record")         # wrong field count
        out.append("a,b,c,d|12|F|unparseable coords")     # bad floats
        out.append(f"40.0,400.0,300.0,412.0|12.0|Times|kept | pipe | text")

    # body columns
    left_x = (40.0, w * 0.45)
    right_x = (w * 0.55, w - 40.0)
    col_specs = [left_x, right_x][:columns] if columns == 2 else [(40.0, w - 40.0)]
    qn = q_base
    for ci, (x0, x1) in enumerate(col_specs):
        y0 = 150.0
        n_lines = rng.randint(3, 7)
        lines = _lines_from_words(rng, words, pos + 31 * ci, n_lines)
        for li, ln in enumerate(lines):
            if questions and li % 2 == 0:
                style = ("", "Q.", "Q", "")[qn % 4]
                punct = "." if qn % 3 else ")"
                ln = f"{style}{qn}{punct} {ln}?"
                qn += 2  # odd/even split across columns -> global sort visible
            if near_tie and li == 1:
                # a second block on (nearly) the same visual line, plus an
                # anchor-drift chain: offsets below the <10 midpoint tolerance
                out.append(f"{x0 + 5:.1f},{y0 + 4:.1f},{x1:.1f},{y0 + 16:.1f}|11.0|Times|{ln} (tie)")
                out.append(f"{x0:.1f},{y0 + 12:.1f},{x1:.1f},{y0 + 24:.1f}|11.0|Times|drift {ln}")
            out.append(f"{x0:.1f},{y0:.1f},{x1:.1f},{y0 + 12:.1f}|11.0|Times|{ln}")
            y0 += 18.0
        if questions:
            qn = q_base + 1  # right column continues with the other parity

    if rng.random() < 0.25:
        out.append(f"60.0,430.0,300.0,442.0|11.0|Times|{rng.choice(_UNICODE_SNIPPETS)}")

    # footer (center_y > 0.95*h so every strategy's footer zone sees it)
    fy = h - 14.0
    if footer_kind == "keyword":
        out.append(f"40.0,{fy:.1f},{w - 40:.1f},{fy + 10}|8.0|Times|Copyright © example.com — all rights reserved")
    elif footer_kind == "digit":
        out.append(f"{w / 2 - 20:.1f},{fy:.1f},{w / 2 + 20:.1f},{fy + 10}|8.0|Times|Page {rng.randint(1, 99)}")
    elif footer_kind == "plain":
        # long non-keyword, non-digit footer text: a003 has_footer stays False
        ln = " ".join(_chunk_words(words, pos + 97, 12))
        out.append(f"40.0,{fy:.1f},{w - 40:.1f},{fy + 10}|8.0|Times|{ln} and more trailing words here")
    return "\n".join(out)


def _make_html_payload(rng: random.Random, words: List[str]) -> str:
    pos = rng.randint(0, 1000)
    nav = " | ".join(_chunk_words(words, pos, 3))
    left = "".join(f"<p>{ln}</p>"
                   for ln in _lines_from_words(rng, words, pos + 11, rng.randint(2, 5)))
    right = "".join(f"<p>{ln}</p>"
                    for ln in _lines_from_words(rng, words, pos + 53, rng.randint(2, 5)))
    title = " ".join(_chunk_words(words, pos + 5, 4))
    return (f"<html><body><header><h1>{title}</h1></header>"
            f"<nav>{nav}</nav>"
            f"<main><div class=\"col\">{left}</div><div class=\"col\">{right}</div></main>"
            f"<footer>Copyright © example.org — page {rng.randint(1, 50)}</footer>"
            f"</body></html>")


def _make_plain_payload(rng: random.Random, words: List[str]) -> str:
    pos = rng.randint(0, 1000)
    lines = _lines_from_words(rng, words, pos, rng.randint(2, 6))
    if rng.random() < 0.3:
        lines.append(rng.choice(_UNICODE_SNIPPETS))
    return "\n".join(lines)


#: family id -> (tool tag, builder kind)
_FAMILIES = (
    ("pdf_layout", "vline"),        # 0: separator from a center vertical line
    ("pdf_layout", "vline"),        # 1
    ("pdf_layout", "scan"),         # 2: no usable vline -> distribution scan
    ("pdf_layout", "onecol"),       # 3: one column -> W/2 default
    ("colored", "colored"),         # 4: a003 colored-rect + keyword footer
    ("vision", "questions"),        # 5: a004 + question extraction corpus
    ("html", "html"),               # 6: boilerplate-strip fallback
    ("", "plain"),                  # 7: whole-page plain-text fallback
    ("pdf_layout", "near_tie"),     # 8: <10 line-grouping tolerance ties
    ("edge", "edge"),               # 9: empty / whitespace / malformed / corrupt
    ("layoutlm", "layoutlm"),       # 10: a000 model-stub strategy path
)


def _payload_for(rng: random.Random, fam: int, words: List[str],
                 turn_idx: int) -> (str, str):
    tool, kind = _FAMILIES[fam]
    if kind == "vline":
        fk = ("keyword", "digit", "plain", "none")[rng.randint(0, 3)]
        return tool, _make_layout_payload(
            rng, words, vline="center", columns=2, colored=False,
            footer_kind=fk, near_tie=False, questions=False, malformed=False)
    if kind == "scan":
        return tool, _make_layout_payload(
            rng, words, vline="short", columns=2, colored=False,
            footer_kind="digit", near_tie=False, questions=False,
            malformed=rng.random() < 0.3)
    if kind == "onecol":
        return tool, _make_layout_payload(
            rng, words, vline="none", columns=1, colored=False,
            footer_kind="none", near_tie=False, questions=False, malformed=False)
    if kind == "colored":
        return tool, _make_layout_payload(
            rng, words, vline="center", columns=2, colored=True,
            footer_kind=("keyword", "plain")[rng.randint(0, 1)],
            near_tie=False, questions=False, malformed=False)
    if kind == "questions":
        return tool, _make_layout_payload(
            rng, words, vline="center", columns=2, colored=False,
            footer_kind="digit", near_tie=False, questions=True,
            malformed=False, q_base=1 + 10 * (turn_idx % 7))
    if kind == "html":
        return tool, _make_html_payload(rng, words)
    if kind == "plain":
        return tool, _make_plain_payload(rng, words)
    if kind == "near_tie":
        return tool, _make_layout_payload(
            rng, words, vline="center", columns=2, colored=False,
            footer_kind="digit", near_tie=True, questions=False, malformed=False)
    if kind == "layoutlm":
        payload = _make_layout_payload(
            rng, words, vline=("center", "none")[rng.randint(0, 1)],
            columns=2, colored=False, footer_kind="digit",
            near_tie=False, questions=False, malformed=False)
        # sprinkle bullet lines so the model stub emits List regions
        extra = "\n".join(
            f"40.0,{500.0 + 18 * i:.1f},280.0,{512.0 + 18 * i:.1f}|11.0|Times|- "
            + " ".join(_chunk_words(words, 400 + 9 * i, 4))
            for i in range(rng.randint(1, 3)))
        return tool, payload + "\n" + extra
    # edge family
    edge = rng.randint(0, 3)
    if edge == 0:
        return "", ""                                # empty text
    if edge == 1:
        return "", "   \n\t  \n "                    # whitespace-only
    if edge == 2:
        return "pdf_layout", "#CORRUPT deliberately unreadable turn"
    return "pdf_layout", "#PAGE 612.0,792.0\ngarbage without pipes\nalso|not|enough"


# every _MEGA_EVERY-th document becomes a mega-conversation of
# _MEGA_TURNS turns (~20-40x the median) to exercise skew salting
_MEGA_EVERY = 97
_MEGA_TURNS = 120


def turns_for_doc(doc_id: int, text: str) -> List[Dict]:
    """All transcript rows for one document. Pure and deterministic.

    Every ``_MEGA_EVERY``-th document is a mega-conversation.
    Rows are emitted in a seeded shuffled order: physical order must
    never be relied on (FIXTURES.md edge cases).
    """
    rng = random.Random(doc_id * 1_000_003 + 17)
    words = (text or "").split()
    n_turns = _MEGA_TURNS if doc_id % _MEGA_EVERY == 0 \
        else 3 + (doc_id % 6)
    conv_id = f"conv-{doc_id:08d}"
    rows = []
    for turn_idx in range(n_turns):
        fam = (doc_id + 7 * turn_idx) % len(_FAMILIES)
        tool, payload = _payload_for(rng, fam, words, turn_idx)
        if turn_idx == 0:
            role = "user"
        elif tool in ("pdf_layout", "colored", "vision", "html", "layoutlm"):
            role = "tool"
        else:
            role = "assistant" if turn_idx % 2 else "user"
        rows.append({
            "conv_id": conv_id,
            "turn_idx": turn_idx,
            "role": role,
            "text": payload,
            "tool": tool,
            "ts": _EPOCH_US + doc_id * 3_600_000_000 + turn_idx * 60_000_000,
        })
    rng.shuffle(rows)  # physically out of turn_idx order on purpose
    return rows


def synth_batch(batch: pa.Table) -> pa.Table:
    """map_batches body: documents(doc_id, text) -> transcript rows.

    A flat map (one doc -> many turns); returns Arrow directly so the
    object store holds columnar blocks, never Python row lists.
    """
    doc_ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    cols: Dict[str, list] = {name: [] for name in TRANSCRIPT_SCHEMA.names}
    for doc_id, text in zip(doc_ids, texts):
        for row in turns_for_doc(int(doc_id), text):
            for k in cols:
                cols[k].append(row[k])
    arrays = [
        pa.array(cols["conv_id"], pa.string()),
        pa.array(cols["turn_idx"], pa.int32()),
        pa.array(cols["role"], pa.string()),
        pa.array(cols["text"], pa.string()),
        pa.array(cols["tool"], pa.string()),
        pa.array(np.asarray(cols["ts"], dtype="int64"), pa.timestamp("us")),
    ]
    return pa.Table.from_arrays(arrays, schema=TRANSCRIPT_SCHEMA)


def transcripts_dataset(sf_dir: str):
    """documents.parquet -> lazy transcript Dataset (column-pruned read).

    The documents read is the fan-out driver for the whole flagship
    pipeline (synthesis multiplies rows ~7x), so it is split into one
    block per CPU; with a real multi-file corpus the file count drives
    parallelism instead and the override is unnecessary. One block per
    CPU, not two: the sf test files hold a SINGLE row group, so block
    splits are sub-row-group slices whose tasks re-decode shared bytes
    — measured 2.1 s vs 3.0 s (64 blocks) vs 3.7 s (64 blocks + the
    old explicit batch_size) for the synth+extract chain at 32 cpus.
    The schema-metadata strip (Ray's schema-dedup tries to hash the
    parquet writer's pandas-metadata dict and logs a warning per task)
    is folded INTO the synth function and batch_size stays None so
    read -> synth -> downstream fuses into one task chain with no
    re-batching operator boundary."""
    import ray.data as rd

    from ..relational import ray_cpus
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"],
                           override_num_blocks=ray_cpus(8))

    def synth_clean(t):
        return synth_batch(t.replace_schema_metadata(None))

    return docs.map_batches(synth_clean, batch_format="pyarrow")


def transcripts_table(sf_dir: str, *, limit_docs: int | None = None,
                      with_duplicates: bool = False) -> pa.Table:
    """Driver/test-side synthesis without Ray (small tiers only).

    ``with_duplicates`` appends an exact copy of turns 1 and 2 of every
    ``doc_id % 11 == 0`` conversation (duplicate (conv_id, turn_idx)
    keys) for the exact-dedup tests.
    """
    import pyarrow.parquet as pq

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    if limit_docs is not None:
        docs = docs.slice(0, limit_docs)
    batch = synth_batch(docs)
    if with_duplicates:
        dup_mask = []
        conv_ids = batch.column("conv_id").to_pylist()
        turn_idxs = batch.column("turn_idx").to_pylist()
        for cid, ti in zip(conv_ids, turn_idxs):
            doc_id = int(cid.split("-")[1])
            dup_mask.append(doc_id % 11 == 0 and ti in (1, 2))
        dup_rows = batch.filter(pa.array(dup_mask))
        batch = pa.concat_tables([batch, dup_rows])
    return batch


class TranscriptParquetSource(Datasource):
    """Transcript Parquet files, planned from a file listing alone.

    Planning resolves ``paths`` as ``read_parquet`` does (so ``s3://``
    and other filesystems resolve), lists directories recursively,
    skips files under a basename that starts with ``.`` or ``_``
    (``_SUCCESS``, ``.crc``, staging directories), as pyarrow's dataset
    discovery does, and takes each file's size from the listing. It
    reads no footer and starts no Ray task: ``read_parquet`` prefetches
    every footer and samples fragments in remote tasks on every call,
    and the engine uses neither (it pins or derives its block count
    and normalizes the schema itself). Directories list in sorted path
    order and a list of paths keeps its order, so the files, their
    grouping into read tasks and the rows match ``read_parquet``'s.

    Each read task reads its files one row group at a time, projected
    to the ``columns`` each file holds, and yields the row groups
    unchanged: the caller's ``normalize`` pass casts them and names
    the columns a file lacks.
    """

    def __init__(self, paths, columns: List[str]):
        from ray.data._internal.util import _is_local_scheme
        from ray.data.datasource.path_util import \
            _resolve_paths_and_filesystem

        # only "local://" paths pin the read to this node, as in
        # read_parquet: a plain path may name a shared mount
        self._distributed = not _is_local_scheme(paths)
        resolved, self._fs = _resolve_paths_and_filesystem(paths)
        self._files = _list_files(self._fs, resolved)
        self._columns = list(columns)

    def get_name(self) -> str:
        return "Parquet"

    @property
    def supports_distributed_reads(self) -> bool:
        return self._distributed

    def estimate_inmemory_data_size(self) -> int:
        return sum(size for _, size in self._files)

    def get_read_tasks(self, parallelism: int) -> List[ReadTask]:
        """Contiguous groups of files (``np.array_split``, as
        ``read_parquet`` groups them), at most ``parallelism``."""
        fs, columns = self._fs, self._columns
        tasks = []
        for group in np.array_split(np.arange(len(self._files)),
                                    parallelism):
            if not len(group):
                continue
            files = [self._files[i][0] for i in group]
            meta = BlockMetadata(
                num_rows=None,
                size_bytes=sum(self._files[i][1] for i in group),
                input_files=files, exec_stats=None)
            tasks.append(ReadTask(
                lambda files=files: _read_files(fs, files, columns), meta))
        return tasks


def _list_files(fs, paths: List[str]) -> List[tuple]:
    """[(path, size)] of the Parquet files ``paths`` name."""
    from pyarrow.fs import FileSelector, FileType

    def hidden(rel: str) -> bool:
        return any(part.startswith((".", "_")) for part in rel.split("/"))

    out = []
    for info in fs.get_file_info(paths):
        if info.type == FileType.File:
            out.append((info.path, info.size))
        elif info.type == FileType.Directory:
            base = info.path.rstrip("/") + "/"
            out.extend(sorted(
                (f.path, f.size)
                for f in fs.get_file_info(FileSelector(base, recursive=True))
                if f.type == FileType.File
                and not hidden(f.path[len(base):])))
        else:
            raise FileNotFoundError(f"transcript path {info.path!r} "
                                    "does not exist")
    return out


def _read_files(fs, files: List[str], columns: List[str]):
    """One read task: each file's row groups, projected to the
    ``columns`` the file holds."""
    import pyarrow.parquet as pq

    for path in files:
        try:
            with fs.open_input_file(path) as f:
                pf = pq.ParquetFile(f)
                names = set(pf.schema_arrow.names)
                cols = [c for c in columns if c in names]
                for i in range(pf.num_row_groups):
                    t = pf.read_row_group(i, columns=cols,
                                          use_threads=False)
                    if t.num_rows:
                        yield t
        except (OSError, pa.ArrowException) as e:
            raise OSError(f"cannot read transcript file {path}: {e}") \
                from e


def read_transcripts(path, *, format: str = "parquet",
                     columns: List[str] | None = None,
                     override_num_blocks: int | None = None):
    """Format-dispatching transcript reader -> canonical-schema Dataset.

    ``parquet`` is the scale path (columnar: ``columns`` prunes at the
    read so only the requested bytes leave storage). It plans from a
    file listing alone (``TranscriptParquetSource``): no footer read and
    no Ray task before execution, where ``read_parquet`` runs at least
    two sampling tasks and, above 24 files, a footer task per 6 files.
    Unless ``override_num_blocks`` pins it, Ray sizes
    the read from the listed file bytes and its CPUs. ``jsonl`` and
    ``csv`` are INGEST paths for row-oriented exports of the same
    table: neither format can prune columns at the read, and CSV needs
    the parser told that quoted values carry embedded newlines
    (transcript text does) — so convert to parquet once and use the
    parquet path for repeated runs at scale. All three normalize to
    TRANSCRIPT_SCHEMA's column types (projected to ``columns``) in one
    Arrow cast pass that fuses with the read, so every downstream
    stage — extraction, dedup, boilerplate strip — is source-agnostic:
    jsonl/csv type drift (int64 turn_idx, ISO-string ts) never reaches
    a kernel. ``columns`` outside TRANSCRIPT_SCHEMA raise ValueError
    before anything is read; an input that lacks a requested column
    raises "missing columns" when it is read.
    """
    import ray.data as rd

    want = {f.name: f.type for f in TRANSCRIPT_SCHEMA}
    cols = list(columns) if columns is not None else list(want)
    unknown = [c for c in cols if c not in want]
    if unknown:
        raise ValueError(f"unknown transcript columns {unknown}; "
                         f"expected a subset of {list(want)}")
    kw = {}
    if override_num_blocks is not None:
        kw["override_num_blocks"] = override_num_blocks
    if format == "parquet":
        # pruned at the read, but still normalized below: a parquet
        # export can drift too (int64 turn_idx / timestamp[ns] from a
        # pandas round-trip), and the cast pass also drops the
        # writer's pandas schema metadata (same reason
        # transcripts_dataset strips it)
        ds = rd.read_datasource(TranscriptParquetSource(path, cols), **kw)
    elif format == "jsonl":
        ds = rd.read_json(path, **kw)
    elif format == "csv":
        import pyarrow.csv as pacsv
        ds = rd.read_csv(
            path,
            parse_options=pacsv.ParseOptions(newlines_in_values=True),
            **kw)
    else:
        raise ValueError(f"unknown transcript format {format!r}; "
                         "expected parquet, jsonl, or csv")

    def normalize(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        missing = [c for c in cols if c not in t.column_names]
        if missing:
            raise ValueError(
                f"transcript {format} input is missing columns "
                f"{missing}; present: {t.column_names}")
        # Arrow cast parses ISO-8601 strings for the timestamp column
        # and narrows json's int64 turn_idx to the canonical int32
        return pa.table({c: pc.cast(t.column(c), want[c])
                         for c in cols})

    return ds.map_batches(normalize, batch_format="pyarrow")
