"""In-memory spans around calls into the engine's layers.

Spans are recorded by wrappers this module puts around the engine's
module-level functions for the length of a ``with installed(...)``
block; nothing inside the engine changes. A layer's self time is its
span's duration minus the durations of its child spans (children of one
span never overlap: the replay is single-threaded).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time
from typing import Callable, Dict, List


class Tracer:
    """Flat span arrays: name, start, end and parent index per span."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def self_ns(self) -> Dict[str, int]:
        """Total self time per span name, in ns."""
        child = [0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out: Dict[str, int] = {}
        for i, name in enumerate(self.names):
            own = self.ends[i] - self.starts[i] - child[i]
            out[name] = out.get(name, 0) + own
        return out

    def total_ns(self, name: str) -> int:
        """Summed duration of the spans named ``name``."""
        return sum(e - s for n, s, e in zip(self.names, self.starts,
                                            self.ends) if n == name)

    def write(self, path: str) -> None:
        """Dump every span as gzipped JSON: a name table and rows of
        [name_id, start_ns, end_ns, parent]."""
        table = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(table)}
        rows = [[ids[n], s, e, p] for n, s, e, p in zip(
            self.names, self.starts, self.ends, self.parents)]
        with gzip.open(path, "wt") as f:
            json.dump({"names": table, "spans": rows}, f,
                      separators=(",", ":"))


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)
    return traced


def _wrap_turn(tracer: Tracer, fn: Callable) -> Callable:
    """extract_turn: the a000 flow is its own layer; for the other
    strategies the span's self time is the per-turn dispatch."""
    @functools.wraps(fn)
    def traced(text, tool, turn_idx, strategy=None):
        idx = tracer.begin("kernel.a000" if strategy == "a000"
                           else "kernel.dispatch")
        try:
            return fn(text, tool, turn_idx, strategy)
        finally:
            tracer.end(idx)
    return traced


#: (module, attribute, layer): the kernel's layers, by the name the
#: engine looks them up under at call time
LAYER_FUNCTIONS = (
    ("pdf_parser_ray.kernel", "parse_layout_payload", "kernel.parse"),
    ("pdf_parser_ray.kernel", "plain_text_page", "kernel.parse"),
    ("pdf_parser_ray.html_parse", "parse_html_payload", "html_parse.parse"),
    ("pdf_parser_ray.kernel", "find_column_separator", "kernel.separator"),
    ("pdf_parser_ray.kernel", "blocks_to_text", "kernel.reading_order"),
    ("pdf_parser_ray.kernel", "normalize_text_field",
     "kernel.normalize_assemble"),
    ("pdf_parser_ray.kernel", "assemble_extracted_text",
     "kernel.normalize_assemble"),
    ("pdf_parser_ray.kernel", "canonical_metadata_json",
     "kernel.metadata_json"),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the kernel's layer functions in this process, then restore
    them."""
    import importlib

    from pdf_parser_ray import kernel
    from pdf_parser_ray.stages import extract

    classifiers = dict(kernel.CLASSIFIERS)
    saved = []
    try:
        for mod_name, attr, layer in LAYER_FUNCTIONS:
            mod = importlib.import_module(mod_name)
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, _wrap(tracer, layer, getattr(mod, attr)))
        saved.append((extract, "extract_turn", extract.extract_turn))
        extract.extract_turn = _wrap_turn(tracer, extract.extract_turn)
        for key, fn in classifiers.items():
            kernel.CLASSIFIERS[key] = _wrap(tracer, "kernel.classify", fn)
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)
        kernel.CLASSIFIERS.update(classifiers)


@contextlib.contextmanager
def captured_executions(enabled: bool):
    """Collect the stats summary of every ``Dataset.to_pandas`` the
    engine runs inside the block (the checkpoint writer materializes its
    lineage that way), when ``enabled``."""
    import ray.data

    sink: list = []
    if not enabled:
        yield sink
        return
    original = ray.data.Dataset.to_pandas

    @functools.wraps(original)
    def to_pandas(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        sink.append(self._get_stats_summary())
        return out

    ray.data.Dataset.to_pandas = to_pandas
    try:
        yield sink
    finally:
        ray.data.Dataset.to_pandas = original
