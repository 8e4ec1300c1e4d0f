"""Extractor-strategy registry: per-row strategy routing.

The analog of the reference's extractor registry
(tests/extractor_config.py:33-114: EXTRACTOR_MAP + get_extractor_for_pdf
+ register_extractor + list_registered_pdfs) and of the structural
protocol check (pdf_extractor_protocol.py:118-155: validate_extractor).

Routing key is the transcript ``tool`` column (the analog of the PDF
filename). The registry dict is a SMALL broadcast side: module-level,
read by each extraction task (stages/extract.py), never shipped per
batch and never shuffled.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict

from . import kernel

#: tool value -> classify-strategy name (kernel.CLASSIFIERS key).
#: Mirrors EXTRACTOR_MAP's filename->class routing with a default
#: (tests/extractor_config.py:33-45: DEFAULT_EXTRACTOR fallback).
DEFAULT_STRATEGY = "a002"
#: the engine's own strategies (kernel.CLASSIFIERS at import)
BUILTIN_STRATEGIES = frozenset(kernel.CLASSIFIERS)
TOOL_STRATEGY_MAP: Dict[str, str] = {
    "pdf_layout": "a002",
    "colored": "a003",
    "vision": "a004",
    "layoutlm": "a000",
    "html": "a002",
    "": "a002",
}


def get_strategy_for_tool(tool: str,
                          registry: Dict[str, str] | None = None) -> str:
    """Lookup with default on miss (tests/extractor_config.py:48-79)."""
    reg = TOOL_STRATEGY_MAP if registry is None else registry
    return reg.get(tool, DEFAULT_STRATEGY)


def register_strategy(tool: str, strategy: str,
                      classifier: Callable | None = None) -> None:
    """Register a routing entry (tests/extractor_config.py:82-96).

    ``classifier``, when given, installs a new classify function under
    ``strategy`` after a structural validation
    (pdf_extractor_protocol.py:118-155 analog). The built-in names
    (``BUILTIN_STRATEGIES``) are refused for a custom classifier: the
    extraction stage runs them by name on its whole-batch layout path,
    so a replacement under one of them would never be called there.
    """
    if classifier is not None:
        if strategy in BUILTIN_STRATEGIES:
            raise ValueError(
                f"strategy {strategy!r} is built in; register a custom "
                f"classifier under a new strategy name")
        validate_classifier(classifier)
        kernel.CLASSIFIERS[strategy] = classifier
    if strategy not in kernel.CLASSIFIERS:
        raise ValueError(f"unknown strategy {strategy!r}; "
                         f"known: {sorted(kernel.CLASSIFIERS)}")
    TOOL_STRATEGY_MAP[tool] = strategy


def list_registered_tools() -> Dict[str, str]:
    """Snapshot of the routing table (tests/extractor_config.py:99-114)."""
    return dict(TOOL_STRATEGY_MAP)


def validate_classifier(fn: Callable) -> bool:
    """Reflective structural check of a classify strategy — the analog of
    validate_extractor (pdf_extractor_protocol.py:118-155): callable,
    two positional params (page, separator_x)."""
    if not callable(fn):
        raise TypeError(f"classifier {fn!r} is not callable")
    sig = inspect.signature(fn)
    required = [p for p in sig.parameters.values()
                if p.default is inspect.Parameter.empty
                and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    if len(required) != 2:
        raise TypeError(
            f"classifier {getattr(fn, '__name__', fn)!r} must take exactly "
            f"two required positional args (page, separator_x); "
            f"got {len(required)}")
    return True
