"""What every family module shares: the ``@query`` declaration and the
exact-cents money helpers."""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd

# Every declared query, name -> function, and the oracle SQL of the
# oracled ones, both in declaration order. The package assembles
# QUERIES and ORACLES from these once every family module is imported.
DECLARED: dict[str, Callable[[str], pd.DataFrame]] = {}
ORACLE_SQL: dict[str, str] = {}


def query(fn=None, *, oracle: str | None = None):
    """Declare ``fn(sf_dir) -> DataFrame`` as a registry query: bare
    ``@query`` for a rows-only query, ``@query(oracle=SQL)`` for one
    the driver checks against DuckDB. A name declared twice, in one
    module or two, is refused before either is registered."""
    def declare(f):
        prior = DECLARED.get(f.__name__)
        if prior is not None:
            raise ValueError(
                f"query {f.__name__!r} is declared twice: in "
                f"{prior.__module__} and in {f.__module__}")
        DECLARED[f.__name__] = f
        if oracle is not None:
            ORACLE_SQL[f.__name__] = oracle
        return f
    return declare if fn is None else declare(fn)


# Money columns in the testdata are 2-decimal fixed point. Aggregating
# doubles in parallel makes the result depend on summation order, and
# rounding half-even (numpy) vs half-away (DuckDB) flips exact .xx5
# boundaries — so every money aggregate is computed in EXACT int64
# cents inside the partial stage, with the oracle SQL using the same
# integer expression tree; the final double division sequences are
# identical on both sides, making results bit-equal at any parallelism.


def _cents(x) -> np.ndarray:
    return np.rint(np.asarray(x, dtype=np.float64) * 100).astype("int64")


def _d(s) -> pd.Series:
    return s.astype("float64")
