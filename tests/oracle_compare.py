"""The one oracle comparison: the driver's canonical frame, its
order-insensitive value hash, the DuckDB side of any ORACLES entry
over a directory of table files, and the engine-vs-oracle check the
sf0.001 and sf0.01 oracle tests both run."""

import os

import duckdb
import pandas as pd
import pytest

from pdf_parser_ray.queries import ORACLES, QUERIES

TABLES = ("region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings")


def canon(df: pd.DataFrame) -> pd.DataFrame:
    """Columns sorted by name, floats rounded to 6 places, datetime,
    int and bool widths normalized, rows sorted. A NULL in a nullable
    bool column raises rather than casting to False."""
    df = df.copy()
    df = df[sorted(df.columns)]
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        if pd.api.types.is_bool_dtype(df[c]):
            df[c] = df[c].astype("bool")
    return (df.sort_values(list(df.columns), kind="mergesort")
            .reset_index(drop=True))


def value_hash(df: pd.DataFrame) -> int:
    """Driver-style order-insensitive value hash of the canonical
    frame (row order already canonical after canon's sort)."""
    h = pd.util.hash_pandas_object(
        df.astype(str) if df.empty else df, index=False)
    return int(h.to_numpy().sum())


def oracle_frame(data_dir, name: str) -> pd.DataFrame:
    """ORACLES[name] run by DuckDB over a view of each table file that
    exists in ``data_dir``."""
    with duckdb.connect() as con:
        for t in TABLES:
            path = os.path.join(str(data_dir), f"{t}.parquet")
            if os.path.exists(path):
                con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{path}'")
        return con.sql(ORACLES[name]).df()


def assert_oracle_match(sf_dir: str, name: str) -> None:
    """QUERIES[name] vs its DuckDB oracle with the driver's compare
    (CORRECTNESS_r{N}.json's hash_match): same columns, same row
    count, same value hash of the canonical frames. On a hash miss the
    frame-equal compare shows WHERE the frames differ."""
    got = QUERIES[name](sf_dir)
    if not isinstance(got, pd.DataFrame):
        got = got.to_pandas()
    want = oracle_frame(sf_dir, name)
    assert sorted(got.columns) == sorted(want.columns), (
        f"{name}: column mismatch {sorted(got.columns)} "
        f"vs {sorted(want.columns)}")
    g, w = canon(got), canon(want)
    assert len(g) == len(w), f"{name}: {len(g)} rows vs oracle {len(w)}"
    if value_hash(g) != value_hash(w):
        pd.testing.assert_frame_equal(g, w, check_dtype=False,
                                      check_exact=False, rtol=0,
                                      atol=1e-6)
        pytest.fail(f"{name}: value hash mismatch but frames equal "
                    "within 1e-6 — tighten the query's rounding so the "
                    "driver's exact hash compare is stable")
