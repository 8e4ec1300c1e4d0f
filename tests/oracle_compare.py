"""The oracle comparison shared by the sf0.001 and sf0.01 oracle tests:
the driver's canonical frame and its order-insensitive value hash."""

import pandas as pd


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
