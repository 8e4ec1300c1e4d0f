"""Driver-harness queries: one entry per implemented operator/pipeline.

Each query is a function ``f(sf_dir) -> pandas.DataFrame`` declared
once, by a decorator beside it, in the module of its README family
(``tpch``, ``events``, ``docs``, ``dedup``, ``embeddings``,
``transcripts``): ``@query`` for a rows-only query, or
``@query(oracle=SQL)`` for one the driver compares against that SQL
via DuckDB (row count + schema + order-insensitive value hash). Column
names and explicit ROUND() calls match on both sides by construction.
``QUERIES`` (name -> function) and ``ORACLES`` (name -> SQL) are
derived from those declarations.

Rows-only queries are non-SQL-expressible (extraction kernel, LSH
dedup, markdown assembly, ...) and get a rows-only check; their
correctness gate is the pytest oracle suite instead.

Bounds-oracles: the sketch queries emit (exact value computed by the
engine, invariant bool); their SQL emits (exact value computed by
DuckDB, TRUE) — the hash compare then validates the exact path
bit-exact AND fails if the sketch ever leaves its error bound.

Registry order contract: the correctness driver samples the FIRST 50
entries each round, so those 50 are all oracled (pinned by
tests/test_queries_oracle.py::test_driver_window_is_all_oracled).
``DRIVER_WINDOW`` names them in order; every other query follows in
declaration order (the family modules in the order imported below).
Rows-only queries (no SQL oracle possible: iterative kmeans, measured
ANN recall, extraction surfaces) sit past the window, where the
driver's weaker rows-only check applies. Adding a query takes one
declaration; its name joins ``DRIVER_WINDOW`` only if it is oracled
and should be sampled.
"""

from __future__ import annotations

from typing import Callable

# README family order: it is the declaration order past the window
from . import tpch, events, docs, dedup, embeddings, transcripts  # noqa: F401
from ._common import DECLARED, ORACLE_SQL, query  # noqa: F401

DRIVER_WINDOW = (
    "tpch_fk_audit", "events_value_mad_by_type", "docs_pack_sequences",
    "docs_length_buckets", "docs_source_lang_rollup",
    "events_user_spend_cume", "docs_cap_per_source",
    "docs_temperature_mix", "docs_token_budget_mix", "docs_decontaminate",
    "docs_tfidf_topk", "docs_bm25_topk", "docs_shuffle_order",
    "docs_gopher_rules", "docs_c4_filters", "docs_quality_gate",
    "docs_freq_spectrum", "docs_heavy_tokens", "docs_sliding_chunks",
    "docs_bigram_lift", "docs_bigram_novelty", "docs_pii_scrub",
    "docs_curation_funnel", "embeddings_semantic_pairs",
    "embeddings_semantic_pairs_kmeans", "embeddings_semantic_dedup",
    "docs_unigram_ce", "docs_jaccard_pairs", "docs_containment_pairs",
    "docs_train_val_test_split", "events_value_hour_corr",
    "docs_source_entropy", "docs_vocab_overlap", "events_value_drift_psi",
    "events_rolling_wau", "orders_customer_bucketed_join",
    "q1_pricing_summary", "q6_forecast_revenue", "lineitem_filter_project",
    "orders_customer_join_stats", "events_type_stats", "events_sessions",
    "events_sorted_export", "docs_exact_dedup", "docs_clean_text",
    "events_props_stats", "docs_lang_id", "docs_training_mix",
    "docs_token_counts", "docs_fingerprint",
)

QUERIES: dict[str, Callable] = {
    **{name: DECLARED[name] for name in DRIVER_WINDOW}, **DECLARED}
ORACLES: dict[str, str] = {
    name: ORACLE_SQL[name] for name in QUERIES if name in ORACLE_SQL}
