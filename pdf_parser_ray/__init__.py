"""pdf_parser_ray — a Ray-Data-native main-content extraction engine.

A from-scratch reimplementation of the query / data-processing
capabilities of the reference repo ``ai-tools-all/pdf-parser``
(layout-aware main-content extraction: tokenize → segment → column
detection → header/footer strip → reading-order reconstruction),
re-expressed as streaming ``ray.data.Dataset`` pipelines over Parquet
transcript tables ``(conv_id, turn_idx, role, text, tool, ts)``.

Layout:
  kernel.py       pure per-turn extraction kernel (no Ray): the reference
                  semantics, and the per-turn fallback for the turns
                  stages/extract.py cannot decide as whole batches
  strategies.py   extractor-strategy registry (tool → strategy routing)
  html_parse.py   DOM-lite HTML → synthetic text blocks (boilerplate strip path)
  stages/         map_batches stage callables (extract, questions, dedup, ...)
  sources/        transcript synthesis + pruned parquet readers
  pipelines/      end-to-end flagship pipelines (extraction, markdown, bench)
  state/          per-partition lineage / checkpoint / resume
  relational.py   scalable relational ops over the star-schema test tables
  queries/        the driver-harness query registry, one module per family
"""

__version__ = "0.1.0"
