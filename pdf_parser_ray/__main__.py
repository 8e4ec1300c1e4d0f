"""CLI entry points — the E1/E2/E3 analogs (pdf_layout_tester.py:369-396,
A003_colored_footer.py:363-430, A004_Vision_2025.py:446-500).

    python -m pdf_parser_ray extract   --sf-dir DIR [--out DIR] [--pages 1-5]
    python -m pdf_parser_ray questions --sf-dir DIR [--out DIR]
    python -m pdf_parser_ray markdown  --sf-dir DIR [--out DIR] [--style c001|c002]
    python -m pdf_parser_ray wave      --files F [F ...] --out DIR
    python -m pdf_parser_ray compact   --out DIR

``wave`` is the daily-operations entry (state/waves.py): pass the FULL
current file listing every run; only registry-new files are extracted,
a crashed wave resumes, a fully-committed listing is a no-op.
``compact`` seals everything committed into one read-optimized
generation (run it when small daily waves accumulate).

Owns its Ray session (scripts init; the driver harness and library never
do)."""

from __future__ import annotations

import argparse
import sys


def main(argv=None):
    p = argparse.ArgumentParser(prog="pdf_parser_ray")
    sub = p.add_subparsers(dest="cmd", required=True)
    for name in ("extract", "questions", "markdown"):
        s = sub.add_parser(name)
        s.add_argument("--sf-dir", default="/root/testdata/sf0.001")
        s.add_argument("--transcripts", default=None,
                       help="existing transcript parquet file/dir "
                            "(overrides --sf-dir synthesis)")
        s.add_argument("--out", default=None)
        s.add_argument("--pages", default=None,
                       help="page spec: '3', '1-5', ... (M15)")
        if name == "markdown":
            s.add_argument("--style", choices=("c001", "c002"),
                           default="c002")
        s.add_argument("--num-blocks", type=int, default=None,
                       help="pin the transcript read's block count "
                            "(max(n_files, 2 x cpus) measured 1.4-1.8x "
                            "faster than the default split heuristic "
                            "on small-file corpora; see bench.py)")
        if name == "extract":
            s.add_argument("--n-buckets", type=int, default=32)
    w = sub.add_parser("wave")
    w.add_argument("--files", nargs="+", required=True,
                   help="the FULL current transcript-parquet listing")
    w.add_argument("--out", required=True)
    w.add_argument("--n-buckets", type=int, default=32)
    w.add_argument("--num-blocks", type=int, default=None)
    c = sub.add_parser("compact")
    c.add_argument("--out", required=True)
    c.add_argument("--prune", action="store_true",
                   help="delete superseded generations after the "
                        "commit (only when no reader may still be "
                        "streaming them)")
    args = p.parse_args(argv)

    import os

    import ray
    if not ray.is_initialized():
        # honor RAY_ADDRESS so the same entry point serves both the
        # sandbox (RAY_ADDRESS=local -> own single-node instance) and a
        # `ray job submit` run, where the job runtime points it at the
        # running multi-node cluster
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    if args.cmd == "compact":
        try:
            from .state.waves import compact_waves
            entry = compact_waves(args.out, prune=args.prune)
            if entry is None:
                print("already compacted through the latest wave")
            else:
                print(f"generation {entry['generation']}: "
                      f"{entry['rows']} rows, covers waves 0.."
                      f"{entry['covers_through']}")
        finally:
            ray.shutdown()
        return

    if args.cmd == "wave":
        try:
            from .state.waves import extract_wave
            wave_id, metrics = extract_wave(
                args.files, args.out, n_buckets=args.n_buckets,
                override_num_blocks=args.num_blocks)
            if wave_id is None:
                print("no new files: all submitted files are committed")
            else:
                from .state.waves import read_registry
                total = read_registry(args.out)[wave_id]["rows"]
                print(f"wave {wave_id}: {total} rows committed "
                      f"({len(metrics)} buckets computed this run)")
                if len(metrics):
                    print(metrics.to_string(index=False))
        finally:
            ray.shutdown()
        return

    from .pipelines.extraction import extract_dataset
    from .sources.transcripts import read_transcripts, transcripts_dataset
    from .stages.extract import INPUT_COLUMNS

    def extracted_turns():
        """Shared extraction front-end honoring --transcripts and
        --pages for EVERY subcommand (a spec silently ignored is worse
        than an error)."""
        if args.transcripts is not None:
            ts = read_transcripts(args.transcripts, columns=INPUT_COLUMNS,
                                  override_num_blocks=args.num_blocks)
        else:
            ts = transcripts_dataset(args.sf_dir)
        if args.pages is not None:
            from .functions.pagespec import filter_turns
            ts = filter_turns(ts, args.pages)
        return extract_dataset(ts)

    try:
        if args.cmd == "extract":
            ds = extracted_turns()
            if args.out:
                from .state.checkpoint import checkpointed_write
                metrics = checkpointed_write(ds, args.out,
                                             n_buckets=args.n_buckets)
                print(metrics.to_string(index=False))
            else:
                print(f"extracted {ds.count()} turns")
        elif args.cmd == "questions":
            from .stages.questions import questions_dataset
            qs = questions_dataset(extracted_turns())
            if args.out:
                qs.write_parquet(args.out)
                print(f"wrote questions to {args.out}")
            else:
                print(f"extracted {qs.count()} questions")
        elif args.cmd == "markdown":
            ex = extracted_turns()
            if args.style == "c001":
                from .stages.sinks import markdown_c001_dataset
                md = markdown_c001_dataset(ex)
            else:
                from .stages.assemble import markdown_dataset
                md = markdown_dataset(ex)
            if args.out:
                md.write_parquet(args.out)
                print(f"wrote markdown to {args.out}")
            else:
                print(f"rendered {md.count()} conversations")
    finally:
        ray.shutdown()


if __name__ == "__main__":
    main()
