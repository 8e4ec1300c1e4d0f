"""Extraction benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload layout_stream --seed 1 \
        --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
host shape. Per-pass draws and the per-layer table are written to
``.perfbench/results/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["layout_stream", "fallback_ordered",
                             "plain_checkpoint"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    needed = [os.path.join("pdf_parser_ray", "pipelines", "extraction.py"),
              os.path.join("tests", "reference_oracle.py")]
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"run from the repository root: missing {missing}",
              file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [root] + [p for p in sys.path
                            if os.path.abspath(p or ".") != here]
    from perfbench import harness
    return harness.run(args.workload, args.seed, args.seconds,
                       bool(args.trace), root)


if __name__ == "__main__":
    sys.exit(main())
