"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_large --seed 1 --seconds 42 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs traced
rounds beside untraced ones, prints every per-layer metric and writes the
spans of the last traced round to ``perfbench/out/``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program is imported from
``src/`` of the same checkout; without it the run exits with status 2.
See ``README.md`` beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program source {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from harness import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))

    for note in outcome.notes:
        print(f"# {note}")
    for name, metric in outcome.metrics.items():
        print(f"{name:<48} {metric['value']:>16.6g} {metric['unit']}")
    if outcome.trace_export is not None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace_{args.workload}_seed{args.seed}.json"
        path.write_text(json.dumps({"metrics": outcome.metrics, **outcome.trace_export}))
        print(f"# spans written to {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": outcome.metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
