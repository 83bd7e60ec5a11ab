"""Benchmark command.

Run from the repository root::

    python3 perfbench/run.py --workload tap-steady --seed 17 --seconds 25 --trace 0

Prints one line per note (what ran, percentile ranks, failed checks)
and, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Exits 0 when every check passed, 1 when a
check failed, 2 when the repository sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {source}", file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [source, ROOT] + [p for p in sys.path if os.path.abspath(p or '.') != here]
    from perfbench.bench import run
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    for note in outcome["notes"]:
        print(note)
    result = outcome["result"]
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
