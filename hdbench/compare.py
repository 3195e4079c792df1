#!/usr/bin/env python3
"""Compare two sets of benchmark results metric by metric.

    python3 hdbench/compare.py --base a1.json a2.json --new b1.json b2.json

Each file is written by `run.py --all --out FILE` (one seed each). For every
workload and end-to-end metric the medians over each side's files are
compared against the metric's bound in BENCHMARK.json, and one row per
workload is printed. A cell reads `+3.1%` (change of the median), with `!`
when the new side is worse than the bound allows and `*` when it is better
by more than the bound. Exits 1 when any cell is marked `!`.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def medians(paths):
    """{workload: {metric: median value}} over the given result files."""
    values = {}
    for path in paths:
        with open(path) as f:
            for workload, result in json.load(f)["workloads"].items():
                for name, metric in result["metrics"].items():
                    values.setdefault(workload, {}).setdefault(name, []).append(
                        metric["value"])
    return {w: {n: statistics.median(v) for n, v in m.items()}
            for w, m in values.items()}


def compare_cell(base, new, better, bound):
    """(relative change, marker) for one metric."""
    if base == 0:
        return 0.0 if new == 0 else float("inf"), "" if new == 0 else "?"
    change = (new - base) / abs(base)
    worse = -change if better == "higher" else change
    if worse > bound:
        return change, "!"
    if -worse > bound:
        return change, "*"
    return change, ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()

    with open(SPEC) as f:
        metrics = json.load(f)["end_to_end"]
    base, new = medians(args.base), medians(args.new)
    header = f"{'workload':18s}" + "".join(f"{m['name']:>16s}" for m in metrics)
    print(header)
    regressed = False
    for workload in sorted(set(base) | set(new)):
        row = f"{workload:18s}"
        for m in metrics:
            b = base.get(workload, {}).get(m["name"])
            n = new.get(workload, {}).get(m["name"])
            if b is None or n is None:
                row += f"{'missing':>16s}"
                regressed = True
                continue
            change, marker = compare_cell(b, n, m["better"], m["bound"])
            regressed |= marker == "!"
            row += f"{change * 100:+14.1f}%{marker or ' '}"
        print(row)
    print("bounds: " + ", ".join(f"{m['name']} {m['bound']:.0%}" for m in metrics))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
