#!/usr/bin/env python3
"""Merge several runs of a micro bench's --json output into one baseline.

Every numeric value becomes the median of that value across the runs;
strings, booleans and the layout come from the first run.  The runs must
share one shape (same keys, same list lengths), which holds for repeated
runs of one bench with one command line.

    python3 bench/median_json.py BENCH_locality.json run1.json ... runN.json

A committed baseline recorded this way is the per-value median of N
separate processes, so one unlucky process cannot set it.  Use an odd N
so each median is one of the measured values.
"""
import json
import statistics
import sys


def merge(values):
    first = values[0]
    if isinstance(first, dict):
        return {key: merge([v[key] for v in values]) for key in first}
    if isinstance(first, list):
        return [merge([v[i] for v in values]) for i in range(len(first))]
    if isinstance(first, (int, float)) and not isinstance(first, bool):
        return statistics.median(values)
    if any(v != first for v in values):
        sys.exit("median_json.py: runs differ in a non-numeric value: "
                 + repr(sorted(set(map(str, values)))))
    return first


def main():
    if len(sys.argv) < 3:
        sys.exit("usage: median_json.py OUT RUN.json [RUN.json ...]")
    runs = []
    for path in sys.argv[2:]:
        with open(path) as f:
            runs.append(json.load(f))
    merged = merge(runs)
    merged["baseline_runs"] = len(runs)
    with open(sys.argv[1], "w") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
