"""Compare two result files of ``run.py``: the A/A check and the A/B gate.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians, the run-to-run
spread (distance between the quartiles over the median, the larger of
the two files), how much worse B is than A as a share of A, the bound
from ``BENCHMARK.json`` and a verdict:

``ok``          B is not worse than A by more than the bound;
``regressed``   it is;
``unresolved``  the spread is wider than the bound, so the runs cannot
                tell (unless every B run beats every A run).

Counts and modeled times of the traced runs must be equal wherever both
files hold the same (workload, seed).  Exit status 1 on any regression,
count mismatch or failed operation.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
#: Per-layer metrics that are counts or modeled times, not host timings.
EXACT_UNITS = ("count", "ratio", "1/kpkt", "ms")
MEASURED_PREFIXES = ("trace.", "e2e.")


def load(path: str):
    """``(workload, metric) -> values`` of the untraced runs, the traced
    records by (workload, seed), and the number of failed operations."""
    records = json.loads(Path(path).read_text())["records"]
    values = defaultdict(list)
    traced = {}
    failed = 0
    for record in records:
        failed += record["failed"] + (not record["correct"])
        if record["trace"]:
            traced[record["workload"], record["seed"]] = record["metrics"]
        else:
            for name, metric in record["metrics"].items():
                values[record["workload"], name].append(metric["value"])
    return values, traced, failed


def spread(values) -> float:
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(metric, a, b) -> tuple:
    """(share of A by which B is worse, spread, verdict)."""
    higher = metric["better"] == "higher"
    base, other = statistics.median(a), statistics.median(b)
    worse = (base - other if higher else other - base) / base
    noise = max(spread(a), spread(b))
    if noise > metric["bound"]:
        beats_all = min(b) > max(a) if higher else max(b) < min(a)
        return worse, noise, "ok" if beats_all else "unresolved"
    return worse, noise, "regressed" if worse > metric["bound"] else "ok"


def exact_mismatches(traced_a, traced_b) -> list:
    units = {
        metric["name"]: metric["unit"] for metric in SPEC["per_layer"]
    }
    mismatches = []
    for key in sorted(traced_a.keys() & traced_b.keys()):
        for name, metric in traced_a[key].items():
            if units[name] not in EXACT_UNITS or name.startswith(MEASURED_PREFIXES):
                continue
            other = traced_b[key][name]["value"]
            if metric["value"] != other:
                mismatches.append((*key, name, metric["value"], other))
    return mismatches


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    values_a, traced_a, failed_a = load(sys.argv[1])
    values_b, traced_b, failed_b = load(sys.argv[2])
    status = 0
    print(
        f"{'workload':14s} {'metric':10s} {'A median':>12s} {'B median':>12s} "
        f"{'unit':5s} {'B/A':>7s} {'worse':>7s} {'spread':>7s} {'bound':>6s}  verdict"
    )
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"]:
            key = workload["name"], metric["name"]
            a, b = values_a.get(key), values_b.get(key)
            if not a or not b:
                continue
            worse, noise, word = verdict(metric, a, b)
            status |= word == "regressed"
            base, other = statistics.median(a), statistics.median(b)
            print(
                f"{key[0]:14s} {key[1]:10s} {base:12.4f} {other:12.4f} "
                f"{metric['unit']:5s} {other / base:7.3f} {worse:+7.1%} "
                f"{noise:7.1%} {metric['bound']:6.0%}  {word} "
                f"(n={len(a)}/{len(b)})"
            )
    mismatches = exact_mismatches(traced_a, traced_b)
    shared = len(traced_a.keys() & traced_b.keys())
    print(
        f"counts and modeled times: {len(mismatches)} mismatches over "
        f"{shared} traced runs with the same workload and seed"
    )
    for row in mismatches:
        print("  mismatch", *row)
    print(f"failed operations: A {failed_a}, B {failed_b}")
    return int(bool(status or mismatches or failed_a or failed_b))


if __name__ == "__main__":
    sys.exit(main())
