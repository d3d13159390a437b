"""Record the UPF perf trajectory: ``python benchmarks/record_bench.py``.

Runs the platform-micro benchmark under pytest-benchmark, distills the
full (machine-noisy, megabyte-scale) pytest-benchmark JSON into the
headline numbers, and appends one record to ``BENCH_upf.json`` — the
committed perf trajectory.  Each record carries the git revision it was
measured at, so the file answers "what did the flow-cache speedup look
like at PR N" without spelunking CI artifacts.

A second suite covers the scale-out axis: ``--suite shard`` runs the
10k -> 1M session x 1/2/4/8 shard sweep from
:mod:`repro.experiments.scalability` and appends to ``BENCH_shard.json``
(``--reduced`` shrinks it to the CI smoke grid).

A third covers the state-layout axis: ``--suite cache`` runs the
measured working-set sweep (per-decision cost over growing session
counts, hot-slab vs. dict layout) and the flow-cache
capacity/associativity ablation from :mod:`repro.experiments.cache`,
plus the modeled LLC-cliff rows from
:func:`repro.experiments.fig10.llc_cliff`, and appends to
``BENCH_cache.json``.

Options::

    python benchmarks/record_bench.py            # append to BENCH_upf.json
    python benchmarks/record_bench.py --fresh    # start the file over
    python benchmarks/record_bench.py --output other.json
    python benchmarks/record_bench.py --suite shard [--reduced]
    python benchmarks/record_bench.py --suite cache [--reduced]
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_FILE = os.path.join(REPO_ROOT, "benchmarks",
                          "test_bench_platform_micro.py")
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_upf.json")
SHARD_OUTPUT = os.path.join(REPO_ROOT, "BENCH_shard.json")
CACHE_OUTPUT = os.path.join(REPO_ROOT, "BENCH_cache.json")


def run_benchmarks() -> dict:
    """One pytest-benchmark run; returns the parsed raw JSON."""
    with tempfile.NamedTemporaryFile(
        suffix=".json", delete=False, mode="w"
    ) as handle:
        raw_path = handle.name
    try:
        subprocess.run(
            [
                sys.executable, "-m", "pytest", "--benchmark-only", "-q",
                f"--benchmark-json={raw_path}", BENCH_FILE,
            ],
            check=True,
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        )
        with open(raw_path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    finally:
        os.unlink(raw_path)


def distill(raw: dict) -> dict:
    """One trajectory record from a raw pytest-benchmark payload."""
    benchmarks = []
    for bench in raw.get("benchmarks", []):
        stats = bench.get("stats", {})
        entry = {
            "name": bench.get("name"),
            "mean_us": round(stats.get("mean", 0.0) * 1e6, 4),
            "stddev_us": round(stats.get("stddev", 0.0) * 1e6, 4),
            "rounds": stats.get("rounds"),
        }
        extra = bench.get("extra_info") or {}
        if extra:
            entry["extra_info"] = {
                key: round(value, 4) if isinstance(value, float) else value
                for key, value in sorted(extra.items())
            }
        benchmarks.append(entry)
    benchmarks.sort(key=lambda entry: entry["name"] or "")
    return {
        "recorded_at": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "benchmarks": benchmarks,
    }


def run_shard_sweep(reduced: bool = False) -> dict:
    """One shard-scalability record (see experiments.scalability)."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from dataclasses import asdict

    from repro.experiments.scalability import shard_scale_sweep

    if reduced:
        rows = shard_scale_sweep(
            session_counts=(10_000,),
            shard_counts=(1, 2, 4),
            resident_per_shard=128,
            packets=1000,
            repeats=2,
        )
    else:
        rows = shard_scale_sweep()
    return {
        "recorded_at": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "reduced": reduced,
        "rows": [
            {
                key: round(value, 4) if isinstance(value, float) else value
                for key, value in asdict(row).items()
            }
            for row in rows
        ],
    }


def run_cache_sweep(reduced: bool = False) -> dict:
    """One cache-layout record (see experiments.cache + fig10).

    Three sections: the *measured* working-set sweep (slab vs. dict
    per-decision ns), the *measured* flow-cache capacity/associativity
    ablation, and the *modeled* LLC-cliff rows from the cost model's
    cache-hierarchy term (deterministic — included so the committed
    file shows the cliff the measured sweep is probing).
    """
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from dataclasses import asdict

    from repro.experiments.cache import (
        flow_cache_ablation_sweep,
        working_set_sweep,
    )
    from repro.experiments.fig10 import llc_cliff

    if reduced:
        working_set = working_set_sweep(
            session_counts=(100, 1_000, 5_000),
            repeats=2,
            min_resolutions=5_000,
        )
        ablation = flow_cache_ablation_sweep(
            capacities=(256, 1024),
            ways_sweep=(1, 4, 0),
            flows=512,
            passes=2,
        )
    else:
        working_set = working_set_sweep()
        ablation = flow_cache_ablation_sweep()

    def rows(items):
        return [
            {
                key: round(value, 4) if isinstance(value, float) else value
                for key, value in asdict(item).items()
            }
            for item in items
        ]

    return {
        "recorded_at": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "reduced": reduced,
        "working_set_rows": rows(working_set),
        "ablation_rows": rows(ablation),
        "modeled_llc_cliff_rows": rows(llc_cliff()),
    }


def git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True, cwd=REPO_ROOT,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load_trajectory(path: str) -> dict:
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if isinstance(data, dict) and isinstance(data.get("records"), list):
            return data
    return {"version": 1, "records": []}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Append a platform-micro benchmark record to the "
        "committed perf trajectory."
    )
    parser.add_argument("--output", default=None)
    parser.add_argument(
        "--fresh", action="store_true",
        help="discard existing records instead of appending",
    )
    parser.add_argument(
        "--suite", choices=("micro", "shard", "cache"),
        default="micro",
        help="micro: pytest-benchmark platform suite; "
        "shard: the sessions x shards scalability sweep; "
        "cache: the working-set + flow-cache-geometry sweep",
    )
    parser.add_argument(
        "--reduced", action="store_true",
        help="shard/cache suites: the CI-sized grid",
    )
    args = parser.parse_args(argv)
    output = args.output or {
        "shard": SHARD_OUTPUT,
        "cache": CACHE_OUTPUT,
    }.get(args.suite, DEFAULT_OUTPUT)

    if args.suite == "shard":
        record = run_shard_sweep(reduced=args.reduced)
    elif args.suite == "cache":
        record = run_cache_sweep(reduced=args.reduced)
    else:
        record = distill(run_benchmarks())
    trajectory = (
        {"version": 1, "records": []}
        if args.fresh
        else load_trajectory(output)
    )
    trajectory["records"].append(record)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")

    if args.suite == "shard":
        print(
            f"recorded {len(record['rows'])} sweep row(s) at "
            f"{record['git_rev']} -> {output}"
        )
        return 0
    if args.suite == "cache":
        print(
            f"recorded {len(record['working_set_rows'])} working-set + "
            f"{len(record['ablation_rows'])} ablation + "
            f"{len(record['modeled_llc_cliff_rows'])} modeled row(s) at "
            f"{record['git_rev']} -> {output}"
        )
        return 0
    names = ", ".join(
        entry["name"] for entry in record["benchmarks"] if entry["name"]
    )
    print(
        f"recorded {len(record['benchmarks'])} benchmark(s) at "
        f"{record['git_rev']} -> {output}: {names}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
