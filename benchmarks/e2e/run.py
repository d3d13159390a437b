"""End-to-end + per-layer host-time benchmark of the L25GC core.

One workload, as the benchmark driver calls it::

    python3 benchmarks/e2e/run.py --workload dl_steady --seed 1 --seconds 8 --trace 0

prints every metric by name with its unit and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (which also writes a Chrome trace under ``out/``).

Without ``--workload`` it runs every workload in a child process each,
``--runs`` times over (pass 1 over all workloads, then pass 2, ...),
and writes all results to ``--out`` for ``compare.py``.

Timing method: after set-up and warm-up, work is cut into slices of a
fixed operation count (30-250 ms each); a slice's inputs are generated
before its clock starts and the collector is off while it runs.  Rates
come from the 10th-percentile slice time, which on a shared box repeats
far better than the median; median, p90 and CoV are reported as
diagnostics.  Traffic is in-process: it crosses neither a real link nor
the loopback interface.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from drivers import DRIVERS  # noqa: E402
from hostspeed import (  # noqa: E402
    clock_ns, host_speed, p10, reference_ns, reference_samples,
)
from layers import probe_layers  # noqa: E402
from spans import HARNESS, Tracer  # noqa: E402
from workloads import WORKLOADS, Generator  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = ("up", "deploy", "core", "sim", "cp", "ran", "traffic")


class Plan(NamedTuple):
    """How much of everything one run does."""

    #: Fraction of each population that is built.
    scale: float = 1.0
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setups: int = 3
    #: Slices whose counter deltas give the count metrics: a fixed
    #: number, so the counts repeat exactly for a given seed.
    count_slices: int = 8
    min_slices: int = 10
    probe_repeats: int = 30


SMOKE = Plan(scale=0.1, setups=1, count_slices=2, min_slices=3, probe_repeats=3)


# ---------------------------------------------------------------------------
# Slices
# ---------------------------------------------------------------------------
class Tally:
    """Operations attempted and failed, over every slice of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0


def run_slice(driver, tally: Tally, tracer=None, index: int = 0) -> tuple:
    """One slice: untimed inputs, timed run, untimed check.

    Returns the host ns of each separately timed segment of the slice
    (one, unless the driver splits its slice), the operations done and
    the reference kernel's time beside it.
    """
    inputs = driver.prepare()
    # Young garbage only: a full collection would scan the whole
    # population before every slice.
    gc.collect(1)
    gc.disable()
    try:
        reference = reference_ns()
        start = clock_ns()
        if tracer is None:
            outputs = driver.run(inputs)
        else:
            outputs = tracer.run_slice(index, driver.run, inputs)
        elapsed = clock_ns() - start
    finally:
        gc.enable()
    attempted, failed = driver.verify(inputs, outputs)
    tally.attempted += attempted
    tally.failed += failed
    return driver.segments or [elapsed], attempted, reference


def cache_counts(driver) -> Counter:
    counts = Counter()
    for upf in driver.upfs:
        cache = upf.flow_cache
        if cache is not None:
            for field in ("hits", "misses", "stale", "evictions"):
                counts[field] += getattr(cache, field)
    return counts


def warm_up(driver, tally: Tally) -> None:
    """Slices until every flow was sent once and the flow-cache hit ratio
    moves < 1 % between rounds.

    A round is up to 8 slices or 2048 operations, so that a cache that
    is still filling does not look settled.
    """
    previous = None
    before = cache_counts(driver)
    for _ in range(256):
        attempted = 0
        for _ in range(8):
            attempted += run_slice(driver, tally)[1]
            if attempted >= 2048:
                break
        after = cache_counts(driver)
        probes = (
            after["hits"] + after["misses"] - before["hits"] - before["misses"]
        )
        ratio = (after["hits"] - before["hits"]) / probes if probes else 0.0
        settled = previous is not None and abs(ratio - previous) < 0.01
        if settled and not driver.gen.uncovered:
            return
        previous, before = ratio, after


def set_up(name: str, seed: int, plan: Plan, tally: Tally, tracer=None):
    """Build, populate and warm one workload; the driver and the seconds."""
    gc.collect()
    reference = reference_samples()
    start = clock_ns()
    driver = DRIVERS[name](Generator(name, seed, plan.scale), tracer)
    warm_up(driver, tally)
    elapsed = clock_ns() - start
    reference += reference_samples()
    return driver, elapsed * host_speed(reference) / 1e9


def timed_slices(driver, seconds, plan: Plan, tally: Tally, tracer=None):
    """``run_slice`` results over ``seconds`` of wall clock."""
    # Everything built so far is long-lived: keep it out of the
    # per-slice collections.
    gc.collect()
    gc.freeze()
    slices = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(slices) < plan.min_slices:
        slices.append(run_slice(driver, tally, tracer, len(slices)))
    gc.unfreeze()
    return slices


def ns_per_op(slices) -> float:
    """Nominal-host time per operation: each segment's 10th percentile,
    summed, scaled by the host's speed while the slices ran.

    A low percentile of short segments is what repeats on a shared box:
    it drops the segments the hypervisor or a neighbour interrupted.
    """
    if len({len(segments) for segments, _, _ in slices}) != 1:
        raise ValueError("slices of one workload differ in their segments")
    columns = zip(*(
        [ns / operations for ns in segments]
        for segments, operations, _ in slices
    ))
    speed = host_speed(reference for _, _, reference in slices)
    return speed * sum(p10(column) for column in columns)


# ---------------------------------------------------------------------------
# Count metrics
# ---------------------------------------------------------------------------
def snapshot(driver, steps: list) -> Counter:
    counts = cache_counts(driver)
    counts["packets"] = driver.packets
    counts["procedures"] = driver.procedures
    counts["steps"] = steps[0]
    counts["buffered"] = sum(upf.stats.buffered for upf in driver.upfs)
    counts["messages"] = driver.messages()
    return counts


def count_pass(driver, plan: Plan, tally: Tally) -> dict:
    """Exact counts over a fixed number of slices, read from outside."""
    env = driver.env
    steps = [0]
    step = env.step

    def counted_step():
        steps[0] += 1
        step()

    env.step = counted_step
    marks = [snapshot(driver, steps)]
    for _ in range(plan.count_slices):
        run_slice(driver, tally)
        marks.append(snapshot(driver, steps))
    del env.step
    deltas = [after - before for before, after in zip(marks, marks[1:])]
    if driver.gen.spec["steady_counts"] and deltas.count(deltas[0]) != len(deltas):
        # Slices of one shape must cost the same events, messages and
        # probes; if not, the counts below would not repeat either.
        tally.failed += 1
    total = marks[-1] - marks[0]

    def per(numerator: str, denominator: str) -> float:
        return total[numerator] / total[denominator] if total[denominator] else 0.0

    probes = total["hits"] + total["misses"]
    cached = any(upf.flow_cache is not None for upf in driver.upfs)
    ring, manager, core = driver.rx_ring, driver.manager, driver.core
    sharded = core is not None and len(driver.upfs) > 1
    return {
        "up.cache_hit_ratio": total["hits"] / probes if probes else 0.0,
        "up.cache_evict_per_kpkt": 1000.0 * per("evictions", "packets"),
        "up.cache_stale_per_kpkt": 1000.0 * per("stale", "packets"),
        # Packets that ran the full match pipeline instead of one probe.
        "up.slowpath_share": (
            1.0 - per("hits", "packets") if cached
            else float(total["packets"] > 0)
        ),
        "up.buffered_share": per("buffered", "packets"),
        "deploy.load_skew": core.upf_u.load_skew() if sharded else 0.0,
        # (An empty Ring is falsy, hence the explicit None test.)
        "core.ring_high_watermark": (
            ring.high_watermark if ring is not None else 0
        ),
        "core.ring_drops": (
            ring.dropped + ring.enqueue_failures + manager.dropped
            if ring is not None else 0
        ),
        "core.bus_lost": driver.bus.lost if driver.bus is not None else 0,
        "sim.events_per_pkt": per("steps", "packets"),
        "sim.events_per_proc": per("steps", "procedures"),
        "cp.msgs_per_proc": per("messages", "procedures"),
    }


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------
def end_to_end(name: str, seed: int, seconds: float, plan: Plan) -> tuple:
    tally = Tally()
    setups = []
    driver = None
    for _ in range(plan.setups):
        driver = None  # free the previous population before the next
        driver, elapsed = set_up(name, seed, plan, tally)
        setups.append(elapsed)
    slices = timed_slices(driver, seconds, plan, tally)
    rate, speed = 1e9 / ns_per_op(slices), host_speed(s[2] for s in slices)
    print(
        f"# {name}: {len(slices)} slices, rate from their 10th percentile; "
        f"host speed {speed:.3f} of nominal, unscaled rate {rate * speed:.1f}/s"
    )
    return {
        "ops_per_s": rate,
        "setup_s": statistics.median(setups),
        "mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, tally


def per_layer(name: str, seed: int, seconds: float, plan: Plan) -> tuple:
    tally = Tally()
    driver, _ = set_up(name, seed, plan, tally)
    values = count_pass(driver, plan, tally)
    plain = timed_slices(driver, seconds / 2, plan, tally)
    del driver

    tracer = Tracer()
    driver, _ = set_up(name, seed, plan, tally, tracer)
    tracer.reset()
    traced = timed_slices(driver, seconds / 2, plan, tally, tracer)
    del driver
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.write_chrome_trace(out / f"trace_{name}.json")

    shares = tracer.shares()
    micros = [sum(segments) / 1e3 for segments, _, _ in plain]
    values.update({f"trace.{layer}_share": shares.get(layer, 0.0) for layer in LAYERS})
    values.update({
        "trace.unattributed_share": shares[HARNESS],
        "trace.overhead_share": ns_per_op(traced) / ns_per_op(plain) - 1.0,
        "e2e.slice_p50_us": statistics.median(micros),
        "e2e.slice_p90_us": statistics.quantiles(micros, n=10)[-1],
        "e2e.slice_cov": statistics.stdev(micros) / statistics.mean(micros),
        "e2e.host_speed": host_speed(reference for _, _, reference in plain),
    })
    values.update(probe_layers(name, seed, plan.scale, plan.probe_repeats))
    print(
        f"# {name}: {len(plain)} untraced and {len(traced)} traced slices; "
        f"Chrome trace in {out.name}/trace_{name}.json"
    )
    return values, tally


def run_workload(args) -> int:
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        # Fix string hashing from the seed, for set and dict order.
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    plan = SMOKE if args.smoke else Plan()
    section, measure = (
        ("per_layer", per_layer) if args.trace else ("end_to_end", end_to_end)
    )
    values, tally = measure(args.workload, args.seed, args.seconds, plan)
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in SPEC[section]
    }
    correct = tally.failed == 0 and all(
        math.isfinite(metric["value"]) for metric in metrics.values()
    )
    for metric_name, metric in metrics.items():
        print(f"{metric_name:28s} {metric['value']:16.6f} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Every workload
# ---------------------------------------------------------------------------
def run_all(args) -> int:
    records = []
    status = 0
    for run in range(args.runs):
        for name in WORKLOADS:
            for trace in ((0, 1) if args.trace else (0,)):
                command = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", name, "--seed", str(args.seed + run),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                ] + (["--smoke"] if args.smoke else [])
                done = subprocess.run(
                    command, capture_output=True, text=True,
                    env=dict(
                        os.environ, PYTHONHASHSEED=str((args.seed + run) % 2**32)
                    ),
                )
                print(done.stdout, end="", flush=True)
                if done.returncode:
                    print(done.stderr, file=sys.stderr)
                    status = 1
                try:
                    # A run that failed its checks still prints a result.
                    result = json.loads(done.stdout.splitlines()[-1])
                except (IndexError, ValueError):
                    continue
                records.append({
                    "workload": name, "seed": args.seed + run, "trace": trace,
                    **result,
                })
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({
        "traffic": "in-process; crosses neither a real link nor loopback",
        "seconds": args.seconds,
        "records": records,
    }, indent=1))
    print(f"# wrote {args.out}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny populations and 0.2 s runs: a < 20 s check")
    parser.add_argument("--runs", type=int, default=1,
                        help="passes over all workloads, seeds seed..seed+runs-1")
    parser.add_argument("--out", type=Path, default=HERE / "out" / "result.json")
    args = parser.parse_args()
    if args.smoke:
        args.seconds = 0.2
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
