"""Smoke test of the end-to-end benchmark (< 20 s).

Run with ``python -m pytest benchmarks/e2e -q``; tier-1's ``testpaths``
stays ``tests``, so the default suite does not pick this up.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Per-layer metrics that are 0 where a workload's path skips the layer
#: (counts read from the workload's own objects, trace shares).
MAY_BE_ZERO = re.compile(
    r"trace\.|up\.(cache|slowpath|buffered)|deploy\.load_skew|"
    r"core\.(ring_high|ring_drops|bus_lost)|sim\.events|cp\.msgs"
)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``run.py --smoke`` over every workload, traced and untraced."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "1",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, json.loads(out.read_text())["records"]


def test_every_metric_is_printed_and_sane(smoke):
    stdout, records = smoke
    workloads = [workload["name"] for workload in SPEC["workloads"]]
    assert sorted({r["workload"] for r in records}) == sorted(workloads)
    assert len(records) == 2 * len(workloads)
    for record in records:
        section = SPEC["per_layer" if record["trace"] else "end_to_end"]
        assert list(record["metrics"]) == [m["name"] for m in section]
        assert record["correct"] and record["failed"] == 0
        assert record["attempted"] >= 1
        for spec in section:
            metric = record["metrics"][spec["name"]]
            where = (record["workload"], spec["name"])
            assert NAME.fullmatch(spec["name"]), where
            assert metric["unit"] == spec["unit"], where
            assert math.isfinite(metric["value"]), where
            if not MAY_BE_ZERO.match(spec["name"]):
                assert metric["value"] > 0, where
            # Every name is printed with its unit, not only in the JSON.
            assert re.search(
                rf"^{re.escape(spec['name'])}\s+\S+\s+{re.escape(spec['unit'])}$",
                stdout, re.M,
            ), where


def test_workloads_separate_the_layers(smoke):
    """The workloads bypass each other's mechanisms, as their specs say."""
    slowpath = {
        record["workload"]: record["metrics"]["up.slowpath_share"]["value"]
        for record in smoke[1]
        if record["trace"]
    }
    assert slowpath["dl_steady"] == 0.0
    assert slowpath["ul_percall"] == 1.0
    assert slowpath["cp_lifecycle"] == 0.0
