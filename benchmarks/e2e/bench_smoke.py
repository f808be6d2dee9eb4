"""Smoke run of the end-to-end benchmark at a tiny scale (about a minute).

    python3 benchmarks/e2e/bench_smoke.py

Runs every workload on milan at scale 0.01 with 2-second phases, once
untraced and once traced, and checks that

* every metric ``BENCHMARK.json`` names is printed with its unit, and the
  result line carries exactly those metrics;
* every run is correct with ``failed == 0`` -- which includes each daemon
  exiting 0 after its shutdown request;
* no ``/dev/shm/psm_*`` segment is left behind.

The file name keeps the tier-1 test run from collecting it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import re
import sys
import time

from common import ROOT, RUN_ROOT, require_source_tree, shm_names

#: Devices per fleet block at smoke scale.
SMOKE_DEVICES = 20_000
TIME_LIMIT_S = 90.0


def main() -> int:
    require_source_tree()
    import run
    import workloads

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    for name, workload in list(workloads.WORKLOADS.items()):
        workloads.WORKLOADS[name] = dataclasses.replace(
            workload,
            network="milan",
            scale=0.01,
            devices=min(workload.devices, SMOKE_DEVICES),
        )
    segments_before = set(shm_names())
    started = time.perf_counter()
    failures = []
    for name in workloads.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = run.main(
                    [
                        "--workload", name,
                        "--seed", "0",
                        "--seconds", "2",
                        "--trace", str(trace),
                        "--out", str(RUN_ROOT / "smoke" / f"{name}-trace{trace}.json"),
                    ]
                )
            text = printed.getvalue()
            result = json.loads(text.strip().splitlines()[-1])
            label = f"{name} trace={trace}"
            if code != 0 or not result["correct"] or result["failed"] != 0:
                failures.append(f"{label}: exit {code}, result {result['correct']}, "
                                f"failed {result['failed']}\n{text}")
            expected = {entry["name"]: entry["unit"] for entry in spec[group]}
            reported = {key: value["unit"] for key, value in result["metrics"].items()}
            if reported != expected:
                failures.append(f"{label}: metrics {sorted(reported.items())} "
                                f"!= {sorted(expected.items())}")
            for metric_name, unit in expected.items():
                pattern = rf"^\s+{re.escape(metric_name)}\s+\S+\s+{re.escape(unit)}$"
                if not re.search(pattern, text, re.MULTILINE):
                    failures.append(f"{label}: {metric_name} not printed with unit {unit}")
            print(f"{label}: exit {code}, attempted {result['attempted']}, "
                  f"failed {result['failed']}", flush=True)
    elapsed = time.perf_counter() - started
    leaked = sorted(set(shm_names()) - segments_before)
    if leaked:
        failures.append(f"shared-memory segments left behind: {leaked}")
    if elapsed > TIME_LIMIT_S:
        failures.append(f"smoke run took {elapsed:.0f} s (limit {TIME_LIMIT_S:.0f} s)")
    for failure in failures:
        print("FAIL", failure)
    print(f"smoke: {len(failures)} failures in {elapsed:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
