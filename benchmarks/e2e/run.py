"""End-to-end benchmark of the air-index system.

Run from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload point-5k --seed 0
    python3 benchmarks/e2e/run.py --workload all --seed 0          # every workload
    python3 benchmarks/e2e/run.py --workload point-5k --seed 0 --trace 1

With ``--trace 0`` a run reports the end-to-end metrics, measured with no
instrumentation; with ``--trace 1`` it runs the workload the same way,
then replays its inputs in-process under per-layer spans, and reports the
per-layer ledger instead.  Every answer is checked against an independent oracle.
Each metric is printed by name with its unit; the last line of standard
output is one JSON object, and the same result is written to a JSON file
(``--out``, default under ``.e2e_run/results/``).  The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import sys
import time

from common import ROOT, RUN_ROOT, adopt_orphans, require_source_tree, stop_children

DEFAULT_SECONDS = 8
#: Linux personality flag that turns address-space randomisation off.
_ADDR_NO_RANDOMIZE = 0x0040000


def _pin_layout() -> bool:
    """Turn address-space randomisation off for the next ``exec`` of this
    process and its children; returns whether it was on and is now off.

    Where the heap and the mappings land moved a daemon's ``Pss`` between
    three levels 24 MB apart (143, 152 or 160 MB per process on point-5k);
    with a fixed layout every start reads the same.  Where the call is not
    allowed, the run goes on with the layout randomised.
    """
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current == -1 or current & _ADDR_NO_RANDOMIZE:
            return False
        return libc.personality(current | _ADDR_NO_RANDOMIZE) != -1
    except (OSError, AttributeError):
        return False


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import measure
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = measure.prepare(workload, seed, seconds)
    run = measure.run_fleet if workload.kind == "fleet" else measure.run_daemon
    outcome = run(inputs)
    metrics = outcome.metrics
    if trace:
        import ledger

        metrics = ledger.per_layer(inputs, outcome)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "metrics": metrics,
        "detail": {k: v for k, v in outcome.detail.items() if k != "records"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", help="workload name or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="results JSON path")
    args = parser.parse_args(argv)
    out = pathlib.Path(args.out).resolve() if args.out else (
        RUN_ROOT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )

    require_source_tree()
    # Run from the checkout root: daemon sockets and stores are relative to it.
    os.chdir(ROOT)
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r} (one of: {', '.join(WORKLOADS)}, all)")

    adopt_orphans()
    try:
        return _run(names, args, out)
    finally:
        # Nothing the run started may outlive it.
        stop_children()


def _run(names, args, out: pathlib.Path) -> int:
    results = []
    for name in names:
        started = time.perf_counter()
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        result["wall_s"] = time.perf_counter() - started
        results.append(result)
        print(f"{name} seed={args.seed} trace={args.trace} ({result['wall_s']:.1f} s wall)")
        for key, value in result["metrics"].items():
            print(f"  {key:28s} {value['value']:14.6g} {value['unit']}")
        print(f"  attempted {result['attempted']}, failed {result['failed']}")
        for problem in result["problems"]:
            print(f"  PROBLEM: {problem}")

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}/{key}": value for r in results for key, value in r["metrics"].items()
        }
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"runs": results, **line}, handle, indent=1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    # A terminated run unwinds like an exception, so every daemon it
    # started is shut down and its shared memory released.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Hash randomisation reorders dict and set iteration inside the program
    # and moved closed-loop throughput by up to 15% between daemons started
    # from the same code.  Pin it and the address-space layout, for this
    # process and the daemons it spawns, so that runs compare code rather
    # than hash seeds and layouts.  numpy asks the kernel for transparent
    # huge pages on large arrays; whether the host grants them depends on
    # its free memory at the moment, and a granted page counts 2 MB in
    # ``Pss`` however little of it is touched, so they are turned off too.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    restart = _pin_layout()
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        restart = True
    if restart:
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])
    sys.exit(main())
