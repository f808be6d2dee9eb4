"""Compare two sets of end-to-end results: a parent commit and a change.

    python3 benchmarks/e2e/compare.py --parent p/*.json --change c/*.json

Each file is a results JSON written by ``run.py`` (``--out``).  Untraced
runs are paired by workload and seed, in file order.  For every workload
and end-to-end metric of the root ``BENCHMARK.json`` the table shows each
side's median and quartiles, the share of same-seed pairs the change won,
and a verdict.

A metric whose bound is 0 is exact: it is a deterministic count, judged
pair by pair on the same seed, and any difference is a verdict:

* ``regressed``  -- the change reads worse on at least one seed;
* ``improved``   -- it reads better on at least one seed and worse on none;
* ``same``       -- every pair reads identically;
* ``unresolved`` -- no run of the change shares a seed with the parent.

Every other metric is a measurement with noise:

* ``improved``   -- at least 10 pairs, the change won at least 9 in 10 of
  them (ties count for neither), and the medians differ by more than the
  parent's interquartile range;
* ``unresolved`` -- the parent's own spread (IQR over median) exceeds the
  bound, so neither verdict can be trusted, unless every change run reads
  better than every parent run;
* ``regressed``  -- the change's median is worse than the parent's by more
  than the metric's bound;
* ``same``       -- otherwise.

The exit code is 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from common import ROOT

#: Pairs needed before a gain may be claimed, and the share to win.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(paths: Sequence[str]) -> Dict[Tuple[str, str], List[Tuple[int, float]]]:
    """``(workload, metric) -> [(seed, value), ...]`` over untraced runs."""
    values: Dict[Tuple[str, str], List[Tuple[int, float]]] = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        for run in document["runs"]:
            if run["trace"]:
                continue
            for name, entry in run["metrics"].items():
                values[(run["workload"], name)].append((run["seed"], entry["value"]))
    return values


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, middle, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def pair_up(parent: List[Tuple[int, float]], change: List[Tuple[int, float]]):
    """Pairs of (parent, change) values with the same seed, in order."""
    remaining = defaultdict(list)
    for seed, value in change:
        remaining[seed].append(value)
    pairs = []
    for seed, value in parent:
        if remaining[seed]:
            pairs.append((value, remaining[seed].pop(0)))
    return pairs


def exact_verdict(pairs, higher: bool) -> str:
    """Verdict on a deterministic metric: any same-seed difference counts."""
    sign = 1.0 if higher else -1.0
    if not pairs:
        return "unresolved"
    if any(sign * (c - p) < 0 for p, c in pairs):
        return "regressed"
    if any(c != p for p, c in pairs):
        return "improved"
    return "same"


def verdict(parent: Sequence[float], change: Sequence[float], pairs, bound: float, higher: bool):
    sign = 1.0 if higher else -1.0
    p_low, p_mid, p_high = quartiles(parent)
    _, c_mid, _ = quartiles(change)
    spread = (p_high - p_low) / abs(p_mid) if p_mid else 0.0
    worse_by = -sign * (c_mid - p_mid) / abs(p_mid) if p_mid else 0.0
    always_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (
        len(pairs) >= MIN_PAIRS
        and sum(1 for p, c in pairs if sign * (c - p) > 0) >= WIN_SHARE * len(pairs)
        and sign * (c_mid - p_mid) > p_high - p_low
    ):
        return "improved"
    if spread > bound and not always_better:
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    return "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", required=True, help="parent results JSON files")
    parser.add_argument("--change", nargs="+", required=True, help="change results JSON files")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    parent = load_runs(args.parent)
    change = load_runs(args.change)

    regressed = False
    header = (
        f"{'workload':13s} {'metric':12s} {'parent q1/med/q3':>32s} "
        f"{'change q1/med/q3':>32s} {'won':>7s}  verdict"
    )
    print(header)
    for workload in sorted({w for w, _ in parent}):
        for entry in spec["end_to_end"]:
            key = (workload, entry["name"])
            if key not in parent or key not in change:
                continue
            p_values = [v for _, v in parent[key]]
            c_values = [v for _, v in change[key]]
            pairs = pair_up(parent[key], change[key])
            higher = entry["better"] == "higher"
            if entry["bound"] == 0:
                result = exact_verdict(pairs, higher)
            else:
                result = verdict(p_values, c_values, pairs, entry["bound"], higher)
            regressed |= result == "regressed"
            sign = 1.0 if higher else -1.0
            wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
            p_q = "/".join(f"{v:.4g}" for v in quartiles(p_values))
            c_q = "/".join(f"{v:.4g}" for v in quartiles(c_values))
            print(
                f"{workload:13s} {entry['name']:12s} {p_q:>32s} {c_q:>32s} "
                f"{wins:>3d}/{len(pairs):<3d}  {result}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
