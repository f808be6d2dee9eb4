"""Continental-scale ingestion: import rate, build RSS, and bit-identity.

Not a table or figure of the paper: this benchmark prices the front door.
Every continental experiment starts by pulling a DIMACS ``.gr``/``.co``
pair (or an edge-list CSV) through the streaming importers into a columnar
on-disk edge table and compiling it straight to CSR -- no per-node
objects in between.  The benchmark walks a synthetic
ring+chords road network up a scaling curve (10k -> 100k nodes by default,
1M when ``REPRO_INGEST_LARGE_TIER`` is set) and, per tier, measures in a
fresh subprocess each:

* **import** -- ``.gr`` text to columnar chunks; the rate floors at
  ``REPRO_INGEST_MIN_NODES_PER_SEC`` (default 20k nodes/s) at every tier;
* **build** -- columnar chunks to a servable, read-only
  :meth:`RoadNetwork.from_table` network;
* **peak RSS** -- both phases' ``ru_maxrss`` growth over an
  imports-loaded baseline must stay under
  ``REPRO_INGEST_MAX_RSS_MULTIPLE`` (default 2.0) times the columnar
  table's on-disk size at tiers of 100k nodes and up (smaller tiers are
  dominated by fixed allocator slack and are recorded, not asserted).

Before any number is trusted, tiers up to 100k nodes are verified
bit-identical against the dict reference: the CSR arrays must equal the
dict oracle's compile (``tests/oracles/dict_network.py``) of the table's
rows element-for-element, and
sampled point-to-point queries through the kernel arena must reproduce
the dict Dijkstra's (``tests/oracles/dijkstra.py``) answers -- distance,
path, settled count -- and every settled node's label and predecessor
exactly.
The env-gated 1M tier skips the dict reference (building it would defeat
the memory story being measured) and sanity-checks query results instead.

Numbers land in ``BENCH_ingest_scale.json`` at the repository root.

Run standalone like the other benchmarks::

    PYTHONPATH=src python -m pytest benchmarks/bench_ingest_scale.py -q
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from oracles.dict_network import build_dict_network, compile_csr
from oracles.dijkstra import dijkstra_search
from repro.network.algorithms import kernel
from repro.network.graph import RoadNetwork
from repro.network.ingest import open_table

from conftest import check_point_to_point, write_json_report, write_report

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Rows per columnar chunk.  Deliberately small relative to the tiers so
#: the O(chunk) transient claim is exercised: scatter temporaries scale
#: with the chunk, not the table, and 25k rows keeps them a fraction of
#: the final arrays even at the 100k tier.
CHUNK_ROWS = 25_000

#: Scaling-curve tiers (node counts).  The 1M tier costs ~a minute and a
#: few hundred MB of scratch disk, so it rides behind an env gate.
TIERS = [10_000, 100_000]
if os.environ.get("REPRO_INGEST_LARGE_TIER"):
    TIERS.append(1_000_000)

#: Import-rate floor, nodes ingested per second of import wall time.
#: Measured ~115k nodes/s on the dev container at the 100k tier; the
#: default leaves generous slack for shared CI runners.
MIN_NODES_PER_SEC = float(os.environ.get("REPRO_INGEST_MIN_NODES_PER_SEC", "20000"))

#: Peak-RSS budget for each phase, as a multiple of the columnar table's
#: on-disk bytes.  Asserted at tiers >= ``RSS_ASSERT_FLOOR_NODES``.
MAX_RSS_MULTIPLE = float(os.environ.get("REPRO_INGEST_MAX_RSS_MULTIPLE", "2.0"))
RSS_ASSERT_FLOOR_NODES = 100_000

#: Sampled point-to-point pairs checked against the dict reference.
VERIFY_PAIRS = {10_000: 12, 100_000: 6}

# ----------------------------------------------------------------------
# Synthetic DIMACS generation: a directed ring (guarantees strong
# connectivity) plus 1.5n random chords, integer weights in [1, 1000].
# 2.5n arcs total -- the density of the paper's road networks.
# ----------------------------------------------------------------------


def _write_dimacs(gr_path: pathlib.Path, co_path: pathlib.Path, n: int, seed: int) -> None:
    import numpy as np

    rng = np.random.default_rng(seed)
    ring_src = np.arange(1, n + 1, dtype=np.int64)
    ring_dst = ring_src % n + 1
    chords = int(n * 1.5)
    chord_src = rng.integers(1, n + 1, size=chords, dtype=np.int64)
    # Offset in [1, n-1] keeps chords self-loop free.
    chord_dst = (chord_src - 1 + rng.integers(1, n, size=chords, dtype=np.int64)) % n + 1
    src = np.concatenate([ring_src, chord_src])
    dst = np.concatenate([ring_dst, chord_dst])
    weight = rng.integers(1, 1001, size=len(src), dtype=np.int64)
    with gr_path.open("w") as handle:
        handle.write(f"c synthetic ring+chords n={n} seed={seed}\n")
        handle.write(f"p sp {n} {len(src)}\n")
        np.savetxt(handle, np.column_stack([src, dst, weight]), fmt="a %d %d %d")
    coords = rng.integers(0, 10_000_000, size=(n, 2), dtype=np.int64)
    with co_path.open("w") as handle:
        handle.write(f"p aux sp co {n}\n")
        np.savetxt(
            handle,
            np.column_stack([ring_src, coords]),
            fmt="v %d %d %d",
        )


# ----------------------------------------------------------------------
# Phase subprocesses.  Each phase runs in a fresh interpreter so
# ``ru_maxrss`` (a process-lifetime high-water mark) isolates that
# phase's growth over an imports-loaded baseline.  Every script prints
# one JSON line on stdout.
# ----------------------------------------------------------------------

_RSS_SNIPPET = """
import resource, sys

def _rss_probe():
    # (current, high-water) resident bytes.  ``ru_maxrss`` alone is a
    # process-lifetime peak: interpreter/import transients leave slack
    # above current usage that would swallow the phase entirely, so the
    # delta is taken from current RSS at the baseline to the high-water
    # mark after the phase.
    try:
        fields = {}
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith(("VmRSS:", "VmHWM:")):
                    key, _, value = line.partition(":")
                    fields[key] = int(value.split()[0]) * 1024
        return fields["VmRSS"], fields["VmHWM"]
    except (OSError, KeyError, ValueError):
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak *= 1 if sys.platform == "darwin" else 1024
        return peak, peak

# Priced into the baseline, not the phase: scipy is the heaviest resident
# cost and importing it here walks current RSS back up to the high-water
# mark, so the phase's own peak is what moves VmHWM.
import numpy  # noqa: F401
import scipy.sparse.csgraph  # noqa: F401
"""

_IMPORT_PHASE = _RSS_SNIPPET + """
import json, time
from repro.network.ingest import import_dimacs

gr, co, out, chunk = sys.argv[1:5]
rss_base, hwm_base = _rss_probe()
start = time.perf_counter()
table = import_dimacs(gr, out, co_path=co, chunk_rows=int(chunk))
elapsed = time.perf_counter() - start
_, hwm_end = _rss_probe()
stats = table.stats()
print(json.dumps({
    "elapsed": elapsed,
    "rss_delta_bytes": hwm_end - rss_base,
    "rss_slack_bytes": hwm_base - rss_base,
    "table_bytes": table.total_bytes(),
    "num_nodes": stats["num_nodes"],
    "num_edges": stats["num_edges"],
    "fingerprint": stats["fingerprint"],
}))
"""

_BUILD_PHASE = _RSS_SNIPPET + """
import json, time
from repro.network.graph import RoadNetwork
from repro.network.ingest import open_table

table = open_table(sys.argv[1])
rss_base, hwm_base = _rss_probe()
start = time.perf_counter()
network = RoadNetwork.from_table(table)
elapsed = time.perf_counter() - start
_, hwm_end = _rss_probe()
csr = network.ensure_csr()
print(json.dumps({
    "elapsed": elapsed,
    "rss_delta_bytes": hwm_end - rss_base,
    "rss_slack_bytes": hwm_base - rss_base,
    "table_bytes": table.total_bytes(),
    "csr_nodes": csr.num_nodes,
    "csr_edges": csr.num_edges,
    "csr_bytes": csr.size_bytes(),
}))
"""


def _run_phase(script: str, *args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    if proc.returncode != 0:
        raise AssertionError(f"phase subprocess failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Bit-identity against the dict reference
# ----------------------------------------------------------------------


def _verify_against_dict(table, num_pairs: int) -> int:
    """CSR arrays and sampled p2p queries must match the dict path exactly."""
    csr = RoadNetwork.from_table(table).ensure_csr()
    reference = build_dict_network(
        (
            row
            for ids, xs, ys in table.iter_node_chunks()
            for row in zip(ids.tolist(), xs.tolist(), ys.tolist())
        ),
        (
            row
            for src, dst, weights in table.iter_edge_chunks()
            for row in zip(src.tolist(), dst.tolist(), weights.tolist())
        ),
        name=table.name,
    )
    ref_csr = compile_csr(reference)
    for field in (
        "ids",
        "fwd_offsets",
        "fwd_targets",
        "fwd_weights",
        "rev_offsets",
        "rev_targets",
        "rev_weights",
    ):
        assert list(getattr(csr, field)) == list(getattr(ref_csr, field)), field

    arena = kernel.arena_for(csr)
    rng = random.Random(97)
    ids = reference.node_ids()
    pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(num_pairs)]
    for source, target in pairs:
        want = dijkstra_search(reference, source, target=target)
        check_point_to_point(arena.point_to_point(source, target), want, target)
    return len(pairs)


def _sanity_queries(table, num_pairs: int) -> int:
    """Large-tier fallback: finite, positive distances through the arena."""
    csr = RoadNetwork.from_table(table).ensure_csr()
    arena = kernel.arena_for(csr)
    rng = random.Random(97)
    ids = csr.ids
    for _ in range(num_pairs):
        source = ids[rng.randrange(len(ids))]
        target = ids[rng.randrange(len(ids))]
        distance = arena.point_to_point(source, target).distance_to(target)
        assert distance >= 0.0 and distance != float("inf"), (source, target)
    return num_pairs


# ----------------------------------------------------------------------
# The benchmark
# ----------------------------------------------------------------------


def test_ingest_scaling_curve(tmp_path_factory):
    scratch = tmp_path_factory.mktemp("ingest_scale")
    rows = []
    for tier in TIERS:
        gr_path = scratch / f"tier_{tier}.gr"
        co_path = scratch / f"tier_{tier}.co"
        table_dir = scratch / f"tier_{tier}_table"
        _write_dimacs(gr_path, co_path, tier, seed=13)

        imported = _run_phase(
            _IMPORT_PHASE, str(gr_path), str(co_path), str(table_dir), str(CHUNK_ROWS)
        )
        built = _run_phase(_BUILD_PHASE, str(table_dir))
        assert imported["num_nodes"] == tier
        assert built["csr_nodes"] == tier
        assert built["csr_edges"] == imported["num_edges"]

        table = open_table(table_dir)
        if tier <= 100_000:
            verified = _verify_against_dict(table, VERIFY_PAIRS.get(tier, 6))
            verify_mode = "dict-reference"
        else:
            verified = _sanity_queries(table, 6)
            verify_mode = "sanity-only"

        table_bytes = imported["table_bytes"]
        row = {
            "num_nodes": tier,
            "num_edges": imported["num_edges"],
            "chunk_rows": CHUNK_ROWS,
            "table_bytes": table_bytes,
            "fingerprint": imported["fingerprint"],
            "import_seconds": imported["elapsed"],
            "import_nodes_per_sec": tier / max(imported["elapsed"], 1e-9),
            "import_rss_bytes": imported["rss_delta_bytes"],
            "import_rss_slack_bytes": imported["rss_slack_bytes"],
            "import_rss_multiple": imported["rss_delta_bytes"] / table_bytes,
            "build_seconds": built["elapsed"],
            "build_rss_bytes": built["rss_delta_bytes"],
            "build_rss_slack_bytes": built["rss_slack_bytes"],
            "build_rss_multiple": built["rss_delta_bytes"] / table_bytes,
            "csr_bytes": built["csr_bytes"],
            "verified_pairs": verified,
            "verify_mode": verify_mode,
            "rss_asserted": tier >= RSS_ASSERT_FLOOR_NODES,
        }
        rows.append(row)

        assert row["import_nodes_per_sec"] >= MIN_NODES_PER_SEC, (
            f"tier {tier}: import rate {row['import_nodes_per_sec']:.0f} nodes/s "
            f"under floor {MIN_NODES_PER_SEC:.0f} "
            f"(relax with REPRO_INGEST_MIN_NODES_PER_SEC)"
        )
        if row["rss_asserted"]:
            for phase in ("import", "build"):
                multiple = row[f"{phase}_rss_multiple"]
                assert multiple < MAX_RSS_MULTIPLE, (
                    f"tier {tier}: {phase} peak RSS {multiple:.2f}x the columnar "
                    f"table ({table_bytes / 1e6:.1f} MB) exceeds the "
                    f"{MAX_RSS_MULTIPLE:.1f}x budget "
                    f"(relax with REPRO_INGEST_MAX_RSS_MULTIPLE)"
                )

    payload = {
        "chunk_rows": CHUNK_ROWS,
        "min_nodes_per_sec_floor": MIN_NODES_PER_SEC,
        "max_rss_multiple": MAX_RSS_MULTIPLE,
        "rss_assert_floor_nodes": RSS_ASSERT_FLOOR_NODES,
        "tiers": rows,
    }
    write_json_report("ingest_scale", payload)

    lines = [
        "ingest scaling curve (ring+chords synthetic DIMACS)",
        f"chunk_rows={CHUNK_ROWS} rate_floor={MIN_NODES_PER_SEC:.0f}/s "
        f"rss_budget={MAX_RSS_MULTIPLE:.1f}x",
        "",
        f"{'nodes':>9} {'edges':>9} {'table MB':>9} {'import s':>9} "
        f"{'nodes/s':>9} {'imp RSSx':>9} {'build s':>9} {'bld RSSx':>9} verify",
    ]
    for row in rows:
        lines.append(
            f"{row['num_nodes']:>9} {row['num_edges']:>9} "
            f"{row['table_bytes'] / 1e6:>9.2f} {row['import_seconds']:>9.3f} "
            f"{row['import_nodes_per_sec']:>9.0f} {row['import_rss_multiple']:>9.2f} "
            f"{row['build_seconds']:>9.3f} {row['build_rss_multiple']:>9.2f} "
            f"{row['verify_mode']}"
        )
    write_report("ingest_scale", "\n".join(lines) + "\n")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
