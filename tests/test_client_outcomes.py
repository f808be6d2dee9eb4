"""Client-outcome regression fixture: what every client answers and pays.

The golden traces (``test_golden_traces.py``) pin one lossless session per
scheme.  This fixture pins the paths they cannot see: lost-packet recovery
and the Section 6.1 memory-bound mode.  For a fixed query set on a fixed
seeded network it records, per query, the answer (distance, path, settled
nodes), the client metrics (peak memory, tuning time, access latency, lost
packets) and the regions received, for

* NR and EB, with the memory-bound mode off and on, at loss 0, 0.05, 0.3;
* DJ, LD, AF and HiTi at loss 0.05;
* the spatial indexes DSI, HCI and BGI (range and kNN) at loss 0.05.

Regenerating (only when a behaviour change is intended and understood)::

    PYTHONPATH=src python tests/fixtures/regen_client_outcomes.py
"""

from __future__ import annotations

import functools
import json
import math
import pathlib
import random
from typing import Dict, List

import pytest

from repro import air
from repro.network.generators import GeneratorConfig, generate_road_network
from repro.spatial import (
    BroadcastGridIndexScheme,
    DistributedSpatialIndexScheme,
    HilbertCurveIndexScheme,
    generate_points,
)

from oracles.dijkstra import shortest_path as oracle_shortest_path

FIXTURE_PATH = pathlib.Path(__file__).parent / "fixtures" / "client_outcomes.json"

NETWORK_CONFIG = dict(num_nodes=420, num_edges=980, seed=23)
SCHEME_PARAMS: Dict[str, Dict[str, int]] = {
    "NR": {"num_regions": 16},
    "EB": {"num_regions": 16},
    "DJ": {},
    "LD": {"num_landmarks": 4},
    "AF": {"num_regions": 8},
    "HiTi": {"num_regions": 16},
}
NUM_PAIRS = 60
LOSS_RATES = (0.0, 0.05, 0.3)
FULL_CYCLE_LOSS = 0.05
SPATIAL_LOSS = 0.05
SPATIAL_QUERIES = 12


def point_configs() -> List[str]:
    """Keys of the shortest-path configurations, in fixture order."""
    keys = []
    for scheme in ("NR", "EB"):
        for memory_bound in (False, True):
            for loss in LOSS_RATES:
                keys.append(f"{scheme}/mb={int(memory_bound)}/loss={loss}")
    for scheme in ("DJ", "LD", "AF", "HiTi"):
        keys.append(f"{scheme}/mb=0/loss={FULL_CYCLE_LOSS}")
    return keys


def spatial_configs() -> List[str]:
    return [
        f"{cls.short_name}/{kind}/loss={SPATIAL_LOSS}"
        for cls in (DistributedSpatialIndexScheme, HilbertCurveIndexScheme, BroadcastGridIndexScheme)
        for kind in ("range", "knn")
    ]


@functools.lru_cache(maxsize=None)
def network():
    net = generate_road_network(GeneratorConfig(**NETWORK_CONFIG), name="outcomes-420")
    net.clear_delta()
    return net


@functools.lru_cache(maxsize=None)
def scheme(name: str):
    built = air.create(name, network(), **SCHEME_PARAMS[name])
    built.cycle
    return built


@functools.lru_cache(maxsize=None)
def query_pairs():
    rng = random.Random(2024)
    nodes = network().node_ids()
    return tuple((rng.choice(nodes), rng.choice(nodes)) for _ in range(NUM_PAIRS))


def _config_seed(key: str) -> int:
    return sum((index + 1) * ord(char) for index, char in enumerate(key))


def point_rows(key: str) -> List[Dict]:
    """Run one shortest-path configuration over the query set."""
    name, mode, loss_field = key.split("/")
    memory_bound = mode == "mb=1"
    loss = float(loss_field.split("=")[1])
    built = scheme(name)
    channel = built.channel(loss_rate=loss, seed=_config_seed(key))
    client = built.client(memory_bound=memory_bound)
    rows = []
    for source, target in query_pairs():
        result = client.query(source, target, channel=channel)
        metrics = result.metrics
        rows.append(
            {
                "source": source,
                "target": target,
                "distance": result.distance,
                "path": list(result.path),
                "settled_nodes": metrics.extra.get("settled_nodes"),
                "peak_memory_bytes": metrics.peak_memory_bytes,
                "tuning_time_packets": metrics.tuning_time_packets,
                "access_latency_packets": metrics.access_latency_packets,
                "lost_packets": metrics.lost_packets,
                "received_regions": list(result.received_regions),
            }
        )
    return rows


def spatial_rows(key: str) -> List[Dict]:
    """Run one spatial configuration (range or kNN) over a fixed query set."""
    name, kind, _ = key.split("/")
    cls = {
        cls.short_name: cls
        for cls in (DistributedSpatialIndexScheme, HilbertCurveIndexScheme, BroadcastGridIndexScheme)
    }[name]
    built = cls(generate_points(250, extent=1_000.0, seed=9, clusters=4))
    channel = built.channel(loss_rate=SPATIAL_LOSS, seed=_config_seed(key))
    rng = random.Random(31)
    rows = []
    for _ in range(SPATIAL_QUERIES):
        x, y = rng.uniform(0, 800), rng.uniform(0, 800)
        if kind == "range":
            query = [x, y, x + rng.uniform(50, 250), y + rng.uniform(50, 250)]
            result = built.range_query(tuple(query), channel=channel)
        else:
            query = [x, y, rng.choice([1, 3, 10])]
            result = built.knn_query(x, y, query[2], channel=channel)
        metrics = result.metrics
        rows.append(
            {
                "query": query,
                "object_ids": list(result.object_ids),
                "peak_memory_bytes": metrics.peak_memory_bytes,
                "tuning_time_packets": metrics.tuning_time_packets,
                "access_latency_packets": metrics.access_latency_packets,
                "lost_packets": metrics.lost_packets,
            }
        )
    return rows


def build_payload() -> Dict[str, List[Dict]]:
    payload = {key: point_rows(key) for key in point_configs()}
    payload.update({key: spatial_rows(key) for key in spatial_configs()})
    return payload


def render(payload: Dict) -> str:
    """The canonical fixture text (what the regen script writes): one
    configuration per block, one row per line, so a diff names the row."""
    blocks = []
    for key in sorted(payload):
        rows = ",\n".join(
            "  " + json.dumps(row, sort_keys=True, separators=(",", ":"))
            for row in payload[key]
        )
        blocks.append(f"{json.dumps(key)}: [\n{rows}\n]")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


@functools.lru_cache(maxsize=None)
def stored() -> Dict[str, List[Dict]]:
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


def _normalized(rows: List[Dict]) -> List[Dict]:
    """Rows as they read back from JSON (``inf`` round-trips as Infinity)."""
    return json.loads(json.dumps(rows))


@pytest.mark.parametrize("key", point_configs() + spatial_configs())
def test_outcomes_match_the_fixture(key):
    fresh = point_rows(key) if key in point_configs() else spatial_rows(key)
    want = stored()[key]
    got = _normalized(fresh)
    assert len(got) == len(want)
    for index, (row, expected) in enumerate(zip(got, want)):
        assert row == expected, f"{key} row {index}"


@pytest.mark.parametrize(
    "key", [key for key in point_configs() if key.startswith(("NR/", "EB/"))]
)
def test_nr_and_eb_answers_equal_dijkstra(key):
    """Every NR/EB answer, lossy and memory-bound included, is exact."""
    for row in point_rows(key):
        truth = oracle_shortest_path(network(), row["source"], row["target"]).distance
        if math.isinf(truth):
            assert math.isinf(row["distance"]), row
        else:
            assert row["distance"] == pytest.approx(truth, rel=1e-9), row


def test_stored_nr_and_eb_rows_equal_dijkstra():
    """The fixture's own NR/EB answers are ground-truth correct."""
    for key in point_configs():
        if not key.startswith(("NR/", "EB/")):
            continue
        for row in stored()[key]:
            truth = oracle_shortest_path(network(), row["source"], row["target"]).distance
            assert row["distance"] == pytest.approx(truth, rel=1e-9), (key, row)
