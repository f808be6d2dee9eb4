"""Vectorized fleet replay: columnar trace tables + bulk numpy passes.

Replaying a recorded :class:`~repro.broadcast.replay.SessionTrace` for one
device is O(ops) packet arithmetic, but a fleet of N devices served one at a
time would still pay a Python function call (and a per-op rotation scan)
per device.  This module turns the whole fleet into a handful of array
passes:

* a :class:`SessionTrace` compiles once into a :class:`TraceTable` -- the
  per-op kind / packet-count / last-offset / anchor fields as flat ``int64``
  columns, plus the rotation lookup tables;
* a :class:`BroadcastCycle` compiles once into a :class:`CycleLayout` --
  for each segment name, the sorted array of its on-air anchor offsets --
  so the per-op ``next_segment_named`` lookup becomes one
  ``np.searchsorted`` over all devices at once;
* :func:`replay_trace_bulk` then replays the trace for N tune-in positions
  in O(ops) vectorized passes over the *distinct* cycle offsets among them,
  with no Python-level cost per device.

**Bit-identity contract.**  For every device position, the bulk kernel
produces exactly the tuning time and access latency of the per-device
scalar replay (the test oracle ``tests/oracles/replay.py``): the
position-anchored head executes first, the body rotates to the reception
next on the air after the device's position (ties broken by recorded op
order), and every segment reception lands on the same global packet.  The
property suite (``tests/test_properties_replay_bulk.py``) asserts this
across all seven schemes.

How the per-device rotation stays vectorized: the rotated op sequence is a
cyclic shift of the trace body, so the kernel walks ``2 * len(body)``
steps; at step ``j`` it applies body op ``j % len(body)`` to exactly the
devices whose rotation start ``s`` satisfies ``s <= j < s + len(body)``.
Each step is one masked array pass, so the total work is O(ops) passes
regardless of how many distinct rotations the fleet spans.

Why each distinct offset is walked once: the replay is equivariant under
whole-cycle shifts -- head ops add constants and every segment lookup reads
``position % total`` -- so a device's access latency depends only on its
start's cycle offset.  The passes therefore run over the distinct offsets
(at most one cycle's worth, however large the fleet) and the latencies are
scattered back to the devices, making a pass O(distinct offsets), not O(N).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

from repro.broadcast.replay import OpKind, SessionTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.broadcast.cycle import BroadcastCycle

__all__ = [
    "BulkReplayOutcome",
    "CycleLayout",
    "TraceTable",
    "replay_trace_bulk",
]

#: Integer op codes of the :class:`TraceTable` ``kinds`` column.
KIND_ONE_PACKET = 0
KIND_SEGMENT = 1

_KIND_CODES = {
    OpKind.ONE_PACKET: KIND_ONE_PACKET,
    OpKind.SEGMENT: KIND_SEGMENT,
}


class CycleLayout:
    """Compiled positional index of one :class:`BroadcastCycle`.

    For each segment name the layout holds the sorted ``int64`` array of the
    segment's on-air anchor offsets within the cycle (one entry per
    broadcast of the segment; exactly one today, since cycle segment names
    are unique -- the array form keeps multi-copy layouts possible).
    :meth:`next_starts` is the vectorized ``cycle.next_segment_named``: one
    ``np.searchsorted`` answers the "next broadcast of this segment after
    position p" question for every device at once.

    Layouts are immutable, like the cycles they compile (every incremental
    refresh path constructs a *new* cycle object); get one from
    :meth:`BroadcastCycle.compiled_layout`, which caches it per cycle.
    """

    __slots__ = ("total_packets", "names", "index_of", "anchors", "segment_packets")

    def __init__(self, cycle: "BroadcastCycle") -> None:
        self.total_packets: int = cycle.total_packets
        self.names: Tuple[str, ...] = tuple(seg.name for seg in cycle.segments)
        self.index_of: Dict[str, int] = {
            name: position for position, name in enumerate(self.names)
        }
        self.anchors: Tuple["np.ndarray", ...] = tuple(
            np.asarray([cycle.segment_start(name)], dtype=np.int64)
            for name in self.names
        )
        self.segment_packets: Tuple[int, ...] = tuple(
            seg.num_packets for seg in cycle.segments
        )

    def segment_anchors(self, name: str):
        """Sorted on-air anchor offsets of the named segment (``int64``)."""
        return self.anchors[self.index_of[name]]

    def next_starts(self, segment_index: int, positions):
        """Global start of the named segment's next broadcast, per position.

        Vectorized equivalent of ``cycle.next_segment_named(name, p)`` for
        an array of global positions ``p``: the smallest anchor at or after
        each position's cycle offset, wrapping into the next repetition when
        the segment already passed.
        """
        anchors = self.anchors[segment_index]
        offsets = positions % self.total_packets
        ranks = np.searchsorted(anchors, offsets, side="left")
        wrapped = ranks == len(anchors)
        ranks[wrapped] = 0
        starts = anchors[ranks]
        return positions - offsets + np.where(wrapped, starts + self.total_packets, starts)


class TraceTable:
    """One :class:`SessionTrace` as flat ``int64`` columns.

    Columns are per recorded op: ``kinds`` (the :data:`KIND_ONE_PACKET` /
    :data:`KIND_SEGMENT` codes), ``packets``
    (packets the radio listened to), ``last_offsets`` (final listened packet
    offset within the segment), ``anchors`` (cycle offset of the op's first
    listened packet) and ``segment_index`` (the op's segment resolved to its
    :class:`CycleLayout` position; ``-1`` for non-segment ops), plus the
    cumulative-tuning prefix sums (``tuning_prefix``).  ``head_len`` splits
    the position-anchored head (the leading non-``SEGMENT`` reads) from the
    rotatable body; ``rotation_anchors`` / ``rotation_start`` are the body's
    sorted distinct segment-op anchors and, per anchor, the earliest body
    index holding it -- one ``np.searchsorted`` against a device's tune-in
    offset yields its rotation.
    """

    __slots__ = (
        "cycle_packets",
        "loss_rate",
        "tuning_packets",
        "num_ops",
        "head_len",
        "kinds",
        "packets",
        "last_offsets",
        "anchors",
        "segment_index",
        "tuning_prefix",
        "rotation_anchors",
        "rotation_start",
    )

    def __init__(self, trace: SessionTrace, layout: CycleLayout) -> None:
        if trace.cycle_packets != layout.total_packets:
            raise ValueError(
                f"trace was recorded against a {trace.cycle_packets}-packet cycle, "
                f"got a layout of {layout.total_packets} packets"
            )
        ops = trace.ops
        count = len(ops)
        self.cycle_packets = trace.cycle_packets
        self.loss_rate = trace.loss_rate
        self.tuning_packets = trace.tuning_packets
        self.num_ops = count
        self.kinds = np.fromiter(
            (_KIND_CODES[op.kind] for op in ops), dtype=np.int64, count=count
        )
        self.packets = np.fromiter(
            (op.packets for op in ops), dtype=np.int64, count=count
        )
        self.last_offsets = np.fromiter(
            (op.last_offset for op in ops), dtype=np.int64, count=count
        )
        self.anchors = np.fromiter(
            (op.anchor for op in ops), dtype=np.int64, count=count
        )
        self.segment_index = np.fromiter(
            (
                layout.index_of[op.name] if op.kind is OpKind.SEGMENT else -1
                for op in ops
            ),
            dtype=np.int64,
            count=count,
        )
        self.tuning_prefix = np.cumsum(self.packets)

        head = 0
        while head < count and ops[head].kind is not OpKind.SEGMENT:
            head += 1
        self.head_len = head

        # Rotation lookup: the scalar replay rotates to the body segment op
        # minimizing ``((anchor - position) % total, op order)``.  For a
        # device offset q that is the op with the smallest anchor >= q
        # (wrapping to the smallest anchor overall), ties on equal anchors
        # going to the earliest op -- so one sorted distinct-anchor array
        # with the earliest body index per anchor answers every device.
        first_at_anchor: Dict[int, int] = {}
        for body_index in range(head, count):
            if ops[body_index].kind is OpKind.SEGMENT:
                anchor = ops[body_index].anchor
                if anchor not in first_at_anchor:
                    first_at_anchor[anchor] = body_index - head
        ordered = sorted(first_at_anchor.items())
        self.rotation_anchors = np.asarray(
            [anchor for anchor, _ in ordered], dtype=np.int64
        )
        self.rotation_start = np.asarray(
            [start for _, start in ordered], dtype=np.int64
        )

    @classmethod
    def compile(cls, trace: SessionTrace, layout: CycleLayout) -> "TraceTable":
        """Compile a recorded session into its columnar form."""
        return cls(trace, layout)


@dataclass(frozen=True)
class BulkReplayOutcome:
    """Channel-level metrics of N replayed sessions.

    ``tuning_packets`` is a scalar: tuning time is a property of the trace's
    reception multiset, not of the tune-in position, so every replayed
    device shares it.  ``access_latency_packets`` is an ``int64`` array
    aligned with the ``start_positions`` passed to
    :func:`replay_trace_bulk`.
    """

    tuning_packets: int
    access_latency_packets: "np.ndarray"


def replay_trace_bulk(
    table: TraceTable, layout: CycleLayout, start_positions
) -> BulkReplayOutcome:
    """Replay one recorded packet stream for N devices in bulk array passes.

    Semantically one scalar replay per start position (bit-identical to the
    per-device oracle, asserted by the property suite and the fleet
    benchmark), but the cost is O(ops) vectorized passes over the distinct
    cycle offsets of the positions rather than O(ops) Python work per
    device.  Latencies come back aligned with ``start_positions``.
    """
    if table.loss_rate != 0.0:
        raise ValueError(
            f"cannot replay a trace recorded under loss rate {table.loss_rate}; "
            "lossy sessions must be simulated natively"
        )
    if table.cycle_packets != layout.total_packets:
        raise ValueError(
            f"trace was recorded against a {table.cycle_packets}-packet cycle, "
            f"got one of {layout.total_packets} packets"
        )
    total = table.cycle_packets
    # Latency depends only on a start's cycle offset: walk each distinct
    # offset once and scatter the results back to every start.
    distinct, inverse = np.unique(
        np.asarray(start_positions, dtype=np.int64) % total, return_inverse=True
    )
    positions = distinct.copy()

    kinds = table.kinds
    last_offsets = table.last_offsets
    segment_index = table.segment_index

    # Position-anchored head: reads of "whatever is on the air right now",
    # one packet each.
    positions += table.head_len

    body_len = table.num_ops - table.head_len
    if body_len:
        # Rotate to the reception next on the air after the current position:
        # one searchsorted over all devices at once.
        offsets = positions % total
        ranks = np.searchsorted(table.rotation_anchors, offsets, side="left")
        ranks[ranks == len(table.rotation_anchors)] = 0
        rotation = table.rotation_start[ranks]

        # The rotated sequence is a cyclic shift of the body: walk the body
        # twice, applying op ``j % body_len`` to the devices whose rotation
        # window covers step ``j``.
        for step in range(2 * body_len):
            body_op = step % body_len
            op = table.head_len + body_op
            active = (rotation <= step) & (step < rotation + body_len)
            kind = kinds[op]
            if kind == KIND_SEGMENT:
                segment_starts = layout.next_starts(int(segment_index[op]), positions)
                positions = np.where(
                    active, segment_starts + int(last_offsets[op]) + 1, positions
                )
            else:
                positions = np.where(active, positions + 1, positions)

    return BulkReplayOutcome(
        tuning_packets=table.tuning_packets,
        access_latency_packets=(positions - distinct)[inverse],
    )
