"""Per-device reference for :func:`repro.broadcast.replay_bulk.replay_trace_bulk`.

The production kernel replays one recorded packet stream for a whole group
of devices in vectorized array passes.  :func:`replay_trace` is the scalar
form it must reproduce for every device: execute the position-anchored head,
rotate the body to the reception next on the air after the device's
position, and advance the position op by op with O(1) packet arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.broadcast.cycle import BroadcastCycle
from repro.broadcast.replay import OpKind, SessionTrace, TraceOp


@dataclass(frozen=True)
class ReplayOutcome:
    """Channel-level metrics of one replayed session."""

    tuning_packets: int
    access_latency_packets: int


Plan = Tuple[int, Tuple[TraceOp, ...], Tuple[Tuple[int, TraceOp], ...]]


def replay_plan(trace: SessionTrace) -> Plan:
    """``(head_len, body, segment_ops)``: the position-anchored head length,
    the rotatable body, and the body's ``SEGMENT`` ops with their body
    indices.  A property of the trace alone, so a caller replaying one
    trace for many devices computes it once and passes it in."""
    head = 0
    while head < len(trace.ops) and trace.ops[head].kind is not OpKind.SEGMENT:
        head += 1
    body = trace.ops[head:]
    segment_ops = tuple(
        (index, op) for index, op in enumerate(body) if op.kind is OpKind.SEGMENT
    )
    return head, body, segment_ops


def replay_trace(
    trace: SessionTrace,
    cycle: BroadcastCycle,
    start_position: int,
    plan: Optional[Plan] = None,
) -> ReplayOutcome:
    """Replay a recorded packet stream for one device tuning in elsewhere."""
    if trace.loss_rate != 0.0:
        raise ValueError(
            f"cannot replay a trace recorded under loss rate {trace.loss_rate}; "
            "lossy sessions must be simulated natively"
        )
    if trace.cycle_packets != cycle.total_packets:
        raise ValueError(
            f"trace was recorded against a {trace.cycle_packets}-packet cycle, "
            f"got one of {cycle.total_packets} packets"
        )
    total = cycle.total_packets
    position = start_position
    tuning = 0

    def apply(op: TraceOp) -> None:
        nonlocal position, tuning
        if op.kind is OpKind.ONE_PACKET:
            tuning += 1
            position += 1
        else:
            start = cycle.next_segment_named(op.name, position)
            tuning += op.packet_count
            position = start + op.last_offset + 1

    # Position-anchored head: reads of "whatever is on the air right now".
    head_len, body, segment_ops = plan if plan is not None else replay_plan(trace)
    for op in trace.ops[:head_len]:
        apply(op)

    if segment_ops:
        # Rotate to the reception next on the air after the current position,
        # ties going to the earliest recorded op.
        rotation = min(
            range(len(segment_ops)),
            key=lambda i: ((segment_ops[i][1].anchor - position) % total, i),
        )
        start_at = segment_ops[rotation][0]
        for op in body[start_at:]:
            apply(op)
        for op in body[:start_at]:
            apply(op)
    else:
        for op in body:
            apply(op)

    return ReplayOutcome(
        tuning_packets=tuning, access_latency_packets=position - start_position
    )
