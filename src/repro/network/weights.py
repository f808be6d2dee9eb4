"""The one edge-weight rule: ``0 < w < inf``, and no weight below a
label's precision.

Every way a weight enters -- ``RoadNetwork`` edits, updates and
``validate()``, the text loader, the importers, the columnar writer and the
``CSRGraph`` constructor -- checks it here.  The kernel's compiled sweep,
its tree derivation, SPQ's discovery order and the border-path repair are
exact only under it: each needs ``d + w > d`` for every settled label
``d``, so that nodes settle in ``(distance, id)`` order.

**The label bound.**  An ``n``-node shortest path has at most ``n - 1``
edges, so no settled label exceeds ``L = (n - 1) * max_weight`` (rounded,
below ``2 L``), and ``d + w > d`` once ``w`` exceeds half an ulp of ``d``,
with ``ulp(2 L) <= 2**-51 * L``.  Hence ``min_weight >= label_floor(n,
max_weight) = (n - 1) * max_weight * 2**-51``, over a whole snapshot
(``check_weights`` given ``num_nodes``) and each update (``update_error``).
HiTi's overlay, derived from a snapshot, needs no check of its own: its
super-edges sum base weights and its labels are base distances.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = ["RULE", "check_weights", "first_invalid_weight", "is_valid_weight",
           "label_floor", "update_error"]

#: How the rule reads in error messages.
RULE = "must be positive and finite"


def is_valid_weight(weight: float) -> bool:
    """``True`` when ``weight`` is strictly positive and finite (NaN is not)."""
    return 0.0 < weight < math.inf


def label_floor(num_nodes: int, max_weight: float) -> float:
    """The smallest weight the label bound admits: ``(num_nodes - 1) *
    max_weight * 2**-51``."""
    return max(num_nodes - 1, 0) * max_weight * 2.0**-51


def _floor_phrase(num_nodes: int, max_weight: float) -> str:
    return (
        f"{label_floor(num_nodes, max_weight)!r}, the label-precision floor of "
        f"{num_nodes} nodes with a largest weight of {max_weight!r}"
    )


def first_invalid_weight(weights) -> Optional[int]:
    """The position of the first weight breaking the rule, ``None`` if none
    does: :func:`is_valid_weight` over a float64 buffer, read in place.  A
    valid buffer costs a ``min`` and a ``max`` pass (NaN fails both)."""
    values = np.asarray(weights, dtype=np.float64)
    if not len(values) or (values.min() > 0.0 and values.max() < math.inf):
        return None
    return int(np.flatnonzero(~((values > 0.0) & (values < math.inf)))[0])


def check_weights(
    weights, unit: str = "CSR position", first: int = 0, num_nodes: Optional[int] = None
) -> None:
    """Raise ``ValueError`` naming the first weight that breaks the rule,
    its position counted from ``first`` in ``unit``s.  Given ``num_nodes``
    the weights are a whole graph's, and the smallest is also checked
    against :func:`label_floor`."""
    position = first_invalid_weight(weights)
    if position is None and num_nodes is not None and len(weights):
        values = np.asarray(weights, dtype=np.float64)
        high = float(values.max())
        if values.min() < label_floor(num_nodes, high):
            position = int(values.argmin())
            raise ValueError(
                f"edge weight {float(values[position])!r} at {unit} {first + position} "
                f"is below {_floor_phrase(num_nodes, high)}"
            )
    if position is not None:
        raise ValueError(
            f"edge weight {float(weights[position])!r} at {unit} "
            f"{first + position} {RULE}"
        )


def update_error(weight: float, num_nodes: int, low: float, high: float) -> Optional[str]:
    """Why setting one edge of an ``num_nodes``-node graph whose weights span
    ``[low, high]`` to ``weight`` would break the label bound, or ``None``;
    checked over the extremes it can leave."""
    low, high = float(min(low, weight)), float(max(high, weight))
    if low >= label_floor(num_nodes, high):
        return None
    return f"edge weight {weight!r} leaves the smallest weight {low!r} below " + (
        _floor_phrase(num_nodes, high)
    )
