"""The one edge-weight rule: a weight is a travel cost, ``0 < w < inf``.

Every way a weight enters -- ``RoadNetwork`` edits, updates and
``validate()``, the text loader, the importers, the columnar writer and the
``CSRGraph`` constructor -- checks it here.  The kernel's compiled sweep,
its tree derivation, SPQ's discovery order and the border-path repair are
exact only under it.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = ["RULE", "check_weights", "first_invalid_weight", "is_valid_weight"]

#: How the rule reads in error messages.
RULE = "must be positive and finite"


def is_valid_weight(weight: float) -> bool:
    """``True`` when ``weight`` is strictly positive and finite (NaN is not)."""
    return 0.0 < weight < math.inf


def first_invalid_weight(weights) -> Optional[int]:
    """The position of the first weight breaking the rule, ``None`` if none
    does: :func:`is_valid_weight` over a float64 buffer, read in place.  A
    valid buffer costs a ``min`` and a ``max`` pass (NaN fails both)."""
    values = np.asarray(weights, dtype=np.float64)
    if not len(values) or (values.min() > 0.0 and values.max() < math.inf):
        return None
    return int(np.flatnonzero(~((values > 0.0) & (values < math.inf)))[0])


def check_weights(weights, unit: str = "CSR position", first: int = 0) -> None:
    """Raise ``ValueError`` naming the first weight that breaks the rule,
    its position counted from ``first`` in ``unit``s."""
    position = first_invalid_weight(weights)
    if position is not None:
        raise ValueError(
            f"edge weight {float(weights[position])!r} at {unit} "
            f"{first + position} {RULE}"
        )
