"""Hilbert space-filling curve used by HCI and DSI (paper Appendix A).

The standard iterative rotate-and-flip mapping between 2-D grid cells and
positions along a Hilbert curve of a given order.
"""

from __future__ import annotations

from typing import Tuple

__all__ = [
    "hilbert_gap",
    "hilbert_index",
    "hilbert_order_for",
    "hilbert_point",
    "point_to_hilbert",
    "window_hilbert_range",
]


def hilbert_index(order: int, x: int, y: int) -> int:
    """Distance along the order-``order`` Hilbert curve of grid cell (x, y)."""
    side = 1 << order
    if not (0 <= x < side and 0 <= y < side):
        raise ValueError(f"cell ({x}, {y}) outside a {side}x{side} grid")
    rx = ry = 0
    distance = 0
    s = side // 2
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        distance += s * s * ((3 * rx) ^ ry)
        x, y = _rotate(s, x, y, rx, ry)
        s //= 2
    return distance


def hilbert_point(order: int, distance: int) -> Tuple[int, int]:
    """Grid cell (x, y) at position ``distance`` along the order-``order`` curve."""
    side = 1 << order
    if not 0 <= distance < side * side:
        raise ValueError(f"distance {distance} outside the order-{order} curve")
    x = y = 0
    t = distance
    s = 1
    while s < side:
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)
        x, y = _rotate(s, x, y, rx, ry)
        x += s * rx
        y += s * ry
        t //= 4
        s *= 2
    return x, y


def _rotate(s: int, x: int, y: int, rx: int, ry: int) -> Tuple[int, int]:
    """Rotate/flip the quadrant as required by the Hilbert construction."""
    if ry == 0:
        if rx == 1:
            x = s - 1 - x
            y = s - 1 - y
        x, y = y, x
    return x, y


def hilbert_order_for(num_objects: int) -> int:
    """A curve order fine enough that objects rarely share a cell."""
    order = 1
    while (1 << order) * (1 << order) < 4 * max(1, num_objects):
        order += 1
    return min(order, 16)


def point_to_hilbert(
    x: float,
    y: float,
    bounds: Tuple[float, float, float, float],
    order: int,
) -> int:
    """Map a continuous point to its Hilbert value within ``bounds``."""
    min_x, min_y, max_x, max_y = bounds
    side = 1 << order
    width = (max_x - min_x) or 1.0
    height = (max_y - min_y) or 1.0
    cell_x = min(side - 1, max(0, int((x - min_x) / width * side)))
    cell_y = min(side - 1, max(0, int((y - min_y) / height * side)))
    return hilbert_index(order, cell_x, cell_y)


def window_hilbert_range(
    window: Tuple[float, float, float, float],
    bounds: Tuple[float, float, float, float],
    order: int,
) -> Tuple[int, int]:
    """Smallest and largest Hilbert value of the cells ``window`` intersects."""
    min_x, min_y, max_x, max_y = window
    bounds_min_x, bounds_min_y, bounds_max_x, bounds_max_y = bounds
    side = 1 << order
    width = (bounds_max_x - bounds_min_x) or 1.0
    height = (bounds_max_y - bounds_min_y) or 1.0

    def cell_of(value: float, low: float, extent: float) -> int:
        return min(side - 1, max(0, int((value - low) / extent * side)))

    first_col = cell_of(min_x, bounds_min_x, width)
    last_col = cell_of(max_x, bounds_min_x, width)
    first_row = cell_of(min_y, bounds_min_y, height)
    last_row = cell_of(max_y, bounds_min_y, height)
    low = high = None
    for col in range(first_col, last_col + 1):
        for row in range(first_row, last_row + 1):
            value = hilbert_index(order, col, row)
            low = value if low is None else min(low, value)
            high = value if high is None else max(high, value)
    return (low or 0, high if high is not None else (side * side - 1))


def hilbert_gap(low: int, high: int, value: int) -> int:
    """Distance along the curve from ``value`` to ``[low, high]``; 0 inside."""
    if low <= value <= high:
        return 0
    return min(abs(value - low), abs(value - high))
