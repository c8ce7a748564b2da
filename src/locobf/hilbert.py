"""Hilbert-curve ranking of domain locations, with the four rotated walks.

Locations are snapped to a grid of 1 km cells over the domain's
bounding box and ordered by their position along a Hilbert walk of that
grid. The walk of order m covers a 2^m x 2^m grid, starting in the
lower-left cell and ending in the lower-right one; the 90/180/270 degree
variants rotate the snapped cells about the grid center before ranking.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ROTATIONS",
    "MAX_ORDER",
    "HilbertOrdering",
    "hilbert_rank",
    "hilbert_cell",
    "rotate_cell",
    "default_order",
    "order_domain",
    "all_rotations",
]

ROTATIONS = (0, 90, 180, 270)
# ranks of an order-m walk stay below 4**m, which int64 holds up to m = 31
MAX_ORDER = 31


def _side(order):
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be between 0 and {MAX_ORDER}, got {order}")
    return 1 << order


def hilbert_rank(cell_x, cell_y, order):
    """Index of cell (cell_x, cell_y) along the order-``order`` Hilbert walk.

    Takes ints or equal-shaped int arrays; returns an int or an int64 array.
    """
    side = _side(order)
    x, y = np.asarray(cell_x), np.asarray(cell_y)
    if ((x < 0) | (x >= side) | (y < 0) | (y >= side)).any():
        raise ValueError(f"cell ({cell_x}, {cell_y}) outside the {side}x{side} grid")
    x, y = x.astype(np.int64), y.astype(np.int64)
    rank = np.zeros(np.broadcast(x, y).shape, dtype=np.int64)
    s = side >> 1
    while s > 0:
        rx = (x & s) // s
        ry = (y & s) // s
        rank += s * s * ((3 * rx) ^ ry)
        x, y = _fold(side, x, y, rx, ry)
        s >>= 1
    return rank if rank.ndim else int(rank)


def hilbert_cell(rank, order):
    """Inverse of hilbert_rank: the (x, y) cell at the given walk index."""
    side = _side(order)
    if not (0 <= rank < side * side):
        raise ValueError(f"rank {rank} outside the order-{order} walk")
    x = y = 0
    t = rank
    s = 1
    while s < side:
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)
        x, y = _fold(s, x, y, rx, ry)
        x += s * rx
        y += s * ry
        t //= 4
        s <<= 1
    return int(x), int(y)


def _fold(span, x, y, rx, ry):
    # quadrant reflection/transpose shared by both walk directions
    flip = (ry == 0) & (rx == 1)
    x = np.where(flip, span - 1 - x, x)
    y = np.where(flip, span - 1 - y, y)
    return np.where(ry == 0, y, x), np.where(ry == 0, x, y)


def rotate_cell(cell, side, rotation):
    """Rotate a grid cell about the center of a side x side grid."""
    x, y = cell
    if rotation == 0:
        return x, y
    if rotation == 90:
        return y, side - 1 - x
    if rotation == 180:
        return side - 1 - x, side - 1 - y
    if rotation == 270:
        return side - 1 - y, x
    raise ValueError(f"rotation must be one of {ROTATIONS}, got {rotation}")


@dataclass(frozen=True)
class HilbertOrdering:
    """A total order of location ids along one rotated Hilbert walk."""

    rotation: int
    order: int
    ids: tuple  # location ids in traversal order


def default_order(domain):
    """Smallest order whose grid of 1 km cells spans the bounding box."""
    spans = domain.positions.max(axis=0) - domain.positions.min(axis=0)
    span = float(spans.max())
    if not span <= 1 << MAX_ORDER:
        raise ValueError(f"a span of {span:.6g} km needs a grid order above {MAX_ORDER}")
    m = 0
    while (1 << m) < span:
        m += 1
    return m


def order_domain(domain, order=None, rotation=0):
    """Order all domain locations along one rotated Hilbert walk.

    Cells are 1 km squares anchored at the bounding-box minimum;
    locations beyond the grid edge clamp into the last cell and cell
    ties break by location id, so the result is always a permutation of
    0..n-1.
    """
    if rotation not in ROTATIONS:
        raise ValueError(f"rotation must be one of {ROTATIONS}, got {rotation}")
    if domain.n == 1:
        order = 0 if order is None else order
        _side(order)
        return HilbertOrdering(rotation, order, (0,))
    mins = domain.positions.min(axis=0)
    spans = domain.positions.max(axis=0) - mins
    if not float(spans.max()) > 0:
        raise ValueError("degenerate bounding box: all locations coincide")
    if order is None:
        order = default_order(domain)
    side = _side(order)
    # clamped before the cast, so far-off cells cannot overflow int64
    cells = np.minimum(domain.positions - mins, side - 1).astype(np.int64)
    ranks = hilbert_rank(*rotate_cell(cells.T, side, rotation), order)
    return HilbertOrdering(rotation, order, tuple(np.argsort(ranks, kind="stable").tolist()))


def all_rotations(domain, order=None):
    """The four rotated orderings, all at the same grid order."""
    return tuple(order_domain(domain, order, rot) for rot in ROTATIONS)
