import numpy as np
import pytest

from locobf import (
    ROTATIONS,
    LocationDomain,
    all_rotations,
    default_order,
    hilbert_cell,
    hilbert_rank,
    order_domain,
    rotate_cell,
    synth_domain,
)
from locobf.hilbert import MAX_ORDER


def test_order_one_is_a_bijection():
    ranks = {hilbert_rank(x, y, 1) for x in range(2) for y in range(2)}
    assert ranks == {0, 1, 2, 3}


def test_order_two_path_is_connected():
    cells = [hilbert_cell(r, 2) for r in range(16)]
    assert len(set(cells)) == 16
    for a, b in zip(cells, cells[1:]):
        assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


def test_roundtrip_order_three():
    for rank in range(64):
        assert hilbert_rank(*hilbert_cell(rank, 3), 3) == rank


def test_rank_of_arrays_equals_rank_of_each_cell():
    order = 4
    xs, ys = np.meshgrid(np.arange(16), np.arange(16))
    ranks = hilbert_rank(xs, ys, order)
    assert ranks.dtype == np.int64 and ranks.shape == (16, 16)
    assert ranks.tolist() == [[hilbert_rank(x, y, order) for x in range(16)] for y in range(16)]
    assert sorted(ranks.ravel().tolist()) == list(range(256))
    assert type(hilbert_rank(3, 5, order)) is int
    top = (1 << MAX_ORDER) - 1
    assert hilbert_rank(top, 0, MAX_ORDER) == 4 ** MAX_ORDER - 1  # the walk ends lower right
    assert hilbert_cell(4 ** MAX_ORDER - 1, MAX_ORDER) == (top, 0)


def test_rank_input_validation():
    with pytest.raises(ValueError):
        hilbert_rank(4, 0, 2)
    with pytest.raises(ValueError):
        hilbert_rank(0, -1, 2)
    with pytest.raises(ValueError):
        hilbert_cell(16, 2)
    for order in (-1, MAX_ORDER + 1):
        with pytest.raises(ValueError, match="order"):
            hilbert_rank(0, 0, order)
        with pytest.raises(ValueError, match="order"):
            hilbert_cell(0, order)


def test_rotate_cell():
    assert rotate_cell((1, 0), 4, 0) == (1, 0)
    assert rotate_cell((1, 0), 4, 90) == (0, 2)
    assert rotate_cell((1, 0), 4, 180) == (2, 3)
    assert rotate_cell((1, 0), 4, 270) == (3, 1)
    # four quarter turns come back around
    cell = (2, 1)
    for _ in range(4):
        cell = rotate_cell(cell, 4, 90)
    assert cell == (2, 1)
    with pytest.raises(ValueError):
        rotate_cell((0, 0), 4, 45)


def _span_domain(span):
    return LocationDomain([(0.0, 0.0), (span, 0.0)], [0.5, 0.5])


def test_default_order():
    # 16 cells of 1 km cover a 10 km span at order 4
    assert default_order(_span_domain(10.0)) == 4
    assert default_order(_span_domain(16.0)) == 4
    assert default_order(_span_domain(17.0)) == 5


def test_order_domain_single_point():
    dom = LocationDomain([(3.0, 4.0)], [1.0])
    ordering = order_domain(dom)
    assert ordering.ids == (0,)


def test_order_domain_row_monotone():
    """Points along the bottom grid row keep their x order at rotation 0."""
    dom = LocationDomain([(float(i) + 0.5, 0.5) for i in range(8)], [1.0 / 8] * 8)
    ordering = order_domain(dom, order=3)
    assert ordering.ids == tuple(range(8))


def test_order_domain_shared_cell_tiebreak():
    dom = LocationDomain(
        [(0.2, 0.2), (0.3, 0.3), (5.0, 5.0)],  # ids 0 and 1 share a 1 km cell
        [0.3, 0.3, 0.4],
    )
    ordering = order_domain(dom)
    assert ordering.ids.index(0) < ordering.ids.index(1)


@pytest.mark.parametrize("build", [order_domain, all_rotations])
def test_orders_above_max_are_rejected(build):
    dom = synth_domain(30, seed=12)
    got = build(dom, order=MAX_ORDER)
    assert {o.order for o in (got if isinstance(got, tuple) else (got,))} == {MAX_ORDER}
    with pytest.raises(ValueError, match="order"):
        build(dom, order=MAX_ORDER + 1)
    with pytest.raises(ValueError, match="order"):
        build(LocationDomain([(0.0, 0.0)], [1.0]), order=MAX_ORDER + 1)
    # a default order above the bound is refused before any ranking
    with pytest.raises(ValueError, match="grid order above 31"):
        build(_span_domain(2.2e9))
    # about the widest span a domain holds: wider ones overflow its distances
    huge = LocationDomain([(-8e307, 0.0), (8e307, 0.0)], [0.5, 0.5])
    with pytest.raises(ValueError, match="grid order above 31"):
        build(huge)


def test_order_domain_degenerate_bbox():
    dom = LocationDomain([(1.0, 1.0), (1.0, 1.0)], [0.5, 0.5])
    with pytest.raises(ValueError):
        order_domain(dom)


def test_order_domain_ranks_are_dense():
    dom = synth_domain(30, seed=12)
    ordering = order_domain(dom)
    assert sorted(ordering.ids) == list(range(30))


def test_all_rotations():
    dom = synth_domain(25, seed=3)
    orderings = all_rotations(dom)
    assert tuple(o.rotation for o in orderings) == ROTATIONS
    for o in orderings:
        assert sorted(o.ids) == list(range(25))
    single = LocationDomain([(2.0, 2.0)], [1.0])
    assert {o.ids for o in all_rotations(single)} == {(0,)}


def test_rotated_traversal_is_still_a_hilbert_walk():
    """Rotating the full 4x4 grid must keep consecutive cells adjacent."""
    for rotation in ROTATIONS:
        seq = sorted(
            (hilbert_rank(*rotate_cell((x, y), 4, rotation), 2), (x, y))
            for x in range(4)
            for y in range(4)
        )
        cells = [cell for _, cell in seq]
        for a, b in zip(cells, cells[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


def test_rotation_changes_the_ordering():
    dom = synth_domain(25, seed=3)
    base = order_domain(dom, rotation=0)
    flipped = order_domain(dom, rotation=180)
    assert base.ids != flipped.ids
