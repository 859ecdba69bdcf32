"""Hexagonal layout, disk user drops and the correlated random walk."""

import math

import numpy as np
import pytest

from cellshare.config import default_config
from cellshare.errors import ContractViolation
from cellshare.geometry import build_layout, spawn_users, step_mobility


def test_layout_two_cells_one_isd_apart():
    layout = build_layout(2, 225.0)
    assert layout.positions.shape == (2, 2)
    assert np.allclose(layout.positions[0], [0.0, 0.0])
    d = np.linalg.norm(layout.positions[1] - layout.positions[0])
    assert d == pytest.approx(225.0, rel=1e-12)


def test_layout_first_ring_geometry():
    layout = build_layout(7, 100.0)
    d_from_origin = np.linalg.norm(layout.positions[1:], axis=1)
    assert np.allclose(d_from_origin, 100.0)
    # walking the ring counter-clockwise, neighbours are one ISD apart
    ring = layout.positions[1:]
    for i in range(6):
        gap = np.linalg.norm(ring[(i + 1) % 6] - ring[i])
        assert gap == pytest.approx(100.0, rel=1e-9)


def test_layout_pairwise_minimum_spacing():
    layout = build_layout(19, 225.0)
    pts = layout.positions
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert np.linalg.norm(pts[i] - pts[j]) >= 225.0 - 1e-6


def _sorted_rings(cells, spacing):
    """Hex sites listed ring by ring, each ring's axial coordinates
    enumerated over a square and sorted by angle in [0, 2 pi): the
    reference the ring walk must reproduce."""
    def angle(q, r):
        a = math.atan2((math.sqrt(3.0) / 2.0) * r, q + 0.5 * r)
        return a if a >= 0.0 else a + 2.0 * math.pi

    coords = [(0, 0)]
    ring = 1
    while len(coords) < cells:
        coords.extend(sorted(
            ((q, r) for q in range(-ring, ring + 1)
             for r in range(-ring, ring + 1)
             if max(abs(q), abs(r), abs(q + r)) == ring),
            key=lambda qr: angle(*qr)))
        ring += 1
    pts = np.empty((cells, 2))
    for i, (q, r) in enumerate(coords[:cells]):
        pts[i] = (spacing * (q + 0.5 * r),
                  spacing * (math.sqrt(3.0) / 2.0) * r)
    return pts


def test_layout_walk_equals_sorted_rings():
    for cells in range(1, 128):
        for spacing in (1.0, 225.0):
            assert np.array_equal(build_layout(cells, spacing).positions,
                                  _sorted_rings(cells, spacing))


def test_layout_rejects_bad_arguments():
    with pytest.raises(ContractViolation):
        build_layout(0, 100.0)
    with pytest.raises(ContractViolation):
        build_layout(2, 0.0)


def test_user_drop_is_disk_uniform():
    layout = build_layout(2, 225.0)
    rng = np.random.default_rng(11)
    radius = 112.0
    r_all = []
    for _ in range(200):
        users = spawn_users(layout, 5, radius, rng)
        off = users.offsets(layout)
        r = np.linalg.norm(off, axis=-1).ravel()
        assert np.all(r <= radius + 1e-9)
        r_all.append(r)
    r_all = np.concatenate(r_all)
    # uniform disk: mean distance 2R/3, mean squared distance R^2/2
    assert r_all.mean() == pytest.approx(2.0 * radius / 3.0, rel=0.01)
    assert (r_all ** 2).mean() == pytest.approx(radius ** 2 / 2.0, rel=0.02)


def test_mobility_zero_speed_keeps_positions():
    net = default_config().network
    net.ue_speed = 0.0
    layout = build_layout(net.cells, net.inter_site_distance)
    rng = np.random.default_rng(3)
    users = spawn_users(layout, 3, net.cell_radius, rng)
    moved = step_mobility(users, layout, net, rng)
    assert np.array_equal(moved.positions, users.positions)
    assert not np.array_equal(moved.headings, users.headings)


def test_mobility_stays_inside_serving_disk():
    net = default_config().network
    net.ue_speed = 30.0  # vehicular, to exercise the boundary fold
    layout = build_layout(net.cells, net.inter_site_distance)
    rng = np.random.default_rng(5)
    users = spawn_users(layout, 4, net.cell_radius, rng)
    for _ in range(500):
        users = step_mobility(users, layout, net, rng)
        r = np.linalg.norm(users.offsets(layout), axis=-1)
        assert np.all(r <= net.cell_radius + 1e-9)


def test_mobility_step_length():
    net = default_config().network
    layout = build_layout(net.cells, net.inter_site_distance)
    rng = np.random.default_rng(9)
    # drop well inside the disk so no step can touch the boundary
    users = spawn_users(layout, 3, 30.0, rng)
    moved = step_mobility(users, layout, net, rng)
    hops = np.linalg.norm(moved.positions - users.positions, axis=-1)
    expect = net.ue_speed * net.step_duration
    assert np.allclose(hops, expect, rtol=1e-9)
