"""Base-station layout, user placement and mobility.

Base stations sit on a hexagonal lattice: the first site is at the
origin and further sites are taken ring by ring outwards, each ring
walked side by side counter-clockwise from its corner on the +x axis
(the order of increasing angle), so any two adjacent sites are exactly
one inter-site distance apart. Users are dropped uniformly on a disk
around their serving BS and do a correlated random walk inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import NetworkConfig
from .errors import ContractViolation

# per-step heading diffusion of the user random walk (radians, 1-sigma)
HEADING_SIGMA = 0.1


# axial steps along the six sides of a hex ring, counter-clockwise from
# the ring's corner on the +x axis
_RING_SIDES = ((-1, 1), (-1, 0), (0, -1), (1, -1), (1, 0), (0, 1))


@dataclass
class CellLayout:
    positions: np.ndarray  # (L, 2) BS coordinates in meters

    @property
    def cells(self) -> int:
        return self.positions.shape[0]


def build_layout(cells: int, inter_site_distance: float) -> CellLayout:
    if cells < 1:
        raise ContractViolation("need at least one cell, got %d" % cells)
    if inter_site_distance <= 0:
        raise ContractViolation("inter_site_distance must be positive")

    # axial hex coordinates ring by ring; ring 0 is the origin and ring
    # k starts at (k, 0)
    coords = [(0, 0)]
    ring = 1
    while len(coords) < cells:
        q, r = ring, 0
        for dq, dr in _RING_SIDES:
            for _ in range(ring):
                coords.append((q, r))
                q, r = q + dq, r + dr
        ring += 1

    pts = np.empty((cells, 2), dtype=float)
    for i, (q, r) in enumerate(coords[:cells]):
        pts[i, 0] = inter_site_distance * (q + 0.5 * r)
        pts[i, 1] = inter_site_distance * (math.sqrt(3.0) / 2.0) * r
    return CellLayout(positions=pts)


@dataclass
class UserSet:
    """Positions and walk headings of every user, indexed (cell, user)."""

    positions: np.ndarray  # (..., L, U, 2) meters
    headings: np.ndarray   # (..., L, U) radians

    @property
    def users_per_cell(self) -> int:
        return self.positions.shape[-2]

    def offsets(self, layout: CellLayout) -> np.ndarray:
        """Positions relative to each user's serving BS, (..., L, U, 2)."""
        return self.positions - layout.positions[:, None, :]


def spawn_users(layout: CellLayout, users_per_cell: int,
                cell_radius: float, rng: np.random.Generator) -> UserSet:
    """Drop users uniformly on a disk of cell_radius around each BS."""
    if users_per_cell < 0:
        raise ContractViolation("users_per_cell must be non-negative")
    L = layout.cells
    u = rng.random((L, users_per_cell))
    theta = rng.random((L, users_per_cell)) * 2.0 * np.pi
    # sqrt gives an area-uniform radial density
    radii = cell_radius * np.sqrt(u)
    offsets = np.stack([radii * np.cos(theta), radii * np.sin(theta)], axis=-1)
    positions = layout.positions[:, None, :] + offsets
    headings = rng.random((L, users_per_cell)) * 2.0 * np.pi
    return UserSet(positions=positions, headings=headings)


def step_mobility(users: UserSet, layout: CellLayout, config: NetworkConfig,
                  rng: np.random.Generator,
                  steps: int | None = None) -> UserSet:
    """Advance every user by one control interval, or by ``steps``.

    Each user moves speed*step_duration along its heading; the heading
    itself diffuses slowly so walks stay persistent but not straight.
    Users that would leave the serving disk are folded back across the
    boundary and their heading is reflected off the circle.

    With ``steps``, positions and headings carry a leading time axis,
    row t after step t + 1: the draws of one-step calls in their order,
    summed in step order, so every row equals those calls' bit for bit.
    """
    L, U = users.positions.shape[:2]
    T = 1 if steps is None else steps
    step = config.ue_speed * config.step_duration
    turns = HEADING_SIGMA * rng.standard_normal((T, L, U))
    headings, positions = np.empty((T, L, U)), np.empty((T, L, U, 2))
    heading, position, t = users.headings, users.positions, 0
    while t < T:
        # the walk of steps t, t + 1, ... as if every user stayed inside,
        # cut at the first step where one would leave
        turns[t] += heading
        walk = np.add.accumulate(turns[t:], axis=0, out=headings[t:])
        if step == 0.0:
            positions[...] = position
            break
        delta = np.empty(walk.shape + (2,))
        np.multiply(step, np.cos(walk), out=delta[..., 0])
        np.multiply(step, np.sin(walk), out=delta[..., 1])
        delta[0] += position
        proposed = np.add.accumulate(delta, axis=0, out=positions[t:])
        offsets = proposed - layout.positions[:, None, :]
        # np.linalg.norm's own formula for real input, without its wrapper
        dist = np.sqrt(np.add.reduce(offsets * offsets, axis=-1))
        out = dist > config.cell_radius
        if not np.count_nonzero(out):
            break
        k = int(out.any(axis=(1, 2)).argmax())
        for ell, u in np.argwhere(out[k]):
            off = offsets[k, ell, u]
            rho = dist[k, ell, u]
            radial = off / rho
            # fold the overshoot back inside the circle
            folded = max(2.0 * config.cell_radius - rho, 0.0)
            proposed[k, ell, u] = layout.positions[ell] + radial * folded
            # specular reflection of the walk direction
            h = np.array([math.cos(walk[k, ell, u]),
                          math.sin(walk[k, ell, u])])
            h = h - 2.0 * float(h @ radial) * radial
            walk[k, ell, u] = math.atan2(h[1], h[0])
        heading, position, t = walk[k], proposed[k], t + k + 1
    rows = 0 if steps is None else slice(None)  # one step: no time axis
    return UserSet(positions=positions[rows], headings=headings[rows])
