"""Beamforming codebook and the geometric multipath channel.

The codebook holds 2**r constant-modulus steering vectors whose
generator phase sweeps [0, pi] in equal steps, ordered so that moving to
index +-1 moves to the adjacent beam. A codebook depends only on
(antennas, bits), so each one is built once and shared: its vectors
are read-only, and a caller who needs a changed codebook must copy them
first. Channels follow a multipath ray model with log-distance path
loss (``path_loss_gain``, elementwise over distances) and first-order
autoregressive fading whose correlation comes from the Jakes model at
the configured speed. Departure angles are fixed for an episode, so each
path's steering vector is built once, at the fresh draw, and every later
step of the episode reuses it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT
from scipy.special import j0

from .config import NetworkConfig
from .errors import ContractViolation
from .geometry import CellLayout, UserSet

# close-in clamp before the path-loss law; matches the usual 10 m
# minimum BS-UE distance of street-canyon deployment models
MIN_PATHLOSS_DISTANCE = 10.0


@dataclass(frozen=True)
class Codebook:
    vectors: np.ndarray  # (2**r, M) complex, rows are beams

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def antennas(self) -> int:
        return self.vectors.shape[1]


def _ulp_neighbours(v: np.ndarray, steps: int) -> np.ndarray:
    """(len(v), 2*steps + 1): v, then 1 ulp up, 1 down, 2 up, 2 down..."""
    out = [v]
    up, dn = v, v
    for _ in range(steps):
        up = np.nextafter(up, np.inf)
        dn = np.nextafter(dn, -np.inf)
        out.extend((up, dn))
    return np.stack(out, axis=-1)


def _snap_modulus(x: np.ndarray, y: np.ndarray, target: float) -> np.ndarray:
    """Nearest representable complex with float modulus exactly target,
    for each (x, y) pair.

    cos/sin rounding leaves |t*exp(i*phi)| a few ulp off t; nudging the
    components by up to 6 ulps lands back on it. A pair already exact is
    kept. For the others, among the 13 x 13 candidates the exact ones
    closest to (x, y) win; if none is exact (deep codebooks only), the
    smallest modulus error, then the smallest distance. Ties go to the
    first candidate in x-major order of the neighbour lists.
    """
    out = np.empty(x.shape, dtype=np.complex128)
    out.real = x
    out.imag = y
    off = np.abs(out) != target
    x, y = x[off], y[off]
    grid = np.empty((len(x), 13, 13), dtype=np.complex128)
    grid.real = _ulp_neighbours(x, 6)[:, :, None]
    grid.imag = _ulp_neighbours(y, 6)[:, None, :]
    grid = grid.reshape(len(x), 13 * 13)
    mod = np.abs(grid)
    err = np.abs(mod - target)
    dist = (grid.real - x[:, None]) ** 2 + (grid.imag - y[:, None]) ** 2
    exact = mod == target
    closest_exact = np.argmin(np.where(exact, dist, np.inf), axis=1)
    least_err = err == err.min(axis=1, keepdims=True)
    fallback = np.argmin(np.where(least_err, dist, np.inf), axis=1)
    pick = np.where(exact.any(axis=1), closest_exact, fallback)
    out[off] = grid[np.arange(len(x)), pick]
    return out


def beam_codebook(antennas: int, bits: int) -> Codebook:
    """Progressive phase-shift codebook over [0, pi].

    Beam n applies phase n*pi/(2**bits - 1) between neighbouring
    antennas. Every entry's magnitude is within one ulp of
    1/sqrt(antennas), and exactly that for antennas in {1, 2, 4, 8} and
    bits in {1, 2, 3}; a few entries of some other codebooks (6x4, 5x5,
    10x5 among them) keep a one-ulp error that the search of
    ``_snap_modulus`` cannot remove.
    Built once per (antennas, bits) and shared by every caller, so
    its vectors are read-only; copy them before changing them.
    """
    antennas = operator.index(antennas)
    bits = operator.index(bits)
    if antennas < 1:
        raise ContractViolation("antennas must be >= 1")
    if not 1 <= bits <= 8:
        raise ContractViolation("codebook bits must be in [1, 8]")
    return _build_codebook(antennas, bits)


@lru_cache(maxsize=None)
def _build_codebook(antennas: int, bits: int) -> Codebook:
    n_beams = 2 ** bits
    q = n_beams - 1
    target = 1.0 / math.sqrt(antennas)
    x = np.empty((n_beams, antennas), dtype=float)
    y = np.empty((n_beams, antennas), dtype=float)
    for n in range(n_beams):
        for m in range(antennas):
            # reduce the integer phase index first so large m*n keep
            # full precision: angle = pi * (m*n mod 2q) / q
            k = (m * n) % (2 * q)
            ang = math.pi * k / q
            x[n, m] = target * math.cos(ang)
            y[n, m] = target * math.sin(ang)
    vectors = _snap_modulus(x, y, target)
    vectors.flags.writeable = False
    return Codebook(vectors=vectors)


def matched_beams(channels: "ChannelSet", codebook: Codebook) -> np.ndarray:
    """Beam-training result: per user, the index maximizing |h^H w|.

    Uses only each BS's serving-cell CSI (the h[l, l, u] slice), the
    same information the SINR-report pipeline relies on. Ties resolve
    to the lowest index.
    """
    L, _, U, M = channels.vectors.shape
    if codebook.antennas != M:
        raise ContractViolation("codebook antenna count mismatch")
    serving = channels.vectors[np.arange(L), np.arange(L)]  # (L, U, M)
    scores = np.abs(np.einsum("lum,nm->lun", serving.conj(),
                              codebook.vectors)) ** 2
    return np.argmax(scores, axis=-1).astype(int)


def path_loss_gain(distance: float | np.ndarray,
                   config: NetworkConfig) -> float | np.ndarray:
    """Linear power gain of each distance: free-space reference at 1 m,
    then d**-n, with d clamped to MIN_PATHLOSS_DISTANCE."""
    lam_over_4pi = SPEED_OF_LIGHT / (4.0 * math.pi * config.carrier_freq)
    return (lam_over_4pi ** 2) * np.maximum(distance, MIN_PATHLOSS_DISTANCE) \
        ** (-config.pathloss_exponent)


def doppler_correlation(config: NetworkConfig) -> float:
    """Jakes AR(1) coefficient for one control interval."""
    doppler = config.ue_speed * config.carrier_freq / SPEED_OF_LIGHT
    return float(j0(2.0 * math.pi * doppler * config.step_duration))


@dataclass
class ChannelSet:
    """Downlink channels of every (serving-cell, source-cell, user) triple.

    vectors[l, j, u] is the channel from BS j to user u of cell l. Path
    gains and per-path steering vectors are kept so the next step can
    evolve the small-scale fading while geometry-driven quantities are
    recomputed. steering[l, j, u, p] is exp(i*pi*sin(a)*m)/sqrt(M) over
    antennas m for the path's departure angle a, fixed per episode.
    """

    vectors: np.ndarray   # (L, L, U, M) complex
    gains: np.ndarray     # (L, L, U, P) complex per-path gains, unit variance
    steering: np.ndarray  # (L, L, U, P, M) complex, fixed per episode


def sample_channels(layout: CellLayout, users: UserSet,
                    config: NetworkConfig, rng: np.random.Generator,
                    prev: Optional[ChannelSet] = None) -> ChannelSet:
    """Draw or evolve all channels for the current user positions.

    Without prev, departure angles and path gains are drawn fresh and
    the angles are turned into steering vectors. With prev, the steering
    vectors persist (the same array) and gains follow
    g' = rho*g + sqrt(1-rho^2)*w with w standard circular Gaussian,
    preserving the marginal law.
    """
    L = layout.cells
    U = users.users_per_cell
    M = config.antennas
    P = config.paths

    if prev is None:
        # departure angles over the broadside half-plane: sin(angle) then
        # spans [0, 1], the steering range the phase codebook covers
        angles = rng.uniform(0.0, np.pi, size=(L, L, U, P))
        gains = (rng.standard_normal((L, L, U, P))
                 + 1j * rng.standard_normal((L, L, U, P))) / math.sqrt(2.0)
        steering = np.exp(1j * np.pi * np.sin(angles)[..., None]
                          * np.arange(M)) / math.sqrt(M)
    else:
        if prev.vectors.shape != (L, L, U, M):
            raise ContractViolation(
                "previous ChannelSet shape %r does not match scenario %r"
                % (prev.vectors.shape, (L, L, U, M)))
        rho = doppler_correlation(config)
        steering = prev.steering
        if rho >= 1.0:
            gains = prev.gains
        else:
            noise = (rng.standard_normal((L, L, U, P))
                     + 1j * rng.standard_normal((L, L, U, P))) / math.sqrt(2.0)
            gains = rho * prev.gains + math.sqrt(1.0 - rho * rho) * noise

    # distance from source BS j to user (l, u)
    diff = users.positions[:, None, :, :] - layout.positions[None, :, None, :]
    pl = path_loss_gain(np.linalg.norm(diff, axis=-1), config)

    scale = np.sqrt(M * pl / P)
    vectors = scale[..., None] * np.einsum("ljup,ljupm->ljum", gains,
                                           steering)
    return ChannelSet(vectors=vectors, gains=gains, steering=steering)
