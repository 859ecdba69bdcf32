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
step of the episode, or block of steps evolved at once, reuses it.

The Jakes coefficient J0(2*pi*f_d*T) comes from ``_j0``, an in-package
port of Cephes ``j0`` (rational form up to 5, Hankel modulus and phase
above). It keeps Cephes' coefficients and order of operations, and
plain Python floats never fuse a multiply-add, so every value equals
SciPy's ``special.j0`` bit for bit and the package needs numpy alone.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .config import NetworkConfig
from .errors import ContractViolation
from .geometry import CellLayout, UserSet

# close-in clamp before the path-loss law; matches the usual 10 m
# minimum BS-UE distance of street-canyon deployment models
MIN_PATHLOSS_DISTANCE = 10.0

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact by the SI definition


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


def doppler_phase(config: NetworkConfig) -> float:
    """2*pi*f_d*T: the Doppler phase of one control interval, with
    f_d = v*f_c/c. Config validation refuses a config that makes it
    overflow."""
    doppler = config.ue_speed * config.carrier_freq / SPEED_OF_LIGHT
    return 2.0 * math.pi * doppler * config.step_duration


def doppler_correlation(config: NetworkConfig) -> float:
    """Jakes AR(1) coefficient J0(2*pi*f_d*T) for one control interval.

    J0 is ``_j0``, a port of Cephes ``j0``, the routine SciPy's
    ``special.j0`` runs: the rational form up to 5, the Hankel modulus
    and phase above it. Plain Python floats never fuse a multiply-add,
    so the value equals SciPy's to the last bit.
    """
    return _j0(doppler_phase(config))


# Cephes j0 coefficients. The tables of p1evl (monic polynomials) carry
# their leading 1.0 here, so one Horner loop evaluates both kinds.
_J0_DR1 = 5.78318596294678452118e0   # first zero of J0, squared
_J0_DR2 = 3.04712623436620863991e1   # second zero of J0, squared
_J0_RP = (-4.79443220978201773821e9, 1.95617491946556577543e12,
          -2.49248344360967716204e14, 9.70862251047306323952e15)
_J0_RQ = (1.0, 4.99563147152651017219e2, 1.73785401676374683123e5,
          4.84409658339962045305e7, 1.11855537045356834862e10,
          2.11277520115489217587e12, 3.10518229857422583814e14,
          3.18121955943204943306e16, 1.71086294081043136091e18)
_J0_PP = (7.96936729297347051624e-4, 8.28352392107440799803e-2,
          1.23953371646414299388e0, 5.44725003058768775090e0,
          8.74716500199817011941e0, 5.30324038235394892183e0,
          9.99999999999999997821e-1)
_J0_PQ = (9.24408810558863637013e-4, 8.56288474354474431428e-2,
          1.25352743901058953537e0, 5.47097740330417105182e0,
          8.76190883237069594232e0, 5.30605288235394617618e0,
          1.00000000000000000218e0)
_J0_QP = (-1.13663838898469149931e-2, -1.28252718670509318512e0,
          -1.95539544257735972385e1, -9.32060152123768231369e1,
          -1.77681167980488050595e2, -1.47077505154951170175e2,
          -5.14105326766599330220e1, -6.05014350600728481186e0)
_J0_QQ = (1.0, 6.43178256118178023184e1, 8.56430025976980587198e2,
          3.88240183605401609683e3, 7.24046774195652478189e3,
          5.93072701187316984827e3, 2.06209331660327847417e3,
          2.42005740240291393179e2)
_SQRT_2_OVER_PI = 7.9788456080286535587989e-1


def _polevl(x: float, coefs: tuple) -> float:
    """Horner evaluation, highest power first (Cephes polevl/p1evl)."""
    ans = coefs[0]
    for coef in coefs[1:]:
        ans = ans * x + coef
    return ans


@lru_cache(maxsize=64, typed=True)
def _j0(x: float) -> float:
    """Bessel J0 of a finite float, with Cephes' coefficients and order
    of operations. Up to 5: (z - DR1)(z - DR2) RP(z)/RQ(z) in z = x*x,
    or 1 - z/4 below 1e-5. Above 5: the modulus PP/PQ and phase QP/QQ
    in 25/x**2. Memoized: every step of a run asks for the same value."""
    x = abs(x)
    if x <= 5.0:
        z = x * x
        if x < 1.0e-5:
            return 1.0 - z / 4.0
        p = (z - _J0_DR1) * (z - _J0_DR2)
        return p * _polevl(z, _J0_RP) / _polevl(z, _J0_RQ)
    w = 5.0 / x
    q = 25.0 / (x * x)
    p = _polevl(q, _J0_PP) / _polevl(q, _J0_PQ)
    q = _polevl(q, _J0_QP) / _polevl(q, _J0_QQ)
    xn = x - math.pi / 4.0
    p = p * math.cos(xn) - w * q * math.sin(xn)
    return p * _SQRT_2_OVER_PI / math.sqrt(x)


@dataclass
class ChannelSet:
    """Downlink channels of every (serving-cell, source-cell, user) triple.

    vectors[l, j, u] is the channel from BS j to user u of cell l. Path
    gains and per-path steering vectors are kept so the next step can
    evolve the small-scale fading while geometry-driven quantities are
    recomputed. steering[l, j, u, p] is exp(i*pi*sin(a)*m)/sqrt(M) over
    antennas m for the path's departure angle a, fixed per episode.
    A block of steps evolved at once puts time first in vectors and gains.
    """

    vectors: np.ndarray   # (..., L, L, U, M) complex
    gains: np.ndarray     # (..., L, L, U, P) complex path gains, unit variance
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

    For users with a leading time axis (``step_mobility``'s with
    ``steps``), it draws every step's w at once, in one-step order,
    makes one path-loss pass, then updates and contracts step by step:
    every row equals those one-step calls' results bit for bit.
    """
    L = layout.cells
    U = users.users_per_cell
    M = config.antennas
    P = config.paths
    lead = users.positions.shape[:-3]  # () or the block's (T,)

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
            gains = np.broadcast_to(prev.gains, lead + prev.gains.shape)
        else:
            noise = rng.standard_normal(lead + (2, L, L, U, P))
            gains = math.sqrt(1.0 - rho * rho) * (
                (noise[..., 0, :, :, :, :] + 1j * noise[..., 1, :, :, :, :])
                / math.sqrt(2.0))
            g = prev.gains
            for t in np.ndindex(lead):
                g = np.add(rho * g, gains[t], out=gains[t])

    # distance from source BS j to user (l, u), by np.linalg.norm's own
    # formula for real input
    diff = users.positions[..., None, :, :] - layout.positions[:, None, :]
    pl = path_loss_gain(np.sqrt(np.add.reduce(diff * diff, axis=-1)), config)

    scale = np.sqrt(M * pl / P)[..., None]
    vectors = np.empty(lead + (L, L, U, M), dtype=complex)
    for t in np.ndindex(lead):
        np.multiply(scale[t], np.einsum("ljup,ljupm->ljum", gains[t],
                                        steering), out=vectors[t])
    return ChannelSet(vectors=vectors, gains=gains, steering=steering)
