"""Command application, state encoding and reward, for one cell or many.

Each agent controls one cell and picks one joint action per step: an
index below 2**(2U) whose bits hold, per user u, a power command (bit
2u: 0 -> -1 dB, 1 -> +1 dB) and a beam command (bit 2u+1: 0 -> step
down, 1 -> step up the codebook).

The command, state and reward functions take optional leading axes of
cells in front of their per-cell arguments, as
``physics.received_powers`` takes batch axes: powers, beams and SINRs
are (..., U), offsets (..., U, 2) and actions (...); states come out as
(..., 4U), rewards and punished flags as (...). Leading axes broadcast,
so the oracle applies every action to every cell in one call. Each
cell's result equals the unbatched call on that cell bit for bit.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .config import NetworkConfig, db_to_linear
from .errors import ContractViolation


def action_space_size(users_per_cell: int) -> int:
    return 2 ** (2 * users_per_cell)


def apply_power_command(prev_dbm: np.ndarray, power_bits: np.ndarray,
                        config: NetworkConfig) -> np.ndarray:
    """+-1 dB power update of each cell under its budget constraint.

    Tentatively applies every command; in a cell whose linear sum would
    exceed the budget, every user steps -1 dB instead. Results are
    floored at the per-user minimum. The returned linear sum can never
    exceed the budget provided the previous powers respected it.
    """
    prev_dbm = np.asarray(prev_dbm, dtype=float)
    delta = np.where(np.asarray(power_bits) == 1, 1.0, -1.0)
    tentative = np.maximum(prev_dbm + delta, config.min_ue_power_dbm)
    over = np.sum(db_to_linear(tentative), axis=-1, keepdims=True) \
        > config.max_bs_power_mw
    return np.where(over, np.maximum(prev_dbm - 1.0, config.min_ue_power_dbm),
                    tentative)


def apply_joint_action(index: int | np.ndarray, prev_powers_dbm: np.ndarray,
                       prev_beams: np.ndarray,
                       config: NetworkConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Decode and apply each agent's joint action to its cell.

    Beams move one codebook step and saturate at both ends.
    """
    U = config.users_per_cell
    n = action_space_size(U)
    index = np.asarray(index)
    bad = (index < 0) | (index >= n)
    if bad.any():
        raise ContractViolation("action index %d outside [0, %d)"
                                % (index[bad][0], n))
    prev_beams = np.asarray(prev_beams, dtype=int)
    bad = (prev_beams < 0) | (prev_beams >= config.codebook_size)
    if bad.any():
        raise ContractViolation("beam index %d outside codebook"
                                % prev_beams[bad][0])
    shifts = 2 * np.arange(U)
    bits = index[..., None] >> shifts
    new_powers = apply_power_command(prev_powers_dbm, bits & 1, config)
    step = 2 * ((bits >> 1) & 1) - 1
    new_beams = np.minimum(np.maximum(prev_beams + step, 0),
                           config.codebook_size - 1)
    return new_powers, new_beams


def encode_state(prev_powers_dbm: np.ndarray, prev_beams: np.ndarray,
                 offsets: np.ndarray, config: NetworkConfig) -> np.ndarray:
    """Flatten each agent's observation into its network input vector.

    Per user: [normalized power, normalized beam index, x/R, y/R] where
    the power scale runs from the per-user floor to the full budget and
    offsets are user positions relative to the serving BS.
    """
    U = config.users_per_cell
    prev_powers_dbm = np.asarray(prev_powers_dbm, dtype=float)
    prev_beams = np.asarray(prev_beams, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    cells = prev_powers_dbm.shape[:-1]
    if prev_powers_dbm.shape[-1:] != (U,) \
            or prev_beams.shape != prev_powers_dbm.shape \
            or offsets.shape != prev_powers_dbm.shape + (2,):
        raise ContractViolation("encode_state arguments must cover U users")
    span = config.max_bs_power_dbm - config.min_ue_power_dbm
    state = np.empty(cells + (U, 4), dtype=float)
    state[..., 0] = (prev_powers_dbm - config.min_ue_power_dbm) / span
    state[..., 1] = prev_beams / max(config.codebook_size - 1, 1)
    state[..., 2:] = offsets / config.cell_radius
    return state.reshape(cells + (4 * U,))


def state_size(users_per_cell: int) -> int:
    return 4 * users_per_cell


def reward(sinrs: np.ndarray, inter_mw: np.ndarray, min_sinr: float,
           interference_threshold_mw: float,
           punishment: float) -> Tuple[np.ndarray, np.ndarray]:
    """Each cell's reward and punished flag. A cell is punished, and
    its reward is -punishment, unless every user's SINR is strictly
    above the floor and its inter-cell interference strictly below the
    threshold; else the reward is the product of (1 + SINR) over its
    users. One cell gives a float and a numpy bool, (..., U) inputs two
    (...) arrays."""
    sinrs = np.asarray(sinrs, dtype=float)
    inter_mw = np.asarray(inter_mw, dtype=float)
    ok = np.all(sinrs > min_sinr, axis=-1) \
        & np.all(inter_mw < interference_threshold_mw, axis=-1)
    return np.where(ok, np.prod(1.0 + sinrs, axis=-1),
                    -float(punishment))[()], ~ok


def initial_powers_dbm(config: NetworkConfig) -> np.ndarray:
    """Per-user starting powers: an even split of the budget minus 3 dB
    of headroom, floored at the per-user minimum."""
    value = max(config.max_bs_power_dbm
                - 10.0 * math.log10(config.users_per_cell) - 3.0,
                config.min_ue_power_dbm)
    return np.full(config.users_per_cell, value, dtype=float)
