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
from functools import lru_cache
from typing import Tuple

import numpy as np

from .config import NetworkConfig, db_to_linear
from .errors import ContractViolation


def action_space_size(users_per_cell: int) -> int:
    return 2 ** (2 * users_per_cell)


def apply_power_command(prev_dbm: np.ndarray, steps_db: np.ndarray,
                        config: NetworkConfig) -> Tuple[np.ndarray, ...]:
    """+-1 dB power update of each cell under its budget constraint.

    Tentatively applies every user's step (+1.0 or -1.0 dB); in a cell
    whose linear sum would exceed the budget, every user steps -1 dB
    instead. Results are floored at the per-user minimum. The returned
    linear sum can never exceed the budget provided the previous powers
    respected it. Returns the powers in dBm and mW, the budget test's.
    """
    floor = config.min_ue_power_dbm
    prev_dbm = np.asarray(prev_dbm, dtype=float)
    tentative = prev_dbm + steps_db
    np.maximum(tentative, floor, out=tentative)
    tentative_mw = db_to_linear(tentative)
    over = tentative_mw.sum(axis=-1, keepdims=True) > config.max_bs_power_mw
    if not np.count_nonzero(over):  # no cell backs off
        return tentative, tentative_mw
    powers = np.where(over, np.maximum(prev_dbm - 1.0, floor), tentative)
    return powers, db_to_linear(powers)


@lru_cache(maxsize=None)
def _command_table(users_per_cell: int) -> Tuple[np.ndarray, np.ndarray]:
    """Every joint action's commands, decoded once per U: two read-only
    (2**(2U), U) arrays, row i holding action i's power steps in dB
    (+-1.0) and beam steps (+-1): one row per Q-value of an agent."""
    bits = np.arange(action_space_size(users_per_cell))[:, None] \
        >> 2 * np.arange(users_per_cell)
    power_steps = np.where(bits & 1, 1.0, -1.0)
    beam_steps = 2 * ((bits >> 1) & 1) - 1
    power_steps.flags.writeable = False
    beam_steps.flags.writeable = False
    return power_steps, beam_steps


def apply_joint_action(index: int | np.ndarray, prev_powers_dbm: np.ndarray,
                       prev_beams: np.ndarray, config: NetworkConfig
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode and apply each agent's joint action to its cell: the new
    powers in dBm, beams, and powers in mW (``apply_power_command``'s).

    Beams move one codebook step and saturate at both ends. The caller
    checks the previous beams (``Environment.step``, the oracle entries).
    """
    power_steps, beam_steps = _command_table(config.users_per_cell)
    n = len(power_steps)
    index = np.asarray(index)
    if index.dtype.kind not in "iu":
        raise ContractViolation("action indices must be integers, got %s"
                                % index.dtype)
    if np.count_nonzero(index < 0) or np.count_nonzero(index >= n):
        bad = (index < 0) | (index >= n)
        raise ContractViolation("action index %d outside [0, %d)"
                                % (index[bad][0], n))
    prev_beams = np.asarray(prev_beams, dtype=int)
    new_powers, new_powers_mw = apply_power_command(
        prev_powers_dbm, power_steps.take(index, axis=0), config)
    new_beams = prev_beams + beam_steps.take(index, axis=0)
    np.maximum(new_beams, 0, out=new_beams)
    np.minimum(new_beams, config.codebook_size - 1, out=new_beams)
    return new_powers, new_beams, new_powers_mw


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
    ok = (sinrs > min_sinr).all(axis=-1) \
        & (inter_mw < interference_threshold_mw).all(axis=-1)
    return np.where(ok, (1.0 + sinrs).prod(axis=-1),
                    -float(punishment))[()], ~ok


def initial_powers_dbm(config: NetworkConfig) -> np.ndarray:
    """Per-user starting powers: an even split of the budget minus 3 dB
    of headroom, floored at the per-user minimum."""
    value = max(config.max_bs_power_dbm
                - 10.0 * math.log10(config.users_per_cell) - 3.0,
                config.min_ue_power_dbm)
    return np.full(config.users_per_cell, value, dtype=float)
