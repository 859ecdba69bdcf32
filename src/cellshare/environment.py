"""One environment for training, greedy evaluation and the oracle.

``reset`` starts an episode: fresh users and channels, powers back to
the even split, beams matched to the new serving CSI. ``step`` applies
one joint action per cell, checks the power budget and beam bounds,
moves the users, evolves the channels and measures the result. Powers,
beams, states, rewards and punished flags are per-cell arrays handed
to ``control`` in one call each, with cells as the leading axis.

The walk and the fading depend on no action: an episode reset with its
length evolves them a block of steps at a time, never past that length
(so the next reset draws what it would after one-step calls), and each
step reads its row. Past it, or without it, a block is one step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from . import control
from .channel import ChannelSet, beam_codebook, matched_beams, sample_channels
from .config import NetworkConfig
from .errors import ContractViolation
from .geometry import (CellLayout, UserSet, build_layout, spawn_users,
                       step_mobility)
from .physics import PowerTable, measure_inter_cell, received_powers, sinr

# channel entries (steps x L*L*U*M) a block may hold: a desk episode is
# one block, a 19-cell step one of its own (longer blocks did not pay)
BLOCK_BUDGET = 4096


@dataclass
class StepResult:
    table: PowerTable       # true received powers after the step, mW
    sinr: np.ndarray        # (L, U) linear SINR reports
    estimates: np.ndarray   # (L, U) measured inter-cell interference, mW
    rewards: List[float]    # every cell's own reward
    punished: np.ndarray    # (L,) bool: control.reward punished the cell


class Environment:
    """Users, channels, powers and beams of every cell. The first two
    children of ``seeds`` drive the user and channel streams; a caller
    may spawn more children for its own streams."""

    def __init__(self, config: NetworkConfig,
                 seeds: np.random.SeedSequence):
        self.config = config
        self.users_rng, self.channel_rng = map(np.random.default_rng,
                                               seeds.spawn(2))
        self.codebook = beam_codebook(config.antennas, config.codebook_bits)
        self.layout = build_layout(config.cells, config.inter_site_distance)

    def reset(self, steps: Optional[int] = None) -> None:
        """Start an episode of ``steps`` steps, if its length is known."""
        cfg = self.config
        self.users = spawn_users(self.layout, cfg.users_per_cell,
                                 cfg.cell_radius, self.users_rng)
        self.channels = sample_channels(self.layout, self.users, cfg,
                                        self.channel_rng)
        self.powers_dbm = np.tile(control.initial_powers_dbm(cfg),
                                  (cfg.cells, 1))
        self.beams = matched_beams(self.channels, self.codebook)
        self.offsets = self.users.offsets(self.layout)
        self._rows = _evolve(self.users, self.channels, self.layout, cfg,
                             (self.users_rng, self.channel_rng), steps or 0)

    def states(self) -> np.ndarray:
        """Every agent's observation of its cell's powers, beams, users:
        an (L, 4U) matrix, one row per agent."""
        return control.encode_state(self.powers_dbm, self.beams,
                                    self.offsets, self.config)

    def step(self, actions: Sequence[int]) -> StepResult:
        """Apply one joint action per cell, then advance and measure.

        ``actions`` must hold exactly one index per cell. A refused step
        leaves the powers and beams as they were."""
        cfg = self.config
        actions = np.asarray(actions)
        if actions.shape != (cfg.cells,):
            raise ContractViolation("need one action per cell, shape (%d,), "
                                    "got %r" % (cfg.cells, actions.shape))
        powers_dbm, beams, powers_mw = control.apply_joint_action(
            actions, self.powers_dbm, self.beams, cfg)
        budget_mw = powers_mw.sum(axis=1)
        over = budget_mw > cfg.max_bs_power_mw
        size = cfg.codebook_size
        if np.count_nonzero(over) or np.count_nonzero(beams < 0) \
                or np.count_nonzero(beams >= size):
            outside = (beams < 0) | (beams >= size)
            ell = int((over | outside.any(axis=1)).argmax())
            raise ContractViolation(
                "cell %d left its power budget or the codebook: %r mW, "
                "beams %s" % (ell, float(budget_mw[ell]),
                              beams[ell].tolist()))
        self.powers_dbm, self.beams = powers_dbm, beams

        self.users, self.channels, offsets = next(self._rows)
        table = received_powers(self.channels, powers_mw, beams,
                                self.codebook)
        noise_mw = cfg.noise_mw
        gammas = sinr(table, noise_mw)
        estimates = measure_inter_cell(gammas, powers_mw, beams,
                                       self.channels, noise_mw, self.codebook)
        rewards, punished = control.reward(gammas, estimates, cfg.min_sinr,
                                           cfg.interference_threshold_mw,
                                           cfg.punishment)
        self.offsets = offsets
        return StepResult(table, gammas, estimates, rewards.tolist(), punished)


def _evolve(users: UserSet, channels: ChannelSet, layout: CellLayout,
            config: NetworkConfig, rngs: tuple, steps: int) -> Iterator[tuple]:
    """Each later step's users, channels and offsets: blocks of up to
    BLOCK_BUDGET channel entries within ``steps``, then one step each.
    It holds no environment, so no reference cycle keeps one alive."""
    size = BLOCK_BUDGET // (config.cells ** 2 * config.users_per_cell
                            * config.antennas)
    while True:
        block = max(1, min(size, steps))
        steps -= block
        walk = step_mobility(users, layout, config, rngs[0], block)
        fade = sample_channels(layout, walk, config, rngs[1], prev=channels)
        for users, channels, offsets in zip(
                map(UserSet, walk.positions, walk.headings),
                map(ChannelSet, fade.vectors, fade.gains,
                    [fade.steering] * block), walk.offsets(layout)):
            yield users, channels, offsets
