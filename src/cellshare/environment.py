"""One environment for training, greedy evaluation and the oracle.

``reset`` starts an episode: fresh users and channels, powers back to
the even split, beams matched to the new serving CSI. ``step`` applies
one joint action per cell, checks the power budget and beam bounds,
moves the users, evolves the channels and measures the result. Powers,
beams, states, rewards and punished flags are per-cell arrays handed
to ``control`` in one call each, with cells as the leading axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from . import control
from .channel import beam_codebook, matched_beams, sample_channels
from .config import NetworkConfig, db_to_linear
from .errors import ContractViolation
from .geometry import build_layout, spawn_users, step_mobility
from .physics import PowerTable, measure_inter_cell, received_powers, sinr


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

    def reset(self) -> None:
        cfg = self.config
        self.users = spawn_users(self.layout, cfg.users_per_cell,
                                 cfg.cell_radius, self.users_rng)
        self.channels = sample_channels(self.layout, self.users, cfg,
                                        self.channel_rng)
        self.powers_dbm = np.tile(control.initial_powers_dbm(cfg),
                                  (cfg.cells, 1))
        self.beams = matched_beams(self.channels, self.codebook)
        self.offsets = self.users.offsets(self.layout)

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
        powers_dbm, beams = control.apply_joint_action(
            actions, self.powers_dbm, self.beams, cfg)
        powers_mw = db_to_linear(powers_dbm)
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

        self.users = step_mobility(self.users, self.layout, cfg,
                                   self.users_rng)
        self.channels = sample_channels(self.layout, self.users, cfg,
                                        self.channel_rng, prev=self.channels)
        table = received_powers(self.channels, powers_mw, beams,
                                self.codebook)
        noise_mw = cfg.noise_mw
        gammas = sinr(table, noise_mw)
        estimates = measure_inter_cell(gammas, powers_mw, beams,
                                       self.channels, noise_mw, self.codebook)
        rewards, punished = control.reward(gammas, estimates, cfg.min_sinr,
                                           cfg.interference_threshold_mw,
                                           cfg.punishment)
        self.offsets = self.users.offsets(self.layout)
        return StepResult(table, gammas, estimates, rewards.tolist(), punished)
