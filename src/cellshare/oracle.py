"""Exhaustive baselines: one-step joint-action search and a full
configuration search over a power/beam grid.

Both optimize the instantaneous network sum-rate on a frozen channel
snapshot (myopic; no lookahead) and break ties lexicographically, so
identical inputs always produce identical outputs.

Both list each cell's candidates, then score every pick of one
candidate per cell in itertools.product order. One received_powers call
tabulates the candidates, batch row i being every cell's candidate i: a
cell's serving and intra power depend only on its own candidate, and
source j's interference only on j's. Each chunk of SEARCH_CHUNK picks
gathers its terms into C-ordered (B, L, U[, L]) arrays and reduces them
as for one configuration alone, so each rate equals that
configuration's own bit for bit, evaluate_configuration's included.
Within a chunk argmax keeps the first maximum, and a later chunk
replaces the best only with a strictly larger rate, so the result is
the first strict maximum over the whole space whatever the chunk size.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from . import control
from .channel import ChannelSet, Codebook
from .config import NetworkConfig, db_to_linear
from .errors import ContractViolation, SearchSpaceError
from .metrics import network_sum_rate
from .physics import PowerTable, received_powers, sinr

BRUTE_FORCE_LIMIT = 2 ** 20
GLOBAL_SEARCH_LIMIT = 2 ** 22
# picks gathered and scored at once, and candidates tabulated at once,
# so a search's working set stays bounded whatever the size of its space
SEARCH_CHUNK = 4096


def _product_rows(n: int, repeat: int) -> np.ndarray:
    """itertools.product(range(n), repeat=repeat) as an (n**repeat,
    repeat) index array, in the same order."""
    return np.stack(np.unravel_index(np.arange(n ** repeat), (n,) * repeat),
                    axis=-1)


def _refuse_outside_codebook(beams: np.ndarray, codebook: Codebook) -> None:
    """Refuse beams that apply_joint_action would clamp, ``take`` wrap."""
    if np.count_nonzero(beams < 0) or np.count_nonzero(beams >= codebook.size):
        raise ContractViolation("beam index outside codebook")


def evaluate_configuration(channels: ChannelSet, powers_dbm: np.ndarray,
                           beams: np.ndarray, config: NetworkConfig,
                           codebook: Codebook) -> float:
    """Network sum-rate of one explicit power/beam configuration."""
    _refuse_outside_codebook(np.asarray(beams), codebook)
    powers_mw = db_to_linear(np.asarray(powers_dbm, dtype=float))
    return _best_combination(channels, powers_mw[:, None],
                             np.asarray(beams)[:, None], config, codebook)[1]


def _pick_rates(table: PowerTable, picks: np.ndarray,
                noise_mw: float) -> np.ndarray:
    """Network sum-rate of each pick (B, L) of one candidate per cell,
    gathered from the candidate tables: (B,)."""
    _, L, U = table.serving.shape
    # flat takes of serving[picks[b, l], l, u] and of
    # inter_by_source[picks[b, j], l, u, j]: source j plays its pick
    own = picks[:, :, None] * (L * U) + np.arange(L * U).reshape(L, U)
    inter = table.inter_by_source.ravel().take(
        picks[:, None, None, :] * (L * U * L)
        + np.arange(L * U * L).reshape(L, U, L))
    gathered = PowerTable(serving=table.serving.ravel().take(own),
                          intra=table.intra.ravel().take(own),
                          inter_by_source=inter,
                          inter_total=inter.sum(axis=-1))
    return network_sum_rate(sinr(gathered, noise_mw))


def _best_combination(channels: ChannelSet, cell_powers_mw: np.ndarray,
                      cell_beams: np.ndarray, config: NetworkConfig,
                      codebook: Codebook) -> Tuple[Tuple[int, ...], float]:
    """First strict maximum over every pick of one candidate per cell.

    cell_powers_mw / cell_beams[l, i] is candidate i of cell l, (L, n, U).
    The n**L picks are scored in itertools.product order, SEARCH_CHUNK
    at a time. Returns the picked candidate of each cell and the sum-rate.
    """
    L, n = cell_beams.shape[:2]
    # the limits keep n <= 2048 when L >= 2; a single cell's up to
    # GLOBAL_SEARCH_LIMIT candidates are tabulated SEARCH_CHUNK at a time
    span = SEARCH_CHUNK if L == 1 else n
    best: Optional[np.ndarray] = None
    best_rate = -np.inf
    for low in range(0, n, span):
        table = received_powers(
            channels, cell_powers_mw[:, low:low + span].swapaxes(0, 1),
            cell_beams[:, low:low + span].swapaxes(0, 1), codebook)
        m = len(table.serving)
        total = m ** L
        for start in range(0, total, SEARCH_CHUNK):
            flat = np.arange(start, min(start + SEARCH_CHUNK, total))
            picks = np.stack(np.unravel_index(flat, (m,) * L), axis=-1)
            rates = _pick_rates(table, picks, config.noise_mw)
            k = int(np.argmax(rates))
            if rates[k] > best_rate:
                best_rate = rates[k]
                best = picks[k] + low
    assert best is not None
    return tuple(int(i) for i in best), float(best_rate)


def brute_force_step(channels: ChannelSet, powers_dbm: np.ndarray,
                     beams: np.ndarray, config: NetworkConfig,
                     codebook: Codebook) -> Tuple[Tuple[int, ...], float]:
    """Best one-step joint action of every agent, exhaustively.

    Enumerates all (2^(2U))^L combinations in lexicographic order and
    keeps the first strict maximum of the resulting sum-rate. Each
    agent's 2^(2U) actions are applied to its cell once.
    """
    L = config.cells
    U = config.users_per_cell
    n_actions = control.action_space_size(U)
    total = n_actions ** L
    if total > BRUTE_FORCE_LIMIT:
        raise SearchSpaceError(
            "joint-action space %d exceeds limit %d"
            % (total, BRUTE_FORCE_LIMIT))
    powers_dbm = np.asarray(powers_dbm, dtype=float)
    beams = np.asarray(beams, dtype=int)
    if powers_dbm.shape != (L, U) or beams.shape != (L, U):
        raise ContractViolation(
            "powers and beams must be (cells, users_per_cell)")
    if codebook.size != config.codebook_size:  # moves clamp to the config
        raise ContractViolation("codebook of %d beams, config of %d"
                                % (codebook.size, config.codebook_size))
    _refuse_outside_codebook(beams, codebook)

    # (L, n_actions, U): every action applied to every cell at once
    cell_powers, cell_beams = control.apply_joint_action(
        np.arange(n_actions), powers_dbm[:, None], beams[:, None], config)
    return _best_combination(channels, db_to_linear(cell_powers),
                             cell_beams, config, codebook)


def default_power_grid(config: NetworkConfig, step_db: float) -> np.ndarray:
    """dB levels step_db apart, from the per-user floor up to the full
    budget."""
    if step_db <= 0:
        raise ContractViolation("power grid step must be positive")
    lo = config.min_ue_power_dbm
    hi = config.max_bs_power_dbm
    n = np.floor((hi - lo) / step_db + 1e-12) + 1
    if n > GLOBAL_SEARCH_LIMIT:  # no search over it could run anyway
        raise SearchSpaceError("power grid of %g levels exceeds limit %d"
                               % (n, GLOBAL_SEARCH_LIMIT))
    return lo + step_db * np.arange(int(n))


def global_csi_search(channels: ChannelSet, power_grid_dbm: Sequence[float],
                      codebook: Codebook, config: NetworkConfig
                      ) -> Tuple[np.ndarray, np.ndarray, float]:
    """Exhaustive power-level x beam search over every user of every BS.

    Candidate cell configurations whose linear power sum exceeds the
    budget are skipped. Returns (powers_dbm, beams, sum_rate).
    """
    L = config.cells
    U = config.users_per_cell
    grid = np.asarray(list(power_grid_dbm), dtype=float)
    if grid.size == 0:
        raise ContractViolation("power grid is empty")
    slots = L * U
    options = grid.size * codebook.size
    if options ** slots > GLOBAL_SEARCH_LIMIT:
        raise SearchSpaceError(
            "configuration space %d exceeds limit %d"
            % (options ** slots, GLOBAL_SEARCH_LIMIT))

    # per-cell candidate assignments that respect the budget, in the
    # order of nested itertools.product loops over levels, then beams
    grid_mw = db_to_linear(grid)
    levels = _product_rows(grid.size, U)
    levels = levels[grid_mw[levels].sum(axis=1) <= config.max_bs_power_mw]
    if not len(levels):
        raise ContractViolation("no feasible cell configuration on the grid")
    beam_rows = _product_rows(codebook.size, U)
    cell_powers = np.repeat(grid[levels], len(beam_rows), axis=0)  # (P, U)
    cell_beams = np.tile(beam_rows, (len(levels), 1))

    picks, rate = _best_combination(
        channels, np.broadcast_to(db_to_linear(cell_powers),
                                  (L,) + cell_powers.shape),
        np.broadcast_to(cell_beams, (L,) + cell_beams.shape),
        config, codebook)
    return cell_powers[list(picks)], cell_beams[list(picks)], rate
