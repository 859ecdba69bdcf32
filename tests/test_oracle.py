"""Brute-force one-step search and the global power/beam grid search."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_snapshot

from cellshare import control, oracle
from cellshare.channel import ChannelSet, beam_codebook
from cellshare.config import db_to_linear, default_config
from cellshare.errors import ContractViolation, SearchSpaceError
from cellshare.metrics import network_sum_rate
from cellshare.physics import received_powers, sinr
from cellshare.oracle import (
    brute_force_step,
    default_power_grid,
    evaluate_configuration,
    global_csi_search,
)


def _small_net_cfg(users=1, antennas=2, bits=1, pmax=17.0):
    cfg = default_config().network
    cfg.users_per_cell = users
    cfg.antennas = antennas
    cfg.codebook_bits = bits
    cfg.max_bs_power_dbm = pmax
    cfg.noise_dbm = -120.0
    return cfg


def test_default_power_grid_frozen():
    run_cfg = default_config()
    cfg = run_cfg.network  # floor 0 dBm, budget 40 dBm
    grid = default_power_grid(cfg, run_cfg.oracle.power_step_db)
    assert np.array_equal(grid, np.arange(0.0, 40.0, 3.0))
    assert grid.size == 14 and grid[-1] == 39.0
    fine = default_power_grid(cfg, step_db=1.0)
    assert np.array_equal(fine, np.arange(0.0, 41.0))
    with pytest.raises(ContractViolation):
        default_power_grid(cfg, step_db=0.0)


def test_brute_force_zero_channels_ties_to_first_combo():
    cfg = _small_net_cfg()
    cb = beam_codebook(2, 1)
    channels = ChannelSet(vectors=np.zeros((2, 2, 1, 2), dtype=complex),
                          gains=np.zeros((2, 2, 1, 3), dtype=complex),
                          steering=np.zeros((2, 2, 1, 3, 2), dtype=complex))
    powers = np.full((2, 1), 10.0)
    beams = np.zeros((2, 1), dtype=int)
    combo, rate = brute_force_step(channels, powers, beams, cfg, cb)
    assert combo == (0, 0)
    assert rate == 0.0


def test_brute_force_matches_exhaustive_reimplementation():
    net_cfg = _small_net_cfg()
    net_cfg, _, _, channels, codebook = random_snapshot(
        21, users=1, net_cfg=net_cfg)
    powers = np.full((2, 1), 10.0)
    beams = np.ones((2, 1), dtype=int)
    combo, rate = brute_force_step(channels, powers, beams, net_cfg, codebook)

    best = None
    best_rate = -np.inf
    for a0 in range(4):
        for a1 in range(4):
            p = powers.copy()
            b = beams.copy()
            p[0], b[0] = control.apply_joint_action(a0, powers[0], beams[0],
                                                    net_cfg)
            p[1], b[1] = control.apply_joint_action(a1, powers[1], beams[1],
                                                    net_cfg)
            r = evaluate_configuration(channels, p, b, net_cfg, codebook)
            if r > best_rate:
                best_rate = r
                best = (a0, a1)
    assert combo == best
    assert rate == best_rate


def test_brute_force_is_maximal_over_random_actions():
    net_cfg = _small_net_cfg(users=2, antennas=4, bits=2, pmax=14.0)
    net_cfg, _, _, channels, codebook = random_snapshot(
        22, users=2, net_cfg=net_cfg)
    powers = np.tile(control.initial_powers_dbm(net_cfg), (2, 1))
    beams = np.full((2, net_cfg.users_per_cell), net_cfg.codebook_size // 2)
    _, rate = brute_force_step(channels, powers, beams, net_cfg, codebook)
    rng = np.random.default_rng(23)
    n_actions = control.action_space_size(2)
    for _ in range(100):
        p = powers.copy()
        b = beams.copy()
        for ell in range(2):
            action = int(rng.integers(n_actions))
            p[ell], b[ell] = control.apply_joint_action(
                action, powers[ell], beams[ell], net_cfg)
        assert evaluate_configuration(channels, p, b, net_cfg,
                                      codebook) <= rate + 1e-12


def test_chunked_searches_match_one_chunk(monkeypatch):
    # 4096 joint actions and 2304 grid assignments: the first strict
    # maximum must not depend on where the chunks split them
    net_cfg = _small_net_cfg(users=3, antennas=4, bits=2, pmax=14.0)
    net_cfg, _, _, channels, codebook = random_snapshot(
        31, users=3, net_cfg=net_cfg)
    powers = np.tile(control.initial_powers_dbm(net_cfg), (2, 1))
    beams = np.full((2, net_cfg.users_per_cell), net_cfg.codebook_size // 2)
    grid_cfg = _small_net_cfg(users=2, antennas=4, bits=2, pmax=16.0)
    grid_cfg, _, _, grid_channels, grid_codebook = random_snapshot(
        32, users=2, net_cfg=grid_cfg)
    grid = [10.0, 14.0, 16.0]

    def searches():
        step = brute_force_step(channels, powers, beams, net_cfg, codebook)
        best = global_csi_search(grid_channels, grid, grid_codebook,
                                 grid_cfg)
        return step, best

    (combo, rate), (g_powers, g_beams, g_rate) = searches()
    monkeypatch.setattr(oracle, "SEARCH_CHUNK", 7)
    (combo7, rate7), (g_powers7, g_beams7, g_rate7) = searches()
    assert combo7 == combo and rate7 == rate
    assert np.array_equal(g_powers7, g_powers)
    assert np.array_equal(g_beams7, g_beams) and g_rate7 == g_rate
    assert g_rate == evaluate_configuration(grid_channels, g_powers, g_beams,
                                            grid_cfg, grid_codebook)
    # all 4096 rates tie at 0: later chunks must not replace the first
    silent = ChannelSet(vectors=np.zeros_like(channels.vectors),
                        gains=channels.gains, steering=channels.steering)
    assert brute_force_step(silent, powers, beams, net_cfg,
                            codebook) == ((0, 0), 0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.integers(1, 4),
       st.integers(1, 3), st.integers(1, 9), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_every_scored_rate_is_the_configurations_own_bit_for_bit(
        cells, users, antennas, bits, candidates, silent, seed):
    # the scorer gathers each pick's terms from per-candidate tables; the
    # reference scores each configuration alone with received_powers.
    # Seven picks per chunk split the picks (L >= 2) or the tables (L = 1)
    cfg = _small_net_cfg(users=users, antennas=antennas, bits=bits)
    cfg.cells = cells
    codebook = beam_codebook(antennas, bits)
    rng = np.random.default_rng(seed)
    shape = (cells, cells, users, antennas)
    vectors = 1e-5 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    if silent:  # zero channels: every rate is 0, ties everywhere
        vectors[...] = 0.0
    channels = ChannelSet(vectors=vectors, gains=None, steering=None)
    cell_powers_mw = db_to_linear(rng.uniform(
        0.0, 17.0, size=(cells, candidates, users)))
    cell_beams = rng.integers(codebook.size,
                              size=(cells, candidates, users))

    scored = []
    pick_rates = oracle._pick_rates

    def recording(*args):
        rates = pick_rates(*args)
        scored.append(rates)
        return rates

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "SEARCH_CHUNK", 7)
        patch.setattr(oracle, "_pick_rates", recording)
        combo, rate = oracle._best_combination(
            channels, cell_powers_mw, cell_beams, cfg, codebook)

    ell = np.arange(cells)
    reference = np.array([
        network_sum_rate(sinr(received_powers(
            channels, cell_powers_mw[ell, pick], cell_beams[ell, pick],
            codebook), cfg.noise_mw))
        for pick in np.ndindex(*(candidates,) * cells)])
    assert len(scored) == -(-len(reference) // 7)  # chunks of 7, in order
    assert np.array_equal(np.concatenate(scored), reference)
    first = int(np.argmax(reference))
    assert combo == np.unravel_index(first, (candidates,) * cells)
    assert rate == reference[first]


def test_full_chunk_rate_is_the_configurations_own_bit_for_bit():
    # 2 cells x 4 users: summed from a full chunk of 4096 batched SINR
    # rows laid out (L, B, U) in memory, this snapshot's best rate missed
    # its own configuration's by an ulp; the gathered rows are (B, L, U)
    net_cfg, _, _, channels, codebook = random_snapshot(3, users=4)
    powers = np.tile(control.initial_powers_dbm(net_cfg), (2, 1))
    beams = np.full((2, 4), codebook.size // 2)
    combo, rate = brute_force_step(channels, powers, beams, net_cfg,
                                   codebook)
    moved = [control.apply_joint_action(action, powers[ell], beams[ell],
                                        net_cfg)
             for ell, action in enumerate(combo)]
    best_powers, best_beams = (np.array(column) for column in zip(*moved))
    assert rate == evaluate_configuration(channels, best_powers, best_beams,
                                          net_cfg, codebook)
    assert rate == network_sum_rate(sinr(received_powers(
        channels, db_to_linear(best_powers), best_beams, codebook),
        net_cfg.noise_mw))


def test_search_space_guards():
    cfg = default_config().network  # U=3 -> 64 joint actions per agent
    cfg.cells = 4
    net_cfg, _, _, channels, codebook = random_snapshot(24)
    with pytest.raises(SearchSpaceError):
        brute_force_step(channels, np.zeros((4, 3)), np.zeros((4, 3), int),
                         cfg, codebook)
    with pytest.raises(SearchSpaceError):
        global_csi_search(channels, default_power_grid(
            net_cfg, default_config().oracle.power_step_db), codebook,
            net_cfg)
    with pytest.raises(ContractViolation):
        brute_force_step(channels, np.zeros((2, 2)),
                         np.zeros((2, 3), int), net_cfg, codebook)
    with pytest.raises(ContractViolation):
        global_csi_search(channels, [], codebook, net_cfg)


def test_oracle_entries_refuse_beams_outside_the_codebook(monkeypatch):
    # below the entries apply_joint_action would clamp such a beam and
    # received_powers wrap a negative one, so nothing may be scored
    net_cfg, _, _, channels, codebook = random_snapshot(26)
    powers = np.full((net_cfg.cells, net_cfg.users_per_cell), 10.0)
    monkeypatch.setattr(oracle, "received_powers",
                        lambda *args: pytest.fail("scored before refusing"))
    for entry in (brute_force_step, evaluate_configuration):
        for bad_beam in (-1, -codebook.size, codebook.size):
            beams = np.zeros(powers.shape, dtype=int)
            beams[-1, -1] = bad_beam
            with pytest.raises(ContractViolation, match="outside codebook"):
                entry(channels, powers, beams, net_cfg, codebook)


def test_brute_force_refuses_a_codebook_the_config_does_not_size(
        monkeypatch):
    # actions move beams within config.codebook_size: a smaller codebook
    # would be indexed past its end, a larger one clamped to its start
    net_cfg, _, _, channels, _ = random_snapshot(27)
    powers = np.full((net_cfg.cells, net_cfg.users_per_cell), 10.0)
    monkeypatch.setattr(oracle, "received_powers",
                        lambda *args: pytest.fail("scored before refusing"))
    for bits in (net_cfg.codebook_bits - 1, net_cfg.codebook_bits + 1):
        codebook = beam_codebook(net_cfg.antennas, bits)
        beams = np.full(powers.shape, codebook.size - 1)
        with pytest.raises(ContractViolation, match="codebook of"):
            brute_force_step(channels, powers, beams, net_cfg, codebook)


def test_global_search_single_cell_maximizes_power_and_beam_gain():
    net_cfg = _small_net_cfg(antennas=4, bits=2)
    net_cfg.cells = 1
    net_cfg, _, _, channels, codebook = random_snapshot(
        25, cells=1, users=1, net_cfg=net_cfg)
    grid = np.array([0.0, 10.0, 17.0])
    powers, beams, rate = global_csi_search(channels, grid, codebook, net_cfg)
    # no interference: the best point is full power on the best beam
    assert powers[0, 0] == 17.0
    h = channels.vectors[0, 0, 0]
    gains = np.abs(np.conj(h) @ codebook.vectors.T) ** 2
    assert beams[0, 0] == int(np.argmax(gains))
    assert rate == pytest.approx(
        evaluate_configuration(channels, powers, beams, net_cfg, codebook))


def test_single_cell_search_tabulates_in_bounded_memory():
    # 6 310 level pairs within the budget x 64 beam pairs: 403 840
    # candidates of one cell, which the search must not tabulate at once
    net_cfg, _, _, channels, codebook = random_snapshot(41, cells=1,
                                                        users=2)
    grid = default_power_grid(net_cfg, step_db=0.5)
    assert (grid.size, codebook.size) == (81, 8)
    tracemalloc.start()
    try:
        powers, beams, rate = global_csi_search(channels, grid, codebook,
                                                net_cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30e6
    assert powers.tolist() == [[0.0, 39.5]] and beams.tolist() == [[0, 7]]
    assert rate == float.fromhex("0x1.6e2fa85522d82p+3")


def test_global_search_dominates_one_step_moves():
    net_cfg = _small_net_cfg()
    net_cfg, _, _, channels, codebook = random_snapshot(
        26, users=1, net_cfg=net_cfg)
    grid = default_power_grid(net_cfg, step_db=1.0)  # 0..17 dBm
    _, _, global_rate = global_csi_search(channels, grid, codebook, net_cfg)
    rng = np.random.default_rng(27)
    for _ in range(10):
        # one-step moves from a grid point stay on the grid
        powers = grid[rng.integers(1, grid.size - 1, size=(2, 1))]
        beams = rng.integers(0, codebook.size, size=(2, 1))
        _, step_rate = brute_force_step(channels, powers, beams, net_cfg,
                                        codebook)
        assert step_rate <= global_rate + 1e-12


def test_global_search_is_maximal_over_random_grid_points():
    net_cfg = _small_net_cfg()
    net_cfg, _, _, channels, codebook = random_snapshot(
        28, users=1, net_cfg=net_cfg)
    grid = np.array([0.0, 8.0, 17.0])
    powers, beams, rate = global_csi_search(channels, grid, codebook, net_cfg)
    assert np.all(np.isin(powers, grid))
    rng = np.random.default_rng(29)
    for _ in range(500):
        p = grid[rng.integers(grid.size, size=(2, 1))]
        b = rng.integers(codebook.size, size=(2, 1))
        assert evaluate_configuration(channels, p, b, net_cfg,
                                      codebook) <= rate + 1e-12


def test_global_search_skips_overbudget_assignments():
    net_cfg = _small_net_cfg(users=2, antennas=2, bits=1, pmax=18.0)
    net_cfg, _, _, channels, codebook = random_snapshot(
        30, users=2, net_cfg=net_cfg)
    # any mix with a 17 dBm user breaks the 18 dBm budget; 14 + 14 fits
    powers, _, _ = global_csi_search(channels, [14.0, 17.0], codebook,
                                     net_cfg)
    assert np.all(powers == 14.0)
    sums = (10.0 ** (powers / 10.0)).sum(axis=1)
    assert np.all(sums <= net_cfg.max_bs_power_mw + 1e-9)
    with pytest.raises(ContractViolation):
        # every grid combination breaks the budget
        global_csi_search(channels, [17.0], codebook, net_cfg)
