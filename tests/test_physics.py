"""Received-power decomposition, SINR and the interference estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_snapshot

from cellshare.channel import ChannelSet, beam_codebook
from cellshare.config import default_config
from cellshare.errors import ContractViolation, MeasurementError
from cellshare.physics import measure_inter_cell, received_powers, sinr


def _random_controls(net_cfg, rng):
    L, U = net_cfg.cells, net_cfg.users_per_cell
    # any per-user split that respects the cell budget
    shares = rng.dirichlet(np.ones(U), size=L)
    powers_mw = shares * net_cfg.max_bs_power_mw * rng.uniform(0.2, 1.0)
    beams = rng.integers(0, net_cfg.codebook_size, size=(L, U))
    return powers_mw, beams


def test_power_table_decomposition_is_complete():
    rng = np.random.default_rng(0)
    for trial in range(50):
        net_cfg, _, _, channels, codebook = random_snapshot(1000 + trial)
        powers_mw, beams = _random_controls(net_cfg, rng)
        table = received_powers(channels, powers_mw, beams, codebook)
        L, U = net_cfg.cells, net_cfg.users_per_cell
        assert table.serving.shape == (L, U)
        assert np.all(table.serving >= 0.0)
        assert np.all(table.intra >= 0.0)
        assert np.all(table.inter_by_source >= 0.0)
        # a cell never interferes with itself
        ell = np.arange(L)
        assert np.all(table.inter_by_source[ell, :, ell] == 0.0)
        assert np.allclose(table.inter_total,
                           table.inter_by_source.sum(axis=2), rtol=1e-12)
        # decomposition covers every transmitted beam exactly once
        w = codebook.vectors[beams]
        inner = np.einsum("ljum,jkm->ljuk", np.conj(channels.vectors), w)
        everything = (powers_mw[None, :, None, :]
                      * np.abs(inner) ** 2).sum(axis=(1, 3))
        recomposed = table.serving + table.intra + table.inter_total
        assert np.allclose(recomposed, everything, rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 8),
       st.integers(1, 6), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_batched_received_powers_equal_unbatched_calls(cells, users, antennas,
                                                      bits, batch, seed):
    net_cfg = default_config().network
    net_cfg.cells = cells
    net_cfg.users_per_cell = users
    net_cfg.antennas = antennas
    net_cfg.codebook_bits = bits
    net_cfg, _, _, channels, codebook = random_snapshot(seed, net_cfg=net_cfg)
    rng = np.random.default_rng(seed)
    controls = [_random_controls(net_cfg, rng) for _ in range(batch)]
    powers_mw = np.stack([c[0] for c in controls])
    beams = np.stack([c[1] for c in controls])
    table = received_powers(channels, powers_mw, beams, codebook)
    for b in range(batch):
        one = received_powers(channels, powers_mw[b], beams[b], codebook)
        for name in ("serving", "intra", "inter_by_source", "inter_total"):
            assert np.array_equal(getattr(table, name)[b], getattr(one, name))
    assert np.array_equal(sinr(table, net_cfg.noise_mw)[batch - 1],
                          sinr(one, net_cfg.noise_mw))


def test_sinr_formula():
    net_cfg, _, _, channels, codebook = random_snapshot(7)
    rng = np.random.default_rng(7)
    powers_mw, beams = _random_controls(net_cfg, rng)
    table = received_powers(channels, powers_mw, beams, codebook)
    gamma = sinr(table, net_cfg.noise_mw)
    direct = table.serving / (net_cfg.noise_mw + table.intra
                              + table.inter_total)
    assert np.array_equal(gamma, direct)
    with pytest.raises(ContractViolation):
        sinr(table, 0.0)


def test_estimator_hand_example():
    # serving 1e-8 mW, reported SINR 10, noise 1e-11 mW, intra 3.162e-10 mW
    # -> estimate 1e-9 - 1e-11 - 3.162e-10 = 6.738e-10 mW
    cb = beam_codebook(1, 1)
    vectors = np.zeros((2, 2, 2, 1), dtype=complex)
    vectors[0, 0, :, 0] = 1.0
    vectors[1, 1, :, 0] = 1.0
    channels = ChannelSet(vectors=vectors,
                          gains=np.zeros((2, 2, 2, 3), dtype=complex),
                          steering=np.zeros((2, 2, 2, 3, 1), dtype=complex))
    powers_mw = np.array([[1e-8, 3.162e-10], [1e-8, 1e-8]])
    beams = np.zeros((2, 2), dtype=int)
    reported = np.array([[10.0, 1.0], [1.0, 1.0]])
    est = measure_inter_cell(reported, powers_mw, beams, channels, 1e-11, cb)
    assert est[0, 0] == pytest.approx(6.738e-10, rel=1e-12)


def test_estimator_recovers_true_inter_cell_power():
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(200):
        net_cfg, _, _, channels, codebook = random_snapshot(2000 + trial)
        powers_mw, beams = _random_controls(net_cfg, rng)
        table = received_powers(channels, powers_mw, beams, codebook)
        gamma = sinr(table, net_cfg.noise_mw)
        est = measure_inter_cell(gamma, powers_mw, beams, channels,
                                 net_cfg.noise_mw, codebook)
        scale = np.maximum(table.inter_total, net_cfg.noise_mw)
        worst = max(worst, float(np.max(np.abs(est - table.inter_total)
                                        / scale)))
    assert worst < 1e-9


def test_estimator_rejects_unusable_reports():
    net_cfg, _, _, channels, codebook = random_snapshot(5)
    rng = np.random.default_rng(5)
    powers_mw, beams = _random_controls(net_cfg, rng)
    good = np.full((net_cfg.cells, net_cfg.users_per_cell), 2.0)
    for bad_value in (0.0, -0.0, -1.0, np.nan, np.inf, -np.inf):
        reported = good.copy()
        reported[0, 0] = bad_value
        with pytest.raises(MeasurementError):
            measure_inter_cell(reported, powers_mw, beams, channels,
                               net_cfg.noise_mw, codebook)


def _per_cell_estimates(reported_sinr, powers_mw, beams, channels,
                        noise_mw, codebook):
    """The estimator written one cell at a time, as a reference."""
    L, _, U, _ = channels.vectors.shape
    w = codebook.vectors[beams]
    estimates = np.empty((L, U), dtype=float)
    u = np.arange(U)
    for ell in range(L):
        h = channels.vectors[ell, ell]
        inner = np.abs(np.conj(h) @ w[ell].T) ** 2
        per_user = powers_mw[ell][None, :] * inner
        serving = per_user[u, u].copy()
        off_diag = per_user.copy()
        off_diag[u, u] = 0.0
        intra = off_diag.sum(axis=1)
        total_received = serving / reported_sinr[ell]
        estimates[ell] = total_received - noise_mw - intra
    return estimates


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(1, 8),
       st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_stacked_estimator_equals_per_cell_loop(cells, users, antennas,
                                                bits, seed):
    net_cfg = default_config().network
    net_cfg.cells = cells
    net_cfg.users_per_cell = users
    net_cfg.antennas = antennas
    net_cfg.codebook_bits = bits
    net_cfg, _, _, channels, codebook = random_snapshot(seed, net_cfg=net_cfg)
    rng = np.random.default_rng(seed)
    powers_mw, beams = _random_controls(net_cfg, rng)
    reported = rng.lognormal(0.0, 3.0, size=(cells, users))
    est = measure_inter_cell(reported, powers_mw, beams, channels,
                             net_cfg.noise_mw, codebook)
    assert est.shape == (cells, users)
    assert np.array_equal(est, _per_cell_estimates(
        reported, powers_mw, beams, channels, net_cfg.noise_mw, codebook))


def test_estimator_rejects_misshapen_controls():
    net_cfg, _, _, channels, codebook = random_snapshot(8)
    rng = np.random.default_rng(8)
    powers_mw, beams = _random_controls(net_cfg, rng)
    reported = np.full(powers_mw.shape, 2.0)
    # one cell's row, a batch axis, a dropped user: each would broadcast
    # or index into estimates of the wrong cells
    for bad_powers, bad_beams in ((powers_mw[0], beams),
                                  (powers_mw, beams[0]),
                                  (powers_mw[None], beams),
                                  (powers_mw, beams[None]),
                                  (powers_mw[:, :-1], beams),
                                  (powers_mw, beams[:, :-1])):
        with pytest.raises(ContractViolation):
            measure_inter_cell(reported, bad_powers, bad_beams, channels,
                               net_cfg.noise_mw, codebook)
    with pytest.raises(ContractViolation):
        measure_inter_cell(reported[:, :-1], powers_mw, beams, channels,
                           net_cfg.noise_mw, codebook)


def test_received_powers_contract_checks():
    net_cfg, _, _, channels, codebook = random_snapshot(6)
    rng = np.random.default_rng(6)
    powers_mw, beams = _random_controls(net_cfg, rng)
    with pytest.raises(ContractViolation):
        received_powers(channels, powers_mw[:, :-1], beams, codebook)
    with pytest.raises(ContractViolation):
        received_powers(channels, powers_mw[None], beams, codebook)
    small_cb = beam_codebook(net_cfg.antennas - 1, net_cfg.codebook_bits)
    with pytest.raises(ContractViolation):
        received_powers(channels, powers_mw, beams, small_cb)
