"""Codebook construction, path loss, Doppler and channel evolution."""

import math

import numpy as np
import pytest

from conftest import random_snapshot

from cellshare.channel import (ChannelSet, _j0, beam_codebook,
                               doppler_correlation, matched_beams,
                               path_loss_gain, sample_channels)
from cellshare.config import default_config
from cellshare.errors import ContractViolation
from cellshare.geometry import build_layout, spawn_users


def test_codebook_suite_exact_modulus_and_norm():
    for antennas in (1, 2, 4, 8):
        for bits in (1, 2, 3):
            cb = beam_codebook(antennas, bits)
            assert cb.size == 2 ** bits
            assert cb.vectors.shape == (2 ** bits, antennas)
            target = 1.0 / math.sqrt(antennas)
            # constant modulus holds exactly, not just approximately
            assert np.all(np.abs(cb.vectors) == target)
            norms = np.linalg.norm(cb.vectors, axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_every_codebook_modulus_is_within_one_ulp():
    for antennas in range(1, 17):
        target = 1.0 / math.sqrt(antennas)
        for bits in range(1, 9):
            error = np.abs(np.abs(beam_codebook(antennas, bits).vectors)
                           - target)
            assert np.all(error <= np.spacing(target)), (antennas, bits)


def test_codebook_two_antenna_truth_table():
    cb = beam_codebook(2, 1)
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(cb.vectors[0], [s, s], atol=1e-15)
    assert np.allclose(cb.vectors[1], [s, -s], atol=1e-15)


def test_codebook_phase_progression():
    # beam n puts phase n*pi/(2**bits - 1) between adjacent antennas
    cb = beam_codebook(4, 3)
    for n in range(cb.size):
        expect = n * math.pi / 7.0
        ratio = cb.vectors[n, 1:] / cb.vectors[n, :-1]
        # compare on the unit circle: angle() flips sign at the pi endpoint
        assert np.allclose(ratio, np.exp(1j * expect), atol=1e-12)


def test_codebook_rejects_bad_sizes():
    with pytest.raises(ContractViolation):
        beam_codebook(0, 3)
    with pytest.raises(ContractViolation):
        beam_codebook(4, 0)
    with pytest.raises(ContractViolation):
        beam_codebook(4, 9)


def test_codebook_is_shared_read_only():
    # one codebook per (antennas, bits): equal on every call, never
    # writable, and a bad size is refused on every call, not cached
    first = beam_codebook(4, 3)
    again = beam_codebook(np.int64(4), 3)
    assert np.array_equal(first.vectors, again.vectors)
    with pytest.raises(ValueError):
        first.vectors[0, 0] = 0.0
    with pytest.raises(ValueError):
        again.vectors[0, 0] = 1.0
    assert np.abs(first.vectors[0, 0]) == 0.5
    for antennas, bits in ((0, 3), (4, 9)):
        for _ in range(2):
            with pytest.raises(ContractViolation):
                beam_codebook(antennas, bits)


def test_path_loss_reference_and_exponent():
    net = default_config().network
    lam_over_4pi = 299792458.0 / (4.0 * math.pi * net.carrier_freq)
    assert path_loss_gain(10.0, net) == pytest.approx(
        7.259481705540117e-10, rel=1e-12)
    assert path_loss_gain(10.0, net) == pytest.approx(
        lam_over_4pi ** 2 / 1e3, rel=1e-12)
    assert path_loss_gain(20.0, net) == pytest.approx(
        path_loss_gain(10.0, net) / 8.0, rel=1e-12)
    # distances under the 10 m close-in clamp all see the clamp gain
    assert path_loss_gain(1.0, net) == path_loss_gain(10.0, net)
    assert path_loss_gain(0.01, net) == path_loss_gain(10.0, net)
    # an array is taken element by element, each clamped on its own
    dist = np.array([[0.01, 1.0, 10.0], [20.0, 333.3, 1e4]])
    gains = path_loss_gain(dist, net)
    assert gains.shape == dist.shape
    assert np.all(gains[0] == path_loss_gain(10.0, net))
    assert np.array_equal(gains, [[path_loss_gain(d, net) for d in row]
                                  for row in dist])


def test_doppler_correlation_values():
    # exact bits of scipy.special.j0 (SciPy 1.17.1) at the same phase
    net = default_config().network
    assert doppler_correlation(net).hex() == "0x1.f276ae6e68793p-1"
    net.step_duration = 1e-4
    assert doppler_correlation(net).hex() == "0x1.ffdd1e221a606p-1"
    net.ue_speed = 0.0
    assert doppler_correlation(net) == 1.0


# x -> scipy.special.j0(x).hex() (SciPy 1.17.1): both sides of the
# 1e-5 and x = 5 branch points, the first zero, and the asymptotic form
J0_PINNED = {
    0.0: "0x1.0000000000000p+0",
    1e-6: "0x1.ffffffffff734p-1",
    2.404825557695773: "-0x1.ba1deea029494p-54",
    5.0: "-0x1.6bb7db255cb89p-3",
    math.nextafter(5.0, 6.0): "-0x1.6bb7db255cb80p-3",
    30.0: "-0x1.61c3650e6eba4p-4",
    1e3: "0x1.961ae599a7b12p-6",
}


def test_j0_pinned_values():
    for x, bits in J0_PINNED.items():
        assert _j0(x).hex() == bits, x
        assert _j0(-x).hex() == bits, -x  # J0 is even


def test_j0_equals_scipy_bit_for_bit():
    j0 = pytest.importorskip("scipy.special").j0
    rng = np.random.default_rng(19)
    n = 100_000
    branches = {
        "below 1e-5": rng.uniform(0.0, 1e-5, n),
        "rational, up to 5": rng.uniform(1e-5, 5.0, n),
        "asymptotic, above 5": np.concatenate([
            np.nextafter(5.0, 6.0) + rng.uniform(0.0, 295.0, n // 2),
            10.0 ** rng.uniform(np.log10(300.0), 8.0, n // 2)]),
    }
    for name, xs in branches.items():
        expected = j0(xs).tolist()
        bad = [x for x, want in zip(xs.tolist(), expected) if _j0(x) != want]
        assert not bad, "%s: %d of %d differ, first at %r" % (
            name, len(bad), len(xs), bad[0])


def test_static_users_freeze_the_channel():
    net = default_config().network
    net.ue_speed = 0.0
    layout = build_layout(2, net.inter_site_distance)
    rng = np.random.default_rng(4)
    users = spawn_users(layout, 3, net.cell_radius, rng)
    first = sample_channels(layout, users, net, rng)
    again = sample_channels(layout, users, net, rng, prev=first)
    assert np.array_equal(again.vectors, first.vectors)
    assert np.array_equal(again.gains, first.gains)


def test_channel_evolution_keeps_marginals():
    net = default_config().network
    layout = build_layout(2, net.inter_site_distance)
    rng = np.random.default_rng(8)
    users = spawn_users(layout, 3, net.cell_radius, rng)
    chan = sample_channels(layout, users, net, rng)
    steering0 = chan.steering.copy()
    acc = []
    for _ in range(300):
        chan = sample_channels(layout, users, net, rng, prev=chan)
        acc.append(np.abs(chan.gains) ** 2)
    # steering vectors persist, per-path power stays unit on average
    assert np.array_equal(chan.steering, steering0)
    assert np.mean(acc) == pytest.approx(1.0, rel=0.05)


def test_fresh_steering_is_unit_modulus_from_antenna_zero():
    net = default_config().network
    layout = build_layout(3, net.inter_site_distance)
    rng = np.random.default_rng(9)
    users = spawn_users(layout, 2, net.cell_radius, rng)
    steering = sample_channels(layout, users, net, rng).steering
    M = net.antennas
    assert steering.shape == (3, 3, 2, net.paths, M)
    assert np.allclose(np.abs(steering), 1.0 / math.sqrt(M),
                       rtol=1e-15, atol=0.0)
    # antenna 0 is the phase reference of every path
    assert np.all(steering[..., 0] == 1.0 / math.sqrt(M))


def test_channel_mean_energy_matches_path_loss():
    net = default_config().network
    layout = build_layout(2, net.inter_site_distance)
    rng = np.random.default_rng(14)
    users = spawn_users(layout, 2, net.cell_radius, rng)
    energies = []
    for _ in range(2000):
        chan = sample_channels(layout, users, net, rng)
        energies.append(np.sum(np.abs(chan.vectors) ** 2, axis=-1))
    mean_energy = np.mean(energies, axis=0)
    diff = users.positions[:, None, :, :] - layout.positions[None, :, None, :]
    dist = np.linalg.norm(diff, axis=-1)
    for idx in np.ndindex(mean_energy.shape):
        ell, j, u = idx
        expect = net.antennas * path_loss_gain(dist[ell, j, u], net)
        assert mean_energy[idx] == pytest.approx(expect, rel=0.15)


def test_channel_evolution_shape_guard():
    net = default_config().network
    layout = build_layout(2, net.inter_site_distance)
    rng = np.random.default_rng(1)
    users = spawn_users(layout, 3, net.cell_radius, rng)
    chan = sample_channels(layout, users, net, rng)
    smaller = spawn_users(layout, 2, net.cell_radius, rng)
    with pytest.raises(ContractViolation):
        sample_channels(layout, smaller, net, rng, prev=chan)


def test_matched_beams_maximize_serving_gain():
    _, _, _, channels, codebook = random_snapshot(21)
    picked = matched_beams(channels, codebook)
    L, _, U, _ = channels.vectors.shape
    for ell in range(L):
        for u in range(U):
            h = channels.vectors[ell, ell, u]
            gains = np.abs(np.conj(h) @ codebook.vectors.T)
            assert picked[ell, u] == int(np.argmax(gains))


def test_matched_beams_tie_breaks_low():
    net = default_config().network
    cb = beam_codebook(net.antennas, net.codebook_bits)
    zero = ChannelSet(
        vectors=np.zeros((2, 2, 3, net.antennas), dtype=complex),
        gains=np.zeros((2, 2, 3, net.paths), dtype=complex),
        steering=np.zeros((2, 2, 3, net.paths, net.antennas), dtype=complex))
    assert np.all(matched_beams(zero, cb) == 0)
