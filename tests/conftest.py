"""Shared scenario builders and numeric helpers for the test suite."""

from pathlib import Path

import numpy as np

from cellshare.channel import beam_codebook, sample_channels
from cellshare.config import default_config, load_config
from cellshare.geometry import build_layout, spawn_users
from cellshare.qnet import loss_and_gradients

# one line per release criterion, filled by tests/test_acceptance.py;
# printed after capture stops so they survive pytest's fd redirection
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("release criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def desk_config():
    """The two-cell, three-user benchmark scenario used by the release
    checks and the README numbers, loaded from ``configs/desk.conf``
    (whose comments say why each value is pinned)."""
    return load_config(str(Path(__file__).resolve().parent.parent
                           / "configs" / "desk.conf"))


def tiny_config():
    """Two cells, one static user each, four joint actions per agent:
    small enough to brute force and to learn in a single long episode."""
    cfg = default_config()
    cfg.network.users_per_cell = 1
    cfg.network.antennas = 2
    cfg.network.codebook_bits = 1
    cfg.network.max_bs_power_dbm = 17.0
    cfg.network.noise_dbm = -120.0
    cfg.network.ue_speed = 0.0
    cfg.training.episodes = 1
    cfg.training.steps_per_episode = 2000
    cfg.training.target_refresh_steps = 25
    return cfg


def small_run_config(**training_overrides):
    """Fast trainer scenario for unit tests (seconds, not minutes)."""
    cfg = default_config()
    cfg.network.users_per_cell = 2
    cfg.network.antennas = 4
    cfg.network.codebook_bits = 3
    cfg.network.max_bs_power_dbm = 14.0
    cfg.training.episodes = 2
    cfg.training.steps_per_episode = 12
    cfg.training.batch_size = 8
    for key, value in training_overrides.items():
        setattr(cfg.training, key, value)
    return cfg


def random_snapshot(seed, cells=2, users=3, net_cfg=None):
    """One random scene: (net config, layout, users, channels, codebook)."""
    if net_cfg is None:
        net_cfg = default_config().network
        net_cfg.cells = cells
        net_cfg.users_per_cell = users
    rng = np.random.default_rng(seed)
    layout = build_layout(net_cfg.cells, net_cfg.inter_site_distance)
    user_set = spawn_users(layout, net_cfg.users_per_cell,
                           net_cfg.cell_radius, rng)
    channels = sample_channels(layout, user_set, net_cfg, rng)
    codebook = beam_codebook(net_cfg.antennas, net_cfg.codebook_bits)
    return net_cfg, layout, user_set, channels, codebook


def random_batch(rng, input_size, n_actions, size):
    """(states, actions, rewards, next_states) of `size` random rows,
    drawn row by row."""
    rows = [(rng.normal(size=input_size), rng.integers(n_actions),
             rng.normal(), rng.normal(size=input_size))
            for _ in range(size)]
    return tuple(np.array(column) for column in zip(*rows))


def same_weights(a, b):
    """Whether two networks (or stacks) hold equal parameter arrays."""
    return all(np.array_equal(pa, pb) for pa, pb in
               zip(a.parameters().values(), b.parameters().values()))


def finite_difference_grads(net, target, batch, alpha, h=1e-6):
    """Central-difference gradient of the minibatch loss, per parameter;
    `batch` is (states, actions, rewards, next_states)."""
    grads = {}
    for name, param in net.parameters().items():
        grad = np.zeros_like(param)
        flat = param.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up, _ = loss_and_gradients(net, target, *batch, alpha)
            flat[i] = keep - h
            down, _ = loss_and_gradients(net, target, *batch, alpha)
            flat[i] = keep
            gflat[i] = (up - down) / (2.0 * h)
        grads[name] = grad
    return grads


def gradient_mismatch(analytic, numeric):
    """Worst relative disagreement across all parameters."""
    worst = 0.0
    for name in analytic:
        a = analytic[name].ravel()
        n = numeric[name].ravel()
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1.0)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst
