"""The shared environment: per-cell states as one matrix and the power
budget and codebook checks of every step."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_run_config

from cellshare import control
from cellshare.channel import (ChannelSet, doppler_correlation,
                               path_loss_gain, sample_channels)
from cellshare.config import db_to_linear, default_config
from cellshare.environment import BLOCK_BUDGET, Environment, StepResult
from cellshare.errors import ContractViolation, MeasurementError
from cellshare.geometry import (HEADING_SIGMA, UserSet, build_layout,
                                spawn_users, step_mobility)
from cellshare.physics import measure_inter_cell, received_powers, sinr


def _env(cells=3):
    cfg = small_run_config().network
    cfg.cells = cells
    env = Environment(cfg, np.random.SeedSequence(17))
    env.reset()
    return env


def test_states_hold_one_row_per_cell():
    env = _env()
    cfg = env.config
    states = env.states()
    assert states.shape == (cfg.cells, control.state_size(cfg.users_per_cell))
    for ell in range(cfg.cells):
        assert np.array_equal(states[ell], control.encode_state(
            env.powers_dbm[ell], env.beams[ell], env.offsets[ell], cfg))


def _step_with(monkeypatch, env, powers_dbm, beams):
    """Step as if the actions had produced the given powers and beams,
    and check that the refused step left every cell as it was."""
    monkeypatch.setattr(control, "apply_joint_action",
                        lambda *args: (powers_dbm, beams,
                                       db_to_linear(powers_dbm)))
    before = (env.powers_dbm.copy(), env.beams.copy(), env.users,
              env.channels)
    try:
        return env.step([0] * env.config.cells)
    finally:
        assert np.array_equal(env.powers_dbm, before[0])
        assert np.array_equal(env.beams, before[1])
        assert env.users is before[2] and env.channels is before[3]


def test_step_rejects_a_power_budget_breach(monkeypatch):
    env = _env()
    powers = env.powers_dbm.copy()
    powers[1:] = env.config.max_bs_power_dbm  # U users at the full budget
    with pytest.raises(ContractViolation, match="cell 1 .*power budget"):
        _step_with(monkeypatch, env, powers, env.beams.copy())


@pytest.mark.parametrize("actions", [[5], 5, [[1, 2]], [1, 2, 3],
                                     np.zeros((2, 1), dtype=int)])
def test_step_refuses_actions_that_are_not_one_per_cell(actions):
    # [5] and 5 used to broadcast to every cell and [[1, 2]] to fail
    # late, in the SINR measurement
    env = Environment(default_config().network, np.random.SeedSequence(3))
    assert env.config.cells == 2
    env.reset()
    before = env.powers_dbm.copy(), env.beams.copy()
    with pytest.raises(ContractViolation, match="one action per cell"):
        env.step(actions)
    assert np.array_equal(env.powers_dbm, before[0])
    assert np.array_equal(env.beams, before[1])
    env.step([5, 5])  # the shape it asks for


@pytest.mark.parametrize("beam", [-1, 8])
def test_step_rejects_a_beam_outside_the_codebook(monkeypatch, beam):
    env = _env()
    assert env.config.codebook_size == 8
    beams = env.beams.copy()
    beams[2, 1] = beam
    with pytest.raises(ContractViolation, match="cell 2 .*codebook"):
        _step_with(monkeypatch, env, env.powers_dbm.copy(), beams)


def test_step_rewards_are_one_float_per_cell():
    # crdu_reward multiplies them in order as Python floats
    env = _env()
    result = env.step([0] * env.config.cells)
    assert len(result.rewards) == env.config.cells
    assert all(type(r) is float for r in result.rewards)


def test_step_flags_exactly_the_punished_cells():
    env = _env()
    rng = np.random.default_rng(5)
    n_actions = control.action_space_size(env.config.users_per_cell)
    flags = []
    for _ in range(40):
        result = env.step(rng.integers(n_actions, size=env.config.cells))
        assert result.punished.shape == (env.config.cells,)
        assert result.punished.dtype == bool
        assert np.array_equal(result.punished, np.array(result.rewards)
                              == -env.config.punishment)
        flags.extend(result.punished.tolist())
    assert 0 < sum(flags) < len(flags)  # both kinds of cell occur


def _reference_walk(users, layout, config, rng):
    """One step of the users' walk, written step by step: the reference
    every row of a block of steps must equal. Returns the users and how
    many of them were folded back into their disk."""
    L, U = users.positions.shape[:2]
    step = config.ue_speed * config.step_duration
    headings = users.headings + HEADING_SIGMA * rng.standard_normal((L, U))
    if step == 0.0:
        return UserSet(positions=users.positions.copy(), headings=headings), 0

    delta = np.empty((L, U, 2))
    np.multiply(step, np.cos(headings), out=delta[..., 0])
    np.multiply(step, np.sin(headings), out=delta[..., 1])
    proposed = users.positions + delta

    offsets = proposed - layout.positions[:, None, :]
    dist = np.sqrt(np.add.reduce(offsets * offsets, axis=-1))
    out = dist > config.cell_radius
    for ell, u in np.argwhere(out):
        off = offsets[ell, u]
        rho = dist[ell, u]
        radial = off / rho
        folded = max(2.0 * config.cell_radius - rho, 0.0)
        proposed[ell, u] = layout.positions[ell] + radial * folded
        h = np.array([math.cos(headings[ell, u]),
                      math.sin(headings[ell, u])])
        h = h - 2.0 * float(h @ radial) * radial
        headings[ell, u] = math.atan2(h[1], h[0])
    return UserSet(positions=proposed, headings=headings), \
        int(np.count_nonzero(out))


def _reference_fade(layout, users, config, rng, prev):
    """One step of the channels' fading, written step by step: the
    reference every row of a block of steps must equal."""
    L, _, U, P = prev.gains.shape
    M = config.antennas
    rho = doppler_correlation(config)
    if rho >= 1.0:
        gains = prev.gains
    else:
        noise = (rng.standard_normal((L, L, U, P))
                 + 1j * rng.standard_normal((L, L, U, P))) / math.sqrt(2.0)
        gains = rho * prev.gains + math.sqrt(1.0 - rho * rho) * noise
    diff = users.positions[:, None, :, :] - layout.positions[None, :, None, :]
    pl = path_loss_gain(np.sqrt(np.add.reduce(diff * diff, axis=-1)), config)
    scale = np.sqrt(M * pl / P)
    vectors = scale[..., None] * np.einsum("ljup,ljupm->ljum", gains,
                                           prev.steering)
    return ChannelSet(vectors=vectors, gains=gains, steering=prev.steering)


def _streams(seed):
    """A walk stream and a fade stream, as an environment holds them."""
    return list(map(np.random.default_rng,
                    np.random.SeedSequence(seed).spawn(2)))


def _assert_rows_equal(block, rows, fields):
    """Row t of each field of ``block`` equals that field of rows[t]."""
    assert len(getattr(block, fields[0])) == len(rows)
    for t, row in enumerate(rows):
        for name in fields:
            got, want = getattr(block, name)[t], getattr(row, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want), (name, t)


def _block_against_reference(cfg, users, steps, seed):
    """Walk and fade ``steps`` steps as one block, as one-step calls and
    by the reference, from the same streams; assert every row equal and
    every stream left at the same place. Returns each reference step's
    fold count."""
    layout = build_layout(cfg.cells, cfg.inter_site_distance)
    channels = sample_channels(layout, users, cfg, np.random.default_rng(0))
    walk_rng, fade_rng = _streams(seed)
    walk, folds, fades = [], [], []
    for _ in range(steps):
        moved, n = _reference_walk(walk[-1] if walk else users, layout, cfg,
                                   walk_rng)
        walk.append(moved)
        folds.append(n)
        fades.append(_reference_fade(layout, moved, cfg, fade_rng,
                                     fades[-1] if fades else channels))
    after = walk_rng.random(), fade_rng.random()

    walk_rng, fade_rng = _streams(seed)
    block = step_mobility(users, layout, cfg, walk_rng, steps)
    faded = sample_channels(layout, block, cfg, fade_rng, prev=channels)
    _assert_rows_equal(block, walk, ("positions", "headings"))
    _assert_rows_equal(faded, fades, ("vectors", "gains"))
    assert faded.steering is channels.steering
    assert (walk_rng.random(), fade_rng.random()) == after

    walk_rng, fade_rng = _streams(seed)
    moved, chan, steps_one = users, channels, []
    for _ in range(steps):
        moved = step_mobility(moved, layout, cfg, walk_rng)
        chan = sample_channels(layout, moved, cfg, fade_rng, prev=chan)
        steps_one.append((moved, chan))
    _assert_rows_equal(block, [m for m, _ in steps_one],
                       ("positions", "headings"))
    _assert_rows_equal(faded, [c for _, c in steps_one], ("vectors", "gains"))
    assert (walk_rng.random(), fade_rng.random()) == after
    return folds


def test_block_walk_and_fade_equal_the_reference_through_folds():
    # 10 m steps in 112 m disks; user (0, 0) starts 1 m inside its disk,
    # heading straight out, so the block folds a user on its first step
    cfg = default_config().network
    cfg.ue_speed = 40.0
    cfg.step_duration = 0.25
    assert doppler_correlation(cfg) < 1.0
    layout = build_layout(cfg.cells, cfg.inter_site_distance)
    users = spawn_users(layout, 3, cfg.cell_radius, np.random.default_rng(6))
    users.positions[0, 0] = layout.positions[0] + [cfg.cell_radius - 1.0, 0.0]
    users.headings[0, 0] = 0.0
    folds = _block_against_reference(cfg, users, 40, seed=6)
    # cut the block at its last fold, so that one falls on its last step
    last = max(t for t, n in enumerate(folds) if n)
    assert folds[0] and np.count_nonzero(folds[:last + 1]) >= 4
    _block_against_reference(cfg, users, last + 1, seed=6)


def test_block_of_static_users_draws_no_fading_noise():
    cfg = default_config().network
    cfg.ue_speed = 0.0  # rho == 1: the gains never move
    assert doppler_correlation(cfg) == 1.0
    layout = build_layout(cfg.cells, cfg.inter_site_distance)
    users = spawn_users(layout, 3, cfg.cell_radius, np.random.default_rng(2))
    channels = sample_channels(layout, users, cfg, np.random.default_rng(0))
    assert _block_against_reference(cfg, users, 7, seed=2) == [0] * 7
    walk_rng, fade_rng = _streams(2)
    untouched = fade_rng.bit_generator.state
    block = step_mobility(users, layout, cfg, walk_rng, 7)
    assert np.array_equal(block.positions,
                          np.broadcast_to(users.positions, (7, 2, 3, 2)))
    sample_channels(layout, block, cfg, fade_rng, prev=channels)
    assert fade_rng.bit_generator.state == untouched


def _episodes(cfg, seed, steps, reset_steps, step, episodes=2):
    """Every outcome of ``step`` over ``episodes`` episodes of ``steps``
    steps of an environment reset with ``reset_steps`` each time."""
    env = Environment(cfg, np.random.SeedSequence(seed))
    actions = np.random.default_rng(seed).integers(
        control.action_space_size(cfg.users_per_cell),
        size=(steps, cfg.cells))
    outcomes = []
    for _ in range(episodes):
        env.reset(*reset_steps)
        outcomes.append([env.users.positions, env.channels.vectors])
        for row in actions:
            outcomes.append(_outcome(step, env, row))
    return outcomes


@pytest.mark.parametrize("reset_steps", [(), (4,), (13,), (16,)],
                         ids=["no-length", "4", "13", "16"])
def test_blocks_equal_the_reference_steps_past_the_episode(reset_steps):
    # 7 cells of 3 users at 4 antennas: blocks of 6 steps over the first
    # reset_steps of each 16-step episode, then one step at a time
    cfg = default_config().network
    cfg.cells, cfg.antennas = 7, 4
    assert BLOCK_BUDGET // (7 * 7 * 3 * 4) == 6
    want = _episodes(cfg, 11, 16, (), _composed_step)
    got = _episodes(cfg, 11, 16, reset_steps, Environment.step)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x, y, equal_nan=True)


def _composed_step(env, actions):
    """One step written out as the public stages in their order, the
    walk and fade by the step-by-step references: what the step must
    equal bit for bit. It also asserts what the inner stages rely on
    instead of checking: received_powers and measure_inter_cell get
    beams inside the codebook and powers that are >= 0 and within each
    cell's budget."""
    cfg = env.config
    powers_dbm, beams, _ = control.apply_joint_action(
        actions, env.powers_dbm, env.beams, cfg)
    powers_mw = db_to_linear(powers_dbm)
    assert np.all((beams >= 0) & (beams < env.codebook.size))
    assert np.all(powers_mw >= 0.0)
    assert np.all(powers_mw.sum(axis=1) <= cfg.max_bs_power_mw)
    env.users = _reference_walk(env.users, env.layout, cfg,
                                env.users_rng)[0]
    env.channels = _reference_fade(env.layout, env.users, cfg,
                                   env.channel_rng, env.channels)
    table = received_powers(env.channels, powers_mw, beams, env.codebook)
    gammas = sinr(table, cfg.noise_mw)
    estimates = measure_inter_cell(gammas, powers_mw, beams, env.channels,
                                   cfg.noise_mw, env.codebook)
    rewards, punished = control.reward(gammas, estimates, cfg.min_sinr,
                                       cfg.interference_threshold_mw,
                                       cfg.punishment)
    env.powers_dbm, env.beams = powers_dbm, beams
    env.offsets = env.users.offsets(env.layout)
    return StepResult(table, gammas, estimates, rewards.tolist(), punished)


def _outcome(step, env, actions):
    """Every array a step returns or leaves behind, or its refusal."""
    try:
        result = step(env, actions)
    except MeasurementError as err:
        return str(err)
    table = result.table
    return [np.asarray(a) for a in (
        table.serving, table.intra, table.inter_by_source, table.inter_total,
        result.sinr, result.estimates, result.rewards, result.punished,
        env.powers_dbm, env.beams, env.states())]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 8),
       st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_step_equals_its_stages_composed(cells, users, antennas, bits,
                                          seed):
    cfg = default_config().network
    cfg.cells = cells
    cfg.users_per_cell = users
    cfg.antennas = antennas
    cfg.codebook_bits = bits
    envs = [Environment(cfg, np.random.SeedSequence(seed)) for _ in range(2)]
    actions = np.random.default_rng(seed).integers(
        control.action_space_size(users), size=(6, cells))
    envs[0].reset(4)  # one block of 4 steps, then one step at a time
    envs[1].reset()
    for row in actions:
        got = _outcome(Environment.step, envs[0], row)
        want = _outcome(_composed_step, envs[1], row)
        if isinstance(want, str):  # the same refusal on both sides
            assert got == want
            break
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b, equal_nan=True)
