"""The shared environment: per-cell states as one matrix and the power
budget and codebook checks of every step."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_run_config

from cellshare import control
from cellshare.channel import sample_channels
from cellshare.config import db_to_linear, default_config
from cellshare.environment import Environment, StepResult
from cellshare.errors import ContractViolation, MeasurementError
from cellshare.geometry import step_mobility
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
                        lambda *args: (powers_dbm, beams))
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


def _composed_step(env, actions):
    """One step written out as the public stages in their order: the
    reference the step must equal bit for bit. It also asserts what the
    inner stages rely on instead of checking: received_powers and
    measure_inter_cell get beams inside the codebook and powers that are
    >= 0 and within each cell's budget."""
    cfg = env.config
    powers_dbm, beams = control.apply_joint_action(
        actions, env.powers_dbm, env.beams, cfg)
    powers_mw = db_to_linear(powers_dbm)
    assert np.all((beams >= 0) & (beams < env.codebook.size))
    assert np.all(powers_mw >= 0.0)
    assert np.all(powers_mw.sum(axis=1) <= cfg.max_bs_power_mw)
    env.users = step_mobility(env.users, env.layout, cfg, env.users_rng)
    env.channels = sample_channels(env.layout, env.users, cfg,
                                   env.channel_rng, prev=env.channels)
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
    for env in envs:
        env.reset()
    for row in actions:
        got = _outcome(Environment.step, envs[0], row)
        want = _outcome(_composed_step, envs[1], row)
        if isinstance(want, str):  # the same refusal on both sides
            assert got == want
            break
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b, equal_nan=True)
