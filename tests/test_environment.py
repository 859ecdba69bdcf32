"""The shared environment: per-cell states as one matrix and the power
budget and codebook checks of every step."""

import numpy as np
import pytest

from conftest import small_run_config

from cellshare import control
from cellshare.environment import Environment
from cellshare.errors import ContractViolation


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
    """Step as if the actions had produced the given powers and beams."""
    monkeypatch.setattr(control, "apply_joint_action",
                        lambda *args: (powers_dbm, beams))
    return env.step([0] * env.config.cells)


def test_step_rejects_a_power_budget_breach(monkeypatch):
    env = _env()
    powers = env.powers_dbm.copy()
    powers[1:] = env.config.max_bs_power_dbm  # U users at the full budget
    with pytest.raises(ContractViolation, match="cell 1 .*power budget"):
        _step_with(monkeypatch, env, powers, env.beams.copy())


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
