"""Joint-action bit layout, power/beam command application, state and
reward, for one cell and batched over leading (B, L) axes."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cellshare.config import db_to_linear, default_config
from cellshare.control import (
    _command_table,
    action_space_size,
    apply_joint_action,
    apply_power_command,
    encode_state,
    initial_powers_dbm,
    reward,
    state_size,
)
from cellshare.errors import ContractViolation


def _commands(index, users):
    """Reference decode, bit by bit: per user u, (power bit 2u, beam
    bit 2u+1)."""
    return [((index >> (2 * u)) & 1, (index >> (2 * u + 1)) & 1)
            for u in range(users)]


def _cfg(users, bits=3):
    cfg = default_config().network  # 40 dBm budget, 0 dBm floor
    cfg.users_per_cell = users
    cfg.codebook_bits = bits
    return cfg


def _moves(index, users):
    """(power dB steps, beam steps) of an action away from both the
    budget and the codebook ends, where every command applies verbatim."""
    cfg = _cfg(users)
    powers = np.full(users, 5.0)
    beams = np.full(users, 4)
    new_powers, new_beams, _ = apply_joint_action(index, powers, beams, cfg)
    return new_powers - powers, new_beams - beams


def test_action_codec_round_trips():
    # the reference decode, applied, re-encodes to the same index
    for users in range(1, 5):
        assert action_space_size(users) == 4 ** users
        for index in range(action_space_size(users)):
            power_steps, beam_steps = _moves(index, users)
            commands = _commands(index, users)
            assert power_steps.tolist() == [2.0 * p - 1 for p, _ in commands]
            assert beam_steps.tolist() == [2 * b - 1 for _, b in commands]
            assert sum(int(p > 0) << (2 * u) | int(b > 0) << (2 * u + 1)
                       for u, (p, b) in enumerate(zip(power_steps,
                                                      beam_steps))) == index


def test_command_table_equals_the_bit_decode():
    # apply_joint_action reads each action's commands from this table
    for users in range(1, 5):
        power_steps, beam_steps = _command_table(users)
        n = action_space_size(users)
        assert power_steps.shape == beam_steps.shape == (n, users)
        assert power_steps.dtype == float and beam_steps.dtype == int
        assert not power_steps.flags.writeable
        assert not beam_steps.flags.writeable
        for index in range(n):
            commands = _commands(index, users)
            assert power_steps[index].tolist() == [2.0 * p - 1.0
                                                   for p, _ in commands]
            assert beam_steps[index].tolist() == [2 * b - 1
                                                  for _, b in commands]


def test_action_bit_layout():
    # index 5 = 0b000101: u0 and u1 power up + beam down, u2 both down
    assert _commands(5, 3) == [(1, 0), (1, 0), (0, 0)]
    steps = _moves(5, 3)
    assert steps[0].tolist() == [1.0, 1.0, -1.0]
    assert steps[1].tolist() == [-1, -1, -1]
    steps = _moves(0, 3)
    assert steps[0].tolist() == [-1.0] * 3 and steps[1].tolist() == [-1] * 3
    steps = _moves(63, 3)
    assert steps[0].tolist() == [1.0] * 3 and steps[1].tolist() == [1] * 3


def test_action_codec_rejects_garbage():
    cfg = _cfg(2)  # 16 joint actions, 8 beams
    powers = np.zeros(2)
    beams = np.zeros(2, dtype=int)
    for index in (-1, 16, [[0, 3], [16, 1]]):
        with pytest.raises(ContractViolation, match="action index"):
            apply_joint_action(index, powers, beams, cfg)
    # a float or bool would index the command table wrongly or not at all
    for index in (1.0, [0.0, 3.0], True, np.array([1, 0], dtype=bool)):
        with pytest.raises(ContractViolation, match="must be integers"):
            apply_joint_action(index, powers, beams, cfg)


def test_power_override_when_budget_exceeded():
    cfg = default_config().network  # 40 dBm budget
    prev = np.array([36.0, 36.0])
    # both up -> 37+37 dBm = 10.02 W > 10 W: every user backs off instead
    after, _ = apply_power_command(prev, np.array([1.0, 1.0]), cfg)
    assert np.array_equal(after, [35.0, 35.0])
    # one up one down fits (5.0 + 3.2 W) and is applied verbatim
    after, _ = apply_power_command(prev, np.array([1.0, -1.0]), cfg)
    assert np.array_equal(after, [37.0, 35.0])


def test_power_floor():
    cfg = default_config().network  # 0 dBm per-user floor
    after, _ = apply_power_command(np.array([0.0, 12.0]),
                                   np.array([-1.0, -1.0]), cfg)
    assert np.array_equal(after, [0.0, 11.0])


def test_power_budget_never_violated():
    cfg = default_config().network
    cfg.users_per_cell = 3
    rng = np.random.default_rng(11)
    powers = initial_powers_dbm(cfg)
    for _ in range(2000):
        steps = 2.0 * rng.integers(0, 2, size=3) - 1.0
        powers, _ = apply_power_command(powers, steps, cfg)
        assert np.all(powers >= cfg.min_ue_power_dbm)
        assert np.sum(10.0 ** (powers / 10.0)) <= cfg.max_bs_power_mw


def test_beam_command_saturates():
    cfg = _cfg(1)  # 8 beams; action 0 steps down, action 2 steps up

    def move(beam, index):
        return apply_joint_action(index, [5.0], [beam], cfg)[1].tolist()

    assert move(0, 0) == [0]
    assert move(0, 2) == [1]
    assert move(7, 2) == [7]
    assert move(7, 0) == [6]


def test_apply_joint_action_matches_manual_decode():
    cfg = _cfg(2)
    rng = np.random.default_rng(4)
    powers = initial_powers_dbm(cfg)
    beams = np.full(cfg.users_per_cell, cfg.codebook_size // 2)
    for _ in range(300):
        index = int(rng.integers(0, action_space_size(2)))
        commands = _commands(index, 2)
        want_powers, _ = apply_power_command(
            powers, np.array([2.0 * c[0] - 1.0 for c in commands]), cfg)
        want_beams = [min(max(int(b) + 2 * c[1] - 1, 0),
                          cfg.codebook_size - 1)
                      for b, c in zip(beams, commands)]
        powers, beams, _ = apply_joint_action(index, powers, beams, cfg)
        assert np.array_equal(powers, want_powers)
        assert beams.tolist() == want_beams


@given(st.integers(1, 4), st.integers(1, 8),
       st.floats(-10.0, 10.0), st.floats(1.0, 40.0),
       st.data())
def test_joint_action_keeps_cell_in_budget_and_codebook(users, bits, floor,
                                                        headroom, data):
    # the oracle tabulates each cell's actions on their own, relying on
    # every action leaving a feasible cell feasible
    cfg = default_config().network
    cfg.users_per_cell = users
    cfg.codebook_bits = bits
    cfg.min_ue_power_dbm = floor
    cfg.max_bs_power_dbm = floor + headroom
    powers = np.array(data.draw(st.lists(
        st.floats(floor, floor + headroom), min_size=users,
        max_size=users)))
    assume(np.sum(10.0 ** (powers / 10.0)) <= cfg.max_bs_power_mw)
    beams = np.array(data.draw(st.lists(
        st.integers(0, cfg.codebook_size - 1), min_size=users,
        max_size=users)))
    index = data.draw(st.integers(0, action_space_size(users) - 1))
    new_powers, new_beams, new_mw = apply_joint_action(index, powers, beams,
                                                       cfg)
    # the budget test's conversion, reused when no cell backs off
    assert np.array_equal(new_mw, db_to_linear(new_powers))
    assert np.all(new_powers >= cfg.min_ue_power_dbm)
    assert np.sum(10.0 ** (new_powers / 10.0)) <= cfg.max_bs_power_mw
    assert np.all((new_beams >= 0) & (new_beams < cfg.codebook_size))
    assert np.all(np.abs(new_beams - beams) <= 1)


# (B, L, U): a batch of B networks of L cells with U users each
_shapes = st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 3))


@given(_shapes, st.data())
def test_batched_joint_action_equals_per_cell_calls(shape, data):
    B, L, U = shape
    cfg = _cfg(U, bits=2)
    cfg.max_bs_power_dbm = 12.0  # back-offs, floors and saturation are common
    powers = data.draw(arrays(float, shape, elements=st.floats(-2.0, 10.0)))
    beams = data.draw(arrays(int, shape, elements=st.integers(0, 3)))
    actions = data.draw(arrays(int, (B, L), elements=st.integers(
        0, action_space_size(U) - 1)))
    new_powers, new_beams, new_mw = apply_joint_action(actions, powers, beams,
                                                       cfg)
    assert new_powers.shape == new_beams.shape == shape
    for b in range(B):
        for ell in range(L):
            want = apply_joint_action(int(actions[b, ell]), powers[b, ell],
                                      beams[b, ell], cfg)
            assert np.array_equal(new_powers[b, ell], want[0])
            assert np.array_equal(new_beams[b, ell], want[1])
            assert np.array_equal(new_mw[b, ell], want[2])


@given(_shapes, st.data())
def test_batched_state_equals_per_cell_calls(shape, data):
    B, L, U = shape
    cfg = _cfg(U)
    powers = data.draw(arrays(float, shape, elements=st.floats(0.0, 40.0)))
    beams = data.draw(arrays(int, shape, elements=st.integers(0, 7)))
    offsets = data.draw(arrays(float, shape + (2,),
                               elements=st.floats(-150.0, 150.0)))
    states = encode_state(powers, beams, offsets, cfg)
    assert states.shape == (B, L, state_size(U))
    for b in range(B):
        for ell in range(L):
            assert np.array_equal(states[b, ell], encode_state(
                powers[b, ell], beams[b, ell], offsets[b, ell], cfg))


@given(_shapes, st.data())
def test_batched_reward_equals_per_cell_calls(shape, data):
    B, L, _ = shape
    sinrs = data.draw(arrays(float, shape, elements=st.floats(0.0, 3.0)))
    inter = data.draw(arrays(float, shape, elements=st.floats(0.0, 2e-14)))
    rewards, punished = reward(sinrs, inter, 0.5, 1e-14, 100.0)
    assert rewards.shape == punished.shape == (B, L)
    assert punished.dtype == bool
    want = [[reward(sinrs[b, ell], inter[b, ell], 0.5, 1e-14, 100.0)
             for ell in range(L)] for b in range(B)]
    assert all(isinstance(r, float) and isinstance(flag, np.bool_)
               for row in want for r, flag in row)
    assert np.array_equal(rewards, [[r for r, _ in row] for row in want])
    assert np.array_equal(punished, [[f for _, f in row] for row in want])
    assert np.array_equal(punished, rewards == -100.0)


def test_state_layout_and_normalization():
    cfg = default_config().network
    cfg.users_per_cell = 2
    assert state_size(2) == 8
    powers = np.array([0.0, 40.0])
    beams = np.array([0.0, 7.0])
    offsets = np.array([[112.0, -56.0], [0.0, 28.0]])
    state = encode_state(powers, beams, offsets, cfg)
    assert state.shape == (8,)
    assert np.array_equal(state[0::4], [0.0, 1.0])
    assert np.array_equal(state[1::4], [0.0, 1.0])
    assert np.array_equal(state[2::4], [1.0, 0.0])
    assert np.array_equal(state[3::4], [-0.5, 0.25])
    with pytest.raises(ContractViolation):
        encode_state(powers[:1], beams, offsets, cfg)


def test_reward_positive_branch_is_a_product():
    rng = np.random.default_rng(2)
    for _ in range(200):
        sinrs = rng.uniform(0.6, 50.0, size=3)
        inter = rng.uniform(0.0, 0.9e-14, size=3)
        got, punished = reward(sinrs, inter, 0.5, 1e-14, 100.0)
        assert got == pytest.approx(np.prod(1.0 + sinrs), rel=1e-12)
        assert not punished
    # batched: every cell clear
    sinrs = rng.uniform(0.6, 50.0, size=(4, 3))
    got, punished = reward(sinrs, np.zeros((4, 3)), 0.5, 1e-14, 100.0)
    assert np.array_equal(got, np.prod(1.0 + sinrs, axis=-1))
    assert np.array_equal(punished, [False] * 4)


def test_reward_punishes_any_violation():
    ok_sinr = np.array([2.0, 2.0])
    ok_inter = np.array([1e-15, 1e-15])

    def check(sinrs, inter, value, flag):
        got, punished = reward(sinrs, inter, 0.5, 1e-14, 100.0)
        assert got == pytest.approx(value)
        assert punished == flag

    check(ok_sinr, ok_inter, 9.0, False)
    # one user below the floor is enough
    check(np.array([2.0, 0.4]), ok_inter, -100.0, True)
    # one user over the interference cap is enough
    check(ok_sinr, np.array([1e-15, 2e-14]), -100.0, True)
    # both comparisons are strict
    check(np.array([0.5, 2.0]), ok_inter, -100.0, True)
    check(ok_sinr, np.array([1e-14, 1e-15]), -100.0, True)
    # batched over the five cells above
    sinrs = np.array([ok_sinr, [2.0, 0.4], ok_sinr, [0.5, 2.0], ok_sinr])
    inter = np.array([ok_inter, ok_inter, [1e-15, 2e-14], ok_inter,
                      [1e-14, 1e-15]])
    got, punished = reward(sinrs, inter, 0.5, 1e-14, 100.0)
    assert np.array_equal(got, [9.0] + [-100.0] * 4)
    assert np.array_equal(punished, [False] + [True] * 4)


def test_initial_operating_point():
    cfg = default_config().network  # 40 dBm, 3 users
    powers = initial_powers_dbm(cfg)
    assert powers.shape == (3,)
    assert powers[0] == pytest.approx(40.0 - 10.0 * np.log10(3.0) - 3.0)
    # equal split minus 3 dB headroom always fits the budget
    assert np.sum(10.0 ** (powers / 10.0)) <= cfg.max_bs_power_mw
    cfg.max_bs_power_dbm = 2.0  # headroom would push below the floor
    assert np.array_equal(initial_powers_dbm(cfg), [0.0, 0.0, 0.0])
