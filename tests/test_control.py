"""Joint-action codec, power/beam command application, state and reward."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cellshare.config import default_config
from cellshare.control import (
    action_space_size,
    apply_beam_command,
    apply_joint_action,
    apply_power_command,
    decode_action,
    encode_action,
    encode_state,
    initial_beams,
    initial_powers_dbm,
    reward,
    state_size,
)
from cellshare.errors import ContractViolation


def test_action_codec_round_trips():
    for users in range(1, 5):
        assert action_space_size(users) == 4 ** users
        for index in range(action_space_size(users)):
            commands = decode_action(index, users)
            assert len(commands) == users
            assert encode_action(commands) == index


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                min_size=1, max_size=4))
def test_decode_inverts_encode(commands):
    # the other direction of test_action_codec_round_trips
    index = encode_action(commands)
    assert 0 <= index < action_space_size(len(commands))
    assert decode_action(index, len(commands)) == commands


def test_decode_action_bit_layout():
    # index 5 = 0b000101: u0 power up + beam up, u1/u2 both down
    assert decode_action(5, 3) == [(1, 0), (1, 0), (0, 0)]
    assert decode_action(0, 3) == [(0, 0), (0, 0), (0, 0)]
    assert decode_action(63, 3) == [(1, 1), (1, 1), (1, 1)]


def test_action_codec_rejects_garbage():
    with pytest.raises(ContractViolation):
        decode_action(-1, 2)
    with pytest.raises(ContractViolation):
        decode_action(16, 2)
    with pytest.raises(ContractViolation):
        encode_action([(0, 2)])


def test_power_override_when_budget_exceeded():
    cfg = default_config().network  # 40 dBm budget
    prev = np.array([36.0, 36.0])
    # both up -> 37+37 dBm = 10.02 W > 10 W: every user backs off instead
    after = apply_power_command(prev, np.array([1, 1]), cfg)
    assert np.array_equal(after, [35.0, 35.0])
    # one up one down fits (5.0 + 3.2 W) and is applied verbatim
    after = apply_power_command(prev, np.array([1, 0]), cfg)
    assert np.array_equal(after, [37.0, 35.0])


def test_power_floor():
    cfg = default_config().network  # 0 dBm per-user floor
    after = apply_power_command(np.array([0.0, 12.0]), np.array([0, 0]), cfg)
    assert np.array_equal(after, [0.0, 11.0])


def test_power_budget_never_violated():
    cfg = default_config().network
    cfg.users_per_cell = 3
    rng = np.random.default_rng(11)
    powers = initial_powers_dbm(cfg)
    for _ in range(2000):
        bits = rng.integers(0, 2, size=3)
        powers = apply_power_command(powers, bits, cfg)
        assert np.all(powers >= cfg.min_ue_power_dbm)
        assert np.sum(10.0 ** (powers / 10.0)) <= cfg.max_bs_power_mw


def test_beam_command_saturates():
    assert apply_beam_command(0, 0, 8) == 0
    assert apply_beam_command(0, 1, 8) == 1
    assert apply_beam_command(7, 1, 8) == 7
    assert apply_beam_command(7, 0, 8) == 6
    with pytest.raises(ContractViolation):
        apply_beam_command(8, 0, 8)


def test_apply_joint_action_matches_manual_decode():
    cfg = default_config().network
    cfg.users_per_cell = 2
    rng = np.random.default_rng(4)
    powers = initial_powers_dbm(cfg)
    beams = initial_beams(cfg)
    for _ in range(300):
        index = int(rng.integers(0, action_space_size(2)))
        commands = decode_action(index, 2)
        want_powers = apply_power_command(
            powers, np.array([c[0] for c in commands]), cfg)
        want_beams = np.array([
            apply_beam_command(int(b), c[1], cfg.codebook_size)
            for b, c in zip(beams, commands)])
        powers, beams = apply_joint_action(index, powers, beams, cfg)
        assert np.array_equal(powers, want_powers)
        assert np.array_equal(beams, want_beams)


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
    new_powers, new_beams = apply_joint_action(index, powers, beams, cfg)
    assert np.all(new_powers >= cfg.min_ue_power_dbm)
    assert np.sum(10.0 ** (new_powers / 10.0)) <= cfg.max_bs_power_mw
    assert np.all((new_beams >= 0) & (new_beams < cfg.codebook_size))
    assert np.all(np.abs(new_beams - beams) <= 1)


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
        got = reward(sinrs, inter, 0.5, 1e-14, 100.0)
        assert got == pytest.approx(np.prod(1.0 + sinrs), rel=1e-12)


def test_reward_punishes_any_violation():
    ok_sinr = np.array([2.0, 2.0])
    ok_inter = np.array([1e-15, 1e-15])
    assert reward(ok_sinr, ok_inter, 0.5, 1e-14, 100.0) == pytest.approx(9.0)
    # one user below the floor is enough
    assert reward(np.array([2.0, 0.4]), ok_inter, 0.5, 1e-14, 100.0) == -100.0
    # one user over the interference cap is enough
    assert reward(ok_sinr, np.array([1e-15, 2e-14]), 0.5, 1e-14, 100.0) == -100.0
    # both comparisons are strict
    assert reward(np.array([0.5, 2.0]), ok_inter, 0.5, 1e-14, 100.0) == -100.0
    assert reward(ok_sinr, np.array([1e-14, 1e-15]), 0.5, 1e-14, 100.0) == -100.0


def test_initial_operating_point():
    cfg = default_config().network  # 40 dBm, 3 users
    powers = initial_powers_dbm(cfg)
    assert powers.shape == (3,)
    assert powers[0] == pytest.approx(40.0 - 10.0 * np.log10(3.0) - 3.0)
    # equal split minus 3 dB headroom always fits the budget
    assert np.sum(10.0 ** (powers / 10.0)) <= cfg.max_bs_power_mw
    cfg.max_bs_power_dbm = 2.0  # headroom would push below the floor
    assert np.array_equal(initial_powers_dbm(cfg), [0.0, 0.0, 0.0])
    assert np.array_equal(initial_beams(cfg), [4, 4, 4])
