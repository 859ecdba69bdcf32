"""FIFO replay buffer semantics and on-the-wire experience size."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellshare.errors import ContractViolation
from cellshare.replay import Experience, ReplayBuffer, experience_scalars


def _exp(tag):
    state = np.array([float(tag)])
    return Experience(state=state, action_index=0, power_bit=0, beam_bit=0,
                      reward=float(tag), next_state=state,
                      cell=0, user=0, step=tag)


def test_scalar_count_per_shared_experience():
    # two length-4U states plus action, reward and one command pair
    assert experience_scalars(3) == 27
    assert experience_scalars(2) == 19
    assert experience_scalars(1) == 11


def test_fifo_eviction_order():
    buf = ReplayBuffer(5)
    for tag in range(8):
        buf.insert(_exp(tag))
    assert len(buf) == 5
    assert [e.step for e in buf.oldest_first()] == [3, 4, 5, 6, 7]
    buf.insert(_exp(8))
    assert [e.step for e in buf.oldest_first()] == [4, 5, 6, 7, 8]


@given(st.integers(0, 200), st.integers(1, 50))
def test_oldest_first_holds_the_last_inserts(n, capacity):
    buf = ReplayBuffer(capacity)
    for tag in range(n):
        buf.insert(_exp(tag))
    kept = min(n, capacity)
    assert [e.step for e in buf.oldest_first()] == list(range(n - kept, n))


def test_insert_counters_split_local_and_received():
    buf = ReplayBuffer(10)
    for tag in range(4):
        buf.insert(_exp(tag))
    for tag in range(3):
        buf.insert(_exp(10 + tag), received=True)
    assert buf.inserted_local == 4
    assert buf.inserted_received == 3
    assert len(buf) == 7


def test_sample_underfilled_returns_none():
    buf = ReplayBuffer(100)
    rng = np.random.default_rng(0)
    for tag in range(7):
        buf.insert(_exp(tag))
        if len(buf) < 8:
            assert buf.sample(8, rng) is None
    buf.insert(_exp(7))
    batch = buf.sample(8, rng)
    assert sorted(e.step for e in batch) == list(range(8))


def test_sample_is_without_replacement():
    buf = ReplayBuffer(50)
    for tag in range(50):
        buf.insert(_exp(tag))
    rng = np.random.default_rng(1)
    for _ in range(100):
        batch = buf.sample(20, rng)
        steps = [e.step for e in batch]
        assert len(set(steps)) == 20


def test_sample_is_roughly_uniform():
    buf = ReplayBuffer(10)
    for tag in range(10):
        buf.insert(_exp(tag))
    rng = np.random.default_rng(2)
    counts = np.zeros(10)
    draws = 4000
    for _ in range(draws):
        for e in buf.sample(5, rng):
            counts[e.step] += 1
    expected = draws * 5 / 10.0
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < 27.88  # 99.9th percentile, 9 dof


def test_constructor_and_sample_guards():
    with pytest.raises(ContractViolation):
        ReplayBuffer(0)
    buf = ReplayBuffer(3)
    buf.insert(_exp(0))
    with pytest.raises(ContractViolation):
        buf.sample(0, np.random.default_rng(3))
