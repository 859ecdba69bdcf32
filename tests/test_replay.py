"""Transition table, the FIFO ring of row ids and on-the-wire experience
size."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellshare.errors import ContractViolation
from cellshare.replay import ReplayBuffer, TransitionTable, experience_scalars


def _filled(capacity, ids):
    buf = ReplayBuffer(capacity)
    for i in ids:
        buf.insert([i])
    return buf


def _list_ring(capacity, inserts):
    """Reference ring: a list that appends until full, then overwrites
    its oldest item, one id at a time."""
    items, oldest = [], 0
    for ids in inserts:
        for i in ids:
            if len(items) < capacity:
                items.append(i)
            else:
                items[oldest] = i
                oldest = (oldest + 1) % capacity
    return items


def test_scalar_count_per_shared_experience():
    # two length-4U states plus action, reward and one command pair
    assert experience_scalars(3) == 27
    assert experience_scalars(2) == 19
    assert experience_scalars(1) == 11


def test_fifo_eviction_order():
    buf = _filled(5, range(8))
    assert len(buf) == 5
    assert buf.slots.tolist() == [5, 6, 7, 3, 4]
    buf.insert([8])
    assert buf.slots.tolist() == [5, 6, 7, 8, 4]


@given(st.integers(1, 50),
       st.lists(st.integers(0, 120), max_size=12))
def test_id_ring_matches_a_list_ring(capacity, sizes):
    # insert sizes reach past the capacity, so one call can evict its
    # own first ids
    inserts, first = [], 0
    buf = ReplayBuffer(capacity)
    for size in sizes:
        ids = list(range(first, first + size))
        first += size
        buf.insert(np.array(ids, dtype=int))
        inserts.append(ids)
    want = _list_ring(capacity, inserts)
    assert len(buf) == len(want)
    assert buf.slots[:len(buf)].tolist() == want


def test_insert_counters_split_local_and_received():
    buf = ReplayBuffer(10)
    buf.insert(np.full(4, 0))
    buf.insert(np.array([1, 1, 2]), received=True)
    assert buf.inserted_local == 4
    assert buf.inserted_received == 3
    assert len(buf) == 7


def test_sample_underfilled_returns_none():
    rng = np.random.default_rng(0)
    buf = ReplayBuffer(100)
    for tag in range(7):
        buf.insert([tag])
        if len(buf) < 8:
            assert buf.sample(8, rng) is None
    buf.insert([7])
    assert sorted(buf.sample(8, rng).tolist()) == list(range(8))


def test_sample_is_without_replacement():
    buf = _filled(50, range(50))
    rng = np.random.default_rng(1)
    for _ in range(100):
        assert len(set(buf.sample(20, rng).tolist())) == 20


def test_sample_is_roughly_uniform():
    buf = _filled(10, range(10))
    rng = np.random.default_rng(2)
    counts = np.zeros(10)
    draws = 4000
    for _ in range(draws):
        for i in buf.sample(5, rng):
            counts[i] += 1
    expected = draws * 5 / 10.0
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < 27.88  # 99.9th percentile, 9 dof


def test_constructor_and_sample_guards():
    with pytest.raises(ContractViolation):
        ReplayBuffer(0)
    buf = ReplayBuffer(3)
    buf.insert([0])
    with pytest.raises(ContractViolation):
        buf.sample(0, np.random.default_rng(3))
    with pytest.raises(ContractViolation):
        TransitionTable(0, 2, 4)


def test_table_rows_round_trip_and_wrap():
    table = TransitionTable(steps=2, cells=3, state_len=2)
    for step in range(3):
        states = [np.array([step, cell], dtype=float) for cell in range(3)]
        nexts = [s + 0.5 for s in states]
        rows = table.store(step, states, [step, 1, 2],
                           [10.0 * step + cell for cell in range(3)], nexts)
    # step 2 reuses step 0's rows; step 1's rows are untouched
    assert rows.tolist() == [0, 1, 2]
    states, actions, rewards, next_states = table.batch(np.array([4, 0, 2]))
    assert states.tolist() == [[1.0, 1.0], [2.0, 0.0], [2.0, 2.0]]
    assert actions.tolist() == [1, 2, 2]
    assert rewards.tolist() == [11.0, 20.0, 22.0]
    assert np.array_equal(next_states, states + 0.5)
