"""Transition table, the per-learner FIFO rings of row ids and
on-the-wire experience size."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellshare.errors import ContractViolation
from cellshare.replay import ReplayBuffer, TransitionTable, experience_scalars


def _filled(capacity, ids, learners=1):
    """A ring whose every learner took ``ids`` one call at a time."""
    ring = ReplayBuffer(learners, capacity)
    for i in ids:
        ring.insert(np.ones((learners, 1), dtype=int), np.array([i]))
    return ring


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
    ring = ReplayBuffer(2, 5)
    for i in range(8):
        ring.insert(np.array([[1], [i < 3]]), np.array([i]))
    assert ring.slots.tolist() == [[5, 6, 7, 3, 4], [0, 1, 2, 0, 0]]
    assert ring.counts.tolist() == [8, 3]
    ring.insert(np.array([[1], [0]]), np.array([8]))
    assert ring.slots[0].tolist() == [5, 6, 7, 8, 4]


@st.composite
def _ragged_calls(draw):
    """(learners, capacity, cells, calls): each call a (reuse, copies,
    received) triple whose (learners, cells) copies matrix may bring a
    row more ids than the capacity. The matrices come from a small pool,
    so values repeat, as local and as received inserts; a reuse call
    refills one shared array of ``cells`` columns in place with them."""
    learners = draw(st.integers(1, 4))
    capacity = draw(st.integers(1, 50))
    top = draw(st.sampled_from([3, 30]))

    def matrix(cells):
        return np.array(draw(st.lists(
            st.lists(st.integers(0, top), min_size=cells, max_size=cells),
            min_size=learners, max_size=learners))).reshape(learners, cells)

    cells = draw(st.integers(1, 5))
    shared_pool = [matrix(cells) for _ in range(draw(st.integers(1, 3)))]
    other_pool = [matrix(draw(st.integers(1, 5)))
                  for _ in range(draw(st.integers(1, 3)))]
    calls = []
    for _ in range(draw(st.integers(0, 12))):
        reuse = draw(st.booleans())
        calls.append((reuse, draw(st.sampled_from(
            shared_pool if reuse else other_pool)), draw(st.booleans())))
    return learners, capacity, cells, calls


@given(_ragged_calls())
def test_id_ring_matches_a_list_ring(case):
    # after every call, each learner's row equals its own list ring fed
    # the same ids in cell order, also where one call brings it more
    # than `capacity` ids and so evicts its own first ones, and where
    # one copies array, changed in place or not, comes back call after
    # call between other matrices, as a local or a received insert
    learners, capacity, cells, calls = case
    ring = ReplayBuffer(learners, capacity)
    shared = np.zeros((learners, cells), dtype=int)
    inserts = [[] for _ in range(learners)]
    first = 0
    for reuse, values, received in calls:
        copies = values
        if reuse:
            shared[...] = values
            copies = shared
        rows = first + np.arange(copies.shape[1])
        first += copies.shape[1]
        ring.insert(copies, rows, received=received)
        for k in range(learners):
            inserts[k].append(np.repeat(rows, values[k]).tolist())
            want = _list_ring(capacity, inserts[k])
            assert ring.counts[k] == sum(map(len, inserts[k]))
            assert ring.slots[k, :len(want)].tolist() == want
    assert ring.inserted_local == sum(int(c.sum())
                                      for _, c, received in calls
                                      if not received)
    assert ring.inserted_received == sum(int(c.sum())
                                         for _, c, received in calls
                                         if received)


def test_repeated_overflowing_insert_matches_a_list_ring():
    """A matrix that brings a learner more ids than the capacity, given
    again and again (the same object and an equal copy) with a smaller
    one between, matches the list ring after every call."""
    capacity = 4
    ring = ReplayBuffer(2, capacity)
    big = np.array([[3, 4], [1, 0]])  # learner 0 takes 7 > 4 ids
    small = np.array([[1, 0], [2, 1]])
    inserts = [[], []]
    for call, copies in enumerate([big, big, small, big.copy(), big]):
        rows = 10 * call + np.arange(2)
        ring.insert(copies, rows)
        for k in range(2):
            inserts[k].append(np.repeat(rows, copies[k]).tolist())
            want = _list_ring(capacity, inserts[k])
            assert ring.slots[k, :len(want)].tolist() == want
    assert ring.counts.tolist() == [29, 7]


def test_one_plan_is_kept_per_insert_kind(monkeypatch):
    """A constant local matrix inserted between 20 distinct received
    ones is planned once, and the ring keeps one plan of each kind."""
    ring = ReplayBuffer(3, 1000)
    planned = []
    plan = ring._plan

    def counted(copies):
        planned.append(copies.copy())
        return plan(copies)

    monkeypatch.setattr(ring, "_plan", counted)
    local = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for n in range(20):
        ring.insert(local, np.arange(3))
        received = np.array([[0, n % 2, 1], [n // 2 % 2, 0, 0],
                             [n // 4 % 2, n // 8 % 2, n // 16]])
        ring.insert(received, np.arange(3), received=True)
        assert len(planned) == n + 2
        assert len(ring._plans) <= 2
    ring.insert(local, np.arange(3))
    assert len(planned) == 21
    assert sum(np.array_equal(p, local) for p in planned) == 1
    assert ring.inserted_local == 21 * 3


def test_insert_counters_split_local_and_received():
    ring = ReplayBuffer(2, 10)
    ring.insert(np.array([[4, 0], [0, 1]]), np.arange(2))
    ring.insert(np.array([[0, 2], [1, 0]]), np.arange(1, 3),
                received=True)
    assert ring.inserted_local == 5
    assert ring.inserted_received == 3
    assert ring.counts.tolist() == [6, 2]
    assert ring.slots[:, :6].tolist() == [[0, 0, 0, 0, 2, 2],
                                          [1, 1, 0, 0, 0, 0]]


def test_sample_underfilled_raises():
    rngs = [np.random.default_rng(0), np.random.default_rng(1)]
    ring = ReplayBuffer(2, 100)
    for tag in range(7):
        ring.insert(np.array([[1], [2]]), np.array([tag]))
        with pytest.raises(ContractViolation, match="< batch_size"):
            ring.sample(8, rngs)
    ring.insert(np.array([[1], [0]]), np.array([7]))
    ids = ring.sample(8, rngs)
    assert sorted(ids[0].tolist()) == list(range(8))


def test_sample_equals_each_learners_own_draws():
    ring = ReplayBuffer(3, 6)
    for step in range(4):
        ring.insert(np.array([[1, 0], [2, 1], [3, 3]]),
                    10 * step + np.arange(2))
    ids = ring.sample(4, [np.random.default_rng(k) for k in range(3)])
    for k, filled in enumerate((4, 6, 6)):
        draws = np.random.default_rng(k).choice(filled, size=4,
                                                replace=False)
        assert ids[k].tolist() == ring.slots[k, draws].tolist()


def test_sample_is_without_replacement():
    ring = _filled(50, range(50), learners=2)
    rngs = [np.random.default_rng(1), np.random.default_rng(2)]
    for _ in range(100):
        for row in ring.sample(20, rngs):
            assert len(set(row.tolist())) == 20


def test_sample_is_roughly_uniform():
    ring = _filled(10, range(10))
    rngs = [np.random.default_rng(2)]
    counts = np.zeros(10)
    draws = 4000
    for _ in range(draws):
        for i in ring.sample(5, rngs)[0]:
            counts[i] += 1
    expected = draws * 5 / 10.0
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < 27.88  # 99.9th percentile, 9 dof


def test_constructor_and_sample_guards():
    with pytest.raises(ContractViolation):
        ReplayBuffer(1, 0)
    with pytest.raises(ContractViolation):
        ReplayBuffer(0, 3)
    ring = _filled(3, [0, 1, 2], learners=2)
    rngs = [np.random.default_rng(3)] * 2
    with pytest.raises(ContractViolation):
        ring.sample(0, rngs)
    with pytest.raises(ContractViolation):  # one stream for two learners
        ring.sample(2, rngs[:1])
    slots, counts = ring.slots.copy(), ring.counts.copy()
    # a row id short or over, on the call that makes the copies' plan and
    # on calls that reuse it
    copies = np.ones((2, 2), dtype=int)
    for rows in (np.array([4]), np.array([4, 5, 6])) * 2:
        with pytest.raises(ContractViolation):
            ring.insert(copies, rows)
    for copies in (np.array([[2, 1]]), np.ones((3, 2), dtype=int),
                   np.ones(2, dtype=int)):
        with pytest.raises(ContractViolation):  # not one row per learner
            ring.insert(copies, np.array([7, 8]))
    assert np.array_equal(ring.slots, slots)
    assert np.array_equal(ring.counts, counts)
    with pytest.raises(ContractViolation):
        TransitionTable(0, 2, 4)
    table = TransitionTable(4, 3, 2)
    entries = [np.ones((3, 2)), [1, 1, 1], [0.5] * 3, np.ones((3, 2))]
    for k in range(4):  # one argument with one entry, not one per cell
        short = list(entries)
        short[k] = short[k][:1]
        with pytest.raises(ContractViolation):
            table.store(0, *short)
    assert not table.states.any() and not table.actions.any()
    assert not table.rewards.any() and not table.next_states.any()


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
