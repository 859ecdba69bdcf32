"""Sharing masks, delivery, common reward and the ledger."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import same_weights

from cellshare.errors import ContractViolation
from cellshare.qnet import QNetwork
from cellshare.replay import ReplayBuffer
from cellshare.sharing import (
    ATTRIBUTION_MODES,
    FRAMEWORKS,
    OverheadLedger,
    crdu_reward,
    ctde_sync,
    deliver,
    share_all,
    smart_select,
)


def test_framework_and_mode_registries():
    assert FRAMEWORKS == ("smart", "share-all", "share-nothing",
                          "crdu", "ctde")
    assert ATTRIBUTION_MODES == ("measured", "genie")


def _pairs(mask):
    """{(sender, receiver): [users]} of a (sender, user, receiver) mask."""
    got = {}
    for sender, user, receiver in zip(*np.nonzero(mask)):
        got.setdefault((int(sender), int(receiver)), []).append(int(user))
    return got


def test_share_all_floods_every_neighbour():
    mask = share_all(3, 2)
    assert mask.shape == (3, 2, 3)
    # 3 senders x 2 receivers, 2 users each
    assert int(mask.sum()) == 12
    assert _pairs(mask) == {(s, r): [0, 1] for s in range(3)
                            for r in range(3) if s != r}


def test_smart_measured_gates_on_aggregate():
    aggregate = np.array([[2.0, 0.5, 3.0],
                          [0.1, 0.2, 0.3]])
    mask = smart_select(aggregate, None, 1.0, "measured")
    # only cell 0's users 0 and 2 clear the threshold
    assert _pairs(mask) == {(0, 1): [0, 2]}


def test_smart_threshold_is_strict():
    at_threshold = np.array([[1.0], [0.0]])
    assert not smart_select(at_threshold, None, 1.0, "measured").any()
    just_over = np.array([[np.nextafter(1.0, 2.0)], [0.0]])
    assert int(smart_select(just_over, None, 1.0, "measured").sum()) == 1


def test_smart_measured_broadcasts_to_all_neighbours():
    aggregate = np.array([[5.0], [0.0], [0.0]])
    mask = smart_select(aggregate, None, 1.0, "measured")
    assert set(_pairs(mask)) == {(0, 1), (0, 2)}


def test_smart_genie_attributes_per_source():
    aggregate = np.full((3, 2), 10.0)  # ignored in genie mode
    per_source = np.zeros((3, 2, 3))
    per_source[0, 0, 1] = 2.0   # cell 0 user 0 is hit hard by cell 1 only
    per_source[0, 1, 2] = 3.0   # cell 0 user 1 by cell 2 only
    per_source[2, 0, 0] = 1.5
    per_source[1, 1, 1] = 5.0   # a cell's own term is never shared
    mask = smart_select(aggregate, per_source, 1.0, "genie")
    assert _pairs(mask) == {(0, 1): [0], (0, 2): [1], (2, 0): [0]}
    with pytest.raises(ContractViolation):
        smart_select(aggregate, None, 1.0, "genie")
    with pytest.raises(ContractViolation):
        smart_select(aggregate, per_source, 1.0, "oracle")


_powers = st.floats(0.0, 2.0, allow_nan=False)


@st.composite
def _scenes(draw):
    """(per-source table with a zero diagonal, its aggregate, threshold)."""
    cells = draw(st.integers(1, 5))
    users = draw(st.integers(1, 4))
    per_source = np.array(draw(st.lists(
        _powers, min_size=cells * users * cells,
        max_size=cells * users * cells))).reshape(cells, users, cells)
    ell = np.arange(cells)
    per_source[ell, :, ell] = 0.0
    threshold = draw(st.floats(0.0, 2.0))
    return per_source, per_source.sum(axis=2), threshold


@given(_scenes())
def test_genie_selection_is_a_subset_of_measured(scene):
    per_source, aggregate, threshold = scene
    measured = smart_select(aggregate, None, threshold, "measured")
    genie = smart_select(aggregate, per_source, threshold, "genie")
    cells = len(aggregate)
    for mask in (measured, genie):
        assert mask.shape == per_source.shape and mask.dtype == bool
        assert not mask[np.arange(cells), :, np.arange(cells)].any()
    assert not (genie & ~measured).any()


@given(_scenes())
def test_share_all_is_measured_mode_at_minus_infinity(scene):
    _per_source, aggregate, _threshold = scene
    assert np.array_equal(share_all(*aggregate.shape),
                          smart_select(aggregate, None, -np.inf, "measured"))


@given(_scenes(), st.integers(0, 1000))
def test_deliver_counts_and_tags_received(scene, first_row):
    per_source, aggregate, threshold = scene
    mask = smart_select(aggregate, per_source, threshold, "genie")
    cells, users, _ = mask.shape
    rows = first_row + np.arange(cells)
    ring = ReplayBuffer(cells, 1000)
    ring.insert(np.eye(cells, dtype=int), rows)  # one own id each
    sent = deliver(mask, rows, ring)
    for receiver in range(cells):
        # its own id, then sender, then user order
        want = [rows[receiver]] + [
            rows[sender] for sender in range(cells)
            for user in range(users) if mask[sender, user, receiver]]
        assert ring.counts[receiver] == len(want)
        assert ring.slots[receiver, :len(want)].tolist() == want
    assert ring.inserted_local == cells
    assert ring.inserted_received == int(mask.sum())
    assert sent == {sender: int(mask[sender].sum())
                    for sender in range(cells) if mask[sender].any()}


def test_crdu_reward_product_and_punishment():
    assert crdu_reward([8.0, 2.0], [False, False], 100.0) == 16.0
    assert crdu_reward([8.0, -100.0], [False, True], 100.0) == -100.0
    assert crdu_reward([-100.0, -100.0], np.array([True, True]),
                       100.0) == -100.0
    with pytest.raises(ContractViolation):
        crdu_reward([], [], 100.0)


def test_crdu_reward_reads_the_flags_not_the_values():
    # an unflagged reward equal to -punishment is still multiplied
    assert crdu_reward([-100.0, 2.0], [False, False], 100.0) == -200.0
    assert crdu_reward([-100.0], np.array([False]), 100.0) == -100.0
    assert crdu_reward([-3.0, -100.0], [False, False], 100.0) == 300.0
    # any flag gives -punishment, whatever the values
    assert crdu_reward([8.0, 2.0], [False, True], 100.0) == -100.0
    assert crdu_reward([8.0, 2.0], np.array([True, False]), 7.0) == -7.0


def test_ctde_sync_copies_weights_and_counts_scalars():
    rng = np.random.default_rng(1)
    central = QNetwork(4, 4, hidden=(6, 5), rng=rng)
    agents = QNetwork.stack([QNetwork(4, 4, hidden=(6, 5), rng=rng)
                             for _ in range(3)])
    scalars = ctde_sync(central, agents)
    assert scalars == 3 * central.parameter_count()
    assert all(same_weights(net, central) for net in agents)
    assert all(net is not central for net in agents)


def test_ledger_totals_and_zero_share_fraction():
    ledger = OverheadLedger()
    ledger.record_step(0, np.array([2, 0]), np.array([54, 0]))
    ledger.record_step(1, np.zeros(2, dtype=int), np.zeros(2, dtype=int))
    assert ledger.experiences_total == 2
    assert ledger.scalars_total == 54
    assert ledger.rows == [(0, 0, 2, 54), (0, 1, 0, 0),
                           (1, 0, 0, 0), (1, 1, 0, 0)]
    assert all(type(value) is int for row in ledger.rows for value in row)
    assert ledger.zero_share_fraction() == pytest.approx(0.75)
    with pytest.raises(ContractViolation):
        ledger.record_step(2, np.array([-1]), np.array([0]))
    with pytest.raises(ContractViolation):
        ledger.record_step(2, np.array([0]), np.array([-1]))
    for experiences, scalars in (([1, 2, 3], [5]), ([1], [5, 6])):
        with pytest.raises(ContractViolation):  # not one count per agent
            ledger.record_step(2, np.array(experiences), np.array(scalars))
    assert len(ledger.rows) == 4
    # a run that never stepped has no fraction to report
    assert math.isnan(OverheadLedger().zero_share_fraction())


@given(st.integers(1, 5).flatmap(lambda agents: st.lists(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 100)),
             min_size=agents, max_size=agents),
    min_size=1, max_size=20)))
def test_ledger_identities_over_random_counts(steps):
    ledger = OverheadLedger()
    for step, counts in enumerate(steps):
        experiences, scalars = np.array(counts).T
        ledger.record_step(step, experiences, scalars)
    rows = [counts for per_step in steps for counts in per_step]
    assert len(ledger.rows) == len(rows)
    assert ledger.experiences_total == sum(r[2] for r in ledger.rows)
    assert ledger.scalars_total == sum(r[3] for r in ledger.rows)
    zero_rows = sum(1 for n_exp, n_scal in rows if n_exp == n_scal == 0)
    assert ledger.zero_share_fraction() == zero_rows / len(rows)
