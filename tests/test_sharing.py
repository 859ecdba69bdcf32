"""Sharing policies, packet delivery, common reward and the ledger."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellshare.errors import ContractViolation
from cellshare.qnet import QNetwork
from cellshare.replay import Experience, ReplayBuffer
from cellshare.sharing import (
    ATTRIBUTION_MODES,
    FRAMEWORKS,
    OverheadLedger,
    SharePacket,
    crdu_reward,
    ctde_sync,
    deliver,
    share_all,
    smart_select,
)


def _exp(cell, user):
    state = np.zeros(4)
    return Experience(state=state, action_index=0, power_bit=0, beam_bit=0,
                      reward=1.0, next_state=state,
                      cell=cell, user=user, step=0)


def _rows(cells, users):
    return [[_exp(c, u) for u in range(users)] for c in range(cells)]


def test_framework_and_mode_registries():
    assert FRAMEWORKS == ("smart", "share-all", "share-nothing",
                          "crdu", "ctde")
    assert ATTRIBUTION_MODES == ("measured", "genie")


def test_packet_guards():
    with pytest.raises(ContractViolation):
        SharePacket(1, 1, [_exp(1, 0)], step=0)
    with pytest.raises(ContractViolation):
        SharePacket(0, 1, [], step=0)


def test_share_all_floods_every_neighbour():
    packets = share_all(_rows(3, 2), step=5)
    # 3 senders x 2 receivers, 2 rows each
    assert len(packets) == 6
    assert sum(len(p.experiences) for p in packets) == 12
    pairs = {(p.sender, p.receiver) for p in packets}
    assert pairs == {(s, r) for s in range(3) for r in range(3) if s != r}
    assert all(p.step == 5 for p in packets)


def test_smart_measured_gates_on_aggregate():
    rows = _rows(2, 3)
    aggregate = np.array([[2.0, 0.5, 3.0],
                          [0.1, 0.2, 0.3]])
    packets = smart_select(rows, aggregate, None, 1.0, "measured", step=9)
    # only cell 0's users 0 and 2 clear the threshold
    assert len(packets) == 1
    packet = packets[0]
    assert (packet.sender, packet.receiver, packet.step) == (0, 1, 9)
    assert [e.user for e in packet.experiences] == [0, 2]


def test_smart_threshold_is_strict():
    rows = _rows(2, 1)
    at_threshold = np.array([[1.0], [0.0]])
    assert smart_select(rows, at_threshold, None, 1.0, "measured", 0) == []
    just_over = np.array([[np.nextafter(1.0, 2.0)], [0.0]])
    assert len(smart_select(rows, just_over, None, 1.0, "measured", 0)) == 1


def test_smart_measured_broadcasts_to_all_neighbours():
    rows = _rows(3, 1)
    aggregate = np.array([[5.0], [0.0], [0.0]])
    packets = smart_select(rows, aggregate, None, 1.0, "measured", 0)
    assert {(p.sender, p.receiver) for p in packets} == {(0, 1), (0, 2)}


def test_smart_genie_attributes_per_source():
    rows = _rows(3, 2)
    aggregate = np.full((3, 2), 10.0)  # ignored in genie mode
    per_source = np.zeros((3, 2, 3))
    per_source[0, 0, 1] = 2.0   # cell 0 user 0 is hit hard by cell 1 only
    per_source[0, 1, 2] = 3.0   # cell 0 user 1 by cell 2 only
    per_source[2, 0, 0] = 1.5
    packets = smart_select(rows, aggregate, per_source, 1.0, "genie", 0)
    got = {(p.sender, p.receiver): [e.user for e in p.experiences]
           for p in packets}
    assert got == {(0, 1): [0], (0, 2): [1], (2, 0): [0]}
    with pytest.raises(ContractViolation):
        smart_select(rows, aggregate, None, 1.0, "genie", 0)
    with pytest.raises(ContractViolation):
        smart_select(rows, aggregate, per_source, 1.0, "oracle", 0)


def test_genie_selection_is_a_subset_of_measured():
    rng = np.random.default_rng(0)
    for _ in range(50):
        rows = _rows(3, 2)
        per_source = rng.uniform(0.0, 2.0, size=(3, 2, 3))
        ell = np.arange(3)
        per_source[ell, :, ell] = 0.0
        aggregate = per_source.sum(axis=2)
        measured = smart_select(rows, aggregate, None, 1.0, "measured", 0)
        genie = smart_select(rows, aggregate, per_source, 1.0, "genie", 0)
        measured_set = {(p.sender, p.receiver, e.user)
                        for p in measured for e in p.experiences}
        genie_set = {(p.sender, p.receiver, e.user)
                     for p in genie for e in p.experiences}
        assert genie_set <= measured_set


def test_deliver_counts_and_tags_received():
    rows = _rows(2, 3)
    buffers = [ReplayBuffer(100) for _ in range(2)]
    packets = share_all(rows, step=0)
    sent = deliver(packets, buffers)
    assert sent == {0: 3, 1: 3}
    for cell, buf in enumerate(buffers):
        assert buf.inserted_received == 3
        assert buf.inserted_local == 0
        assert all(e.cell != cell for e in buf.oldest_first())


def test_crdu_reward_product_and_punishment():
    assert crdu_reward([8.0, 2.0], 100.0) == pytest.approx(16.0)
    assert crdu_reward([8.0, -100.0], 100.0) == -100.0
    assert crdu_reward([-100.0, -100.0], 100.0) == -100.0
    with pytest.raises(ContractViolation):
        crdu_reward([], 100.0)


def test_ctde_sync_copies_weights_and_counts_scalars():
    rng = np.random.default_rng(1)
    central = QNetwork(4, 4, hidden=(6, 5), rng=rng)
    agents = [QNetwork(4, 4, hidden=(6, 5), rng=rng) for _ in range(3)]
    ledger = OverheadLedger(users_per_cell=2)
    scalars = ctde_sync(central, agents, ledger)
    assert scalars == 3 * central.parameter_count()
    assert ledger.weight_scalars_total == scalars
    assert all(net.equal_weights(central) for net in agents)
    assert all(net is not central for net in agents)


def test_ledger_totals_and_zero_share_fraction():
    ledger = OverheadLedger(users_per_cell=3)
    ledger.record_step(0, [2, 0], [54, 0])
    ledger.record_step(1, [0, 0], [0, 0])
    assert ledger.experiences_total == 2
    assert ledger.scalars_total == 54
    assert ledger.rows == [(0, 0, 2, 54), (0, 1, 0, 0),
                           (1, 0, 0, 0), (1, 1, 0, 0)]
    assert ledger.zero_share_fraction() == pytest.approx(0.75)
    assert ledger.add_experience_scalars(2) == 54
    assert ledger.experience_scalars_total == 54
    ledger.add_reward_scalars(4)
    assert ledger.reward_scalars_total == 4
    with pytest.raises(ContractViolation):
        ledger.record_step(2, [-1], [0])
    with pytest.raises(ContractViolation):
        OverheadLedger(users_per_cell=3).zero_share_fraction()



@given(st.integers(1, 5).flatmap(lambda agents: st.lists(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 100)),
             min_size=agents, max_size=agents),
    min_size=1, max_size=20)))
def test_ledger_identities_over_random_counts(steps):
    ledger = OverheadLedger(users_per_cell=2)
    for step, counts in enumerate(steps):
        ledger.record_step(step, [c[0] for c in counts],
                           [c[1] for c in counts])
    rows = [counts for per_step in steps for counts in per_step]
    assert len(ledger.rows) == len(rows)
    assert ledger.experiences_total == sum(r[2] for r in ledger.rows)
    assert ledger.scalars_total == sum(r[3] for r in ledger.rows)
    zero_rows = sum(1 for n_exp, n_scal in rows if n_exp == n_scal == 0)
    assert ledger.zero_share_fraction() == zero_rows / len(rows)
