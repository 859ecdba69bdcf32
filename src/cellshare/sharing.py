"""Experience-sharing policies, the framework table and the
communication-overhead ledger.

Five frameworks are supported by the trainer:

* ``smart``          share a user's transition with neighbours only when
                     that user's measured inter-cell interference exceeds
                     the threshold,
* ``share-all``      every transition goes to every neighbour,
* ``share-nothing``  fully isolated agents,
* ``crdu``           no experience exchange, but a central controller
                     hands every agent the same network-wide reward,
* ``ctde``           one central network trained on a pooled buffer whose
                     weights are broadcast back to the acting agents.

``BEHAVIOUR`` holds each one as data for the trainer: the rewards its
agents train on, the share rule that picks a step's packets (None: no
exchange), whether one central learner trains on every cell's rows
(its weights broadcast by ``ctde_sync``) or each agent trains its own,
and the (experiences, scalars) the ledger charges a cell per step.
``FRAMEWORKS`` lists the names in order.

The ledger counts plain scalars so experience packets, CRDU reward
broadcasts and CTDE weight pushes stay comparable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ContractViolation
from .qnet import QNetwork
from .replay import Experience, ReplayBuffer, experience_scalars

ATTRIBUTION_MODES = ("measured", "genie")


@dataclass
class SharePacket:
    sender: int
    receiver: int
    experiences: List[Experience]
    step: int

    def __post_init__(self):
        if self.sender == self.receiver:
            raise ContractViolation("a cell cannot share with itself")
        if not self.experiences:
            raise ContractViolation("empty packets are never materialized")


@dataclass
class OverheadLedger:
    """Per-(step, agent) transmission counts plus running totals."""

    users_per_cell: int
    rows: List[tuple] = field(default_factory=list)  # (step, agent, exp, scalars)
    experiences_total: int = 0
    scalars_total: int = 0
    experience_scalars_total: int = 0
    weight_scalars_total: int = 0
    reward_scalars_total: int = 0

    def record_step(self, step: int, per_agent_experiences: Sequence[int],
                    per_agent_scalars: Sequence[int]) -> None:
        for agent, (n_exp, n_scal) in enumerate(
                zip(per_agent_experiences, per_agent_scalars)):
            if n_exp < 0 or n_scal < 0:
                raise ContractViolation("ledger counts must be non-negative")
            self.rows.append((step, agent, int(n_exp), int(n_scal)))
            self.experiences_total += int(n_exp)
            self.scalars_total += int(n_scal)

    def add_experience_scalars(self, count: int) -> int:
        scalars = count * experience_scalars(self.users_per_cell)
        self.experience_scalars_total += scalars
        return scalars

    def add_weight_scalars(self, count: int) -> int:
        self.weight_scalars_total += count
        return count

    def add_reward_scalars(self, count: int) -> int:
        self.reward_scalars_total += count
        return count

    def zero_share_fraction(self) -> float:
        if not self.rows:
            raise ContractViolation("ledger is empty")
        zero = sum(1 for row in self.rows if row[2] == 0 and row[3] == 0)
        return zero / len(self.rows)


def share_all(experiences_by_cell: Sequence[Sequence[Experience]],
              step: int) -> List[SharePacket]:
    """Every cell's rows to every other cell."""
    cells = len(experiences_by_cell)
    packets = []
    for sender in range(cells):
        rows = list(experiences_by_cell[sender])
        if not rows:
            continue
        for receiver in range(cells):
            if receiver != sender:
                packets.append(SharePacket(sender, receiver, rows, step))
    return packets


def smart_select(experiences_by_cell: Sequence[Sequence[Experience]],
                 aggregate_estimates_mw: np.ndarray,
                 per_source_mw: np.ndarray | None,
                 threshold_mw: float, mode: str,
                 step: int) -> List[SharePacket]:
    """Interference-gated sharing.

    measured mode: a user whose aggregate estimated inter-cell power
    exceeds the threshold has its row broadcast to every neighbour (one
    SINR report cannot attribute interference to a source). genie mode:
    the row goes only to sources whose true per-source term exceeds the
    threshold; needs the simulator's (L, U, L) table.
    """
    if mode not in ATTRIBUTION_MODES:
        raise ContractViolation("unknown attribution mode %r" % mode)
    cells = len(experiences_by_cell)
    aggregate = np.asarray(aggregate_estimates_mw, dtype=float)
    packets: List[SharePacket] = []
    for sender in range(cells):
        rows = experiences_by_cell[sender]
        for receiver in range(cells):
            if receiver == sender:
                continue
            if mode == "measured":
                chosen = [rows[u] for u in range(len(rows))
                          if aggregate[sender, u] > threshold_mw]
            else:
                if per_source_mw is None:
                    raise ContractViolation(
                        "genie attribution needs the per-source table")
                chosen = [rows[u] for u in range(len(rows))
                          if per_source_mw[sender, u, receiver] > threshold_mw]
            if chosen:
                packets.append(SharePacket(sender, receiver, chosen, step))
    return packets


def deliver(packets: Sequence[SharePacket],
            buffers: Sequence[ReplayBuffer]) -> Dict[int, int]:
    """Insert all packets into receiver buffers.

    Packets are applied in the deterministic order they were built
    (sender, then receiver, then user), making runs schedule
    independent. Returns the number of experiences sent per sender.
    """
    sent: Dict[int, int] = Counter()
    for packet in packets:
        for exp in packet.experiences:
            buffers[packet.receiver].insert(exp, received=True)
        sent[packet.sender] += len(packet.experiences)
    return dict(sent)


def crdu_reward(cell_rewards: Sequence[float], punishment: float) -> float:
    """Common reward: global product unless any cell was punished."""
    rewards = list(cell_rewards)
    if not rewards:
        raise ContractViolation("need at least one cell reward")
    if any(r == -punishment for r in rewards):
        return -float(punishment)
    out = 1.0
    for r in rewards:
        out *= r
    return out


def ctde_sync(central: QNetwork, agent_nets: Sequence[QNetwork],
              ledger: OverheadLedger | None = None) -> int:
    """Broadcast central weights to every agent; returns scalars sent."""
    scalars = 0
    for net in agent_nets:
        net.load_from(central)
        scalars += central.parameter_count()
    if ledger is not None:
        ledger.add_weight_scalars(scalars)
    return scalars


@dataclass(frozen=True)
class Framework:
    """One ``BEHAVIOUR`` entry; see the module docstring."""

    rewards: Callable[[List[float], float], List[float]]
    share: Optional[Callable[..., List[SharePacket]]]
    central: bool
    cost: Callable[[OverheadLedger, int], Tuple[int, int]]


# The table's functions reach the share rules and crdu_reward through
# this module's names at call time, so a wrapper installed on those
# names (a tracer, a test double) sees every call the trainer makes.
def _own(cell_rewards, punishment):
    return cell_rewards


def _common(cell_rewards, punishment):
    return [crdu_reward(cell_rewards, punishment)] * len(cell_rewards)


def _smart(rows, estimates_mw, per_source_mw, threshold_mw, mode, step):
    return smart_select(rows, estimates_mw, per_source_mw, threshold_mw,
                        mode, step)


def _all(rows, estimates_mw, per_source_mw, threshold_mw, mode, step):
    return share_all(rows, step)


def _sent(ledger, sent):
    return sent, ledger.add_experience_scalars(sent)


def _reward_scalar(ledger, sent):
    return 0, ledger.add_reward_scalars(1)


def _uploads(ledger, sent):
    users = ledger.users_per_cell
    return users, ledger.add_experience_scalars(users)


BEHAVIOUR: Dict[str, Framework] = {
    #                          rewards  share   central cost
    "smart":         Framework(_own,    _smart, False,  _sent),
    "share-all":     Framework(_own,    _all,   False,  _sent),
    "share-nothing": Framework(_own,    None,   False,  _sent),
    "crdu":          Framework(_common, None,   False,  _reward_scalar),
    "ctde":          Framework(_own,    None,   True,   _uploads),
}
FRAMEWORKS = tuple(BEHAVIOUR)
