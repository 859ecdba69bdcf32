"""Sharing policies for replay experiences, the framework table and the
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
agents train on, the share rule that returns a step's (sender, user,
receiver) boolean mask of experiences to send (None: no exchange;
never a cell to itself), whether one central learner trains on every cell's rows
(its weights broadcast by ``ctde_sync``) or each agent trains its own,
and the (experiences, scalars) the ledger charges a cell per step.
``FRAMEWORKS`` lists the names in order.

The ledger counts plain scalars so shared experiences, CRDU reward
broadcasts and CTDE weight pushes stay comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ContractViolation
from .qnet import QNetwork
from .replay import ReplayBuffer, experience_scalars

ATTRIBUTION_MODES = ("measured", "genie")


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


def share_all(cells: int, users: int) -> np.ndarray:
    """Every user's experience of every cell to every other cell."""
    return np.repeat(~np.eye(cells, dtype=bool)[:, None, :], users, axis=1)


def smart_select(aggregate_estimates_mw: np.ndarray,
                 per_source_mw: np.ndarray | None,
                 threshold_mw: float, mode: str) -> np.ndarray:
    """Interference-gated sharing; returns the (L, U, L) (sender, user,
    receiver) mask.

    measured mode: a user whose aggregate estimated inter-cell power
    exceeds the threshold has its experience broadcast to every
    neighbour (one SINR report cannot attribute interference to a
    source). genie mode: it goes only to sources whose true per-source
    term exceeds the threshold; needs the simulator's (L, U, L) table.
    """
    if mode not in ATTRIBUTION_MODES:
        raise ContractViolation("unknown attribution mode %r" % mode)
    aggregate = np.asarray(aggregate_estimates_mw, dtype=float)
    if mode == "measured":
        over = (aggregate > threshold_mw)[:, :, None]
    else:
        if per_source_mw is None:
            raise ContractViolation(
                "genie attribution needs the per-source table")
        over = np.asarray(per_source_mw) > threshold_mw
    return over & ~np.eye(len(aggregate), dtype=bool)[:, None, :]


def deliver(mask: np.ndarray, rows: np.ndarray,
            buffers: Sequence[ReplayBuffer]) -> Dict[int, int]:
    """Insert the experiences ``mask`` selects into receiver buffers.

    ``rows[sender]`` is the sender's transition-table row for the step.
    Each receiver takes its experiences in sender, then user order, so
    runs are schedule independent. Returns the number of experiences
    sent per sender that sent any.
    """
    counts = mask.sum(axis=1)  # (sender, receiver)
    for receiver, buffer in enumerate(buffers):
        if counts[:, receiver].any():
            buffer.insert(np.repeat(rows, counts[:, receiver]),
                          received=True)
    return {sender: int(n) for sender, n in enumerate(counts.sum(axis=1))
            if n}


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


def ctde_sync(central: QNetwork, agents: QNetwork,
              ledger: OverheadLedger | None = None) -> int:
    """Copy the central weights into every agent; returns scalars sent."""
    agents.load_from(central)
    scalars = agents.parameter_count()
    if ledger is not None:
        ledger.add_weight_scalars(scalars)
    return scalars


@dataclass(frozen=True)
class Framework:
    """One ``BEHAVIOUR`` entry; see the module docstring."""

    rewards: Callable[[List[float], float], List[float]]
    share: Optional[Callable[..., np.ndarray]]
    central: bool
    cost: Callable[[OverheadLedger, int], Tuple[int, int]]


# The table's functions reach the share rules and crdu_reward through
# this module's names at call time, so a wrapper installed on those
# names (a tracer, a test double) sees every call the trainer makes.
def _own(cell_rewards, punishment):
    return cell_rewards


def _common(cell_rewards, punishment):
    return [crdu_reward(cell_rewards, punishment)] * len(cell_rewards)


def _smart(estimates_mw, per_source_mw, threshold_mw, mode):
    return smart_select(estimates_mw, per_source_mw, threshold_mw, mode)


def _all(estimates_mw, per_source_mw, threshold_mw, mode):
    return share_all(*estimates_mw.shape)


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
