"""Sharing policies for replay experiences, the framework table and the
communication-overhead ledger.

Five frameworks are supported by the trainer:

* ``smart``          share a user's transition with neighbours only when
                     that user's measured inter-cell interference exceeds
                     the threshold,
* ``share-all``      every transition goes to every neighbour,
* ``share-nothing``  fully isolated agents,
* ``crdu``           no experience exchange, but a central controller
                     hands every agent one network-wide reward made
                     from every cell's reward and punished flag,
* ``ctde``           one central network trained on a pooled buffer whose
                     weights are broadcast back to the acting agents.

``BEHAVIOUR`` holds each one as plain data for the trainer: the share
rule that returns a step's (sender, user, receiver) boolean mask of
experiences to send (None: no exchange; never a cell to itself),
whether one central learner trains on every cell's rows (its weights
broadcast by ``ctde_sync``) or each agent trains its own, and whether
the agents train on ``crdu_reward``'s common reward. ``FRAMEWORKS``
lists the names in order.

The trainer works out each step's charge from the share mask and that
row; the ledger only records it. It counts plain scalars so shared
experiences, CRDU reward broadcasts and CTDE weight pushes stay
comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import ATTRIBUTION_MODES
from .errors import ContractViolation
from .qnet import QNetwork
from .replay import ReplayBuffer


@dataclass
class OverheadLedger:
    """Per-(step, agent) transmission counts; totals are sums of them."""

    # one (step, agent, experiences, scalars) int row per agent and step
    rows: List[Tuple[int, int, int, int]] = field(default_factory=list)

    def record_step(self, step: int, experiences: np.ndarray,
                    scalars: np.ndarray) -> None:
        """Record one step's (L,) per-agent experience and scalar counts."""
        experiences, scalars = experiences.tolist(), scalars.tolist()
        if len(experiences) != len(scalars):
            raise ContractViolation("need one scalar count per agent")
        if min(experiences) < 0 or min(scalars) < 0:
            raise ContractViolation("ledger counts must be non-negative")
        self.rows.extend(zip(repeat(step), range(len(experiences)),
                             experiences, scalars))

    experiences_total = property(lambda self: sum(r[2] for r in self.rows))
    scalars_total = property(lambda self: sum(r[3] for r in self.rows))

    def zero_share_fraction(self) -> float:
        """Share of rows that sent nothing; NaN for an empty ledger."""
        if not self.rows:
            return math.nan
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
            replay: ReplayBuffer) -> Dict[int, int]:
    """Insert the experiences ``mask`` selects into the receivers' rings.

    ``rows[sender]`` is the sender's transition-table row for the step;
    receiver k is learner k of ``replay`` and takes its experiences in
    sender, then user order, so runs are schedule independent. Returns
    the number of experiences sent per sender that sent any.
    """
    counts = np.add.reduce(mask, axis=1)  # (sender, receiver)
    replay.insert(counts.T, rows, received=True)
    return {sender: n for sender, n
            in enumerate(counts.sum(axis=1).tolist()) if n}


def crdu_reward(cell_rewards: Sequence[float], punished: Sequence[bool],
                punishment: float) -> float:
    """-punishment if any cell was punished, else the rewards' product."""
    if not len(cell_rewards):
        raise ContractViolation("need at least one cell reward")
    if any(punished):
        return -float(punishment)
    return math.prod(cell_rewards)


def ctde_sync(central: QNetwork, agents: QNetwork) -> int:
    """Copy the central weights into every agent; returns scalars sent."""
    agents.load_from(central)
    return agents.parameter_count()


@dataclass(frozen=True)
class Framework:
    """One ``BEHAVIOUR`` entry; see the module docstring."""

    share: Optional[Callable[..., np.ndarray]]
    central: bool
    common_reward: bool


# The share rules reach smart_select and share_all through this
# module's names at call time, so a wrapper installed on those names (a
# tracer, a test double) sees every call the trainer makes.
def _smart(estimates_mw, per_source_mw, threshold_mw, mode):
    return smart_select(estimates_mw, per_source_mw, threshold_mw, mode)


def _all(estimates_mw, per_source_mw, threshold_mw, mode):
    return share_all(*estimates_mw.shape)


BEHAVIOUR: Dict[str, Framework] = {
    #                          share   central common_reward
    "smart":         Framework(_smart, False,  False),
    "share-all":     Framework(_all,   False,  False),
    "share-nothing": Framework(None,   False,  False),
    "crdu":          Framework(None,   False,  True),
    "ctde":          Framework(None,   True,   False),
}
FRAMEWORKS = tuple(BEHAVIOUR)
