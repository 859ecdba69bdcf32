"""The per-run transition table and the run's replay: one bounded FIFO
ring of row ids into it per learner, as rows of one id matrix. An insert
places its ids with one fancy assignment, by a plan that depends on its
copies matrix alone; the last plan of each insert kind is kept."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .control import state_size
from .errors import ContractViolation


def experience_scalars(users_per_cell: int) -> int:
    """Scalars on the wire per shared experience: two states, the
    action, the reward. Origin tags ride for free."""
    return 2 * state_size(users_per_cell) + 2 + 1


class TransitionTable:
    """Each cell's (state, joint action, training reward, next state)
    of the last ``steps`` steps, stored once; row ``(step % steps) *
    cells + cell``.

    Every user of a cell has an experience per step, and the users'
    experiences of one step are the same transition; a learner's replay
    ring holds one copy of the row's id per user it took.
    """

    def __init__(self, steps: int, cells: int, state_len: int):
        if steps < 1 or cells < 1:
            raise ContractViolation("transition table needs steps, cells >= 1")
        self.steps = int(steps)
        self.cells = int(cells)
        rows = self.steps * self.cells
        self.states = np.zeros((rows, state_len))
        self.actions = np.zeros(rows, dtype=int)
        self.rewards = np.zeros(rows)
        self.next_states = np.zeros((rows, state_len))

    def store(self, step: int, states: Sequence[np.ndarray],
              actions: Sequence[int], rewards: Sequence[float],
              next_states: Sequence[np.ndarray]) -> np.ndarray:
        """Overwrite the rows of ``step``; returns their ids by cell."""
        if not len(states) == len(actions) == len(rewards) \
                == len(next_states) == self.cells:
            raise ContractViolation("need one transition entry per cell")
        first = (step % self.steps) * self.cells
        rows = slice(first, first + self.cells)
        self.states[rows] = states
        self.actions[rows] = actions
        self.rewards[rows] = rewards
        self.next_states[rows] = next_states
        return np.arange(first, first + self.cells)

    def batch(self, ids: np.ndarray) -> Tuple[np.ndarray, ...]:
        """(states, actions, rewards, next_states) of the given rows."""
        return (self.states[ids], self.actions[ids], self.rewards[ids],
                self.next_states[ids])


class ReplayBuffer:
    """Rings of row ids with strictly oldest-first eviction: learner k's
    n-th id ever inserted sits in ``slots[k, n % capacity]``.

    An insert places ids by a plan that depends on the copies matrix
    and the capacity alone. A run inserts the same matrix step after
    step (its constant local routing, share-all's mask), so the last
    plan of each kind, local and received, is kept, keyed by the
    matrix's value."""

    def __init__(self, learners: int, capacity: int):
        if learners < 1 or capacity < 1:
            raise ContractViolation("replay needs learners, capacity >= 1")
        self.capacity = int(capacity)
        self.slots = np.zeros((learners, self.capacity), dtype=int)
        self.counts = np.zeros(learners, dtype=int)
        self.inserted_local = 0
        self.inserted_received = 0
        self._plans = {False: (None, None), True: (None, None)}

    def _plan(self, copies: np.ndarray):
        """(taken, total, learner, j, offset): the ids each learner
        takes and their total, and each placed id's learner, ``rows``
        index and place among its learner's ids of the call."""
        taken = copies.sum(axis=1)
        ends = taken.cumsum()
        total = int(ends[-1])
        # each id's (learner, j) cell, learner by learner in j order
        learner, j = np.divmod(np.repeat(np.arange(copies.size),
                                         copies.ravel()), copies.shape[1])
        offset = np.arange(total) - (ends - taken)[learner]
        if total > self.capacity and taken.max() > self.capacity:
            # numpy does not say which of two writes to one slot wins
            kept = offset >= (taken - self.capacity)[learner]
            learner, j, offset = learner[kept], j[kept], offset[kept]
        return taken, total, learner, j, offset

    def insert(self, copies: np.ndarray, rows: np.ndarray,
               received: bool = False) -> None:
        """Give learner k ``copies[k, j]`` ids ``rows[j]``, in j order."""
        key = (copies.dtype.str, copies.shape, copies.tobytes())
        if self._plans[received][0] != key:
            if copies.ndim != 2 or copies.shape[0] != len(self.counts):
                raise ContractViolation("need one row of copies per learner,"
                                        " got shape %r" % (copies.shape,))
            self._plans[received] = key, self._plan(copies)
        if len(rows) != copies.shape[1]:
            raise ContractViolation("need one row id per column of copies")
        taken, total, learner, j, offset = self._plans[received][1]
        self.slots[learner, (self.counts[learner] + offset)
                   % self.capacity] = rows[j]
        self.counts += taken
        if received:
            self.inserted_received += total
        else:
            self.inserted_local += total

    def sample(self, batch_size: int,
               rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """(learners, batch_size) row ids: learner k's are uniform over
        its filled slots without replacement, drawn from ``rngs[k]``."""
        if batch_size < 1:
            raise ContractViolation("batch_size must be >= 1")
        if len(rngs) != len(self.counts):
            raise ContractViolation("need one stream per learner")
        filled = np.minimum(self.counts, self.capacity).tolist()
        if min(filled) < batch_size:
            raise ContractViolation("a learner holds < batch_size ids")
        picks = [rng.choice(n, size=batch_size, replace=False)
                 for n, rng in zip(filled, rngs)]
        return self.slots[np.arange(len(picks))[:, None], picks]
