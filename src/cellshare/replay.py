"""The per-run transition table and the bounded FIFO replay buffers of
row ids into it."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

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
    experiences of one step are the same transition; a replay buffer
    holds one copy of the row's id per user it took.
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
    """Ring of row ids with strictly oldest-first eviction: the n-th id
    ever inserted sits in slot n % capacity."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ContractViolation("buffer capacity must be >= 1")
        self.capacity = int(capacity)
        self.slots = np.zeros(self.capacity, dtype=int)
        self.inserted_local = 0
        self.inserted_received = 0

    def __len__(self) -> int:
        return min(self.inserted_local + self.inserted_received,
                   self.capacity)

    def insert(self, ids: np.ndarray, received: bool = False) -> None:
        ids = np.asarray(ids, dtype=int)
        start = self.inserted_local + self.inserted_received
        if received:
            self.inserted_received += len(ids)
        else:
            self.inserted_local += len(ids)
        # ids beyond the last `capacity` would be overwritten in this call
        kept = ids[-self.capacity:]
        start += len(ids) - len(kept)
        self.slots[(start + np.arange(len(kept))) % self.capacity] = kept

    def sample(self, batch_size: int,
               rng: np.random.Generator) -> Optional[np.ndarray]:
        """Row ids, uniform over slots without replacement; None while
        under-filled."""
        if batch_size < 1:
            raise ContractViolation("batch_size must be >= 1")
        if len(self) < batch_size:
            return None
        idx = rng.choice(len(self), size=batch_size, replace=False)
        return self.slots[idx]
