"""Plain-numpy Q-network: two ReLU hidden layers, identity output.

Backpropagation is written out by hand so the analytic gradients can be
checked against central finite differences; keeping the whole update in
float64 numpy also makes runs bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from .errors import ContractViolation, TrainingFault

HIDDEN_1 = 56
HIDDEN_2 = 56


class QNetwork:
    """Q(s, .) over the joint-action space of one agent."""

    INIT_GAIN = 0.15  # keeps plain SGD at eta=0.01 clear of the unstable regime

    def __init__(self, input_size: int, output_size: int,
                 hidden: Tuple[int, int] = (HIDDEN_1, HIDDEN_2),
                 rng: np.random.Generator | None = None,
                 init_gain: float | None = None):
        if input_size < 1 or output_size < 1:
            raise ContractViolation("layer sizes must be positive")
        self.input_size = int(input_size)
        self.output_size = int(output_size)
        self.hidden = (int(hidden[0]), int(hidden[1]))
        h1, h2 = self.hidden
        gain = self.INIT_GAIN if init_gain is None else float(init_gain)
        if rng is None:
            self.w1 = np.zeros((h1, input_size))
            self.w2 = np.zeros((h2, h1))
            self.w3 = np.zeros((output_size, h2))
        else:
            # fan-in scaled uniform init
            self.w1 = rng.uniform(-gain, gain,
                                  (h1, input_size)) / math.sqrt(input_size)
            self.w2 = rng.uniform(-gain, gain, (h2, h1)) / math.sqrt(h1)
            self.w3 = rng.uniform(-gain, gain,
                                  (output_size, h2)) / math.sqrt(h2)
        self.b1 = np.zeros(h1)
        self.b2 = np.zeros(h2)
        self.b3 = np.zeros(output_size)

    _PARAMS = ("w1", "b1", "w2", "b2", "w3", "b3")

    def parameters(self) -> Dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self._PARAMS}

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters().values())

    def copy(self) -> "QNetwork":
        dup = QNetwork(self.input_size, self.output_size, self.hidden)
        dup.load_from(self)
        return dup

    def load_from(self, other: "QNetwork") -> None:
        if (other.input_size, other.output_size, other.hidden) != \
                (self.input_size, self.output_size, self.hidden):
            raise ContractViolation("architecture mismatch in weight copy")
        for name in self._PARAMS:
            setattr(self, name, getattr(other, name).copy())

    def equal_weights(self, other: "QNetwork") -> bool:
        return all(np.array_equal(getattr(self, n), getattr(other, n))
                   for n in self._PARAMS)


def forward_batch(net: QNetwork, x: np.ndarray):
    """Batch forward pass; returns Q-values plus the backprop cache."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != net.input_size:
        raise ContractViolation(
            "state length %d does not match network input %d"
            % (x.shape[1], net.input_size))
    z1 = x @ net.w1.T + net.b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ net.w2.T + net.b2
    a2 = np.maximum(z2, 0.0)
    q = a2 @ net.w3.T + net.b3
    return q, (x, z1, a1, z2, a2)


def q_forward(net: QNetwork, state: np.ndarray) -> np.ndarray:
    """Q-values of a single state, shape (output_size,)."""
    q, _ = forward_batch(net, np.asarray(state, dtype=float)[None, :])
    return q[0]


def _backward(net: QNetwork, cache, dq: np.ndarray) -> Dict[str, np.ndarray]:
    x, z1, a1, z2, a2 = cache
    grads: Dict[str, np.ndarray] = {}
    grads["w3"] = dq.T @ a2
    grads["b3"] = dq.sum(axis=0)
    da2 = dq @ net.w3
    dz2 = da2 * (z2 > 0.0)
    grads["w2"] = dz2.T @ a1
    grads["b2"] = dz2.sum(axis=0)
    da1 = dz2 @ net.w2
    dz1 = da1 * (z1 > 0.0)
    grads["w1"] = dz1.T @ x
    grads["b1"] = dz1.sum(axis=0)
    return grads


def td_targets(target_net: QNetwork, rewards: np.ndarray,
               next_states: np.ndarray, alpha: float) -> np.ndarray:
    """Bootstrapped targets. Episodes are fixed length, so every
    transition bootstraps (no terminal cutoff)."""
    q_next, _ = forward_batch(target_net, next_states)
    return rewards + alpha * q_next.max(axis=1)


def loss_and_gradients(net: QNetwork, target_net: QNetwork,
                       states: np.ndarray, actions: np.ndarray,
                       rewards: np.ndarray, next_states: np.ndarray,
                       alpha: float):
    """Mean squared TD error of the minibatch (one row per transition)
    and its gradients w.r.t. net parameters."""
    if len(states) < 1:
        raise ContractViolation("minibatch must contain at least one item")
    if np.any(actions < 0) or np.any(actions >= net.output_size):
        raise ContractViolation("action index outside the network head")
    y = td_targets(target_net, rewards, next_states, alpha)
    q, cache = forward_batch(net, states)
    b = len(states)
    rows = np.arange(b)
    taken = q[rows, actions]
    diff = y - taken
    loss = float(np.mean(diff ** 2))
    dq = np.zeros_like(q)
    dq[rows, actions] = -2.0 * diff / b
    grads = _backward(net, cache, dq)
    return loss, grads


def train_step(net: QNetwork, target_net: QNetwork, states: np.ndarray,
               actions: np.ndarray, rewards: np.ndarray,
               next_states: np.ndarray, alpha: float, eta: float) -> float:
    """One SGD step on the minibatch; returns the pre-update loss.

    Parameters are updated in place: theta <- theta - eta * grad.
    """
    loss, grads = loss_and_gradients(net, target_net, states, actions,
                                     rewards, next_states, alpha)
    if not math.isfinite(loss):
        raise TrainingFault("non-finite training loss %r" % (loss,))
    for name, grad in grads.items():
        param = getattr(net, name)
        param -= eta * grad
    return loss


def select_action(net: QNetwork, state: np.ndarray, epsilon: float,
                  rng: np.random.Generator) -> int:
    """Epsilon-greedy; greedy ties break toward the lowest index."""
    if not 0.0 <= epsilon <= 1.0:
        raise ContractViolation("epsilon must be in [0, 1]")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(net.output_size))
    return int(np.argmax(q_forward(net, state)))
