"""Plain-numpy Q-network: two ReLU hidden layers, identity output.

Backpropagation is written out by hand so the analytic gradients can be
checked against central finite differences; keeping the whole update in
float64 numpy also makes runs bit-reproducible for a fixed seed.

Weights may carry a leading agent axis (``QNetwork.stack``; ``net[k]`` is
agent k's view) that every function broadcasts over, with (K, B, ...)
minibatches; ``@`` on swapped axes runs one product per agent, so each
agent's slice equals its unstacked call bit for bit.
"""

from __future__ import annotations

import copy
import math
from typing import Dict, Sequence, Tuple

import numpy as np

from .errors import ContractViolation, TrainingFault

HIDDEN_1 = 56
HIDDEN_2 = 56


class QNetwork:
    """Q(s, .) over the joint-action space of one agent, or of each
    agent of a stack."""

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
        for layer, shape in enumerate(((h1, input_size), (h2, h1),
                                       (output_size, h2)), start=1):
            # zeros, or a fan-in scaled uniform init drawn w1 first
            setattr(self, "w%d" % layer, np.zeros(shape) if rng is None else
                    rng.uniform(-gain, gain, shape) / math.sqrt(shape[1]))
            setattr(self, "b%d" % layer, np.zeros(shape[0]))

    _PARAMS = ("w1", "b1", "w2", "b2", "w3", "b3")

    def _with(self, params) -> "QNetwork":
        """This architecture holding ``params`` (in ``_PARAMS`` order)."""
        net = copy.copy(self)
        net.__dict__.update(zip(self._PARAMS, params))
        return net

    @staticmethod
    def stack(nets: Sequence["QNetwork"]) -> "QNetwork":
        """A stack owning copies of ``nets``' weights, agent axis first."""
        return nets[0]._with(np.stack([getattr(n, name) for n in nets])
                             for name in QNetwork._PARAMS)

    def __len__(self) -> int:
        if self.w1.ndim != 3:
            raise TypeError("an unstacked QNetwork has no agent axis")
        return len(self.w1)

    def __getitem__(self, k) -> "QNetwork":
        """A view of agent k, or of a sub-stack for a slice."""
        len(self)  # an unstacked network raises TypeError
        return self._with(getattr(self, name)[k] for name in self._PARAMS)

    def parameters(self) -> Dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self._PARAMS}

    def parameter_count(self) -> int:
        """Scalars held, summed over the agents of a stack."""
        return sum(p.size for p in self.parameters().values())

    def copy(self) -> "QNetwork":
        return self._with(getattr(self, name).copy() for name in self._PARAMS)

    def load_from(self, other: "QNetwork") -> None:
        """Copy (broadcast) ``other``'s weights into this one's arrays."""
        if (other.input_size, other.output_size, other.hidden) != \
                (self.input_size, self.output_size, self.hidden):
            raise ContractViolation("architecture mismatch in weight copy")
        for name in self._PARAMS:
            getattr(self, name)[...] = getattr(other, name)

    def equal_weights(self, other: "QNetwork") -> bool:
        return all(np.array_equal(getattr(self, n), getattr(other, n))
                   for n in self._PARAMS)


def forward_batch(net: QNetwork, x: np.ndarray):
    """Batch forward pass; returns Q-values plus the backprop cache."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[-1] != net.input_size:
        raise ContractViolation(
            "state length %d does not match network input %d"
            % (x.shape[-1], net.input_size))
    a1 = x @ net.w1.swapaxes(-1, -2)
    a1 += net.b1[..., None, :]
    np.maximum(a1, 0.0, out=a1)
    a2 = a1 @ net.w2.swapaxes(-1, -2)
    a2 += net.b2[..., None, :]
    np.maximum(a2, 0.0, out=a2)
    q = a2 @ net.w3.swapaxes(-1, -2)
    q += net.b3[..., None, :]
    return q, (x, a1, a2)


def q_forward(net: QNetwork, state: np.ndarray) -> np.ndarray:
    """Q-values of a single state, shape (output_size,)."""
    return forward_batch(net, np.asarray(state, dtype=float)[None, :])[0][0]


def _backward(net: QNetwork, cache, dq: np.ndarray) -> Dict[str, np.ndarray]:
    x, a1, a2 = cache
    grads: Dict[str, np.ndarray] = {}
    grads["w3"] = dq.swapaxes(-1, -2) @ a2
    grads["b3"] = dq.sum(axis=-2)
    dz = dq @ net.w3
    dz *= a2 > 0.0  # ReLU'(z) from its output: a > 0 exactly where z > 0
    grads["w2"] = dz.swapaxes(-1, -2) @ a1
    grads["b2"] = dz.sum(axis=-2)
    dz = dz @ net.w2
    dz *= a1 > 0.0
    grads["w1"] = dz.swapaxes(-1, -2) @ x
    grads["b1"] = dz.sum(axis=-2)
    return grads


def td_targets(target_net: QNetwork, rewards: np.ndarray,
               next_states: np.ndarray, alpha: float) -> np.ndarray:
    """Bootstrapped targets. Episodes are fixed length, so every
    transition bootstraps (no terminal cutoff)."""
    q_next, _ = forward_batch(target_net, next_states)
    return rewards + alpha * q_next.max(axis=-1)


def loss_and_gradients(net: QNetwork, target_net: QNetwork,
                       states: np.ndarray, actions: np.ndarray,
                       rewards: np.ndarray, next_states: np.ndarray,
                       alpha: float):
    """Mean squared TD error of the minibatch (one row per transition)
    and its gradients w.r.t. net parameters; per agent for a stack."""
    if actions.shape[-1] < 1:
        raise ContractViolation("minibatch must contain at least one item")
    if np.any(actions < 0) or np.any(actions >= net.output_size):
        raise ContractViolation("action index outside the network head")
    y = td_targets(target_net, rewards, next_states, alpha)
    q, cache = forward_batch(net, states)
    # Q-values indexed by transition, over all agents of a stack
    rows, acts, b = np.arange(actions.size), actions.ravel(), actions.shape[-1]
    diff = y - q.reshape(rows.size, -1)[rows, acts].reshape(actions.shape)
    loss = np.mean(diff ** 2, axis=-1)
    dq = np.zeros_like(q)
    dq.reshape(rows.size, -1)[rows, acts] = (-2.0 * diff / b).ravel()
    grads = _backward(net, cache, dq)
    return (float(loss) if loss.ndim == 0 else loss), grads


def train_step(net: QNetwork, target_net: QNetwork, states: np.ndarray,
               actions: np.ndarray, rewards: np.ndarray,
               next_states: np.ndarray, alpha: float, eta: float):
    """One SGD step in place, theta <- theta - eta * grad; returns the
    pre-update loss (per agent). A non-finite loss raises TrainingFault;
    its ``agent`` is the first such agent, and the agents before it have
    stepped, as if each had stepped alone in turn."""
    loss, grads = loss_and_gradients(net, target_net, states, actions,
                                     rewards, next_states, alpha)
    bad = np.flatnonzero(~np.isfinite(loss))
    stepped = slice(bad[0]) if len(bad) else slice(None)
    for name, grad in grads.items():
        grad *= eta
        getattr(net, name)[stepped] -= grad[stepped]
    if len(bad):
        fault = TrainingFault("non-finite training loss %r"
                              % float(np.ravel(loss)[bad[0]]))
        fault.agent = int(bad[0])
        raise fault
    return loss


def select_action(net: QNetwork, states: np.ndarray, epsilon: float,
                  rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Epsilon-greedy for each agent of a stack: agent k draws
    ``random()``, then maybe its action, from ``rngs[k]``; the greedy
    agents share one forward pass and break ties toward index 0."""
    if not 0.0 <= epsilon <= 1.0:
        raise ContractViolation("epsilon must be in [0, 1]")
    states = np.asarray(states, dtype=float)
    if not len(states) == len(rngs) == len(net):
        raise ContractViolation("need one state and one stream per agent")
    actions = np.zeros(len(rngs), dtype=int)
    greedy = []
    for k, rng in enumerate(rngs):
        if epsilon > 0.0 and rng.random() < epsilon:
            actions[k] = rng.integers(net.output_size)
        else:
            greedy.append(k)
    if greedy:
        q, _ = forward_batch(net, states[:, None, :])
        actions[greedy] = np.argmax(q[greedy, 0], axis=-1)
    return actions
