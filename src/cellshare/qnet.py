"""Plain-numpy Q-network: two ReLU hidden layers, identity output.

Backpropagation is written out by hand so the analytic gradients can be
checked against central finite differences; keeping the whole update in
float64 numpy also makes runs bit-reproducible for a fixed seed.

Weights may carry a leading agent axis (``QNetwork.stack``; ``net[k]`` is
agent k's view) that every function broadcasts over, with (K, B, ...)
minibatches; ``@`` on swapped axes runs one product per agent, so each
agent's slice equals its unstacked call bit for bit.

Every array of a pass (layer outputs, deltas, one gradient per
parameter) lives in a ``Workspace`` made for one minibatch shape. A
training run builds two next to its stacks, one for the learners'
minibatches and one for the acting pass (one row per agent), and passes
them to each ``train_step`` and ``select_action``, which then allocate
no activation, delta or gradient of their own; the run owns them, a
``QNetwork`` never holds one. ``q_forward`` and ``loss_and_gradients``,
the reference passes the tests check against, run the same kernels in a
workspace made for their call, so what they return belongs to the
caller.

A stacked step is all-or-nothing: if any agent's loss is non-finite,
``train_step`` raises before the backward pass and no weight changes.
Otherwise the backward pass fills every gradient from the pre-update
weights, and only then does the step change a weight.
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


class Workspace:
    """The arrays one minibatch shape of ``net``'s architecture passes
    through: (..., batch) rows of layer outputs (the hidden ones later
    hold their ReLU masks, the Q-values dL/dq), bias spreads,
    hidden-layer deltas, and one gradient array per parameter. The
    target pass and the online pass share the layer outputs."""

    def __init__(self, net: QNetwork, batch: int):
        lead = net.w1.shape[:-2] + (int(batch),)
        shapes = [lead + (n,) for n in net.hidden + (net.output_size,)]
        self.outs = [np.empty(shape) for shape in shapes]
        self.spreads = _shared(shapes)
        self.dz1, self.dz2 = (np.empty(shape) for shape in shapes[:2])
        self.grads = {name: np.empty(param.shape)
                      for name, param in net.parameters().items()}


def _shared(shapes):
    """Arrays of the given shapes that are views of one array sized for
    the largest, so only one of them may be in use at a time."""
    sizes = [math.prod(shape) for shape in shapes]
    flat = np.empty(max(sizes))
    return [flat[:size].reshape(shape) for size, shape in zip(sizes, shapes)]


def _rows(net: QNetwork, x) -> np.ndarray:
    """``x`` as float rows of the network's input length."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[-1] != net.input_size:
        raise ContractViolation(
            "state length %d does not match network input %d"
            % (x.shape[-1], net.input_size))
    return x


def _dense(x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray,
           spread: np.ndarray) -> np.ndarray:
    """``out`` = x @ w.T + b, row by row. The bias is spread over the rows
    first: a broadcast add would take a buffer of numpy's on every call."""
    np.matmul(x, w.swapaxes(-1, -2), out=out)
    np.copyto(spread, b[..., None, :])
    out += spread
    return out


def _forward(net: QNetwork, x: np.ndarray, ws: Workspace) -> np.ndarray:
    """Q-values of the rows ``x`` into ``ws.outs[2]``, the hidden
    activations into ``ws.outs[0]`` and ``ws.outs[1]``; returns the
    Q-values."""
    (a1, a2, q), spreads = ws.outs, ws.spreads
    if q.shape[:-1] != x.shape[:-1]:
        raise ContractViolation("workspace made for another minibatch shape")
    np.maximum(_dense(x, net.w1, net.b1, a1, spreads[0]), 0.0, out=a1)
    np.maximum(_dense(a1, net.w2, net.b2, a2, spreads[1]), 0.0, out=a2)
    return _dense(a2, net.w3, net.b3, q, spreads[2])


def q_forward(net: QNetwork, x) -> np.ndarray:
    """Q-values of (B, input_size) rows, or of (K, B, input_size) rows
    for a K-agent stack; a single state counts as one row."""
    x = _rows(net, x)
    return _forward(net, x, Workspace(net, x.shape[-2]))


def _loss(net: QNetwork, target_net: QNetwork, states, actions: np.ndarray,
          rewards: np.ndarray, next_states, alpha: float,
          ws: Workspace) -> np.ndarray:
    """Mean squared TD error (per agent for a stack). Leaves the online
    pass's hidden activations and dL/dq in ``ws.outs``."""
    if actions.shape[-1] < 1:
        raise ContractViolation("minibatch must contain at least one item")
    if np.any(actions < 0) or np.any(actions >= net.output_size):
        raise ContractViolation("action index outside the network head")
    # episodes are fixed length, so every target bootstraps
    q_next = _forward(target_net, _rows(target_net, next_states), ws)
    y = rewards + alpha * q_next.max(axis=-1)
    q = _forward(net, states, ws)
    # Q-values indexed by transition, over all agents of a stack
    rows, acts, b = np.arange(actions.size), actions.ravel(), actions.shape[-1]
    diff = y - q.reshape(rows.size, -1)[rows, acts].reshape(actions.shape)
    loss = np.mean(diff ** 2, axis=-1)
    dq = q  # dL/dq takes the Q-values' array
    dq.fill(0.0)
    dq.reshape(rows.size, -1)[rows, acts] = (-2.0 * diff / b).ravel()
    return float(loss) if loss.ndim == 0 else loss


def _gradients(net: QNetwork, x: np.ndarray,
               ws: Workspace) -> Dict[str, np.ndarray]:
    """Backprop dL/dq (in ``ws.outs``) from the output layer down into
    ``ws.grads``, every gradient from ``net``'s current weights; returns
    ``ws.grads``."""
    (a1, a2, dq), grads = ws.outs, ws.grads
    np.matmul(dq.swapaxes(-1, -2), a2, out=grads["w3"])
    np.add.reduce(dq, axis=-2, out=grads["b3"])
    dz = np.matmul(dq, net.w3, out=ws.dz2)
    # ReLU'(z) from its output: a > 0 exactly where z > 0. The mask is
    # 1.0/0.0 in the activation's own array, where a bool mask would
    # need a cast buffer in the product.
    dz *= np.greater(a2, 0.0, out=a2)
    np.matmul(dz.swapaxes(-1, -2), a1, out=grads["w2"])
    np.add.reduce(dz, axis=-2, out=grads["b2"])
    dz = np.matmul(dz, net.w2, out=ws.dz1)
    dz *= np.greater(a1, 0.0, out=a1)
    np.matmul(dz.swapaxes(-1, -2), x, out=grads["w1"])
    np.add.reduce(dz, axis=-2, out=grads["b1"])
    return grads


def loss_and_gradients(net: QNetwork, target_net: QNetwork,
                       states: np.ndarray, actions: np.ndarray,
                       rewards: np.ndarray, next_states: np.ndarray,
                       alpha: float):
    """Mean squared TD error of the minibatch (one row per transition)
    and its gradients w.r.t. net parameters; per agent for a stack."""
    x = _rows(net, states)
    ws = Workspace(net, x.shape[-2])
    loss = _loss(net, target_net, x, actions, rewards, next_states, alpha,
                 ws)
    return loss, _gradients(net, x, ws)


def train_step(net: QNetwork, target_net: QNetwork, states: np.ndarray,
               actions: np.ndarray, rewards: np.ndarray,
               next_states: np.ndarray, alpha: float, eta: float,
               workspace: Workspace):
    """One SGD step in place, theta <- theta - eta * grad; returns the
    pre-update loss (per agent). If any agent's loss is non-finite, it
    raises TrainingFault (naming the first such loss) before the backward
    pass, and no agent steps. ``workspace`` holds the step's arrays."""
    x = _rows(net, states)
    loss = _loss(net, target_net, x, actions, rewards, next_states, alpha,
                 workspace)
    bad = np.flatnonzero(~np.isfinite(loss))
    if len(bad):
        raise TrainingFault("non-finite training loss %r"
                            % float(np.ravel(loss)[bad[0]]))
    for name, grad in _gradients(net, x, workspace).items():
        grad *= eta
        getattr(net, name)[...] -= grad
    return loss


def select_action(net: QNetwork, states: np.ndarray, epsilon: float,
                  rngs: Sequence[np.random.Generator],
                  workspace: Workspace) -> np.ndarray:
    """Epsilon-greedy for each agent of a stack: agent k draws
    ``random()``, then maybe its action, from ``rngs[k]``; the greedy
    agents share one forward pass, in ``workspace`` (made for the stack
    with batch 1), and break ties toward index 0."""
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
        q = _forward(net, _rows(net, states[:, None, :]), workspace)
        actions[greedy] = np.argmax(q[:, 0], axis=-1)[greedy]
    return actions
