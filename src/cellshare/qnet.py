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

A minibatch must hold integer actions and one action, reward and next
state per state row; anything else is refused before either forward
pass. A stacked step is all-or-nothing: if any agent's loss is
non-finite, ``train_step`` raises before the backward pass and no
weight changes. Otherwise the backward pass fills every gradient from
the pre-update weights, and only then does the step change a weight.

At desk sizes a step's arithmetic is small, so its cost is mostly
numpy dispatch: the step path takes no conversion its inputs do not
need, gathers and scatters the taken Q-values through one flat index
per row (``Workspace.base``), checks with mask counts, and builds the
TD target in place; each is the reference arithmetic, so the bits are
the same.
"""

from __future__ import annotations

import copy
import math
from typing import Dict, Sequence, Tuple

import numpy as np

from .errors import ContractViolation, TrainingFault

HIDDEN_1 = 56
HIDDEN_2 = 56
_FLOAT = np.dtype(float)


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
    hidden-layer deltas, one gradient array per parameter, and each
    row's flat index of its first (``base``) and taken (``index``)
    Q-value. The target pass and the online pass share the layer
    outputs."""

    def __init__(self, net: QNetwork, batch: int):
        lead = net.w1.shape[:-2] + (int(batch),)
        shapes = [lead + (n,) for n in net.hidden + (net.output_size,)]
        self.outs = [np.empty(shape) for shape in shapes]
        self.spreads = _shared(shapes)
        self.dz1, self.dz2 = (np.empty(shape) for shape in shapes[:2])
        self.grads = {name: np.empty(param.shape)
                      for name, param in net.parameters().items()}
        self.base = np.arange(0, math.prod(lead) * net.output_size,
                              net.output_size).reshape(lead)
        self.index = np.empty(lead, dtype=np.intp)


def _shared(shapes):
    """Arrays of the given shapes that are views of one array sized for
    the largest, so only one of them may be in use at a time."""
    sizes = [math.prod(shape) for shape in shapes]
    flat = np.empty(max(sizes))
    return [flat[:size].reshape(shape) for size, shape in zip(sizes, shapes)]


def _rows(net: QNetwork, x) -> np.ndarray:
    """``x`` as float rows of the network's input length; an array that
    already is one comes back as it is, as the conversion would return
    it."""
    if type(x) is not np.ndarray or x.dtype is not _FLOAT or x.ndim < 2:
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


def _loss(net: QNetwork, target_net: QNetwork, states: np.ndarray,
          actions: np.ndarray, rewards: np.ndarray, next_states,
          alpha: float, ws: Workspace) -> np.ndarray:
    """Mean squared TD error (per agent for a stack) of the rows
    ``states``. Leaves the online pass's hidden activations and dL/dq in
    ``ws.outs``. Integer actions, rewards and next states must come one
    per row of ``states``; anything else is refused before either
    forward pass."""
    lead = states.shape[:-1]
    next_states = _rows(target_net, next_states)
    if actions.dtype.kind not in "iu":
        raise ContractViolation("action indices must be integers, got %s"
                                % actions.dtype)
    shapes = (actions.shape, getattr(rewards, "shape", None),
              next_states.shape[:-1])
    if shapes != (lead, lead, lead):
        raise ContractViolation(
            "actions, rewards and next states must come one per state "
            "row, shape %r; got %r, %r and %r" % ((lead,) + shapes))
    b = lead[-1]
    if b < 1:
        raise ContractViolation("minibatch must contain at least one item")
    if np.count_nonzero(actions < 0) \
            or np.count_nonzero(actions >= net.output_size):
        raise ContractViolation("action index outside the network head")
    # episodes are fixed length, so every target bootstraps:
    # y = rewards + alpha * max Q'
    y = np.maximum.reduce(_forward(target_net, next_states, ws), axis=-1)
    y *= alpha
    y += rewards
    q = _forward(net, states, ws)
    # the flat index of each row's taken Q-value (a uint64 action, in
    # range, passes exactly through numpy's float loop)
    index = np.add(ws.base, actions, out=ws.index, casting="unsafe")
    diff = y  # y - Q(s, a), in place
    diff -= q.take(index)
    loss = np.add.reduce(np.square(diff), axis=-1) / b
    dq = q  # dL/dq takes the Q-values' array
    dq.fill(0.0)
    diff *= -2.0  # the taken Q-values' dL/dq, -2 * diff / b
    diff /= b
    dq.put(index, diff)
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
    finite = np.isfinite(loss)
    if np.count_nonzero(finite) < finite.size:
        bad = np.flatnonzero(~finite)
        raise TrainingFault("non-finite training loss %r"
                            % float(np.ravel(loss)[bad[0]]))
    for name, grad in _gradients(net, x, workspace).items():
        grad *= eta
        param = getattr(net, name)
        param -= grad
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
    if type(states) is not np.ndarray or states.dtype is not _FLOAT:
        states = np.asarray(states, dtype=float)
    if not len(states) == len(rngs) == len(net):
        raise ContractViolation("need one state and one stream per agent")
    greedy = range(len(rngs))
    if epsilon > 0.0:
        actions = np.zeros(len(rngs), dtype=int)
        greedy = []
        for k, rng in enumerate(rngs):
            if rng.random() < epsilon:
                actions[k] = rng.integers(net.output_size)
            else:
                greedy.append(k)
        if not greedy:
            return actions
    q = _forward(net, _rows(net, states[:, None, :]), workspace)
    best = q[:, 0].argmax(axis=-1)
    if len(greedy) == len(rngs):
        return best
    actions[greedy] = best[greedy]
    return actions
