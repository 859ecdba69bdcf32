"""Forward pass, hand-checked backprop, SGD step and action selection."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (finite_difference_grads, gradient_mismatch,
                      random_batch, same_weights)

from cellshare.errors import ContractViolation, TrainingFault
from cellshare.qnet import (
    QNetwork,
    Workspace,
    loss_and_gradients,
    q_forward,
    select_action,
    train_step,
)


def _row(state, action, reward, next_state):
    """A one-row minibatch."""
    return (np.array([state], dtype=float), np.array([action]),
            np.array([reward], dtype=float),
            np.array([next_state], dtype=float))


def _random_batch(rng, net, size):
    return random_batch(rng, net.input_size, net.output_size, size)


def test_sizes_and_zero_init():
    net = QNetwork(12, 64)
    assert net.hidden == (56, 56)
    assert net.w1.shape == (56, 12)
    assert net.w3.shape == (64, 56)
    assert net.parameter_count() == 7568
    assert all(np.all(p == 0.0) for p in net.parameters().values())
    with pytest.raises(ContractViolation):
        QNetwork(0, 4)


def test_random_init_is_fan_in_scaled():
    rng = np.random.default_rng(0)
    net = QNetwork(16, 8, rng=rng)
    assert np.all(np.abs(net.w1) <= QNetwork.INIT_GAIN / 4.0)
    assert np.all(np.abs(net.w2) <= QNetwork.INIT_GAIN / np.sqrt(56.0))
    assert np.any(net.w1 != 0.0)
    assert np.all(net.b1 == 0.0) and np.all(net.b3 == 0.0)
    flat = QNetwork(16, 8, rng=np.random.default_rng(1), init_gain=0.0)
    assert np.all(flat.w1 == 0.0) and np.all(flat.w3 == 0.0)


def test_copy_load_and_equality():
    rng = np.random.default_rng(2)
    net = QNetwork(6, 4, rng=rng)
    dup = net.copy()
    assert same_weights(dup, net)
    dup.w2[0, 0] += 1.0
    assert not same_weights(dup, net)
    dup.load_from(net)
    assert same_weights(dup, net)
    with pytest.raises(ContractViolation):
        net.load_from(QNetwork(6, 5))


def test_forward_hand_example():
    net = QNetwork(2, 2, hidden=(2, 2))
    net.w1 = np.eye(2)
    net.b1 = np.array([0.0, -1.0])
    net.w2 = np.eye(2)
    net.w3 = np.eye(2)
    net.b3 = np.array([0.5, 0.0])
    # x=[1,2]: z1=[1,1] -> a2=[1,1] -> q=[1.5,1]; a single state is a row
    assert np.array_equal(q_forward(net, [1.0, 2.0]), [[1.5, 1.0]])
    # both hidden units cut off: the output falls back to b3
    assert np.array_equal(q_forward(net, [-3.0, 0.5]), [[0.5, 0.0]])
    q = q_forward(net, [[1.0, 2.0], [-3.0, 0.5]])
    assert np.array_equal(q, [[1.5, 1.0], [0.5, 0.0]])
    with pytest.raises(ContractViolation):
        q_forward(net, [1.0, 2.0, 3.0])


def test_td_targets_bootstrap_every_row():
    """With a zero online network and one distinct action per row, the
    output-bias gradient of row i's action is -2 * y_i / B: at B = 2,
    exactly -y_i."""
    net, target = QNetwork(3, 4), QNetwork(3, 4)
    rng = np.random.default_rng(3)
    states, nexts = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    actions = np.array([3, 1])
    rewards = np.array([1.0, -100.0])

    def targets():
        _, grads = loss_and_gradients(net, target, states, actions, rewards,
                                      nexts, 0.9)
        return -grads["b3"][actions]

    # zero target network: targets are the raw rewards
    assert np.array_equal(targets(), rewards)
    target.b3 = np.array([1.0, 3.0, 2.0, -5.0])
    # max Q is 3 for any state, and every row bootstraps
    assert np.array_equal(targets(), rewards + 0.9 * 3.0)


def test_loss_and_gradients_zero_network():
    net = QNetwork(3, 4)
    target = QNetwork(3, 4)
    batch = _row([1.0, -2.0, 0.5], 2, -2.0, [0.0, 0.0, 0.0])
    loss, grads = loss_and_gradients(net, target, *batch, 0.995)
    # q = 0 and y = -2, so loss = 4; the only nonzero gradient is the
    # output bias of the taken action (every activation is zero)
    assert loss == pytest.approx(4.0)
    assert np.array_equal(grads["b3"], [0.0, 0.0, 4.0, 0.0])
    for name in ("w1", "b1", "w2", "b2", "w3"):
        assert np.all(grads[name] == 0.0)
    empty = tuple(column[:0] for column in batch)
    with pytest.raises(ContractViolation):
        loss_and_gradients(net, target, *empty, 0.995)
    bad = _row([1.0, -2.0, 0.5], 4, 0.0, [0.0, 0.0, 0.0])
    with pytest.raises(ContractViolation):
        loss_and_gradients(net, target, *bad, 0.995)


def test_gradients_match_finite_differences():
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        net = QNetwork(4, 4, hidden=(6, 5), rng=rng, init_gain=0.5)
        target = QNetwork(4, 4, hidden=(6, 5), rng=rng, init_gain=0.5)
        batch = _random_batch(rng, net, 7)
        _, analytic = loss_and_gradients(net, target, *batch, 0.9)
        numeric = finite_difference_grads(net, target, batch, 0.9)
        assert gradient_mismatch(analytic, numeric) < 1e-6


def test_train_step_is_plain_sgd():
    rng = np.random.default_rng(5)
    net = QNetwork(4, 4, hidden=(6, 5), rng=rng, init_gain=0.5)
    target = net.copy()
    batch = _random_batch(rng, net, 8)
    manual = net.copy()
    loss_ref, grads = loss_and_gradients(manual, target, *batch, 0.995)
    for name, grad in grads.items():
        getattr(manual, name)[...] -= 0.01 * grad
    loss = train_step(net, target, *batch, 0.995, 0.01, Workspace(net, 8))
    assert loss == loss_ref
    assert same_weights(net, manual)


def test_eta_zero_changes_nothing():
    rng = np.random.default_rng(6)
    net = QNetwork(4, 4, hidden=(6, 5), rng=rng)
    before = net.copy()
    train_step(net, before, *_random_batch(rng, net, 4), 0.995, 0.0,
               Workspace(net, 4))
    assert same_weights(net, before)


def test_train_step_raises_on_nonfinite_loss():
    net = QNetwork(2, 2)
    bad = _row([1.0, 1.0], 0, np.inf, [1.0, 1.0])
    with np.errstate(invalid="ignore"):
        with pytest.raises(TrainingFault):
            train_step(net, net.copy(), *bad, 0.995, 0.01,
                       Workspace(net, 1))


@pytest.mark.parametrize("bad", ["rewards (B,)", "rewards (K, 1)",
                                 "float actions", "bool actions"])
def test_malformed_minibatch_is_refused_before_any_pass(bad):
    """Rewards that would broadcast against (K, B) and actions that are
    not integers are refused before either forward pass: no weight and
    no workspace array changes."""
    nets, targets, _batches, stacked = _stack_case(2, 3, 4, 4, 4, 16)
    net, target = QNetwork.stack(nets), QNetwork.stack(targets)
    states, actions, rewards, next_states = stacked
    if bad == "rewards (B,)":
        rewards = rewards[0]
    elif bad == "rewards (K, 1)":
        rewards = rewards[:, :1]
    elif bad == "float actions":
        actions = actions.astype(float)
    else:
        actions = actions > 0
    before = net.copy()
    workspace = Workspace(net, 4)
    # a pass would overwrite these
    written = workspace.outs + list(workspace.grads.values())
    for array in written:
        array.fill(7.0)
    with pytest.raises(ContractViolation):
        train_step(net, target, states, actions, rewards, next_states, 0.9,
                   0.05, workspace)
    with pytest.raises(ContractViolation):
        loss_and_gradients(net, target, states, actions, rewards,
                           next_states, 0.9)
    assert same_weights(net, before)
    assert all(np.all(array == 7.0) for array in written)


_sgd_cases = st.tuples(st.integers(1, 4), st.integers(1, 8),
                       st.integers(1, 9),
                       st.sampled_from([np.int64, np.int32, np.int8,
                                        np.uint8, np.uint64]),
                       st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None)
@given(_sgd_cases)
def test_run_owned_train_step_is_reference_gradients_plus_sgd(case):
    """Through one workspace, call after call, a stacked step's losses
    and weights equal loss_and_gradients on the same weights followed
    by a hand-written SGD update, bit for bit, for any integer action
    dtype and with the head's first and last actions taken."""
    agents, batch, n_actions, dtype, seed = case
    rng = np.random.default_rng(seed)
    nets = [QNetwork(5, n_actions, hidden=(6, 4), rng=rng, init_gain=1.0)
            for _ in range(agents)]
    net = QNetwork.stack(nets)
    target = QNetwork.stack([QNetwork(5, n_actions, hidden=(6, 4), rng=rng,
                                      init_gain=1.0) for _ in range(agents)])
    manual = net.copy()
    workspace = Workspace(net, batch)
    for _ in range(3):
        lead = (agents, batch)
        actions = rng.integers(n_actions, size=lead)
        actions.flat[0], actions.flat[-1] = 0, n_actions - 1
        actions = actions.astype(dtype)
        minibatch = (rng.normal(size=lead + (5,)), actions,
                     rng.normal(size=lead), rng.normal(size=lead + (5,)))
        want, grads = loss_and_gradients(manual, target, *minibatch, 0.9)
        for name, grad in grads.items():
            param = getattr(manual, name)
            param -= 0.05 * grad
        losses = train_step(net, target, *minibatch, 0.9, 0.05, workspace)
        assert np.array_equal(losses, want)
        assert same_weights(net, manual)


def _one_agent(state, net, epsilon, rng):
    """select_action on a one-agent stack; the agent's action."""
    actions = select_action(net, [state], epsilon, [rng], Workspace(net, 1))
    assert actions.shape == (1,)
    return actions[0]


def test_select_action_greedy_and_ties():
    net = QNetwork.stack([QNetwork(2, 4)])
    rng = np.random.default_rng(7)
    # all-zero head ties; the lowest index wins
    assert _one_agent([0.3, -0.2], net, 0.0, rng) == 0
    net.b3[0] = [0.0, 2.0, 2.0, 1.0]
    assert _one_agent([0.3, -0.2], net, 0.0, rng) == 1
    for bad_eps in (-0.1, 1.0001):
        with pytest.raises(ContractViolation):
            _one_agent([0.3, -0.2], net, bad_eps, rng)


def test_select_action_explores_uniformly():
    net = QNetwork.stack([QNetwork(2, 16)])
    rng = np.random.default_rng(8)
    n = 16000
    counts = np.zeros(16)
    for _ in range(n):
        counts[_one_agent([0.0, 0.0], net, 1.0, rng)] += 1
    expected = n / 16.0
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < 37.70  # 99.9th percentile, 15 dof


def test_greedy_ignores_rng_state():
    net = QNetwork.stack([QNetwork(2, 4)])
    net.b3[0] = [0.0, 1.0, 0.0, 0.0]
    r1 = np.random.default_rng(9)
    r2 = np.random.default_rng(10)
    picks = {_one_agent([0.1, 0.1], net, 0.0, r) for r in (r1, r2)}
    assert picks == {1}


# --- a stack of K agents against unstacked calls on each agent ----------

_stacks = st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 5),
                    st.integers(1, 5), st.integers(1, 6),
                    st.integers(0, 2 ** 32 - 1))


def _stack_case(agents, inputs, h1, h2, size, seed):
    """A random K-agent stack, its target stack and (K, B) minibatches
    drawn per agent."""
    rng = np.random.default_rng(seed)
    outputs = 1 + int(rng.integers(6))
    nets = [QNetwork(inputs, outputs, hidden=(h1, h2), rng=rng,
                     init_gain=1.0) for _ in range(agents)]
    targets = [QNetwork(inputs, outputs, hidden=(h1, h2), rng=rng,
                        init_gain=1.0) for _ in range(agents)]
    for net in nets + targets:
        for bias in (net.b1, net.b2, net.b3):
            bias[...] = rng.normal(size=bias.shape)
    batches = [random_batch(rng, inputs, outputs, size)
               for _ in range(agents)]
    stacked = tuple(np.stack(column) for column in zip(*batches))
    return nets, targets, batches, stacked


@settings(max_examples=60, deadline=None)
@given(_stacks)
def test_stacked_forward_and_gradients_equal_per_agent_calls(case):
    nets, targets, batches, stacked = _stack_case(*case)
    net, target = QNetwork.stack(nets), QNetwork.stack(targets)
    q = q_forward(net, stacked[0])
    losses, grads = loss_and_gradients(net, target, *stacked, 0.9)
    assert losses.shape == (len(nets),)
    for k, (one, one_target, batch) in enumerate(
            zip(nets, targets, batches)):
        assert np.array_equal(q[k], q_forward(one, batch[0]))
        assert np.array_equal(q_forward(net[k], batch[0]), q[k])
        loss, grad = loss_and_gradients(one, one_target, *batch, 0.9)
        assert losses[k] == loss
        for name in grad:
            assert np.array_equal(grads[name][k], grad[name])


@settings(max_examples=60, deadline=None)
@given(_stacks)
def test_stacked_train_step_equals_per_agent_steps(case):
    nets, targets, batches, stacked = _stack_case(*case)
    size = case[4]
    net, target = QNetwork.stack(nets), QNetwork.stack(targets)
    views = [net[k] for k in range(len(nets))]
    losses = train_step(net, target, *stacked, 0.9, 0.05,
                        Workspace(net, size))
    for k, (one, one_target, batch) in enumerate(
            zip(nets, targets, batches)):
        assert losses[k] == train_step(one, one_target, *batch, 0.9, 0.05,
                                       Workspace(one, size))
        assert same_weights(net[k], one)
        # views taken before the step see the stack's update
        assert same_weights(views[k], one)


def test_faulting_stacked_step_changes_no_weights():
    nets, targets, _batches, stacked = _stack_case(3, 4, 5, 5, 4, 11)
    net, target = QNetwork.stack(nets), QNetwork.stack(targets)
    before = net.copy()
    rewards = stacked[2].copy()
    rewards[1, 0] = np.inf
    rewards[2, 0] = np.nan
    with np.errstate(invalid="ignore"):
        # the message names the first bad agent's loss
        with pytest.raises(TrainingFault,
                           match="non-finite training loss inf"):
            train_step(net, target, stacked[0], stacked[1], rewards,
                       stacked[3], 0.9, 0.05, Workspace(net, 4))
    # no agent stepped, agent 0 (whose loss was finite) included
    assert same_weights(net, before)


@settings(max_examples=40, deadline=None)
@given(_stacks, st.integers(0, 3))
def test_one_workspace_through_consecutive_steps(case, fault_at):
    """A stack stepped through one workspace, call after call on fresh
    minibatches (one of them faulting, and at least one after it),
    equals per-agent steps on unstacked networks, where the faulting
    call steps no agent: nothing a call leaves in the workspace leaks
    into the next."""
    agents, inputs, _h1, _h2, size, seed = case
    nets, targets, _batches, _stacked = _stack_case(*case)
    net, target = QNetwork.stack(nets), QNetwork.stack(targets)
    workspace = Workspace(net, size)
    rng = np.random.default_rng([seed, 1])
    for call in range(5):
        batches = [random_batch(rng, inputs, net.output_size, size)
                   for _ in range(agents)]
        stacked = [np.stack(column) for column in zip(*batches)]
        views = [net[k] for k in range(agents)]
        if call == fault_at:
            stacked[2][int(rng.integers(agents)), 0] = np.inf
            with np.errstate(invalid="ignore"):
                with pytest.raises(TrainingFault):
                    train_step(net, target, *stacked, 0.9, 0.05, workspace)
        else:
            losses = train_step(net, target, *stacked, 0.9, 0.05, workspace)
            for k in range(agents):
                assert losses[k] == train_step(
                    nets[k], targets[k], *batches[k], 0.9, 0.05,
                    Workspace(nets[k], size))
        for k in range(agents):
            assert same_weights(net[k], nets[k])
            # views taken before the step see the stack's update
            assert same_weights(views[k], nets[k])
        if call == 2:
            target.load_from(net)
            for one, one_target in zip(nets, targets):
                one_target.load_from(one)


def test_run_owned_workspace_step_allocates_no_batch_arrays():
    """Every (K, B, .) intermediate and gradient of a step lives in the
    workspace: after a warm-up, a K = 19, B = 32 step at the desk sizes
    allocates under 64 KB (one that made its own took about 2.8 MB)."""
    rng = np.random.default_rng(12)
    agents, batch = 19, 32
    net = QNetwork.stack([QNetwork(12, 64, rng=rng) for _ in range(agents)])
    target = net.copy()
    workspace = Workspace(net, batch)
    minibatch = tuple(np.stack(column) for column in zip(
        *(random_batch(rng, 12, 64, batch) for _ in range(agents))))
    train_step(net, target, *minibatch, 0.995, 0.01, workspace)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        train_step(net, target, *minibatch, 0.995, 0.01, workspace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 64 * 1024


def test_run_owned_workspace_greedy_pass_allocates_no_layer_arrays():
    """The acting pass's layer outputs and bias spreads live in the
    run's workspace: a greedy K = 19 call at the desk sizes allocates
    about 2 KB (one that made its own arrays took about 55 KB)."""
    rng = np.random.default_rng(14)
    agents = 19
    net = QNetwork.stack([QNetwork(12, 64, rng=rng) for _ in range(agents)])
    workspace = Workspace(net, 1)
    states = rng.normal(size=(agents, 12))
    rngs = [np.random.default_rng(k) for k in range(agents)]
    select_action(net, states, 0.0, rngs, workspace)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        select_action(net, states, 0.0, rngs, workspace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 16 * 1024


def test_workspace_must_fit_the_minibatch():
    nets, targets, _batches, stacked = _stack_case(2, 3, 4, 4, 5, 13)
    net, target = QNetwork.stack(nets), QNetwork.stack(targets)
    with pytest.raises(ContractViolation):
        train_step(net, target, *stacked, 0.9, 0.05, Workspace(net, 4))
    rngs = [np.random.default_rng(k) for k in range(2)]
    with pytest.raises(ContractViolation):
        select_action(net, stacked[0][:, 0], 0.0, rngs, Workspace(net, 2))
    with pytest.raises(ContractViolation):
        select_action(net, stacked[0][:, 0], 0.0, rngs, Workspace(net[0], 1))


@pytest.mark.parametrize("agents", [None, 3])
def test_workspace_holds_one_gradient_array_per_parameter(agents):
    net = QNetwork(12, 64, rng=np.random.default_rng(15))
    if agents:
        net = QNetwork.stack([net] * agents)
    grads = Workspace(net, 8).grads
    assert list(grads) == list(QNetwork._PARAMS)
    for name, grad in grads.items():
        assert grad.shape == getattr(net, name).shape
    for one, other in itertools.combinations(grads.values(), 2):
        assert not np.shares_memory(one, other)


@settings(max_examples=60, deadline=None)
@given(_stacks, st.sampled_from([0.0, 1e-12, 1.0, 0.3, 0.7]))
def test_stacked_select_action_equals_per_agent_choices(case, epsilon):
    """Also where every agent acts greedily, at epsilon 0 (no draws) and
    at 1e-12 (a draw each): those calls return the greedy pass's own
    actions, which must still be one int per agent that no later pass
    through the workspace changes."""
    nets, _targets, batches, _stacked = _stack_case(*case)
    net = QNetwork.stack(nets)
    states = np.array([batch[0][0] for batch in batches])
    seed = case[-1]
    rngs = [np.random.default_rng([seed, k]) for k in range(len(nets))]
    workspace = Workspace(net, 1)
    actions = select_action(net, states, epsilon, rngs, workspace)
    assert actions.shape == (len(nets),) and actions.dtype == int
    kept = actions.copy()
    select_action(net, -states, 0.0, rngs, workspace)
    assert np.array_equal(actions, kept)
    for k, one in enumerate(nets):
        # the per-agent rule: random(), then maybe integers(), from the
        # agent's own stream; otherwise the lowest argmax of its Q-values
        rng = np.random.default_rng([seed, k])
        if epsilon > 0.0 and rng.random() < epsilon:
            want = rng.integers(one.output_size)
        else:
            want = np.argmax(q_forward(one, states[k]))
        assert actions[k] == want
        # and every stream was left where the per-agent rule leaves it
        assert rngs[k].random() == rng.random()
    if epsilon in (0.0, 1e-12):
        assert np.array_equal(actions, [np.argmax(q_forward(one, state))
                                        for one, state in zip(nets, states)])
