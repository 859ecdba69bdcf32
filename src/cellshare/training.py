"""Training orchestration: one acting loop, shared by training and
greedy evaluation, and the run artifacts.

``_rollout`` acts every step: the acting stack picks each cell's action,
``Environment.step`` advances, and the caller's ``learn`` stage returns
the rows to log (evaluation's learns nothing). Training's stages are
strictly ordered: after the act, each cell's transition is stored once
in the run's ``TransitionTable`` (its learner's ring in the run's one
``ReplayBuffer`` takes one id per user, ctde's in cell order), the share
rule's (sender, user, receiver) mask of experiences is delivered as ids
(the barrier), then the learner stack (one network per cell, or ctde's
one central network) takes one stacked gradient step on one minibatch
per ring, gated until every ring holds a batch, with its arrays in the
run's one ``qnet.Workspace``. What differs between frameworks (own or
common training reward, the share rule, the learners) comes from
``sharing.BEHAVIOUR``; each cell's ledger charge follows from the step's
share mask and that row. A non-finite loss ends the run with a
``TrainingFault`` carrying the partial artifacts; its step changed no
weight and is not counted in ``train_step_count``, and their
``final_epsilon`` is the one it acted at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import control, sharing
from .config import RunConfig, validate_config
from .environment import Environment
from .errors import ContractViolation, TrainingFault
from .metrics import MetricsLog, StepRow
from .qnet import QNetwork, Workspace, select_action, train_step
from .replay import ReplayBuffer, TransitionTable, experience_scalars
from .sharing import OverheadLedger


@dataclass
class RunArtifacts:
    framework: str
    seed: int
    config: RunConfig
    log: MetricsLog
    ledger: OverheadLedger
    agent_nets: QNetwork                  # the (L, ...) stack that acts
    central_net: Optional[QNetwork] = None  # ctde's learner (a view)
    train_step_count: int = 0
    final_epsilon: float = 0.0  # after the run, or at its faulting step


def _rollout(env: Environment, agents: QNetwork,
             rngs: Sequence[np.random.Generator], epsilons: Sequence[float],
             steps: int, log: MetricsLog, learn: Callable) -> None:
    """The one acting loop: an episode of ``steps`` steps per epsilon.

    Each step the stack acts in one acting workspace, the environment
    advances, and ``learn(step, states, actions, result, next_states)``
    returns the step's per-cell rewards, losses, sent and received
    counts, logged as one row per cell."""
    acting = Workspace(agents, 1)
    for episode, epsilon in enumerate(epsilons):
        env.reset()
        states = env.states()
        for t in range(steps):
            actions = select_action(agents, states, epsilon, rngs, acting)
            result = env.step(actions)
            next_states = env.states()
            rewards, losses, sent, received = learn(
                episode * steps + t, states, actions, result, next_states)
            log.step_rows.extend(
                StepRow(episode, t, ell, reward, loss, epsilon, tx, rx)
                for ell, (reward, loss, tx, rx)
                in enumerate(zip(rewards, losses, sent, received)))
            states = next_states
        log.add_episode(episode, result.sinr)  # the last step's SINRs


def run_training(cfg: RunConfig, framework: str, seed: int) -> RunArtifacts:
    """Full training run of one framework; deterministic in (cfg, seed)."""
    if framework not in sharing.FRAMEWORKS:
        raise ContractViolation("unknown framework %r (expected one of %s)"
                                % (framework, ", ".join(sharing.FRAMEWORKS)))
    validate_config(cfg)
    behaviour = sharing.BEHAVIOUR[framework]
    net_cfg, tr_cfg, sh_cfg = cfg.network, cfg.training, cfg.sharing
    L = net_cfg.cells
    U = net_cfg.users_per_cell
    T = tr_cfg.steps_per_episode
    state_len = control.state_size(U)
    n_actions = control.action_space_size(U)

    root = np.random.SeedSequence(seed)
    env = Environment(net_cfg, root)
    # per cell: init, action, sampling; then the central init and sampling
    streams = [np.random.default_rng(s) for s in root.spawn(3 * L + 2)]
    action_rngs = streams[1:3 * L:3]

    # One learner stack with one target copy and one replay ring and
    # sampling stream per learner: every cell's own network, or ctde's
    # central one (the one-learner case), which the acting stack copies.
    inits = [streams[3 * L]] if behaviour.central else streams[0:3 * L:3]
    learner = QNetwork.stack([QNetwork(state_len, n_actions, rng=rng)
                              for rng in inits])
    agents = QNetwork.stack([learner[0]] * L) if behaviour.central else learner
    sample_rngs = [streams[3 * L + 1]] if behaviour.central \
        else streams[2:3 * L:3]
    target = learner.copy()
    workspace = Workspace(learner, tr_cfg.batch_size)  # every step's arrays
    owner = np.arange(L) % len(learner)  # the learner of each cell's rows
    replay = ReplayBuffer(len(learner), tr_cfg.buffer_capacity)
    own = U * (np.arange(len(learner))[:, None] == owner)  # (learner, cell)
    train_steps = 0
    # Every ring takes U ids of each of its cells' rows each step, so
    # after ceil(capacity / U) steps it has evicted every older id: a
    # table of that many steps never overwrites a row a ring still
    # holds. A shorter run never wraps, so it needs no more steps.
    table = TransitionTable(min(-(-tr_cfg.buffer_capacity // U),
                                tr_cfg.episodes * T), L, state_len)

    log = MetricsLog()
    ledger = OverheadLedger()
    artifacts = RunArtifacts(framework=framework, seed=seed, config=cfg,
                             log=log, ledger=ledger, agent_nets=agents,
                             central_net=learner[0] if behaviour.central
                             else None)

    epsilons = [tr_cfg.epsilon_start]  # each episode's, then the final one
    for _ in range(tr_cfg.episodes):
        epsilons.append(max(epsilons[-1] * tr_cfg.epsilon_decay,
                            tr_cfg.epsilon_min))
    no_losses = [math.nan] * L
    ready = False  # every ring holds a batch (rings never shrink)
    # the charge of a framework without a share rule is the same every
    # step: ctde's U rows per cell to its central learner, else nothing
    sent = np.full(L, U if behaviour.central else 0)
    received = [0] * L
    scalars = sent * experience_scalars(U) + behaviour.common_reward

    def learn(step_idx, states, actions, result, next_states):
        nonlocal ready, train_steps, sent, received, scalars
        if not all(map(math.isfinite, result.rewards)):
            raise TrainingFault("non-finite reward at step %d" % step_idx)
        train_rewards = result.rewards
        if behaviour.common_reward:
            train_rewards = [sharing.crdu_reward(
                result.rewards, result.punished, net_cfg.punishment)] * L

        # --- store -------------------------------------------------------
        rows = table.store(step_idx, states, actions, train_rewards,
                           next_states)
        replay.insert(own, rows)

        # --- sharing barrier ---------------------------------------------
        if behaviour.share is not None:
            mask = behaviour.share(result.estimates,
                                   result.table.inter_by_source,
                                   net_cfg.interference_threshold_mw,
                                   sh_cfg.attribution)
            sharing.deliver(mask, rows, replay)
            received = np.add.reduce(mask, axis=(0, 1)).tolist()
            sent = np.add.reduce(mask, axis=(1, 2))
            scalars = sent * experience_scalars(U) + behaviour.common_reward

        # --- train -------------------------------------------------------
        losses = no_losses
        ready = ready or \
            replay.counts.min() >= tr_cfg.batch_size  # <= capacity
        if ready:
            ids = replay.sample(tr_cfg.batch_size, sample_rngs)
            step_losses = train_step(
                learner, target, *table.batch(ids), tr_cfg.discount,
                tr_cfg.learning_rate, workspace)
            train_steps += 1
            if train_steps % tr_cfg.target_refresh_steps == 0:
                target.load_from(learner)
            losses = step_losses[owner].tolist()
        charge = scalars
        if behaviour.central and \
                (step_idx + 1) % sh_cfg.ctde_sync_period == 0:
            charge = scalars + sharing.ctde_sync(learner, agents) // L
        ledger.record_step(step_idx, sent, charge)
        return train_rewards, losses, sent.tolist(), received

    try:
        _rollout(env, agents, action_rngs, epsilons[:-1], T, log, learn)
    except TrainingFault as fault:
        fault.artifacts = artifacts
        raise
    finally:
        artifacts.train_step_count = train_steps * len(learner)
        artifacts.final_epsilon = epsilons[len(log.sumrate_rows)]
    return artifacts


def evaluate(nets: QNetwork, cfg: RunConfig, eval_episodes: int,
             seed: int) -> MetricsLog:
    """Greedy rollouts of a per-cell stack: no learning, no sharing."""
    validate_config(cfg)
    L = cfg.network.cells
    if len(nets) != L:
        raise ContractViolation("need one network per cell")
    if eval_episodes < 1:
        raise ContractViolation("eval_episodes must be >= 1")
    log = MetricsLog()
    no_losses, nothing = [math.nan] * L, [0] * L
    _rollout(Environment(cfg.network, np.random.SeedSequence(seed)), nets,
             [np.random.default_rng(0)] * L,  # unused at epsilon=0
             [0.0] * eval_episodes, cfg.training.steps_per_episode, log,
             lambda _step, _states, _actions, result, _next:
             (result.rewards, no_losses, nothing, nothing))
    return log
