"""Training orchestration: episodes, the act/share/train step loop,
greedy evaluation rollouts and run artifacts.

Every step has three strictly ordered phases: all agents observe and
act, then each cell's transition is stored once in the run's
``TransitionTable`` (its buffer takes one id of it per user), the
framework's share rule returns the step's (sender, user, receiver) mask
and the selected experiences are delivered as ids (the barrier), then
every learner takes at most one gradient step. Gradient steps are
globally gated until every buffer holds a full minibatch. What differs
between frameworks (the training reward, the share rule, the learners,
the ledger cost) comes from ``sharing.BEHAVIOUR``; the environment
advance is ``Environment.step``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import control, sharing
from .config import RunConfig, validate_config
from .environment import Environment
from .errors import ContractViolation, TrainingFault
from .metrics import MetricsLog, StepRow, network_sum_rate
from .qnet import QNetwork, select_action, train_step
from .replay import ReplayBuffer, TransitionTable
from .sharing import OverheadLedger


class Learner:
    """A network under training with its target copy, replay buffer and
    minibatch stream, plus the cells whose rows it stores and whose
    loss it reports."""

    def __init__(self, net: QNetwork, sample_rng: np.random.Generator,
                 cells: Sequence[int], capacity: int):
        self.net = net
        self.target = net.copy()
        self.buffer = ReplayBuffer(capacity)
        self.sample_rng = sample_rng
        self.cells = cells
        self.train_steps = 0


@dataclass
class RunArtifacts:
    framework: str
    seed: int
    config: RunConfig
    log: MetricsLog
    ledger: OverheadLedger
    agent_nets: List[QNetwork]
    central_net: Optional[QNetwork] = None
    train_step_count: int = 0
    final_epsilon: float = 0.0


def _log_step(log: MetricsLog, episode: int, t: int, gammas: np.ndarray,
              rewards: Sequence[float], losses: Sequence[float],
              epsilon: float, sent: Sequence[int],
              received: Sequence[int]) -> None:
    for ell in range(len(rewards)):
        log.add_step(StepRow(
            episode=episode, step=t, agent=ell, reward=rewards[ell],
            sinrs=tuple(float(g) for g in gammas[ell]),
            loss=losses[ell], epsilon=epsilon,
            shared_tx=sent[ell], shared_rx=received[ell]))


def _log_episode(log: MetricsLog, episode: int,
                 step_sinrs: List[np.ndarray], mode: str) -> None:
    if mode == "mean":
        rate = float(np.mean([network_sum_rate(g) for g in step_sinrs]))
    else:
        rate = network_sum_rate(step_sinrs[-1])
    log.add_episode(episode, step_sinrs[-1], rate)


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

    central: Optional[QNetwork] = None
    if behaviour.central:
        central = QNetwork(state_len, n_actions, rng=streams[3 * L])
        learners = [Learner(central, streams[3 * L + 1], range(L),
                            tr_cfg.buffer_capacity)]
        agent_nets = [central.copy() for _ in range(L)]
    else:
        learners = [Learner(QNetwork(state_len, n_actions,
                                     rng=streams[3 * ell]),
                            streams[3 * ell + 2], (ell,),
                            tr_cfg.buffer_capacity)
                    for ell in range(L)]
        agent_nets = [learner.net for learner in learners]
    # indexed by cell: the buffer a cell's own and received rows go to
    buffers = [learner.buffer for learner in learners
               for _cell in learner.cells]
    # Every buffer takes U ids of its cell's row each step, so after
    # ceil(capacity / U) steps it has evicted every older id: a ring of
    # that many steps never overwrites a row a buffer still holds. A
    # shorter run never wraps, so it needs no more steps than it has.
    table = TransitionTable(min(-(-tr_cfg.buffer_capacity // U),
                                tr_cfg.episodes * T), L, state_len)

    log = MetricsLog()
    ledger = OverheadLedger(users_per_cell=U)
    artifacts = RunArtifacts(framework=framework, seed=seed, config=cfg,
                             log=log, ledger=ledger, agent_nets=agent_nets,
                             central_net=central)

    epsilon = tr_cfg.epsilon_start

    try:
        for episode in range(tr_cfg.episodes):
            env.reset()
            states = env.states()

            for t in range(T):
                step_idx = episode * T + t

                # --- act and advance ------------------------------------
                actions = [select_action(agent_nets[ell], states[ell],
                                         epsilon, action_rngs[ell])
                           for ell in range(L)]
                result = env.step(actions)

                if not all(math.isfinite(r) for r in result.rewards):
                    raise TrainingFault("non-finite reward at step %d"
                                        % step_idx)
                train_rewards = behaviour.rewards(result.rewards,
                                                  net_cfg.punishment)
                next_states = env.states()

                # --- store -----------------------------------------------
                rows = table.store(step_idx, states, actions, train_rewards,
                                   next_states)
                for ell in range(L):
                    buffers[ell].insert(np.full(U, rows[ell]))

                # --- sharing barrier -------------------------------------
                if behaviour.share is None:
                    mask = np.zeros((L, U, L), dtype=bool)
                else:
                    mask = behaviour.share(result.estimates,
                                           result.table.inter_by_source,
                                           net_cfg.interference_threshold_mw,
                                           sh_cfg.attribution)
                sent = sharing.deliver(mask, rows, buffers)
                received = mask.sum(axis=(0, 1)).tolist()

                charged = [behaviour.cost(ledger, sent.get(ell, 0))
                           for ell in range(L)]
                per_agent_exp = [c[0] for c in charged]
                per_agent_scalars = [c[1] for c in charged]

                # --- train -----------------------------------------------
                losses = [math.nan] * L
                if all(len(learner.buffer) >= tr_cfg.batch_size
                       for learner in learners):
                    for learner in learners:
                        ids = learner.buffer.sample(tr_cfg.batch_size,
                                                    learner.sample_rng)
                        loss = train_step(learner.net, learner.target,
                                          *table.batch(ids), tr_cfg.discount,
                                          tr_cfg.learning_rate)
                        learner.train_steps += 1
                        artifacts.train_step_count += 1
                        if learner.train_steps \
                                % tr_cfg.target_refresh_steps == 0:
                            learner.target.load_from(learner.net)
                        for cell in learner.cells:
                            losses[cell] = loss
                if central is not None and \
                        (step_idx + 1) % sh_cfg.ctde_sync_period == 0:
                    per_cell = sharing.ctde_sync(central, agent_nets,
                                                 ledger) // L
                    for ell in range(L):
                        per_agent_scalars[ell] += per_cell

                ledger.record_step(step_idx, per_agent_exp, per_agent_scalars)
                _log_step(log, episode, t, result.sinr, train_rewards, losses,
                          epsilon, per_agent_exp, received)
                states = next_states

            _log_episode(log, episode, env.sinr_history, tr_cfg.sumrate_mode)
            epsilon = max(epsilon * tr_cfg.epsilon_decay, tr_cfg.epsilon_min)
    except TrainingFault as fault:
        raise TrainingFault(str(fault), artifacts=artifacts) from fault

    artifacts.final_epsilon = epsilon
    return artifacts


def evaluate(nets: Sequence[QNetwork], cfg: RunConfig, eval_episodes: int,
             seed: int) -> MetricsLog:
    """Greedy rollouts: no exploration, no learning, no sharing."""
    validate_config(cfg)
    net_cfg = cfg.network
    L = net_cfg.cells
    if len(nets) != L:
        raise ContractViolation("need one network per cell")
    env = Environment(net_cfg, np.random.SeedSequence(seed))
    log = MetricsLog()
    dummy_rng = np.random.default_rng(0)  # never consumed at epsilon=0

    for episode in range(eval_episodes):
        env.reset()
        for t in range(cfg.training.steps_per_episode):
            states = env.states()
            result = env.step([select_action(nets[ell], states[ell], 0.0,
                                             dummy_rng) for ell in range(L)])
            _log_step(log, episode, t, result.sinr, result.rewards,
                      [math.nan] * L, 0.0, [0] * L, [0] * L)
        _log_episode(log, episode, env.sinr_history,
                     cfg.training.sumrate_mode)
    return log
