"""End-to-end trainer behavior: determinism, phase order, warmup,
per-framework bookkeeping and fault handling."""

import math

import numpy as np
import pytest

from conftest import desk_config, same_weights, small_run_config

from cellshare import sharing, training
from cellshare.environment import Environment
from cellshare.errors import ContractViolation, TrainingFault
from cellshare.metrics import (MetricsLog, network_sum_rate, read_csv,
                               write_run_outputs)
from cellshare.qnet import QNetwork, q_forward
from cellshare.replay import (ReplayBuffer, TransitionTable,
                              experience_scalars)
from cellshare.training import RunArtifacts, evaluate, run_training


def _rows_equal(a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        for va, vb in zip(ra, rb):
            if isinstance(va, float) and math.isnan(va):
                if not (isinstance(vb, float) and math.isnan(vb)):
                    return False
            elif va != vb:
                return False
    return True


def test_training_is_deterministic():
    cfg = small_run_config()
    first = run_training(cfg, "smart", seed=5)
    second = run_training(cfg, "smart", seed=5)
    assert _rows_equal(first.log.step_rows, second.log.step_rows)
    assert first.log.sumrate_rows == second.log.sumrate_rows
    assert first.log.sinr_rows == second.log.sinr_rows
    assert first.ledger.rows == second.ledger.rows
    assert all(same_weights(a, b) for a, b in
               zip(first.agent_nets, second.agent_nets))
    different = run_training(cfg, "smart", seed=6)
    assert not _rows_equal(first.log.step_rows, different.log.step_rows)


class StepRecorder:
    """Wraps the trainer's phase functions and records, in call order,
    (phase, step) events: one "act" per returned action, one "store" per cell
    row written to the transition table, one "deliver", "train" or
    "sync" per call. Also keeps every step's (L, U) interference
    estimates as Environment.step returned them."""

    def __init__(self, monkeypatch):
        self.events = []
        self.estimates = []
        self._wrap(monkeypatch, training, "select_action", "act")
        self._wrap(monkeypatch, training, "train_step", "train")
        self._wrap(monkeypatch, sharing, "deliver", "deliver")
        self._wrap(monkeypatch, sharing, "ctde_sync", "sync")
        store = TransitionTable.store
        env_step = Environment.step

        def record_store(table, step, *args):
            # the step being stored is the last one the environment took
            assert step == self.step
            rows = store(table, step, *args)
            self.events.extend(("store", step) for _ in rows)
            return rows

        def record_env_step(env, actions):
            result = env_step(env, actions)
            self.estimates.append(result.estimates.copy())
            return result

        monkeypatch.setattr(TransitionTable, "store", record_store)
        monkeypatch.setattr(Environment, "step", record_env_step)

    @property
    def step(self):
        """Index of the step in progress: actions for step k are chosen
        before the k-th environment step, everything else after it."""
        return len(self.estimates) - 1

    def _wrap(self, monkeypatch, module, name, phase):
        inner = getattr(module, name)

        def record(*args, **kwargs):
            if phase == "act":
                actions = inner(*args, **kwargs)
                self.events.extend(("act", self.step + 1) for _ in actions)
                return actions
            self.events.append((phase, self.step))
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, record)


def test_step_phases_are_strictly_ordered(monkeypatch):
    cfg = small_run_config()
    recorder = StepRecorder(monkeypatch)
    run_training(cfg, "smart", seed=1)
    rank = {"act": 0, "store": 1, "deliver": 2, "train": 3, "sync": 3}
    by_step = {}
    for event in recorder.events:
        by_step.setdefault(event[1], []).append(event)
    total_steps = cfg.training.episodes * cfg.training.steps_per_episode
    assert set(by_step) == set(range(total_steps))
    for step, events in by_step.items():
        ranks = [rank[e[0]] for e in events]
        assert ranks == sorted(ranks), "phase order broke at step %d" % step
        assert sum(1 for e in events if e[0] == "act") == cfg.network.cells
        assert sum(1 for e in events if e[0] == "store") == cfg.network.cells


def test_gradient_steps_wait_for_full_buffers():
    cfg = small_run_config()  # U=2 rows/step/agent, batch 8 -> warm at t=3
    artifacts = run_training(cfg, "share-nothing", seed=2)
    for row in artifacts.log.step_rows:
        if row.episode == 0 and row.step < 3:
            assert math.isnan(row.loss)
        else:
            assert math.isfinite(row.loss)
    # 9 warm steps in episode 0, then every step of episode 1
    assert artifacts.train_step_count == (9 + 12) * 2


def test_crdu_hands_every_agent_the_same_reward():
    cfg = small_run_config()
    artifacts = run_training(cfg, "crdu", seed=3)
    punishment = cfg.network.punishment
    by_step = {}
    for row in artifacts.log.step_rows:
        by_step.setdefault((row.episode, row.step), []).append(row.reward)
    for rewards in by_step.values():
        assert len(set(rewards)) == 1
        assert rewards[0] == -punishment or rewards[0] > 0.0
    # one scalar broadcast per agent per step, no experience traffic
    steps = cfg.training.episodes * cfg.training.steps_per_episode
    assert artifacts.ledger.experiences_total == 0
    assert artifacts.ledger.scalars_total == steps * cfg.network.cells


def test_ctde_agents_mirror_the_central_network():
    cfg = small_run_config()
    artifacts = run_training(cfg, "ctde", seed=4)
    central = artifacts.central_net
    assert central is not None
    assert all(same_weights(net, central)
               for net in artifacts.agent_nets)
    steps = cfg.training.episodes * cfg.training.steps_per_episode
    L, U = cfg.network.cells, cfg.network.users_per_cell
    assert artifacts.ledger.experiences_total == steps * L * U
    # the pooled buffer fills twice as fast: 2L rows/step, warm at t=1
    assert artifacts.train_step_count == (11 + 12) * 1
    # every agent logs the shared central loss
    for rows in _rows_by_step(artifacts):
        losses = [r.loss for r in rows]
        assert all(math.isnan(v) for v in losses) or \
            len({v for v in losses}) == 1


def test_central_learner_takes_cells_in_cell_order(monkeypatch):
    rings = []
    insert = ReplayBuffer.insert

    def record(ring, copies, rows, received=False):
        rings.append(ring)
        return insert(ring, copies, rows, received)

    monkeypatch.setattr(ReplayBuffer, "insert", record)
    cfg = small_run_config()
    run_training(cfg, "ctde", seed=4)
    steps = cfg.training.episodes * cfg.training.steps_per_episode
    L, U = cfg.network.cells, cfg.network.users_per_cell
    # one local insert per step into the one ring, and no deliveries
    assert len(rings) == steps and all(r is rings[0] for r in rings)
    ring = rings[0]
    assert ring.slots.shape == (1, cfg.training.buffer_capacity)
    # the table never wraps here, so step s's cell c is row s * L + c
    want = [step * L + cell for step in range(steps)
            for cell in range(L) for _user in range(U)]
    assert ring.slots[0, :len(want)].tolist() == want
    assert ring.inserted_local == len(want)
    assert ring.inserted_received == 0


def _rows_by_step(artifacts):
    by_step = {}
    for row in artifacts.log.step_rows:
        by_step.setdefault((row.episode, row.step), []).append(row)
    return by_step.values()


def test_smart_sharing_matches_the_interference_log(monkeypatch):
    cfg = small_run_config()
    recorder = StepRecorder(monkeypatch)
    artifacts = run_training(cfg, "smart", seed=7)
    L = cfg.network.cells
    U = cfg.network.users_per_cell
    T = cfg.training.steps_per_episode
    thr = cfg.network.interference_threshold_mw
    assert len(recorder.estimates) == cfg.training.episodes * T
    assert all(est.shape == (L, U) for est in recorder.estimates)

    expected = {}
    for step, estimates in enumerate(recorder.estimates):
        for (cell, user), est in np.ndenumerate(estimates):
            key = (step, cell)
            expected[key] = expected.get(key, 0) + (L - 1) * int(est > thr)
    ledgered = {(row[0], row[1]): row[2] for row in artifacts.ledger.rows}
    assert ledgered == expected
    for row in artifacts.ledger.rows:
        assert row[3] == row[2] * experience_scalars(U)
        assert row[2] <= U * (L - 1)
    # what one cell transmits, the other receives (two cells)
    for rows in _rows_by_step(artifacts):
        rows = sorted(rows, key=lambda r: r.agent)
        assert rows[0].shared_rx == rows[1].shared_tx
        assert rows[1].shared_rx == rows[0].shared_tx


def test_threshold_extremes_bound_the_sharing_rate():
    # learning is irrelevant here (and all-punishment runs can diverge);
    # freeze the weights and look at the ledger only
    floody = small_run_config(learning_rate=0.0)
    floody.network.interference_threshold_dbm = -250.0
    artifacts = run_training(floody, "smart", seed=8)
    L, U = floody.network.cells, floody.network.users_per_cell
    assert artifacts.ledger.zero_share_fraction() == 0.0
    assert all(row[2] == U * (L - 1) for row in artifacts.ledger.rows)

    silent = small_run_config(learning_rate=0.0)
    silent.network.interference_threshold_dbm = 30.0
    artifacts = run_training(silent, "smart", seed=8)
    assert artifacts.ledger.zero_share_fraction() == 1.0
    assert artifacts.ledger.experiences_total == 0


@pytest.mark.parametrize("framework", sharing.FRAMEWORKS)
def test_overhead_rows_match_the_closed_form(framework, tmp_path):
    cfg = small_run_config()
    cfg.sharing.ctde_sync_period = 3
    artifacts = run_training(cfg, framework, seed=14)
    write_run_outputs(str(tmp_path), artifacts.log, artifacts.ledger.rows,
                      {})
    _header, rows = read_csv(str(tmp_path / "overhead.csv"))
    rows = [tuple(int(v) for v in cells) for _line, cells in rows]
    L, U = cfg.network.cells, cfg.network.users_per_cell
    E = experience_scalars(U)
    steps = cfg.training.episodes * cfg.training.steps_per_episode
    assert [row[:2] for row in rows] == \
        [(step, agent) for step in range(steps) for agent in range(L)]
    # ctde broadcasts one copy of the central weights to every agent
    weights = artifacts.central_net.parameter_count() \
        if framework == "ctde" else 0
    for step, agent, experiences, scalars in rows:
        sync = weights if (step + 1) % 3 == 0 else 0
        want = {
            "smart": (experiences, experiences * E),
            "share-all": ((L - 1) * U, (L - 1) * U * E),
            "share-nothing": (0, 0),
            "crdu": (0, 1),
            "ctde": (U, U * E + sync),
        }[framework]
        assert (experiences, scalars) == want, (step, agent)
    assert artifacts.ledger.experiences_total == sum(r[2] for r in rows)
    assert artifacts.ledger.scalars_total == sum(r[3] for r in rows)


def test_share_nothing_has_zero_overhead():
    cfg = small_run_config()
    artifacts = run_training(cfg, "share-nothing", seed=9)
    assert artifacts.ledger.experiences_total == 0
    assert artifacts.ledger.scalars_total == 0
    assert artifacts.ledger.zero_share_fraction() == 1.0
    assert all(r.shared_tx == 0 and r.shared_rx == 0
               for r in artifacts.log.step_rows)


def test_episode_sum_rate_is_its_last_step_sinrs(monkeypatch):
    env_step = Environment.step
    step_sinrs = []

    def record_sinr(env, actions):
        result = env_step(env, actions)
        step_sinrs.append(result.sinr.copy())
        return result

    monkeypatch.setattr(Environment, "step", record_sinr)
    cfg = small_run_config()
    artifacts = run_training(cfg, "share-nothing", seed=10)
    T = cfg.training.steps_per_episode
    assert len(step_sinrs) == cfg.training.episodes * T
    # each episode's sum-rate is its last step's
    for episode, rate in artifacts.log.sumrate_rows:
        assert rate == network_sum_rate(step_sinrs[episode * T + T - 1])


def test_epsilon_decays_per_episode(monkeypatch):
    cfg = small_run_config(episodes=4, epsilon_decay=0.6, epsilon_min=0.3)
    want = [cfg.training.epsilon_start]  # each episode's, then the final
    for _ in range(cfg.training.episodes):
        want.append(max(want[-1] * 0.6, 0.3))
    assert want[3] == 0.3  # the floor is reached inside the run
    artifacts = run_training(cfg, "share-nothing", seed=11)
    assert artifacts.final_epsilon == want[4]
    eps_by_episode = {}
    for row in artifacts.log.step_rows:
        eps_by_episode.setdefault(row.episode, set()).add(row.epsilon)
    assert eps_by_episode == {e: {want[e]} for e in range(4)}

    # a faulting run reports the epsilon its faulting episode acted at
    T = cfg.training.steps_per_episode
    real_train_step, real_env_step = training.train_step, Environment.step
    for fault_step, episode in ((2 * T - 1, 1), (2 * T, 2)):
        taken = []

        def count(env, actions):
            taken.append(actions)
            return real_env_step(env, actions)

        def fault(*args):
            if len(taken) - 1 == fault_step:
                raise TrainingFault("injected at step %d" % fault_step)
            return real_train_step(*args)

        with monkeypatch.context() as patch:
            patch.setattr(Environment, "step", count)
            patch.setattr(training, "train_step", fault)
            with pytest.raises(TrainingFault) as exc_info:
                run_training(cfg, "share-nothing", seed=11)
        partial = exc_info.value.artifacts
        assert len(partial.log.sumrate_rows) == episode
        assert partial.final_epsilon == want[episode]


def test_unknown_framework_is_rejected():
    with pytest.raises(ContractViolation):
        run_training(small_run_config(), "federated", seed=0)


def test_training_fault_carries_partial_artifacts():
    cfg = small_run_config(learning_rate=1e15)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingFault) as exc_info:
            run_training(cfg, "share-nothing", seed=12)
    artifacts = exc_info.value.artifacts
    assert isinstance(artifacts, RunArtifacts)
    assert artifacts.framework == "share-nothing"
    assert len(artifacts.log.step_rows) > 0


def _steps_and_logged_steps(cfg, framework, seed):
    """A run's ``train_step_count`` (of its partial artifacts, if it
    faults) and the number of its steps that logged a loss."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            artifacts = run_training(cfg, framework, seed)
    except TrainingFault as fault:
        artifacts = fault.artifacts
    logged = {(row.episode, row.step) for row in artifacts.log.step_rows
              if math.isfinite(row.loss)}
    return artifacts.train_step_count, len(logged)


def _digest_cli_config():
    """tools/artifact_digests.py's CLI scenario at a diverging rate."""
    cfg = desk_config()
    cfg.training.episodes = 3
    cfg.training.steps_per_episode = 12
    cfg.training.batch_size = 16
    cfg.training.target_refresh_steps = 5
    cfg.training.learning_rate = 1e15
    return cfg


@pytest.mark.parametrize("framework", sharing.FRAMEWORKS)
def test_train_step_count_counts_logged_learner_steps(framework):
    """Every counted learner step logged its loss, whether the run
    completes or a faulting step (which steps no learner) ends it."""
    cfg = small_run_config()
    learners = 1 if sharing.BEHAVIOUR[framework].central \
        else cfg.network.cells
    for run_cfg in (cfg, small_run_config(learning_rate=1e15)):
        count, logged = _steps_and_logged_steps(run_cfg, framework, 12)
        assert logged > 0
        assert count == learners * logged
    if framework == "smart":
        # two steps log their losses, then agent 1's alone goes
        # non-finite: agent 0 does not step either
        assert _steps_and_logged_steps(_digest_cli_config(), framework,
                                       3) == (2 * 2, 2)


def test_evaluate_is_greedy_and_deterministic():
    cfg = small_run_config()
    state_len = 4 * cfg.network.users_per_cell
    n_actions = 4 ** cfg.network.users_per_cell
    nets = QNetwork.stack([QNetwork(state_len, n_actions)
                           for _ in range(2)])
    first = evaluate(nets, cfg, eval_episodes=3, seed=13)
    second = evaluate(nets, cfg, eval_episodes=3, seed=13)
    assert _rows_equal(first.step_rows, second.step_rows)
    assert first.sumrate_rows == second.sumrate_rows
    for row in first.step_rows:
        assert math.isnan(row.loss)
        assert row.epsilon == 0.0
        assert row.shared_tx == 0 and row.shared_rx == 0
    assert len(first.sumrate_rows) == 3
    with pytest.raises(ContractViolation):
        evaluate(nets[:1], cfg, eval_episodes=1, seed=13)


def test_evaluate_refuses_fewer_than_one_episode():
    cfg = small_run_config()
    nets = QNetwork.stack([QNetwork(4 * cfg.network.users_per_cell,
                                    4 ** cfg.network.users_per_cell)
                           for _ in range(cfg.network.cells)])
    for episodes in (0, -1):
        with pytest.raises(ContractViolation, match="eval_episodes"):
            evaluate(nets, cfg, eval_episodes=episodes, seed=13)


def test_evaluate_matches_an_independent_greedy_rollout():
    cfg = small_run_config()
    L, U = cfg.network.cells, cfg.network.users_per_cell
    T = cfg.training.steps_per_episode
    rng = np.random.default_rng(31)  # random weights: greedy actions vary
    nets = QNetwork.stack([QNetwork(4 * U, 4 ** U, rng=rng)
                           for _ in range(L)])
    log = evaluate(nets, cfg, eval_episodes=3, seed=17)

    env = Environment(cfg.network, np.random.SeedSequence(17))
    want, rewards, actions = MetricsLog(), [], set()
    for episode in range(3):
        env.reset()
        for _ in range(T):
            step_actions = [int(np.argmax(q_forward(nets[ell], state)))
                            for ell, state in enumerate(env.states())]
            actions.update(step_actions)
            result = env.step(step_actions)
            rewards.extend(result.rewards)
        want.add_episode(episode, result.sinr)
    assert len(actions) > 1
    assert [row.reward for row in log.step_rows] == rewards
    assert log.sinr_rows == want.sinr_rows
    assert log.sumrate_rows == want.sumrate_rows


def test_patched_loop_functions_see_every_step(monkeypatch):
    """Wrappers patched onto the names the loop looks up at call time,
    as a tracer patches them, see every step of training and
    evaluation."""
    calls = {"act": 0, "step": 0}
    real_select, real_step = training.select_action, Environment.step

    def act(*args):
        calls["act"] += 1
        return real_select(*args)

    def step(env, actions):
        calls["step"] += 1
        return real_step(env, actions)

    monkeypatch.setattr("cellshare.training.select_action", act)
    monkeypatch.setattr(Environment, "step", step)
    cfg = small_run_config()
    T = cfg.training.steps_per_episode
    artifacts = run_training(cfg, "smart", seed=15)
    steps = cfg.training.episodes * T
    assert calls == {"act": steps, "step": steps}
    calls.update(act=0, step=0)
    evaluate(artifacts.agent_nets, cfg, eval_episodes=3, seed=16)
    assert calls == {"act": 3 * T, "step": 3 * T}
