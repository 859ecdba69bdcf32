"""Microbenchmark of each stage of a training step.

    python3 tools/bench_stages.py [--steps 100] [--repeats 15] [--jobs 0]
                                  [--seed 201]

It times the environment's stages, the stacked SGD step, the greedy
acting pass and the oracle searches. Every time is the best of
--repeats rounds of --steps calls, after one untimed round, in
microseconds per call.

Environment: for each cell count L in 2, 7 and 19 it builds the desk
scenario (``configs/desk.conf``: 3 users, 4 antennas, 64 beams) at L
cells, resets it and takes one step's inputs. It times each public
stage that ``Environment.step`` calls on those inputs, then the whole
``Environment.step`` on random joint actions from that reset. The two
stochastic stages draw from their own stream, so every round times the
same work. It prints one row per stage and one column per L.

Learner: for each stack size K in 1, 2, 7 and 19 it builds K agents at
the desk sizes (state 12, 64 joint actions, batch 32), a target copy
and one workspace, as ``training.run_training`` does, and times
``qnet.train_step`` over a fixed set of random minibatches. Its line
gives the minor page faults per step the process took over every round
(``resource.getrusage``, counted once each minibatch has been stepped),
the bytes of the workspace (each distinct array once, so views of one
array count as that array) and the greedy acting pass:
``select_action`` at epsilon 0 on one state per agent through a batch-1
workspace.

Oracle: on the snapshot of one reset environment (seed 4) it times
``oracle.brute_force_step`` at 2 cells x 2 users (the oracle-sweep
workload of the benchmark in ``perfbench/``: 256 joint actions) and at
the desk scenario (2 x 3: 4 096), and ``oracle.global_csi_search`` on
the ``cli/oracle`` case of ``tools/artifact_digests.py`` (10**4
configurations), as ``cellshare oracle --seed 4`` runs it.

With --jobs N it then runs N whole hex19-share jobs of the benchmark in
``perfbench/`` at seed --seed, after one warm-up job, and prints their
minor faults per job. The last line is all of it as JSON. BLAS runs on
one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import resource  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from artifact_digests import CLI_ORACLE_CONFIG  # noqa: E402
from cellshare import (channel, control, geometry, oracle,  # noqa: E402
                       physics, qnet)
from cellshare.config import (db_to_linear, default_config,  # noqa: E402
                              load_config, parse_config)
from cellshare.environment import Environment  # noqa: E402

CELLS = (2, 7, 19)
ACTION_ROWS = 50  # random joint actions the whole step cycles through
STAGES = ("control.apply_joint_action", "geometry.step_mobility",
          "channel.sample_channels", "physics.received_powers",
          "physics.sinr", "physics.measure_inter_cell", "control.reward",
          "Environment.step")
STACKS = (1, 2, 7, 19)
STATE, ACTIONS, BATCH = 12, 64, 32
MINIBATCHES = 8


def best_us(call, steps: int, repeats: int) -> float:
    """Best of ``repeats`` rounds of ``call(k)`` for k in range(steps),
    after one untimed round, in microseconds per call."""
    rounds = []
    for _ in range(repeats + 1):
        t0 = time.perf_counter()
        for k in range(steps):
            call(k)
        rounds.append(time.perf_counter() - t0)
    return 1e6 * min(rounds[1:]) / steps


def stage_calls(env: Environment, actions: np.ndarray) -> dict:
    """One call per stage, on the inputs of the step that ``actions[0]``
    would take from the environment's current state, then the whole
    step, which moves the environment and so comes last."""
    cfg = env.config
    rng = np.random.default_rng(0)
    powers_dbm, beams = control.apply_joint_action(
        actions[0], env.powers_dbm, env.beams, cfg)
    powers_mw = db_to_linear(powers_dbm)
    table = physics.received_powers(env.channels, powers_mw, beams,
                                    env.codebook)
    gammas = physics.sinr(table, cfg.noise_mw)
    estimates = physics.measure_inter_cell(gammas, powers_mw, beams,
                                           env.channels, cfg.noise_mw,
                                           env.codebook)
    return {
        "control.apply_joint_action": lambda _k: control.apply_joint_action(
            actions[0], env.powers_dbm, env.beams, cfg),
        "geometry.step_mobility": lambda _k: geometry.step_mobility(
            env.users, env.layout, cfg, rng),
        "channel.sample_channels": lambda _k: channel.sample_channels(
            env.layout, env.users, cfg, rng, prev=env.channels),
        "physics.received_powers": lambda _k: physics.received_powers(
            env.channels, powers_mw, beams, env.codebook),
        "physics.sinr": lambda _k: physics.sinr(table, cfg.noise_mw),
        "physics.measure_inter_cell": lambda _k: physics.measure_inter_cell(
            gammas, powers_mw, beams, env.channels, cfg.noise_mw,
            env.codebook),
        "control.reward": lambda _k: control.reward(
            gammas, estimates, cfg.min_sinr, cfg.interference_threshold_mw,
            cfg.punishment),
        "Environment.step": lambda k: env.step(actions[k % ACTION_ROWS]),
    }


def bench_cells(cells: int, steps: int, repeats: int) -> dict:
    cfg = load_config(os.path.join(ROOT, "configs", "desk.conf")).network
    cfg.cells = cells
    env = Environment(cfg, np.random.SeedSequence(cells))
    env.reset()
    n_actions = control.action_space_size(cfg.users_per_cell)
    actions = np.random.default_rng(cells).integers(
        n_actions, size=(ACTION_ROWS, cells))
    row = {name: best_us(call, steps, repeats)
           for name, call in stage_calls(env, actions).items()}
    row["stages_sum"] = sum(row[name] for name in STAGES[:-1])
    return row


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def workspace_bytes(workspace: qnet.Workspace) -> int:
    """Bytes of the distinct arrays ``workspace`` holds: a view counts
    as the array it views, once."""
    arrays = []
    for value in vars(workspace).values():
        if isinstance(value, dict):
            value = list(value.values())
        arrays.extend(value if isinstance(value, list) else [value])
    owners = {}
    for array in arrays:
        owner = array if array.base is None else array.base
        owners[id(owner)] = owner
    return sum(owner.nbytes for owner in owners.values())


def bench_stack(agents: int, steps: int, repeats: int) -> dict:
    rng = np.random.default_rng(agents)
    net = qnet.QNetwork.stack([qnet.QNetwork(STATE, ACTIONS, rng=rng)
                               for _ in range(agents)])
    target = net.copy()
    workspace = qnet.Workspace(net, BATCH)
    lead = (agents, BATCH)
    batches = [(rng.normal(size=lead + (STATE,)),
                rng.integers(ACTIONS, size=lead), rng.normal(size=lead),
                rng.normal(size=lead + (STATE,)))
               for _ in range(MINIBATCHES)]

    def step(k):
        qnet.train_step(net, target, *batches[k % MINIBATCHES], 0.995,
                        0.01, workspace)

    # a minibatch's first step takes the pages of its arrays, so count
    # only once every minibatch has been stepped, whatever --steps is
    for k in range(MINIBATCHES):
        step(k)
    faults = minor_faults()
    step_us = best_us(step, steps, repeats)
    faults = minor_faults() - faults

    acting = qnet.Workspace(net, 1)
    states = [rng.normal(size=(agents, STATE)) for _ in range(MINIBATCHES)]
    rngs = [np.random.default_rng(k) for k in range(agents)]

    def act(k):
        qnet.select_action(net, states[k % MINIBATCHES], 0.0, rngs, acting)

    return {"agents": agents, "step_us": step_us,
            "faults_per_step": faults / (steps * (repeats + 1)),
            "workspace_bytes": workspace_bytes(workspace),
            "act_us": best_us(act, steps, repeats)}


def bench_oracle(steps: int, repeats: int) -> dict:
    sweep = default_config().network  # perfbench's ORACLE_CONFIG
    sweep.cells, sweep.users_per_cell = 2, 2
    desk = load_config(os.path.join(ROOT, "configs", "desk.conf")).network
    cli_cfg = parse_config(CLI_ORACLE_CONFIG)
    grid = oracle.default_power_grid(cli_cfg.network,
                                     cli_cfg.oracle.power_step_db)

    def snapshot(net):
        env = Environment(net, np.random.SeedSequence(4))
        env.reset()
        return env

    def brute_force(net):
        env = snapshot(net)
        return lambda _k: oracle.brute_force_step(
            env.channels, env.powers_dbm, env.beams, net, env.codebook)

    cli = snapshot(cli_cfg.network)
    calls = {"brute_force_step/2x2": brute_force(sweep),
             "brute_force_step/desk-2x3": brute_force(desk),
             "global_csi_search/cli-oracle": lambda _k:
                 oracle.global_csi_search(cli.channels, grid, cli.codebook,
                                          cli_cfg.network)}
    return {name: best_us(call, steps, repeats)
            for name, call in calls.items()}


def bench_jobs(jobs: int, seed: int) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads
    workload = workloads.WORKLOADS["hex19-share"]
    cfg = workloads.set_up(workload)
    per_job = []
    with tempfile.TemporaryDirectory() as out_dir:
        for k in range(jobs + 1):  # the first is the warm-up
            faults = minor_faults()
            result = workloads.run_job(workload, cfg, seed, out_dir,
                                       lambda: 1.0)
            if result.faults or result.check_failures:
                raise RuntimeError("hex19-share job failed: %s"
                                   % (result.faults + result.check_failures))
            if k:
                per_job.append(minor_faults() - faults)
    return {"workload": workload.name, "seed": seed,
            "faults_per_job": per_job}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--jobs", type=int, default=0)
    parser.add_argument("--seed", type=int, default=201)
    args = parser.parse_args(argv)
    if args.steps < 1 or args.repeats < 1 or args.jobs < 0:
        parser.error("--steps and --repeats must be positive, --jobs >= 0")
    rows = {str(cells): bench_cells(cells, args.steps, args.repeats)
            for cells in CELLS}
    report = {"config": "configs/desk.conf", "steps": args.steps,
              "repeats": args.repeats, "us_per_call": rows, "batch": BATCH,
              "state": STATE, "actions": ACTIONS, "stacks": []}
    print("%-28s" % "us per call" + "".join("%10s" % ("L=%d" % c)
                                            for c in CELLS))
    for name in STAGES[:-1] + ("stages_sum", STAGES[-1]):
        print("%-28s" % name + "".join("%10.1f" % rows[str(c)][name]
                                       for c in CELLS))
    for agents in STACKS:
        row = bench_stack(agents, args.steps, args.repeats)
        report["stacks"].append(row)
        print("K=%-3d %9.1f us/step %9.2f minor faults/step "
              "%10d workspace bytes %8.1f us/greedy act"
              % (agents, row["step_us"], row["faults_per_step"],
                 row["workspace_bytes"], row["act_us"]))
    report["oracle_us"] = bench_oracle(args.steps, args.repeats)
    for name, us in report["oracle_us"].items():
        print("%-28s %10.1f us/call" % (name, us))
    if args.jobs:
        report["jobs"] = bench_jobs(args.jobs, args.seed)
        print("hex19-share seed %d: minor faults per job %s"
              % (args.seed, report["jobs"]["faults_per_job"]))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
