"""Microbenchmark of the stacked SGD step, ``qnet.train_step``, and of
the greedy acting pass, ``qnet.select_action``.

    python3 tools/bench_sgd_step.py [--steps 200] [--repeats 5] [--jobs 0]

For each stack size K in 1, 2, 7 and 19 it builds K agents at the desk
sizes (state 12, 64 joint actions, batch 32), a target copy and one
workspace, as ``training.run_training`` does. After a warm-up it times
--repeats rounds of --steps steps over a fixed set of random minibatches
and prints the best round's microseconds per step, the minor page
faults per step the process took over all rounds
(``resource.getrusage``), and the bytes of the workspace (each distinct
array once, so views of one array count as that array). It times the
acting pass the same way: ``select_action`` at epsilon 0 on one state
per agent through a batch-1 workspace, best round's microseconds per
call. With --jobs N it then runs N whole hex19-share jobs of the
benchmark in ``perfbench/`` after one warm-up job and prints their
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

from cellshare import qnet  # noqa: E402

STACKS = (1, 2, 7, 19)
STATE, ACTIONS, BATCH = 12, 64, 32
MINIBATCHES = 8


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


def best_round_us(call, calls: int, repeats: int) -> float:
    """Best of ``repeats`` rounds of ``calls`` calls of ``call(k)``, in
    microseconds per call."""
    rounds = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for k in range(calls):
            call(k)
        rounds.append(time.perf_counter() - t0)
    return 1e6 * min(rounds) / calls


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

    for k in range(MINIBATCHES):
        step(k)
    faults = minor_faults()
    step_us = best_round_us(step, steps, repeats)
    faults = minor_faults() - faults

    acting = qnet.Workspace(net, 1)
    states = [rng.normal(size=(agents, STATE)) for _ in range(MINIBATCHES)]
    rngs = [np.random.default_rng(k) for k in range(agents)]

    def act(k):
        qnet.select_action(net, states[k % MINIBATCHES], 0.0, rngs, acting)

    for k in range(MINIBATCHES):
        act(k)
    return {"agents": agents, "step_us": step_us,
            "faults_per_step": faults / (steps * repeats),
            "workspace_bytes": workspace_bytes(workspace),
            "act_us": best_round_us(act, steps, repeats)}


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
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--jobs", type=int, default=0)
    parser.add_argument("--seed", type=int, default=201)
    args = parser.parse_args(argv)
    if args.steps < 1 or args.repeats < 1 or args.jobs < 0:
        parser.error("--steps and --repeats must be positive, --jobs >= 0")
    report = {"batch": BATCH, "state": STATE, "actions": ACTIONS,
              "stacks": []}
    for agents in STACKS:
        row = bench_stack(agents, args.steps, args.repeats)
        report["stacks"].append(row)
        print("K=%-3d %9.1f us/step %9.2f minor faults/step "
              "%10d workspace bytes %8.1f us/greedy act"
              % (agents, row["step_us"], row["faults_per_step"],
                 row["workspace_bytes"], row["act_us"]))
    if args.jobs:
        report["jobs"] = bench_jobs(args.jobs, args.seed)
        print("hex19-share seed %d: minor faults per job %s"
              % (args.seed, report["jobs"]["faults_per_job"]))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
