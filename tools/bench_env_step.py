"""Microbenchmark of one environment step, stage by stage.

    python3 tools/bench_env_step.py [--steps 100] [--repeats 15]

For each cell count L in 2, 7 and 19 it builds the desk scenario
(``configs/desk.conf``: 3 users, 4 antennas, 64 beams) at L cells,
resets it and takes one step's inputs. It then times each public stage
that ``Environment.step`` calls on those inputs, and the whole
``Environment.step`` on random joint actions (a reset every 50 steps,
outside the clock). Each is timed over --repeats rounds of --steps
calls after a warm-up; the best round's microseconds per call are
printed, one row per stage and one column per L. The two stochastic
stages draw from their own stream, so every round times the same work.
The last line is all of it as JSON. BLAS runs on one thread, as in the
benchmark in ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from cellshare import channel, control, geometry, physics  # noqa: E402
from cellshare.config import db_to_linear, load_config  # noqa: E402
from cellshare.environment import Environment  # noqa: E402

CELLS = (2, 7, 19)
EPISODE = 50  # steps between resets of the whole-step timing
STAGES = ("control.apply_joint_action", "geometry.step_mobility",
          "channel.sample_channels", "physics.received_powers",
          "physics.sinr", "physics.measure_inter_cell", "control.reward",
          "Environment.step")


def best_us(call, steps: int, repeats: int) -> float:
    """Best round's microseconds per call of ``call()``."""
    for _ in range(min(steps, 20)):
        call()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(steps):
            call()
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best / steps


def stage_calls(env: Environment, actions: np.ndarray) -> dict:
    """One zero-argument call per stage, on the inputs of the step that
    ``actions`` would take from the environment's current state."""
    cfg = env.config
    rng = np.random.default_rng(0)
    powers_dbm, beams = control.apply_joint_action(
        actions, env.powers_dbm, env.beams, cfg)
    powers_mw = db_to_linear(powers_dbm)
    table = physics.received_powers(env.channels, powers_mw, beams,
                                    env.codebook)
    gammas = physics.sinr(table, cfg.noise_mw)
    estimates = physics.measure_inter_cell(gammas, powers_mw, beams,
                                           env.channels, cfg.noise_mw,
                                           env.codebook)
    return {
        "control.apply_joint_action": lambda: control.apply_joint_action(
            actions, env.powers_dbm, env.beams, cfg),
        "geometry.step_mobility": lambda: geometry.step_mobility(
            env.users, env.layout, cfg, rng),
        "channel.sample_channels": lambda: channel.sample_channels(
            env.layout, env.users, cfg, rng, prev=env.channels),
        "physics.received_powers": lambda: physics.received_powers(
            env.channels, powers_mw, beams, env.codebook),
        "physics.sinr": lambda: physics.sinr(table, cfg.noise_mw),
        "physics.measure_inter_cell": lambda: physics.measure_inter_cell(
            gammas, powers_mw, beams, env.channels, cfg.noise_mw,
            env.codebook),
        "control.reward": lambda: control.reward(
            gammas, estimates, cfg.min_sinr, cfg.interference_threshold_mw,
            cfg.punishment),
    }


def step_us(env: Environment, actions: np.ndarray, steps: int,
            repeats: int) -> float:
    """Best round's microseconds per ``Environment.step``. A round is
    ``steps`` steps over the rows of ``actions``, with a reset every
    EPISODE steps outside the clock."""
    best = float("inf")
    for _ in range(repeats + 1):  # the first is the warm-up
        elapsed = 0.0
        for start in range(0, steps, EPISODE):
            env.reset()
            rows = actions[:min(EPISODE, steps - start)]
            t0 = time.perf_counter()
            for row in rows:
                env.step(row)
            elapsed += time.perf_counter() - t0
        best = min(best, elapsed)
    return 1e6 * best / steps


def bench_cells(cells: int, steps: int, repeats: int) -> dict:
    cfg = load_config(os.path.join(ROOT, "configs", "desk.conf")).network
    cfg.cells = cells
    env = Environment(cfg, np.random.SeedSequence(cells))
    env.reset()
    n_actions = control.action_space_size(cfg.users_per_cell)
    actions = np.random.default_rng(cells).integers(n_actions,
                                                    size=(EPISODE, cells))
    row = {name: best_us(call, steps, repeats)
           for name, call in stage_calls(env, actions[0]).items()}
    row["stages_sum"] = sum(row.values())
    row["Environment.step"] = step_us(env, actions, steps, repeats)
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    if args.steps < 1 or args.repeats < 1:
        parser.error("--steps and --repeats must be positive")
    report = {"config": "configs/desk.conf", "steps": args.steps,
              "repeats": args.repeats,
              "us_per_call": {str(cells): bench_cells(cells, args.steps,
                                                      args.repeats)
                              for cells in CELLS}}
    rows = report["us_per_call"]
    print("%-28s" % "us per call" + "".join("%10s" % ("L=%d" % c)
                                            for c in CELLS))
    for name in STAGES[:-1] + ("stages_sum", STAGES[-1]):
        print("%-28s" % name + "".join("%10.1f" % rows[str(c)][name]
                                       for c in CELLS))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
