"""Workloads of the cellshare benchmark: scenario configs, the timed job
of each workload and the checks every job's outputs must pass.

Every package function is looked up through its module at call time
(``training.run_training``, ``oracle.brute_force_step``, ...) so that a
traced job sees the tracer's wrappers.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

import cellshare
from cellshare import (channel, config, control, geometry, metrics, oracle,
                       physics, sharing, training)
from cellshare.errors import (ContractViolation, MeasurementError,
                              SearchSpaceError, TrainingFault)

# same offset `cellshare compare` uses for its greedy evaluation seed
EVAL_SEED_OFFSET = 9973
ARTIFACT_FILES = ("metrics.csv", "sinr_samples.csv", "sumrate.csv",
                  "overhead.csv", "run.json")
MEASUREMENT_TOLERANCE = 1e-9
SNAPSHOTS_PER_STEP = 5

# The README's release scenario: 2 cells x 3 users, 4-antenna 64-beam
# codebook, -120 dBm noise, 0.1 ms step, 14 dBm budget, target refresh 25.
DESK_CONFIG = """
[network]
cells = 2
users_per_cell = 3
antennas = 4
codebook_bits = 6
noise_power_dbm = -120
step_duration_s = 1e-4
max_bs_power_dbm = 14

[training]
target_refresh_steps = 25
episodes = 4
steps_per_episode = 50
eval_episodes = 2
"""

# The same physics on two hexagonal rings (19 cells, 57 users).
HEX19_CONFIG = """
[network]
cells = 19
users_per_cell = 3
antennas = 4
codebook_bits = 6
noise_power_dbm = -120
step_duration_s = 1e-4
max_bs_power_dbm = 14

[training]
target_refresh_steps = 25
episodes = 2
steps_per_episode = 25
eval_episodes = 1
"""

# Defaults (8-antenna 3-bit codebook) at 2 cells x 2 users: 256 joint
# actions per brute-force search.
ORACLE_CONFIG = """
[network]
cells = 2
users_per_cell = 2
"""


@dataclass(frozen=True)
class Workload:
    name: str
    config_text: str
    frameworks: Tuple[str, ...] = ()   # training workloads
    snapshots: int = 0                 # oracle workload: searches per job

    @property
    def kind(self) -> str:
        return "oracle" if self.snapshots else "train"


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("desk-compare", DESK_CONFIG, frameworks=sharing.FRAMEWORKS),
    Workload("hex19-share", HEX19_CONFIG,
             frameworks=("smart", "share-all", "ctde")),
    Workload("oracle-sweep", ORACLE_CONFIG, snapshots=50),
)}

# exceptions an operation may raise that the benchmark records and
# counts instead of crashing on
OP_ERRORS = (TrainingFault, ContractViolation, SearchSpaceError,
             MeasurementError)


class CheckFailed(Exception):
    """An output check of the benchmark itself failed."""


def set_up(workload: Workload) -> config.RunConfig:
    """Config parse, layout and first codebook: the work before the
    first timed call, which `setup_s` measures from process start. The
    jobs build their own layouts and codebooks, as the package does."""
    cfg = config.parse_config(workload.config_text, source=workload.name)
    net = cfg.network
    geometry.build_layout(net.cells, net.inter_site_distance)
    channel.beam_codebook(net.antennas, net.codebook_bits)
    return cfg


@dataclass
class JobResult:
    """What one timed job produced. `op_s` holds the wall time of each
    timed call, keyed "<framework>/train", "<framework>/write",
    "<framework>/eval" or "snapshot/<i>", and `step_cost` the cost of
    each step of `run_job` in reference-loop units. An operation that
    raised one of OP_ERRORS is in `faults`, one whose outputs failed a
    check in `check_failures`, each as one message."""

    wall_s: float = 0.0
    ops: int = 0
    faults: List[str] = field(default_factory=list)
    check_failures: List[str] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    op_s: Dict[str, float] = field(default_factory=dict)
    step_cost: Dict[str, float] = field(default_factory=dict)
    reference_s: List[float] = field(default_factory=list)
    train_steps: int = 0
    eval_steps: int = 0
    sum_rates: List[float] = field(default_factory=list)
    scalars_per_step: List[float] = field(default_factory=list)


def final_quarter_mean(sumrate_rows) -> float:
    """Mean sum-rate over the last quarter of episodes (as `compare`)."""
    values = [row[1] for row in sumrate_rows]
    window = max(1, len(values) // 4)
    return float(np.mean(values[-window:]))


def _run_info(art, seed: int) -> Dict:
    """run.json content, as `cellshare train --single-thread` writes it."""
    ledger = art.ledger
    return {
        "version": cellshare.__version__,
        "framework": art.framework,
        "seed": seed,
        "seed_env_override": False,
        "single_thread": True,
        "status": "ok",
        "config": config.resolved_dict(art.config),
        "train_step_count": art.train_step_count,
        "final_epsilon": art.final_epsilon,
        "experiences_shared_total": ledger.experiences_total,
        "scalars_shared_total": ledger.scalars_total,
        "zero_share_fraction": ledger.zero_share_fraction(),
        "final_quarter_sum_rate": final_quarter_mean(art.log.sumrate_rows),
    }


def _digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in ARTIFACT_FILES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def combined_digest(parts: List[str]) -> str:
    """One sha256 over a job's per-operation results, in order."""
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _check_training(art, cfg, eval_log) -> None:
    net, tr = cfg.network, cfg.training
    steps = tr.episodes * tr.steps_per_episode
    L, U = net.cells, net.users_per_cell
    ledger = art.ledger
    if art.framework == "share-all" and \
            ledger.experiences_total != steps * L * (L - 1) * U:
        raise CheckFailed("share-all ledger %d != steps*L*(L-1)*U = %d"
                          % (ledger.experiences_total,
                             steps * L * (L - 1) * U))
    if art.framework == "share-nothing" and \
            (ledger.experiences_total or ledger.scalars_total):
        raise CheckFailed("share-nothing ledger is not zero: %d exp, %d "
                          "scalars" % (ledger.experiences_total,
                                       ledger.scalars_total))
    for label, log in (("training", art.log), ("evaluation", eval_log)):
        if not all(math.isfinite(rate) for _ep, rate in log.sumrate_rows):
            raise CheckFailed("non-finite %s sum-rate" % label)


def _train_op(cfg: config.RunConfig, framework: str, seed: int,
              out_dir: str, result: JobResult) -> None:
    tr = cfg.training
    t0 = time.perf_counter()
    try:
        art = training.run_training(cfg, framework, seed)
    finally:
        t1 = time.perf_counter()
        result.op_s[framework + "/train"] = t1 - t0
    metrics.write_run_outputs(out_dir, art.log, art.ledger.rows,
                              _run_info(art, seed))
    t2 = time.perf_counter()
    eval_log = training.evaluate(art.agent_nets, cfg, tr.eval_episodes,
                                 seed + EVAL_SEED_OFFSET)
    t3 = time.perf_counter()
    steps = tr.episodes * tr.steps_per_episode
    result.op_s[framework + "/write"] = t2 - t1
    result.op_s[framework + "/eval"] = t3 - t2
    result.train_steps += steps
    result.eval_steps += tr.eval_episodes * tr.steps_per_episode
    _check_training(art, cfg, eval_log)
    result.digests.append(_digest(out_dir))
    result.sum_rates.append(final_quarter_mean(art.log.sumrate_rows))
    result.scalars_per_step.append(art.ledger.scalars_total / steps)


def _oracle_op(cfg: config.RunConfig, index: int, snapshot_seed: int,
               result: JobResult) -> None:
    """One frozen snapshot built as `cellshare oracle` builds it, its
    SINR-report measurement, then the one-step brute-force search."""
    net = cfg.network
    L = net.cells
    t0 = time.perf_counter()
    users_rng, channel_rng = map(
        np.random.default_rng, np.random.SeedSequence(snapshot_seed).spawn(2))
    layout = geometry.build_layout(L, net.inter_site_distance)
    users = geometry.spawn_users(layout, net.users_per_cell, net.cell_radius,
                                 users_rng)
    channels = channel.sample_channels(layout, users, net, channel_rng)
    codebook = channel.beam_codebook(net.antennas, net.codebook_bits)
    powers_dbm = np.tile(control.initial_powers_dbm(net), (L, 1))
    beams = channel.matched_beams(channels, codebook)
    powers_mw = 10.0 ** (powers_dbm / 10.0)
    table = physics.received_powers(channels, powers_mw, beams, codebook)
    gammas = physics.sinr(table, net.noise_mw)
    estimates = physics.measure_inter_cell(gammas, powers_mw, beams, channels,
                                           net.noise_mw, codebook)
    combo, best = oracle.brute_force_step(channels, powers_dbm, beams, net,
                                          codebook)
    result.op_s["snapshot/%d" % index] = time.perf_counter() - t0

    rel = np.abs(estimates - table.inter_total) / table.inter_total
    if not float(rel.max()) <= MEASUREMENT_TOLERANCE:
        raise CheckFailed("measured inter-cell power off by %.3e (> %g)"
                          % (float(rel.max()), MEASUREMENT_TOLERANCE))
    # the search starts from joint action 0 of every cell; its best rate
    # must be at least that candidate's and equal its own combo's rate
    rates = []
    for actions in ((0,) * L, combo):
        moved = [control.apply_joint_action(a, powers_dbm[ell], beams[ell],
                                            net)
                 for ell, a in enumerate(actions)]
        rates.append(oracle.evaluate_configuration(
            channels, np.array([m[0] for m in moved]),
            np.array([m[1] for m in moved]), net, codebook))
    if not (math.isfinite(best) and best >= rates[0] and best == rates[1]):
        raise CheckFailed("oracle best %r vs first candidate %r, own combo "
                          "%r" % (best, rates[0], rates[1]))
    result.digests.append("%s:%s" % (",".join(map(str, combo)),
                                     float(best).hex()))
    result.sum_rates.append(best)


def run_job(workload: Workload, cfg: config.RunConfig, seed: int,
            out_dir: str,
            time_reference: Callable[[], float]) -> JobResult:
    """The workload's whole timed job. A failing operation is recorded
    with its message and the job carries on with the next one.

    The job is cut into steps: one framework's train + write + evaluate,
    or SNAPSHOTS_PER_STEP snapshot searches. Just before each step,
    `time_reference()` times the benchmark's fixed reference loop; the
    step's cost is its calls' wall time in units of that reference time.
    """
    result = JobResult()
    t0 = time.perf_counter()
    if workload.kind == "train":
        steps = [(fw, [fw]) for fw in workload.frameworks]
    else:
        snapshots = list(range(workload.snapshots))
        steps = [("snapshots/%d" % k, snapshots[k:k + SNAPSHOTS_PER_STEP])
                 for k in range(0, len(snapshots), SNAPSHOTS_PER_STEP)]
    for key, items in steps:
        reference_s = time_reference()
        result.reference_s.append(reference_s)
        before = sum(result.op_s.values())
        for item in items:
            result.ops += 1
            try:
                if workload.kind == "train":
                    _train_op(cfg, item, seed, os.path.join(out_dir, item),
                              result)
                else:
                    _oracle_op(cfg, item, seed * 1_000_003 + item, result)
            except OP_ERRORS as err:
                result.faults.append("%s seed %d: %s: %s" % (
                    item, seed, type(err).__name__, err))
            except CheckFailed as err:
                result.check_failures.append("%s seed %d: %s" % (
                    item, seed, err))
        result.step_cost[key] = \
            (sum(result.op_s.values()) - before) / reference_s
    result.wall_s = time.perf_counter() - t0
    return result
