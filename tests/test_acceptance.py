"""Release acceptance suite.

One test per numbered release criterion. Every test records a single
`[criterion NN] PASS/FAIL: ...` line (emitted in a terminal-summary
section after capture stops) and then asserts the same condition. Desk
scale (two cells, three users, 200 episodes of 50 steps) training runs
are cached module-wide because several criteria examine the same runs.
"""

import math
import time
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

import conftest
from conftest import (
    desk_config,
    finite_difference_grads,
    gradient_mismatch,
    random_batch,
    random_snapshot,
    tiny_config,
)

from cellshare import control
from cellshare.channel import beam_codebook, matched_beams
from cellshare.cli import main
from cellshare.config import dump_config
from cellshare.environment import Environment
from cellshare.metrics import MetricsLog, ccdf, final_quarter_sum_rate
from cellshare.oracle import brute_force_step, evaluate_configuration
from cellshare.physics import measure_inter_cell, received_powers, sinr
from cellshare.qnet import QNetwork, loss_and_gradients, q_forward
from cellshare.replay import experience_scalars
from cellshare.training import run_training


def _report(number: int, ok: bool, detail: str) -> str:
    line = "[criterion %02d] %s: %s" % (number, "PASS" if ok else "FAIL",
                                        detail)
    conftest.ACCEPTANCE_LINES.append(line)
    return line


@dataclass
class _DeskRun:
    ledger_rows: List[Tuple]
    experiences_total: int
    scalars_total: int
    zero_share_fraction: float
    sumrate_rows: List[Tuple[int, float]]


_DESK_CACHE = {}


def _desk_run(framework: str, seed: int, thr_dbm=None) -> _DeskRun:
    key = (framework, seed, thr_dbm)
    if key not in _DESK_CACHE:
        cfg = desk_config()
        if thr_dbm is not None:
            cfg.network.interference_threshold_dbm = thr_dbm
        artifacts = run_training(cfg, framework, seed)
        ledger = artifacts.ledger
        _DESK_CACHE[key] = _DeskRun(
            ledger_rows=list(ledger.rows),
            experiences_total=ledger.experiences_total,
            scalars_total=ledger.scalars_total,
            zero_share_fraction=ledger.zero_share_fraction(),
            sumrate_rows=list(artifacts.log.sumrate_rows))
    return _DESK_CACHE[key]


def _framework_mean(framework: str, seeds) -> float:
    return float(np.mean([
        final_quarter_sum_rate(_desk_run(framework, s).sumrate_rows)
        for s in seeds]))


def test_criterion_01_interference_measurement_identity():
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(1000):
        net_cfg, _, _, channels, codebook = random_snapshot(50000 + trial)
        powers_dbm = np.tile(control.initial_powers_dbm(net_cfg),
                             (net_cfg.cells, 1))
        powers_mw = 10.0 ** (powers_dbm / 10.0)
        beams = matched_beams(channels, codebook)
        table = received_powers(channels, powers_mw, beams, codebook)
        gammas = sinr(table, net_cfg.noise_mw)
        est = measure_inter_cell(gammas, powers_mw, beams, channels,
                                 net_cfg.noise_mw, codebook)
        rel = np.abs(est - table.inter_total) / table.inter_total
        worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    line = _report(1, ok,
                   "worst relative error %.3e over 1000 snapshots "
                   "(< 1e-9), %.1f s (< 5 s)" % (worst, elapsed))
    assert ok, line


def test_criterion_02_codebook_suite():
    t0 = time.monotonic()
    worst_norm = 0.0
    exact = True
    for antennas in (1, 2, 4, 8):
        for bits in (1, 2, 3):
            cb = beam_codebook(antennas, bits)
            if cb.size != 2 ** bits:
                exact = False
            modulus = np.abs(cb.vectors)
            if not np.all(modulus == 1.0 / np.sqrt(antennas)):
                exact = False
            norms = np.linalg.norm(cb.vectors, axis=1)
            worst_norm = max(worst_norm, float(np.max(np.abs(norms - 1.0))))
    elapsed = time.monotonic() - t0
    ok = exact and worst_norm <= 1e-12 and elapsed < 1.0
    line = _report(2, ok,
                   "12 codebooks: modulus exact, worst norm error %.2e "
                   "(<= 1e-12), %.2f s (< 1 s)" % (worst_norm, elapsed))
    assert ok, line


def test_criterion_03_gradient_check():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        net = QNetwork(6, 8, hidden=(8, 7), rng=rng, init_gain=0.5)
        target = QNetwork(6, 8, hidden=(8, 7), rng=rng, init_gain=0.5)
        batch = random_batch(rng, 6, 8, 6)
        _, analytic = loss_and_gradients(net, target, *batch, 0.9)
        numeric = finite_difference_grads(net, target, batch, 0.9)
        worst = max(worst, gradient_mismatch(analytic, numeric))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and elapsed < 10.0
    line = _report(3, ok,
                   "10 instances: worst per-parameter relative error %.2e "
                   "(< 1e-4), %.1f s (< 10 s)" % (worst, elapsed))
    assert ok, line


def test_criterion_04_constraint_enforcement():
    t0 = time.monotonic()
    # the trainer asserts the power budget and beam bounds at every one
    # of the 10000 steps; any violation raises and fails this test
    run = _desk_run("smart", 0)
    steps = len({row[0] for row in run.ledger_rows})
    elapsed = time.monotonic() - t0
    ok = steps == 200 * 50 and elapsed < 300.0
    line = _report(4, ok,
                   "desk-scale run completed %d steps with per-step budget "
                   "and beam asserts, %.1f s (< 5 min)" % (steps, elapsed))
    assert ok, line


def test_criterion_05_sharing_fraction_and_monotonicity():
    t0 = time.monotonic()
    at_110 = _desk_run("smart", 0)
    at_100 = _desk_run("smart", 0, thr_dbm=-100.0)
    zsh = at_110.zero_share_fraction
    elapsed = time.monotonic() - t0
    ok = (0.40 <= zsh <= 0.95
          and at_110.experiences_total > at_100.experiences_total
          and elapsed < 300.0)
    line = _report(5, ok,
                   "zero-share fraction %.4f in [0.40, 0.95]; shared "
                   "%d at -110 dBm > %d at -100 dBm; %.1f s (< 5 min)"
                   % (zsh, at_110.experiences_total,
                      at_100.experiences_total, elapsed))
    assert ok, line


def test_criterion_06_framework_ordering():
    t0 = time.monotonic()
    seeds = range(5)
    share_all = _framework_mean("share-all", seeds)
    smart = _framework_mean("smart", seeds)
    share_nothing = _framework_mean("share-nothing", seeds)
    elapsed = time.monotonic() - t0
    ok = (share_all >= smart >= share_nothing
          and smart >= 0.90 * share_all
          and elapsed < 1800.0)
    line = _report(6, ok,
                   "mean final-quarter sum-rate over seeds 0-4: share-all "
                   "%.4f >= smart %.4f >= share-nothing %.4f, smart/share-all "
                   "%.4f >= 0.90; %.0f s (< 30 min)"
                   % (share_all, smart, share_nothing, smart / share_all,
                      elapsed))
    assert ok, line


def test_criterion_07_common_reward_baseline():
    t0 = time.monotonic()
    seeds = range(5)
    crdu = _framework_mean("crdu", seeds)
    smart = _framework_mean("smart", seeds)
    elapsed = time.monotonic() - t0
    ok = crdu <= 1.05 * smart
    line = _report(7, ok,
                   "crdu mean %.4f <= 1.05 x smart mean %.4f "
                   "(ratio %.4f); %.0f s (runs shared with criterion 6)"
                   % (crdu, smart, crdu / smart, elapsed))
    assert ok, line


def test_criterion_08_oracle_gap():
    t0 = time.monotonic()
    cfg = tiny_config()
    net_cfg = cfg.network
    artifacts = run_training(cfg, "share-nothing", seed=3)

    # the run's first episode start: its environment takes the first two
    # children of the run's seed for its user and channel streams
    env = Environment(net_cfg, np.random.SeedSequence(3))
    env.reset()
    actions = [int(np.argmax(q_forward(artifacts.agent_nets[ell], state)))
               for ell, state in enumerate(env.states())]
    new_powers, new_beams = control.apply_joint_action(
        actions, env.powers_dbm, env.beams, net_cfg)
    agent_rate = evaluate_configuration(env.channels, new_powers, new_beams,
                                        net_cfg, env.codebook)
    _, best_rate = brute_force_step(env.channels, env.powers_dbm, env.beams,
                                    net_cfg, env.codebook)
    ratio = agent_rate / best_rate
    elapsed = time.monotonic() - t0
    ok = ratio >= 0.80 and elapsed < 120.0
    line = _report(8, ok,
                   "greedy first move reaches %.4f of the one-step optimum "
                   "%.4f (ratio %.4f >= 0.80), %.1f s (< 2 min)"
                   % (agent_rate, best_rate, ratio, elapsed))
    assert ok, line


def test_criterion_09_metric_recomputation():
    t0 = time.monotonic()
    # the reported metric: each episode's sum-rate as the log derives it
    # from the episode's SINRs, and the final-quarter mean of those
    sinrs = np.random.default_rng(9).exponential(10.0, size=(8, 2, 3))
    sinrs[0, 1, 2] = 0.0  # a user with zero received power
    log = MetricsLog()
    for episode, sinr in enumerate(sinrs):
        log.add_episode(episode, sinr)
    rates = [sum(math.log2(1.0 + g) for g in sinr.ravel().tolist())
             for sinr in sinrs]
    logged = [rate for _episode, rate in log.sumrate_rows]
    metric_err = max(abs(got - want) for got, want in zip(logged, rates))
    last_quarter = rates[-(len(rates) // 4):]
    metric_err = max(metric_err, abs(
        final_quarter_sum_rate(log.sumrate_rows)
        - sum(last_quarter) / len(last_quarter)))

    samples = [0.0, 10.0, 20.0]
    grid = [5.0, 15.0]
    got = ccdf(samples, grid)
    ccdf_err = 0.0
    for (threshold, fraction) in got:
        manual = sum(1 for s in samples if s > threshold) / len(samples)
        ccdf_err = max(ccdf_err, abs(fraction - manual))
    elapsed = time.monotonic() - t0
    ok = (len(logged) == len(rates) and metric_err <= 1e-12
          and ccdf_err <= 1e-12 and elapsed < 1.0)
    line = _report(9, ok,
                   "episode and final-quarter sum-rate error %.1e, ccdf "
                   "error %.1e (both <= 1e-12), %.2f s (< 1 s)"
                   % (metric_err, ccdf_err, elapsed))
    assert ok, line


def test_criterion_10_byte_identical_runs(tmp_path, monkeypatch):
    t0 = time.monotonic()
    monkeypatch.delenv("CELLSHARE_SEED", raising=False)
    conf = tmp_path / "desk.conf"
    conf.write_text(dump_config(desk_config()))
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        code = main(["train", "--config", str(conf), "--framework", "smart",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
    names = ("metrics.csv", "sinr_samples.csv", "sumrate.csv",
             "overhead.csv", "run.json")
    identical = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
                    for n in names)
    elapsed = time.monotonic() - t0
    ok = identical and elapsed < 300.0
    line = _report(10, ok,
                   "two runs byte-identical across %d "
                   "artifact files, %.1f s (< 5 min)" % (len(names), elapsed))
    assert ok, line


def test_criterion_11_overhead_accounting():
    t0 = time.monotonic()
    cfg = desk_config()
    steps = cfg.training.episodes * cfg.training.steps_per_episode
    L = cfg.network.cells
    U = cfg.network.users_per_cell

    flood = _desk_run("share-all", 0)
    silent = _desk_run("share-nothing", 0)
    gated = _desk_run("smart", 0)

    expect_flood = steps * L * (L - 1) * U
    flood_ok = (flood.experiences_total == expect_flood
                and flood.scalars_total
                == expect_flood * experience_scalars(U))
    silent_ok = silent.experiences_total == 0 and silent.scalars_total == 0

    per_step_gated = {}
    for row in gated.ledger_rows:
        per_step_gated[row[0]] = per_step_gated.get(row[0], 0) + row[2]
    per_step_flood = {}
    for row in flood.ledger_rows:
        per_step_flood[row[0]] = per_step_flood.get(row[0], 0) + row[2]
    gated_ok = all(per_step_gated[s] <= per_step_flood[s]
                   for s in per_step_flood)
    elapsed = time.monotonic() - t0
    ok = flood_ok and silent_ok and gated_ok
    line = _report(11, ok,
                   "share-all %d == %d exactly, share-nothing 0, smart <= "
                   "share-all on each of %d steps; %.1f s"
                   % (flood.experiences_total, expect_flood, steps, elapsed))
    assert ok, line
