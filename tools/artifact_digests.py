"""sha256 digests of what short training runs and the oracles produce.

    python3 tools/artifact_digests.py

Prints one ``<case> <sha256>`` line per case, then ``total <sha256>``
over all of them. Two checkouts that print the same lines produce the
same bits on every case; a refactor that must not change behaviour is
run on both and the outputs compared.

Training cases cover 2, 3, 7 and 19 cells, every framework, both
attribution modes and replay buffers of 50 (wrapping) and 10 000 rows,
plus a diverging learning rate of 1e15 for every framework. Each hashes
the run's metric rows (steps, SINR, sum-rate), its ledger rows, every
weight of its acting stack and ctde's central network, one greedy
``evaluate`` episode of the trained stack, and the message of any
package error (with the partial artifacts a ``TrainingFault`` carries).
Oracle cases hash ``evaluate_configuration`` on random configurations,
``brute_force_step`` and ``global_csi_search`` on a few frozen
snapshots; one more case hashes ``build_layout`` for 1 to 127 cells.
CLI cases run ``cellshare train`` (a normal and a diverging run),
``compare`` (two frameworks, one of which diverges), ``oracle`` and
``ccdf`` in process; ``ccdf`` reads the normal run's samples plus one
on every level of its grid and one at -inf. Each hashes the exit code,
stderr and every file the command writes, with ``run.json``'s
``config`` object dropped, so a change that adds or removes a config
key can show that no other byte moved. BLAS runs on one thread, as in
the benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from cellshare import cli, control, oracle, sharing  # noqa: E402
from cellshare.channel import (beam_codebook, matched_beams,  # noqa: E402
                               sample_channels)
from cellshare.config import default_config, dump_config  # noqa: E402
from cellshare.errors import CellshareError, TrainingFault  # noqa: E402
from cellshare.geometry import build_layout, spawn_users  # noqa: E402
from cellshare.training import evaluate, run_training  # noqa: E402

CELLS = (2, 3, 7, 19)
ATTRIBUTIONS = ("measured", "genie")
CAPACITIES = (50, 10000)
DIVERGING_RATE = 1e15
# 2 cells x 2 users, 5 power levels x 2 beams: 10**4 configurations
CLI_ORACLE_CONFIG = """\
[network]
users_per_cell = 2
antennas = 2
codebook_bits = 1

[oracle]
power_step_db = 10
"""


def _update(h, value) -> None:
    """Feed ``value`` to ``h``: arrays as dtype, shape and bytes, other
    values by ``repr`` (exact for Python floats)."""
    if isinstance(value, np.ndarray):
        h.update(b"%s%s" % (str(value.dtype).encode(),
                            repr(value.shape).encode()))
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())
    h.update(b"\0")


def _weights(h, net) -> None:
    for name, param in net.parameters().items():
        _update(h, name)
        _update(h, param)


def _artifacts(h, art) -> None:
    log = art.log
    for rows in (log.step_rows, log.sinr_rows, log.sumrate_rows,
                 art.ledger.rows):
        _update(h, [tuple(row) for row in rows])
    _update(h, (art.ledger.experiences_total, art.ledger.scalars_total,
                art.train_step_count, art.final_epsilon))
    _weights(h, art.agent_nets)
    if art.central_net is not None:
        _weights(h, art.central_net)


def run_config(cells: int, attribution: str, capacity: int,
               learning_rate: float = 0.01):
    cfg = default_config()
    net = cfg.network
    net.cells = cells
    net.antennas = 4
    net.codebook_bits = 6
    net.noise_dbm = -120.0
    net.step_duration = 1e-4
    net.max_bs_power_dbm = 14.0
    tr = cfg.training
    tr.episodes = 3
    tr.steps_per_episode = 12
    tr.batch_size = 16
    tr.buffer_capacity = capacity
    tr.learning_rate = learning_rate
    tr.target_refresh_steps = 5
    tr.eval_episodes = 1
    cfg.sharing.attribution = attribution
    cfg.sharing.ctde_sync_period = 2
    return cfg


def training_case(cfg, framework: str, seed: int) -> str:
    h = hashlib.sha256()
    try:
        # a diverging run overflows on its way to the fault it records
        with np.errstate(over="ignore", invalid="ignore"):
            art = run_training(cfg, framework, seed)
    except TrainingFault as fault:
        _update(h, "TrainingFault: %s" % fault)
        if fault.artifacts is not None:
            _artifacts(h, fault.artifacts)
        return h.hexdigest()
    except CellshareError as err:
        _update(h, "%s: %s" % (type(err).__name__, err))
        return h.hexdigest()
    _artifacts(h, art)
    log = evaluate(art.agent_nets, cfg, cfg.training.eval_episodes, seed + 1)
    for rows in (log.step_rows, log.sinr_rows, log.sumrate_rows):
        _update(h, [tuple(row) for row in rows])
    return h.hexdigest()


def training_cases():
    seed = 0
    for cells in CELLS:
        for framework in sharing.FRAMEWORKS:
            for attribution in ATTRIBUTIONS:
                for capacity in CAPACITIES:
                    seed += 1
                    cfg = run_config(cells, attribution, capacity)
                    name = "train/L%d/%s/%s/cap%d" % (cells, framework,
                                                       attribution, capacity)
                    yield name, training_case(cfg, framework, seed)
    for framework in sharing.FRAMEWORKS:
        cfg = run_config(2, "measured", 10000, DIVERGING_RATE)
        yield "train/diverging/%s" % framework, \
            training_case(cfg, framework, 7)


def snapshot(seed: int, cells: int, users: int, antennas: int, bits: int):
    cfg = default_config().network
    cfg.cells = cells
    cfg.users_per_cell = users
    cfg.antennas = antennas
    cfg.codebook_bits = bits
    cfg.max_bs_power_dbm = 17.0
    cfg.noise_dbm = -120.0
    rng = np.random.default_rng(seed)
    layout = build_layout(cells, cfg.inter_site_distance)
    users_set = spawn_users(layout, users, cfg.cell_radius, rng)
    channels = sample_channels(layout, users_set, cfg, rng)
    return cfg, channels, beam_codebook(antennas, bits), rng


def oracle_cases():
    # (cells, users, antennas, bits)
    shapes = ((2, 1, 2, 1), (2, 2, 4, 3), (3, 1, 4, 2), (7, 2, 8, 3),
              (19, 3, 4, 6), (1, 4, 16, 8))
    for index, (L, U, M, bits) in enumerate(shapes):
        h = hashlib.sha256()
        for seed in range(5):
            cfg, channels, codebook, rng = snapshot(100 * index + seed, L, U,
                                                    M, bits)
            for _ in range(20):
                powers = rng.uniform(cfg.min_ue_power_dbm,
                                     cfg.max_bs_power_dbm - 10.0, (L, U))
                beams = rng.integers(codebook.size, size=(L, U))
                _update(h, oracle.evaluate_configuration(
                    channels, powers, beams, cfg, codebook))
        yield "oracle/evaluate/L%dU%dM%db%d" % (L, U, M, bits), h.hexdigest()

    for L, U, M, bits in ((2, 1, 2, 1), (2, 2, 4, 3), (3, 1, 4, 3)):
        h = hashlib.sha256()
        for seed in range(3):
            cfg, channels, codebook, _ = snapshot(seed, L, U, M, bits)
            powers = np.tile(control.initial_powers_dbm(cfg), (L, 1))
            beams = matched_beams(channels, codebook)
            combo, rate = oracle.brute_force_step(channels, powers, beams,
                                                  cfg, codebook)
            _update(h, (combo, rate))
        yield "oracle/brute_force/L%dU%dM%db%d" % (L, U, M, bits), \
            h.hexdigest()

    for L, U, M, bits, step_db in ((2, 1, 2, 1, 3.0), (2, 2, 2, 1, 10.0),
                                   (3, 1, 4, 2, 6.0)):
        h = hashlib.sha256()
        for seed in range(3):
            cfg, channels, codebook, _ = snapshot(seed, L, U, M, bits)
            grid = oracle.default_power_grid(cfg, step_db)
            powers, beams, rate = oracle.global_csi_search(channels, grid,
                                                           codebook, cfg)
            _update(h, powers)
            _update(h, beams)
            _update(h, rate)
        yield "oracle/global/L%dU%dM%db%d" % (L, U, M, bits), h.hexdigest()


def _written(h, out: str) -> None:
    """Feed every file under ``out`` (or the file ``out``) to ``h`` in
    path order, each ``run.json`` without its ``config`` object."""
    paths = [out] if os.path.isfile(out) else sorted(
        os.path.join(folder, name) for folder, _dirs, names in os.walk(out)
        for name in names)
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        if os.path.basename(path) == "run.json":
            info = json.loads(data)
            del info["config"]
            data = json.dumps(info, indent=2, sort_keys=True).encode()
        _update(h, os.path.relpath(path, os.path.dirname(out)))
        _update(h, data)


def cli_case(tmp: str, argv, out: str) -> str:
    h = hashlib.sha256()
    stderr = io.StringIO()
    # a diverging run overflows on its way to the fault it reports
    with contextlib.redirect_stderr(stderr), np.errstate(all="ignore"):
        code = cli.main(argv)
    _update(h, code)
    _update(h, stderr.getvalue().replace(tmp, "<tmp>"))
    _written(h, out)
    return h.hexdigest()


def with_grid_ties(src: str, dst: str) -> None:
    """Copy the SINR samples CSV ``src`` to ``dst`` with one more sample
    on every integer dB level of its ccdf grid and one at -inf. A run's
    own samples never sit on the grid, so without these a threshold
    compared with >= instead of > would not move the digest."""
    with open(src, encoding="utf-8") as fh:
        text = fh.read()
    header = text.splitlines()[0].split(",")
    column = header.index("sinr_db")
    values = [float(line.split(",")[column])
              for line in text.splitlines()[1:] if line]
    values = [v for v in values if math.isfinite(v)]  # the grid's span
    levels = range(math.floor(min(values)), math.ceil(max(values)) + 1)
    for value in [*map(float, levels), -math.inf]:
        row = ["0"] * len(header)
        row[column] = repr(value)
        text += ",".join(row) + "\n"
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write(text)


def cli_cases():
    with tempfile.TemporaryDirectory() as tmp:
        def path(name):
            return os.path.join(tmp, name)

        # run_config's 2-cell scenario as a config file; at learning rate
        # 1 and seed 5 the compare case's smart run diverges and its
        # share-all run completes (tests/test_tools.py checks this)
        texts = {name: dump_config(run_config(2, "measured", 10000, rate))
                 for name, rate in (("ok", 0.01), ("compare", 1.0),
                                    ("diverging", DIVERGING_RATE))}
        texts["oracle"] = CLI_ORACLE_CONFIG
        configs = {}
        for name, text in texts.items():
            configs[name] = path(name + ".cfg")
            with open(configs[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        for name in ("ok", "diverging"):
            out = path("train-" + name)
            yield "cli/train/" + name, cli_case(
                tmp, ["train", "--config", configs[name], "--framework",
                      "smart", "--seed", "3", "--out", out], out)
        out = path("compare")
        yield "cli/compare", cli_case(
            tmp, ["compare", "--config", configs["compare"], "--frameworks",
                  "smart,share-all", "--seeds", "1", "--seed", "5",
                  "--out", out], out)
        out = path("oracle.csv")
        yield "cli/oracle", cli_case(
            tmp, ["oracle", "--config", configs["oracle"], "--seed", "4",
                  "--out", out], out)
        samples = path("ccdf-samples.csv")
        with_grid_ties(path("train-ok/sinr_samples.csv"), samples)
        out = path("ccdf.csv")
        yield "cli/ccdf", cli_case(
            tmp, ["ccdf", "--in", samples, "--out", out], out)


def layout_case():
    h = hashlib.sha256()
    for cells in range(1, 128):
        for spacing in (1.0, 225.0):
            _update(h, build_layout(cells, spacing).positions)
    yield "layout/1-127", h.hexdigest()


def main() -> int:
    total = hashlib.sha256()
    for cases in (layout_case(), oracle_cases(), training_cases(),
                  cli_cases()):
        for name, digest in cases:
            line = "%s %s" % (name, digest)
            total.update(line.encode() + b"\n")
            print(line, flush=True)
    print("total %s" % total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
