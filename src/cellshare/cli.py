"""Command line entry point.

Subcommands: train, compare, ccdf, oracle, print-config. Exit codes:
0 success, 1 config or command-line usage error, 2 runtime abort, 3 I/O
error. The CELLSHARE_SEED environment variable overrides --seed; the
effective seed and the fact that it was overridden are echoed into
run.json.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__, metrics, oracle, sharing
from .config import (RunConfig, default_config, dump_config, load_config,
                     resolved_dict, validate_config)
from .errors import (CellshareError, ConfigError, ContractViolation,
                     TrainingFault)
from .environment import Environment
from .training import RunArtifacts, evaluate, run_training

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_IO = 3

SEED_ENV_VAR = "CELLSHARE_SEED"
EVAL_SEED_OFFSET = 9973

SUMMARY_HEADER = ("framework", "seed", "final_sum_rate", "mean_eval_sinr_db",
                  "overhead_scalars", "zero_share_fraction", "status")


def _resolve_seed(cli_seed: int) -> Tuple[int, bool]:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        source, seed = "--seed", cli_seed
    else:
        source = SEED_ENV_VAR
        try:
            seed = int(raw)
        except ValueError:
            raise ConfigError("%s=%r is not an integer" % (SEED_ENV_VAR, raw))
    if seed < 0:
        raise ConfigError("%s must be >= 0, got %d" % (source, seed))
    return seed, raw is not None


def _load(config_path: Optional[str]) -> RunConfig:
    if config_path is None:
        cfg = default_config()
        validate_config(cfg)
        return cfg
    if not os.path.isfile(config_path):
        raise IOError("config file not found: %s" % config_path)
    return load_config(config_path)


def _write_artifacts(out_dir: str, artifacts: RunArtifacts,
                     overridden: bool, status: str) -> None:
    ledger = artifacts.ledger
    info = {
        "version": __version__,
        "framework": artifacts.framework,
        "seed": artifacts.seed,
        "seed_env_override": overridden,
        "status": status,
        "config": resolved_dict(artifacts.config),
        "train_step_count": artifacts.train_step_count,
        "final_epsilon": artifacts.final_epsilon,
        "experiences_shared_total": ledger.experiences_total,
        "scalars_shared_total": ledger.scalars_total,
        "zero_share_fraction": ledger.zero_share_fraction(),
        "final_quarter_sum_rate": metrics.final_quarter_sum_rate(
            artifacts.log.sumrate_rows),
    }
    metrics.write_run_outputs(out_dir, artifacts.log, ledger.rows, info)


def _train_and_write(cfg: RunConfig, framework: str, seed: int,
                     overridden: bool, out_dir: str) -> RunArtifacts:
    """Train one run and write its artifacts; a TrainingFault's partial
    artifacts are written as aborted before it is re-raised."""
    try:
        artifacts = run_training(cfg, framework, seed)
    except TrainingFault as fault:
        # keep whatever the run produced before it died
        if fault.artifacts is not None:
            _write_artifacts(out_dir, fault.artifacts, overridden,
                             "aborted: %s" % fault)
        raise
    _write_artifacts(out_dir, artifacts, overridden, "ok")
    return artifacts


def cmd_train(args) -> int:
    cfg = _load(args.config)
    seed, overridden = _resolve_seed(args.seed)
    try:
        _train_and_write(cfg, args.framework, seed, overridden, args.out)
    except TrainingFault as fault:
        print("training aborted: %s" % fault, file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _summary_row(artifacts: RunArtifacts) -> Tuple:
    eval_log = evaluate(artifacts.agent_nets, artifacts.config,
                        artifacts.config.training.eval_episodes,
                        artifacts.seed + EVAL_SEED_OFFSET)
    return (artifacts.framework, artifacts.seed,
            metrics.final_quarter_sum_rate(artifacts.log.sumrate_rows),
            float(np.mean([row[3] for row in eval_log.sinr_rows])),
            artifacts.ledger.scalars_total,
            artifacts.ledger.zero_share_fraction(), "ok")


def cmd_compare(args) -> int:
    cfg = _load(args.config)
    base_seed, overridden = _resolve_seed(args.seed)
    frameworks = [name.strip() for name in args.frameworks.split(",")
                  if name.strip()]
    if not frameworks:
        raise ConfigError("--frameworks must name at least one framework")
    for i, name in enumerate(frameworks):
        if name not in sharing.FRAMEWORKS:
            raise ConfigError("unknown framework %r (expected one of %s)"
                              % (name, ", ".join(sharing.FRAMEWORKS)))
        if name in frameworks[:i]:
            raise ConfigError("--frameworks lists %r twice" % name)
    if args.seeds < 1:
        raise ConfigError("--seeds must be >= 1")

    os.makedirs(args.out, exist_ok=True)
    rows: List[Tuple] = []
    for name in frameworks:
        for k in range(args.seeds):
            seed = base_seed + k
            run_dir = os.path.join(args.out, name, "seed%d" % seed)
            try:
                artifacts = _train_and_write(cfg, name, seed, overridden,
                                             run_dir)
                row = _summary_row(artifacts)
            except CellshareError as err:
                print("%s seed %d failed: %s" % (name, seed, err),
                      file=sys.stderr)
                row = (name, seed, math.nan, math.nan, 0, math.nan, "failed")
            rows.append(row)
    ok = [row for row in rows if row[-1] == "ok"]

    # aggregate rows over the successful seeds (population std)
    for name in frameworks:
        good = [row for row in ok if row[0] == name]
        for label, reducer in (("mean", np.mean), ("std", np.std)):
            if good:
                agg = tuple(float(reducer([r[col] for r in good]))
                            for col in (2, 3, 4, 5))
            else:
                agg = (math.nan,) * 4
            rows.append((name, label) + agg + ("aggregate",))

    metrics.write_csv(os.path.join(args.out, "summary.csv"), SUMMARY_HEADER,
                      rows)
    return EXIT_OK if len(ok) == len(frameworks) * args.seeds else EXIT_RUNTIME


def _parse_sinr_column(path: str) -> List[float]:
    header, rows = metrics.read_csv(path)
    if "sinr_db" not in header:
        raise IOError("%s: no sinr_db column in header %r" % (path, header))
    col = header.index("sinr_db")
    samples = []
    for line_no, row in rows:
        if len(row) != len(header):
            raise IOError("%s: row %d has %d cells, expected %d"
                          % (path, line_no, len(row), len(header)))
        try:
            samples.append(float(row[col]))
        except ValueError:
            samples.append(math.nan)
        if math.isnan(samples[-1]):  # no run writes NaN; -inf is valid
            raise IOError("%s: row %d: unparsable sinr_db %r"
                          % (path, line_no, row[col]))
    if not samples:
        raise IOError("%s: no sample rows" % path)
    return samples


def cmd_ccdf(args) -> int:
    if not os.path.isfile(args.input):
        raise IOError("input file not found: %s" % args.input)
    samples = _parse_sinr_column(args.input)
    try:
        grid = metrics.ccdf_grid(samples)
    except ContractViolation as err:
        raise IOError("%s: %s" % (args.input, err))
    rows = metrics.ccdf(samples, grid)
    metrics.write_csv(args.out, ("threshold_db", "fraction"), rows)
    return EXIT_OK


def cmd_oracle(args) -> int:
    cfg = _load(args.config)
    # the snapshot seed is recorded in the CSV itself, not its override
    seed, _ = _resolve_seed(args.seed)
    net_cfg = cfg.network
    env = Environment(net_cfg, np.random.SeedSequence(seed))
    env.reset()
    grid = oracle.default_power_grid(net_cfg, cfg.oracle.power_step_db)
    powers, beams, rate = oracle.global_csi_search(env.channels, grid,
                                                   env.codebook, net_cfg)
    header: List[str] = ["seed", "sum_rate"]
    row: List = [seed, rate]
    for ell in range(net_cfg.cells):
        for u in range(net_cfg.users_per_cell):
            header.append("power_dbm_c%du%d" % (ell, u))
            header.append("beam_c%du%d" % (ell, u))
            row.append(float(powers[ell, u]))
            row.append(int(beams[ell, u]))
    metrics.write_csv(args.out, header, [row])
    return EXIT_OK


def cmd_print_config(args) -> int:
    cfg = _load(args.config)
    sys.stdout.write(dump_config(cfg))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellshare",
        description="Multi-cell downlink simulator with selective "
                    "experience-sharing DQN agents.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run one framework on one seed")
    p.add_argument("--config", default=None, help="config file (key=value)")
    p.add_argument("--framework", default="smart",
                   choices=sharing.FRAMEWORKS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", help="frameworks x seeds sweep")
    p.add_argument("--config", default=None)
    p.add_argument("--frameworks", default=",".join(sharing.FRAMEWORKS),
                   help="comma-separated subset of: %s"
                        % ", ".join(sharing.FRAMEWORKS))
    p.add_argument("--seeds", type=int, default=3,
                   help="number of consecutive seeds per framework")
    p.add_argument("--seed", type=int, default=0, help="first seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("ccdf", help="SINR CCDF on a 1 dB grid")
    p.add_argument("--in", dest="input", required=True,
                   help="sinr_samples.csv from a training run")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ccdf)

    p = sub.add_parser("oracle",
                       help="exhaustive full-CSI search on one snapshot")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("print-config",
                       help="dump every resolved config value")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_print_config)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:
        # argparse exits 2 on a usage error, and 2 means a runtime abort
        # here; --help and --version exit 0
        return EXIT_CONFIG if stop.code else EXIT_OK
    try:
        # every non-finite value meets an explicit refusal, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ConfigError as err:
        print("config error: %s" % err, file=sys.stderr)
        return EXIT_CONFIG
    except CellshareError as err:
        print("runtime error: %s" % err, file=sys.stderr)
        return EXIT_RUNTIME
    except (IOError, OSError) as err:
        print("i/o error: %s" % err, file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
