"""Run metrics, CCDF computation and the CSV/JSON artifact writers.

All numeric CSV cells use 12 significant digits so that repeated runs
produce byte-identical files and parsing a file and re-serializing it
reproduces the bytes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import ContractViolation

METRICS_HEADER = ("episode", "step", "agent", "reward", "loss", "epsilon",
                  "shared_tx", "shared_rx")
SINR_HEADER = ("episode", "cell", "ue", "sinr_db")
SUMRATE_HEADER = ("episode", "sum_rate")
OVERHEAD_HEADER = ("step", "agent", "experiences_tx", "scalars_tx")


class StepRow(NamedTuple):
    episode: int
    step: int
    agent: int
    reward: float
    loss: float               # nan when the gradient step was skipped
    epsilon: float
    shared_tx: int
    shared_rx: int


@dataclass
class MetricsLog:
    step_rows: List[StepRow] = field(default_factory=list)
    # one row per (episode, cell, user): the episode's effective SINR (dB)
    sinr_rows: List[Tuple[int, int, int, float]] = field(default_factory=list)
    sumrate_rows: List[Tuple[int, float]] = field(default_factory=list)

    def add_episode(self, episode: int, effective_sinr: np.ndarray,
                    sum_rate: float) -> None:
        cells, users = effective_sinr.shape
        for ell in range(cells):
            for u in range(users):
                value = effective_sinr[ell, u]
                db = 10.0 * math.log10(value) if value > 0 else -math.inf
                self.sinr_rows.append((episode, ell, u, db))
        self.sumrate_rows.append((episode, float(sum_rate)))


def network_sum_rate(sinrs: np.ndarray) -> float | np.ndarray:
    """Sum of log2(1 + SINR) over the trailing (L, U) axes: a float for
    one network, a (B,) array for a batch of B."""
    rates = np.log2(1.0 + np.asarray(sinrs, dtype=float)).sum(axis=(-2, -1))
    return float(rates) if rates.ndim == 0 else rates


def sum_rate_metric(log: MetricsLog) -> float:
    """Average per-episode network sum-rate."""
    if not log.sumrate_rows:
        raise ContractViolation("metrics log holds no episodes")
    return float(np.mean([row[1] for row in log.sumrate_rows]))


def ccdf(samples_db: Sequence[float], grid: Sequence[float]
         ) -> List[Tuple[float, float]]:
    """Fraction of samples strictly above each threshold."""
    samples = np.asarray(list(samples_db), dtype=float)
    if samples.size == 0:
        raise ContractViolation("ccdf needs at least one sample")
    out = []
    for threshold in grid:
        frac = float(np.mean(samples > threshold))
        out.append((float(threshold), frac))
    return out


def ccdf_grid(samples_db: Sequence[float]) -> np.ndarray:
    """Integer dB thresholds spanning the sample range, 1 dB apart.

    The span covers the finite samples only; a -inf sample (a user with
    zero received power) still counts in the fractions but cannot anchor
    an integer grid.
    """
    samples = np.asarray(list(samples_db), dtype=float)
    samples = samples[np.isfinite(samples)]
    if samples.size == 0:
        raise ContractViolation("ccdf needs at least one finite sample")
    lo = math.floor(float(samples.min()))
    hi = math.ceil(float(samples.max()))
    return np.arange(lo, hi + 1, dtype=float)


def format_cell(value) -> str:
    """Canonical CSV cell rendering (12 significant digits)."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.12g" % float(value)


def write_csv(path: str, header: Sequence[str],
              rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path: str, numbered: bool = False) -> Tuple[List[str], List]:
    """Header and rows of a CSV file, blank lines skipped; with
    ``numbered`` each row is a (file line, cells) pair."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, ln.rstrip("\n").split(","))
                 for n, ln in enumerate(fh, start=1) if ln.strip() != ""]
    if not lines:
        raise ContractViolation("%s: empty CSV" % path)
    rows = lines[1:] if numbered else [cells for _n, cells in lines[1:]]
    return lines[0][1], rows


def write_run_outputs(out_dir: str, log: MetricsLog, ledger_rows: List[Tuple],
                      run_info: Dict) -> None:
    """Write the four CSVs plus the resolved-config snapshot."""
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "metrics.csv"), METRICS_HEADER,
              log.step_rows)
    write_csv(os.path.join(out_dir, "sinr_samples.csv"), SINR_HEADER,
              log.sinr_rows)
    write_csv(os.path.join(out_dir, "sumrate.csv"), SUMRATE_HEADER,
              log.sumrate_rows)
    write_csv(os.path.join(out_dir, "overhead.csv"), OVERHEAD_HEADER,
              ledger_rows)
    with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(run_info, fh, indent=2, sort_keys=True)
        fh.write("\n")
