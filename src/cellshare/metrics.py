"""Run metrics, CCDF computation and the CSV/JSON artifact writers.

All numeric CSV cells use 12 significant digits so that repeated runs
produce byte-identical files and parsing a file and re-serializing it
reproduces the bytes. ``_CELL_FORMATS`` is the rule for a cell: a CSV
cell is a plain int, float or str, and ``write_csv`` refuses any other.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import ContractViolation

SINR_HEADER = ("episode", "cell", "ue", "sinr_db")
SUMRATE_HEADER = ("episode", "sum_rate")
OVERHEAD_HEADER = ("step", "agent", "experiences_tx", "scalars_tx")
# 1 dB levels a CCDF grid may span; SINRs span a few hundred dB
CCDF_GRID_LIMIT = 10 ** 5


class StepRow(NamedTuple):
    episode: int
    step: int
    agent: int
    reward: float
    loss: float               # nan when the gradient step was skipped
    epsilon: float
    shared_tx: int
    shared_rx: int


METRICS_HEADER = StepRow._fields


@dataclass
class MetricsLog:
    step_rows: List[StepRow] = field(default_factory=list)
    # one row per (episode, cell, user): the episode's effective SINR (dB)
    sinr_rows: List[Tuple[int, int, int, float]] = field(default_factory=list)
    sumrate_rows: List[Tuple[int, float]] = field(default_factory=list)

    def add_episode(self, episode: int, effective_sinr: np.ndarray) -> None:
        """Log an episode's (L, U) linear SINRs and their sum-rate."""
        cells, users = effective_sinr.shape
        for ell in range(cells):
            for u in range(users):
                value = effective_sinr[ell, u]
                db = 10.0 * math.log10(value) if value > 0 else -math.inf
                self.sinr_rows.append((episode, ell, u, db))
        self.sumrate_rows.append((episode, network_sum_rate(effective_sinr)))


def network_sum_rate(sinrs: np.ndarray) -> float | np.ndarray:
    """Sum of log2(1 + SINR) over the trailing (L, U) axes: a float for
    one network, a (B,) array for a batch of B."""
    rates = np.log2(1.0 + np.asarray(sinrs, dtype=float)).sum(axis=(-2, -1))
    return float(rates) if rates.ndim == 0 else rates


def final_quarter_sum_rate(sumrate_rows: Sequence[Tuple]) -> float:
    """Mean sum-rate over the last quarter of the episodes (at least
    one): the run's reported sum-rate; NaN when there are none."""
    window = max(1, len(sumrate_rows) // 4)
    rates = [rate for _episode, rate in sumrate_rows[-window:]]
    return float(np.mean(rates)) if rates else math.nan


def ccdf(samples_db: Sequence[float], grid: Sequence[float]
         ) -> List[Tuple[float, float]]:
    """Fraction of samples strictly above each threshold."""
    samples = np.sort(np.asarray(list(samples_db), dtype=float))
    if samples.size == 0 or np.isnan(samples[-1]):  # a sort puts NaN last
        raise ContractViolation("ccdf needs samples, none of them NaN")
    above = samples.size - np.searchsorted(samples, grid, side="right")
    return list(zip(map(float, grid), (above / samples.size).tolist()))


def ccdf_grid(samples_db: Sequence[float]) -> np.ndarray:
    """Integer dB thresholds spanning the sample range, 1 dB apart.

    The span covers the finite samples only; a -inf sample (a user with
    zero received power) still counts in the fractions but cannot anchor
    an integer grid. One of over ``CCDF_GRID_LIMIT`` levels is refused.
    """
    samples = np.asarray(list(samples_db), dtype=float)
    samples = samples[np.isfinite(samples)]
    if samples.size == 0:
        raise ContractViolation("ccdf needs at least one finite sample")
    lo = math.floor(float(samples.min()))
    hi = math.ceil(float(samples.max()))
    if hi - lo + 1 > CCDF_GRID_LIMIT:
        raise ContractViolation("ccdf grid from %g to %g dB exceeds %d levels"
                                % (lo, hi, CCDF_GRID_LIMIT))
    return np.arange(lo, hi + 1, dtype=float)


# the rendering of each CSV cell type (12 significant digits for a float)
_CELL_FORMATS = {int: "%d", float: "%.12g", str: "%s"}


def write_csv(path: str, header: Sequence[str],
              rows: Iterable[Sequence]) -> None:
    """One line per row, each cell rendered by ``_CELL_FORMATS``. A row
    takes one %-format, made again only where a row's cell types differ
    from the row before. A cell that is not a plain int, float or str (a
    bool, a numpy scalar, None) is refused before the file is opened."""
    lines = [",".join(header)]
    kinds = fmt = None
    for row in rows:
        row_kinds = [type(v) for v in row]
        if row_kinds != kinds:
            for kind in row_kinds:
                if kind not in _CELL_FORMATS:
                    raise ContractViolation("CSV row %d has a %s cell"
                                            % (len(lines), kind.__name__))
            kinds = row_kinds
            fmt = ",".join([_CELL_FORMATS[kind] for kind in kinds])
        lines.append(fmt % tuple(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path: str) -> Tuple[List[str], List[Tuple[int, List[str]]]]:
    """Header and rows of a UTF-8 CSV file, blank lines skipped; each
    row is a (file line, cells) pair. A file that is not UTF-8 text or
    holds no header raises IOError, as an unreadable file does."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(n, ln.rstrip("\n").split(","))
                     for n, ln in enumerate(fh, start=1) if ln.strip() != ""]
    except UnicodeDecodeError as err:
        raise IOError("%s: not UTF-8 text: %s" % (path, err))
    if not lines:
        raise IOError("%s: empty CSV" % path)
    return lines[0][1], lines[1:]


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
