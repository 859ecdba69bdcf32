"""Run metrics, CCDF computation and the CSV/JSON artifact writers.

All numeric CSV cells use 12 significant digits so that repeated runs
produce byte-identical files and parsing a file and re-serializing it
reproduces the bytes. ``format_cell`` is the rule for a cell;
``write_csv`` renders a row of plain ints, floats and strings with one
%-format that applies the same rule to each.
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


def format_cell(value) -> str:
    """Canonical CSV cell rendering (12 significant digits)."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.12g" % float(value)


# format_cell's rule for each plain cell type, as a %-format
_CELL_FORMATS = {int: "%d", float: "%.12g", str: "%s"}


def _row_format(kinds: Sequence[type]) -> str | None:
    """The %-format that renders a row of exactly these cell types as
    ``format_cell`` does, or None if one of them is not a plain int,
    float or str."""
    if not all(kind in _CELL_FORMATS for kind in kinds):
        return None
    return ",".join(_CELL_FORMATS[kind] for kind in kinds)


def write_csv(path: str, header: Sequence[str],
              rows: Iterable[Sequence]) -> None:
    """One line per row, each cell as ``format_cell`` renders it. A row
    of plain ints, floats and strings takes one %-format, made again
    only where a row's cell types differ from the row before; any other
    row goes cell by cell."""
    lines = [",".join(header)]
    kinds = fmt = None
    for row in rows:
        row_kinds = [type(v) for v in row]
        if row_kinds != kinds:
            kinds, fmt = row_kinds, _row_format(row_kinds)
        lines.append(",".join(map(format_cell, row)) if fmt is None
                     else fmt % tuple(row))
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
