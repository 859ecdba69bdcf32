"""Sum-rate metric, CCDF and the CSV round-trip guarantees."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_snapshot

from cellshare.config import db_to_linear
from cellshare.errors import ContractViolation
from cellshare.metrics import (
    CCDF_GRID_LIMIT,
    METRICS_HEADER,
    MetricsLog,
    StepRow,
    ccdf,
    ccdf_grid,
    final_quarter_sum_rate,
    network_sum_rate,
    read_csv,
    write_csv,
    write_run_outputs,
)
from cellshare.physics import received_powers, sinr


def test_network_sum_rate_hand_values():
    # log2(2) + log2(4) = 3 bits/s/Hz
    assert network_sum_rate(np.array([[1.0, 3.0]])) == pytest.approx(3.0)
    assert network_sum_rate(np.zeros((2, 3))) == 0.0
    assert network_sum_rate(np.array([[1.0], [1.0]])) == pytest.approx(2.0)
    # a (B, L, U) batch sums each network as its own call does
    sinrs = np.random.default_rng(0).exponential(size=(9, 7, 3))
    batch = network_sum_rate(sinrs)
    assert batch.shape == (9,)
    assert batch.tolist() == [network_sum_rate(one) for one in sinrs]


def test_batched_sum_rate_of_a_power_table_equals_each_row_alone():
    # received_powers' batched SINR is not C-ordered; summed in memory
    # order, a fifth of these rows used to miss their own call by an ulp
    net_cfg, _, _, channels, codebook = random_snapshot(7, cells=2, users=4)
    rng = np.random.default_rng(1)
    powers = db_to_linear(rng.uniform(0.0, 30.0, size=(4096, 2, 4)))
    beams = rng.integers(codebook.size, size=(4096, 2, 4))
    gammas = sinr(received_powers(channels, powers, beams, codebook),
                  net_cfg.noise_mw)
    assert not gammas.flags.c_contiguous
    rates = network_sum_rate(gammas)
    assert rates.tolist() == [network_sum_rate(sinr(received_powers(
        channels, p, b, codebook), net_cfg.noise_mw))
        for p, b in zip(powers, beams)]


def test_final_quarter_sum_rate_averages_the_last_quarter():
    rows = list(enumerate([9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 1.0, 2.0, 4.0]))
    assert final_quarter_sum_rate(rows) == 3.0  # the last 9 // 4 = 2
    assert final_quarter_sum_rate(rows[:3]) == 9.0  # at least one
    assert math.isnan(final_quarter_sum_rate([]))


def test_add_episode_records_sinr_in_db():
    log = MetricsLog()
    sinr = np.array([[10.0, 0.0], [1.0, 100.0]])
    log.add_episode(3, sinr)
    assert log.sinr_rows == [(3, 0, 0, 10.0), (3, 0, 1, -math.inf),
                             (3, 1, 0, 0.0), (3, 1, 1, 20.0)]
    assert log.sumrate_rows == [(3, network_sum_rate(sinr))]
    assert type(log.sumrate_rows[0][1]) is float


def test_ccdf_is_strictly_greater():
    values = ccdf([0.0, 1.0, 1.0, 3.0], [0.0, 1.0, 2.0, 3.0])
    assert values == [(0.0, 0.75), (1.0, 0.25), (2.0, 0.25), (3.0, 0.0)]
    with pytest.raises(ContractViolation):
        ccdf([], [0.0])
    with pytest.raises(ContractViolation):
        ccdf([1.0, math.nan], [0.0])


def test_ccdf_equals_the_per_threshold_count():
    rng = np.random.default_rng(0)
    for _ in range(300):
        # half-dB samples: some sit on the integer grid's thresholds
        samples = np.round(rng.normal(0.0, 40.0,
                                      size=int(rng.integers(1, 60)))) / 2
        samples[rng.random(samples.size) < 0.1] = -math.inf
        samples[rng.random(samples.size) < 0.05] = math.inf
        grid = np.arange(-60.0, 61.0)
        expected = [(float(t), float(np.mean(samples > t))) for t in grid]
        assert ccdf(samples, grid) == expected


def test_ccdf_is_nonincreasing():
    rng = np.random.default_rng(0)
    samples = rng.normal(10.0, 8.0, size=500)
    grid = ccdf_grid(samples)
    fracs = [frac for _, frac in ccdf(samples, grid)]
    assert all(a >= b for a, b in zip(fracs, fracs[1:]))
    assert fracs[0] > 0.95 and fracs[-1] == 0.0


def test_ccdf_grid_spans_finite_samples():
    grid = ccdf_grid([-2.3, 4.1])
    assert np.array_equal(grid, np.arange(-3.0, 6.0))
    grid = ccdf_grid([-math.inf, -2.3, 4.1])
    assert np.array_equal(grid, np.arange(-3.0, 6.0))
    # the -inf sample still counts in the fractions
    assert ccdf([-math.inf, 0.0], [-5.0])[0][1] == 0.5
    with pytest.raises(ContractViolation):
        ccdf_grid([-math.inf])


def test_ccdf_grid_refuses_more_levels_than_its_limit():
    assert len(ccdf_grid([0.0, CCDF_GRID_LIMIT - 1.0])) == CCDF_GRID_LIMIT
    for high in (CCDF_GRID_LIMIT, 1e9, 1e18, 1e308):
        with pytest.raises(ContractViolation,
                           match="exceeds %d levels" % CCDF_GRID_LIMIT):
            ccdf_grid([0.0, high])


def test_write_csv_canonical_forms(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(str(path), ("a",), [(2.0 / 3.0,), (1e-11,), (5,),
                                  (float("nan"),), ("smart",)])
    assert path.read_text() == "a\n0.666666666667\n1e-11\n5\nnan\nsmart\n"


def test_csv_round_trip_is_byte_stable(tmp_path):
    rows = [(0, 1, 2, -100.0, float("nan"), 2.0 / 3.0, 5, 0),
            (1, 0, 1, 1234.56789, 0.125, 1e-11, 0, 3)]
    first = tmp_path / "first.csv"
    write_csv(str(first), METRICS_HEADER, rows)
    header, parsed = read_csv(str(first))
    assert header == list(METRICS_HEADER)
    assert [line for line, _cells in parsed] == [2, 3]
    second = tmp_path / "second.csv"
    write_csv(str(second), header, [cells for _line, cells in parsed])
    assert first.read_bytes() == second.read_bytes()


def _rendered(value):
    """A CSV cell's rendering, written out apart from ``write_csv``."""
    if isinstance(value, str):
        return value
    return str(value) if isinstance(value, int) else format(value, ".12g")


_CELLS = [0, 7, -3, 10 ** 30, -10 ** 30, 2.0 / 3.0, float("nan"), math.inf,
          -math.inf, -0.0, 1e-300, 1e300, 5e-324, 0.1, "smart", "", "a b"]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.lists(st.sampled_from(_CELLS), max_size=6),
                          st.booleans()), max_size=8))
def test_write_csv_renders_each_cell_by_its_type(tmp_path_factory, drawn):
    """Byte for byte the header and one rendering per cell, for rows
    (lists or tuples) of plain ints, floats and strings, rows that
    repeat a row's cell types, and no rows at all."""
    rows = [tuple(cells) if as_tuple else cells for cells, as_tuple in drawn]
    rows += rows[:2]
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    write_csv(str(path), ("a", "b"), rows)
    want = "".join(",".join(map(_rendered, row)) + "\n"
                   for row in [("a", "b")] + rows)
    assert path.read_bytes() == want.encode("utf-8")
    write_csv(str(path), ("a", "b"), iter(()))
    assert path.read_bytes() == b"a,b\n"


@pytest.mark.parametrize("cell", [True, np.bool_(True), np.int64(4),
                                  np.float64(0.25), None],
                         ids=["bool", "np.bool_", "np.int64", "np.float64",
                              "None"])
def test_write_csv_refuses_a_cell_that_is_not_int_float_or_str(tmp_path,
                                                                cell):
    # first in the first row, and after a plain row of the same length
    path = tmp_path / "out.csv"
    for rows in ([(cell, 1.5)], [(3, 1.5), (cell, 1.5)]):
        with pytest.raises(ContractViolation,
                           match="a %s cell" % type(cell).__name__):
            write_csv(str(path), ("a", "b"), rows)
        assert not path.exists()


def test_read_csv_rejects_empty(tmp_path):
    # an input file without a header is unreadable input, as a missing
    # or non-UTF-8 one is, not a broken call
    empty = tmp_path / "empty.csv"
    for text in ("", "\n\n"):
        empty.write_text(text)
        with pytest.raises(IOError, match="empty CSV"):
            read_csv(str(empty))


def test_write_run_outputs_creates_artifacts(tmp_path):
    log = MetricsLog()
    log.step_rows.append(StepRow(episode=0, step=0, agent=0, reward=2.0,
                                 loss=float("nan"), epsilon=1.0,
                                 shared_tx=1, shared_rx=0))
    log.add_episode(0, np.array([[1.0, 3.0]]))
    out = tmp_path / "run"
    write_run_outputs(str(out), log, [(0, 0, 1, 27)], {"seed": 7})
    for name in ("metrics.csv", "sinr_samples.csv", "sumrate.csv",
                 "overhead.csv", "run.json"):
        assert (out / name).is_file()
    header, rows = read_csv(str(out / "overhead.csv"))
    assert rows == [(2, ["0", "0", "1", "27"])]
    assert (out / "run.json").read_text().startswith("{")
