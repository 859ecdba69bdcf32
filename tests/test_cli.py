"""CLI subcommands, exit codes, artifacts and reproducibility."""

import json
import warnings

import pytest

from conftest import small_run_config, tiny_config

from cellshare import cli
from cellshare.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_RUNTIME,
    SEED_ENV_VAR,
    SUMMARY_HEADER,
    main,
)
from cellshare.config import dump_config
from cellshare.errors import CellshareError
from cellshare.metrics import read_csv

RUN_FILES = ("metrics.csv", "sinr_samples.csv", "sumrate.csv",
             "overhead.csv", "run.json")


@pytest.fixture(autouse=True)
def _clean_seed_env(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


def _config_file(tmp_path, cfg, name="run.conf"):
    path = tmp_path / name
    path.write_text(dump_config(cfg))
    return str(path)


def test_missing_config_exits_io(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "nope.conf"),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_IO
    assert "nope.conf" in capsys.readouterr().err


def test_usage_errors_exit_config(tmp_path, capsys):
    # argparse's own usage-error code is 2, which means a runtime abort
    train = ["train", "--config", _config_file(tmp_path, small_run_config()),
             "--out", str(tmp_path / "out")]
    assert main(train + ["--single-thread"]) == EXIT_CONFIG
    assert main(train + ["--seed", "abc"]) == EXIT_CONFIG
    assert "invalid int value" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(["--version"]) == EXIT_OK
    assert main(["train", "--help"]) == EXIT_OK


def test_print_config_round_trips(tmp_path, capsys):
    assert main(["print-config"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "[network]" in text and "cells = 2" in text
    path = tmp_path / "defaults.conf"
    path.write_text(text)
    assert main(["print-config", "--config", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == text


def test_train_writes_all_artifacts(tmp_path):
    conf = _config_file(tmp_path, small_run_config())
    out = tmp_path / "run"
    code = main(["train", "--config", conf, "--framework", "share-nothing",
                 "--seed", "3", "--out", str(out)])
    assert code == EXIT_OK
    for name in RUN_FILES:
        assert (out / name).is_file()
    info = json.loads((out / "run.json").read_text())
    assert info["status"] == "ok"
    assert info["framework"] == "share-nothing"
    assert info["seed"] == 3
    assert info["seed_env_override"] is False
    assert info["scalars_shared_total"] == 0
    assert info["final_epsilon"] == pytest.approx(0.99 ** 2)
    assert info["config"]["network"]["cells"] == 2
    header, rows = read_csv(str(out / "sumrate.csv"))
    assert header == ["episode", "sum_rate"]
    assert len(rows) == 2


def test_repeat_runs_are_byte_identical(tmp_path):
    conf = _config_file(tmp_path, small_run_config())
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        code = main(["train", "--config", conf, "--framework", "smart",
                     "--seed", "5", "--out", str(out)])
        assert code == EXIT_OK
    for name in RUN_FILES:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_env_variable_overrides_seed(tmp_path, monkeypatch):
    conf = _config_file(tmp_path, small_run_config())
    monkeypatch.setenv(SEED_ENV_VAR, "7")
    out = tmp_path / "run"
    code = main(["train", "--config", conf, "--framework", "share-nothing",
                 "--seed", "0", "--out", str(out)])
    assert code == EXIT_OK
    info = json.loads((out / "run.json").read_text())
    assert info["seed"] == 7
    assert info["seed_env_override"] is True

    monkeypatch.setenv(SEED_ENV_VAR, "not-a-seed")
    assert main(["train", "--config", conf, "--out",
                 str(tmp_path / "bad")]) == EXIT_CONFIG


def test_negative_seed_is_a_config_error(tmp_path, monkeypatch, capsys):
    conf = _config_file(tmp_path, small_run_config())
    out = tmp_path / "out"
    commands = (["train", "--config", conf, "--out", str(out)],
                ["compare", "--config", conf, "--frameworks", "smart",
                 "--seeds", "1", "--out", str(out)],
                ["oracle", "--config", _config_file(tmp_path, tiny_config(),
                                                    "oracle.conf"),
                 "--out", str(out)])
    for argv in commands:
        assert main(argv + ["--seed", "-1"]) == EXIT_CONFIG
        assert "config error: --seed must be >= 0, got -1" \
            in capsys.readouterr().err
    monkeypatch.setenv(SEED_ENV_VAR, "-3")
    for argv in commands:
        assert main(argv) == EXIT_CONFIG
        assert "config error: %s must be >= 0, got -3" % SEED_ENV_VAR \
            in capsys.readouterr().err
    assert not out.exists()


def test_path_loss_overflow_is_a_config_error(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("[network]\ncarrier_freq_hz = 1e-310\n"
                    "ue_speed_mps = 0.0\n[training]\nepisodes = 1\n"
                    "steps_per_episode = 3\n")
    out = tmp_path / "out"
    assert main(["train", "--config", str(conf), "--out", str(out)]) \
        == EXIT_CONFIG
    assert "run.conf line 2: the path-loss gain" in capsys.readouterr().err
    assert not out.exists()


def test_training_fault_exits_runtime_with_partial_artifacts(tmp_path,
                                                             capsys):
    cfg = small_run_config(learning_rate=1e15)
    conf = _config_file(tmp_path, cfg)
    out = tmp_path / "run"
    code = main(["train", "--config", conf, "--framework",
                 "share-nothing", "--seed", "12", "--out", str(out)])
    assert code == EXIT_RUNTIME
    assert "aborted" in capsys.readouterr().err
    info = json.loads((out / "run.json").read_text())
    assert info["status"].startswith("aborted")
    assert (out / "metrics.csv").is_file()


def test_diverging_run_prints_one_line_and_no_numpy_warning(tmp_path,
                                                             capsys):
    # the overflow is refused as a TrainingFault, so numpy's warning
    # and its source line would only be noise before that one line
    cfg = small_run_config(learning_rate=1e15, steps_per_episode=20)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", "--config", _config_file(tmp_path, cfg),
                     "--framework", "smart", "--out", str(tmp_path / "run")])
    assert code == EXIT_RUNTIME
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.startswith("training aborted: non-finite training loss")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_aborted_run_reports_the_epsilon_it_stopped_at(tmp_path):
    # training starts in episode 1, so the fault comes after a decay
    cfg = small_run_config(learning_rate=1e15, episodes=4, batch_size=40,
                           buffer_capacity=100)
    out = tmp_path / "run"
    code = main(["train", "--config", _config_file(tmp_path, cfg),
                 "--framework", "smart", "--seed", "3", "--out", str(out)])
    assert code == EXIT_RUNTIME
    info = json.loads((out / "run.json").read_text())
    assert info["status"].startswith("aborted")
    header, rows = read_csv(str(out / "metrics.csv"))
    _line, last_row = rows[-1]
    assert last_row[header.index("episode")] == "1"
    last = float(last_row[header.index("epsilon")])
    assert last == cfg.training.epsilon_start * cfg.training.epsilon_decay
    assert info["final_epsilon"] == last


def test_any_package_error_exits_runtime(monkeypatch, capsys):
    class NewError(CellshareError):
        pass

    def fail(args):
        raise NewError("no such thing")

    monkeypatch.setattr(cli, "cmd_print_config", fail)
    assert main(["print-config"]) == EXIT_RUNTIME
    assert capsys.readouterr().err == "runtime error: no such thing\n"


def test_ccdf_fractions(tmp_path):
    samples = tmp_path / "sinr_samples.csv"
    samples.write_text("episode,cell,ue,sinr_db\n"
                       "0,0,0,4.2\n0,0,1,6\n0,1,0,7\n")
    out = tmp_path / "ccdf.csv"
    assert main(["ccdf", "--in", str(samples), "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(str(out))
    rows = [cells for _line, cells in rows]
    assert header == ["threshold_db", "fraction"]
    assert rows[0] == ["4", "1"]
    assert ["5", "0.666666666667"] in rows
    assert rows[-1] == ["7", "0"]


def test_ccdf_rejects_malformed_rows(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("episode,cell,ue,sinr_db\n0,0,0,4.2\n0,0,1\n")
    code = main(["ccdf", "--in", str(bad), "--out",
                 str(tmp_path / "out.csv")])
    assert code == EXIT_IO
    assert "row 3" in capsys.readouterr().err
    # blank lines are skipped but still counted: the bad row is line 5
    bad.write_text("episode,cell,ue,sinr_db\n\n0,0,0,4.2\n\n0,0,1,abc\n")
    code = main(["ccdf", "--in", str(bad), "--out",
                 str(tmp_path / "out.csv")])
    assert code == EXIT_IO
    assert "row 5: unparsable sinr_db 'abc'" in capsys.readouterr().err
    bad.write_bytes(b"episode,cell,ue,sinr_db\n0,0,0,\xff\n")
    code = main(["ccdf", "--in", str(bad), "--out",
                 str(tmp_path / "out.csv")])
    assert code == EXIT_IO
    assert capsys.readouterr().err.startswith(
        "i/o error: %s: not UTF-8 text" % bad)
    missing = main(["ccdf", "--in", str(tmp_path / "absent.csv"),
                    "--out", str(tmp_path / "out.csv")])
    assert missing == EXIT_IO


@pytest.mark.parametrize("text", ["", "\n\n"])
def test_ccdf_rejects_an_empty_file_as_io(tmp_path, capsys, text):
    # a 0-byte or all-blank input is unreadable input (exit 3), as a
    # missing, non-UTF-8 or malformed one is, not a runtime abort
    empty = tmp_path / "empty.csv"
    empty.write_text(text)
    out = tmp_path / "out.csv"
    assert main(["ccdf", "--in", str(empty), "--out", str(out)]) == EXIT_IO
    assert capsys.readouterr().err == "i/o error: %s: empty CSV\n" % empty
    assert not out.exists()


def test_ccdf_refuses_samples_it_cannot_place_on_a_grid(tmp_path, capsys):
    # no run writes a NaN sample, a 1 dB grid up to 1e9 dB would need
    # gigabytes and -inf samples alone span no grid: each is refused,
    # naming the file, and nothing is written; an infinite sample is valid
    bad = tmp_path / "bad.csv"
    out = tmp_path / "out.csv"
    for samples, message in (("4.2,nan", "row 3: unparsable sinr_db 'nan'"),
                             ("0,1e9", "ccdf grid from 0 to 1e+09 dB "
                                       "exceeds 100000 levels"),
                             ("-1e308,1e308", "exceeds 100000 levels"),
                             ("-inf,-inf", "at least one finite sample")):
        bad.write_text("episode,cell,ue,sinr_db\n" + "".join(
            "0,0,%d,%s\n" % (u, value)
            for u, value in enumerate(samples.split(","))))
        assert main(["ccdf", "--in", str(bad), "--out", str(out)]) \
            == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error: %s: " % bad) and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()
    bad.write_text("episode,cell,ue,sinr_db\n0,0,0,inf\n0,0,1,-inf\n"
                   "0,0,2,4.2\n")
    assert main(["ccdf", "--in", str(bad), "--out", str(out)]) == EXIT_OK
    _header, rows = read_csv(str(out))
    assert [cells for _line, cells in rows] == [["4", "0.666666666667"],
                                                ["5", "0.333333333333"]]


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    binary = tmp_path / "binary.conf"
    binary.write_bytes(b"[network]\ncells = 2\xff\n")
    out = tmp_path / "out"
    for command in ("print-config", "train", "compare", "oracle"):
        argv = [command, "--config", str(binary)]
        if command != "print-config":
            argv += ["--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: %s: not UTF-8 text" % binary)
    assert not out.exists()


def test_compare_writes_summary_and_run_dirs(tmp_path):
    conf = _config_file(tmp_path, small_run_config())
    out = tmp_path / "sweep"
    code = main(["compare", "--config", conf, "--frameworks",
                 "share-nothing,crdu", "--seeds", "1", "--out", str(out)])
    assert code == EXIT_OK
    header, rows = read_csv(str(out / "summary.csv"))
    rows = [cells for _line, cells in rows]
    assert header == list(SUMMARY_HEADER)
    # one seed row plus mean/std aggregates per framework
    assert len(rows) == 2 * 3
    seed_rows = [r for r in rows if r[-1] == "ok"]
    assert {r[0] for r in seed_rows} == {"share-nothing", "crdu"}
    nothing = next(r for r in seed_rows if r[0] == "share-nothing")
    assert nothing[4] == "0"  # no overhead scalars
    aggregates = [r for r in rows if r[-1] == "aggregate"]
    assert {(r[0], r[1]) for r in aggregates} == \
        {("share-nothing", "mean"), ("share-nothing", "std"),
         ("crdu", "mean"), ("crdu", "std")}
    assert (out / "share-nothing" / "seed0" / "run.json").is_file()
    assert (out / "crdu" / "seed0" / "metrics.csv").is_file()


def test_compare_rejects_unknown_framework(tmp_path, capsys):
    code = main(["compare", "--frameworks", "smart,bogus",
                 "--out", str(tmp_path / "sweep")])
    assert code == EXIT_CONFIG
    assert "bogus" in capsys.readouterr().err


def test_compare_rejects_empty_and_repeated_frameworks(tmp_path, capsys):
    out = tmp_path / "sweep"
    for frameworks, message in ((",", "must name at least one framework"),
                                (" , ", "must name at least one framework"),
                                ("smart,smart", "lists 'smart' twice"),
                                ("crdu,smart, crdu", "lists 'crdu' twice")):
        code = main(["compare", "--frameworks", frameworks, "--seeds", "1",
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "config error: --frameworks " + message \
            in capsys.readouterr().err
    assert not out.exists()


def test_oracle_search_snapshot(tmp_path):
    conf = _config_file(tmp_path, tiny_config())
    out = tmp_path / "oracle.csv"
    code = main(["oracle", "--config", conf, "--seed", "4",
                 "--out", str(out)])
    assert code == EXIT_OK
    header, rows = read_csv(str(out))
    assert header == ["seed", "sum_rate",
                      "power_dbm_c0u0", "beam_c0u0",
                      "power_dbm_c1u0", "beam_c1u0"]
    [(_line, row)] = rows
    assert row[0] == "4"
    assert float(row[1]) > 0.0
    assert int(row[3]) in (0, 1)


def test_oracle_refuses_an_oversized_power_grid(tmp_path, capsys):
    # a grid of more levels than the search limit fails the search
    # anyway, so it is refused before it is built: 1e-300 dB would
    # overflow np.arange and 1e-6 dB would fill hundreds of MB
    cfg = tiny_config()
    out = tmp_path / "oracle.csv"
    for step in (1e-300, 1e-6):
        cfg.oracle.power_step_db = step
        code = main(["oracle", "--config", _config_file(tmp_path, cfg),
                     "--out", str(out)])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("runtime error: power grid of ")
        assert "Traceback" not in err
    assert not out.exists()
