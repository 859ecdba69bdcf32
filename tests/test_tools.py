"""The checked-in measurement commands under ``tools/`` still run: a perf
claim counts only when one of them can make it again, and a refactor
counts as keeping the bits only when the digests say so."""

import hashlib
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from cellshare import cli, metrics
from cellshare.config import dump_config

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def stage_report():
    """The last stdout line of one short ``tools/bench_stages.py`` run."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_stages.py"),
         "--steps", "1", "--repeats", "1"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# Each case is the stage set one of the two former scripts measured; the
# merged command must still report it, with the same L and K.
@pytest.mark.parametrize("script", ["bench_env_step.py", "bench_sgd_step.py"])
def test_microbenchmark_runs_and_ends_in_one_json_line(stage_report, script):
    if script == "bench_env_step.py":
        assert set(stage_report["us_per_call"]) == {"2", "7", "19"}
    else:
        assert [row["agents"] for row in stage_report["stacks"]] == [1, 2, 7,
                                                                     19]


def test_microbenchmark_times_the_action_free_half_and_sharing(stage_report):
    for row in stage_report["us_per_call"].values():
        for key in ("action_free/step", "sharing.smart_select",
                    "sharing.deliver"):
            assert row[key] > 0, key
    assert all(row["sample_us"] > 0 for row in stage_report["stacks"])


def test_microbenchmark_times_the_oracle_searches(stage_report):
    times = stage_report["oracle_us"]
    assert set(times) == {"brute_force_step/2x2", "brute_force_step/desk-2x3",
                          "global_csi_search/cli-oracle"}
    assert all(us > 0 for us in times.values())


def test_artifact_digests_print_every_case_and_their_total():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "artifact_digests.py")],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    *cases, total = done.stdout.splitlines()
    assert len(cases) == 103
    assert len({line.split()[0] for line in cases}) == len(cases)
    digest = hashlib.sha256()
    for line in cases:
        digest.update(line.encode() + b"\n")
    assert total == "total " + digest.hexdigest()


@pytest.fixture
def digests(monkeypatch):
    """``tools/artifact_digests.py`` as a module; the BLAS variables and
    ``sys.path`` entry its import sets are undone after the test."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", [str(ROOT / "tools")] + sys.path)
    return importlib.import_module("artifact_digests")


def test_digest_compare_case_fails_one_run_of_two(digests, tmp_path, capsys):
    """The ``cli/compare`` case is the digest's only failing compare: at
    learning rate 1 and seed 5, smart diverges and share-all completes."""
    config = tmp_path / "compare.cfg"
    config.write_text(dump_config(digests.run_config(2, "measured", 10000,
                                                     1.0)))
    out = tmp_path / "compare"
    code = cli.main(["compare", "--config", str(config), "--frameworks",
                     "smart,share-all", "--seeds", "1", "--seed", "5",
                     "--out", str(out)])
    assert code == cli.EXIT_RUNTIME
    assert "smart seed 5 failed" in capsys.readouterr().err
    header, rows = metrics.read_csv(str(out / "summary.csv"))
    status = header.index("status")
    assert {row[0]: row[status] for _line, row in rows
            if row[1] == "5"} == {"smart": "failed", "share-all": "ok"}
