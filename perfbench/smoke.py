"""Smoke test of the benchmark itself, at tiny sizes (about 30 s).

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced with shrunk jobs and
checks that each run passes its own output checks, prints every metric
BENCHMARK.json names with its unit, and that the artifact digests and
deterministic outputs of the traced run equal the untraced run's. Last,
it checks that the command fails without printing a result in a
directory that holds only BENCHMARK.json and the benchmark.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys

import benchenv
import run

benchenv.use_checkout_source()

import workloads  # noqa: E402  (needs the src path)

SEED = 3
TINY_TRAINING = "\n[training]\nepisodes = 1\nsteps_per_episode = %d\n" \
                "eval_episodes = 1\n"
TINY = {
    "desk-compare": dataclasses.replace(
        workloads.WORKLOADS["desk-compare"],
        config_text=workloads.DESK_CONFIG + TINY_TRAINING % 20),
    "hex19-share": dataclasses.replace(
        workloads.WORKLOADS["hex19-share"],
        config_text=workloads.HEX19_CONFIG + TINY_TRAINING % 3),
    "oracle-sweep": dataclasses.replace(
        workloads.WORKLOADS["oracle-sweep"], snapshots=3),
}
DETERMINISTIC = ("digests", "sum_rate_final_quarter",
                 "oracle_best_sum_rate_mean", "overhead_scalars_per_step")


def run_once(name: str, trace: int):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", str(SEED),
                         "--seconds", "0.1", "--trace", str(trace)],
                        table=TINY)
    lines = out.getvalue().strip().splitlines()
    assert code == 0, "%s trace %d exited %d: %s" % (name, trace, code,
                                                     lines[-2:])
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def check_result(name: str, trace: int, result: dict) -> None:
    section = "per_layer" if trace else "end_to_end"
    units = run.declared_metrics(section)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert set(result["metrics"]) == set(units), \
        sorted(set(result["metrics"]) ^ set(units))
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == units[metric], (metric, entry)
        assert math.isfinite(entry["value"]), (metric, entry)
        if not trace:
            assert entry["value"] > 0, (name, metric, entry)


def check_bare_directory() -> None:
    """Without the package source the command must fail and print no
    result."""
    bare = os.path.join(benchenv.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(benchenv.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(os.path.join(benchenv.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "desk-compare",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
            check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.stdout
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def main() -> int:
    for name in TINY:
        details = []
        for trace in (0, 1):
            detail, result = run_once(name, trace)
            check_result(name, trace, result)
            details.append(detail)
        for key in DETERMINISTIC:
            assert details[0][key] == details[1][key], (name, key, details)
        print("ok %s: %d ops per job, digests %s" % (
            name, result["attempted"] // details[1]["jobs"],
            json.dumps(details[0]["digests"])[:40]))
    check_bare_directory()
    print("ok bare directory: exits non-zero without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
