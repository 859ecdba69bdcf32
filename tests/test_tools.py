"""The checked-in measurement commands under ``tools/`` still run: a perf
claim counts only when one of them can make it again."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["bench_env_step.py", "bench_sgd_step.py"])
def test_microbenchmark_runs_and_ends_in_one_json_line(script):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / script),
         "--steps", "1", "--repeats", "1"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    last = done.stdout.splitlines()[-1]
    assert isinstance(json.loads(last), dict)
