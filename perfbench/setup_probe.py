"""Set-up probe: a fresh process imports cellshare, parses the workload's
config, builds the layout and the first codebook, then prints the
monotonic clock. The parent subtracts the clock it read just before
starting this process.

Usage: python3 perfbench/setup_probe.py WORKLOAD
"""

import sys
import time

import benchenv

benchenv.use_checkout_source()

import workloads  # noqa: E402  (needs the pinned threads and src path)

workloads.set_up(workloads.WORKLOADS[sys.argv[1]])
print(repr(time.monotonic()))
