"""Process environment shared by the benchmark and its set-up probe.

Importing this module pins BLAS/OpenMP to one thread, so it must be
imported before numpy is, and puts the checkout's ``src`` first on
``sys.path`` so the benchmark measures the source next to it.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")


def use_checkout_source() -> None:
    """Import cellshare from ROOT/src; raise if the source is absent."""
    if not os.path.isfile(os.path.join(SRC, "cellshare", "__init__.py")):
        raise FileNotFoundError("no cellshare package under %s" % SRC)
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
