"""Golden digests: the exact bytes that short fixed runs write.

Each test runs a CLI subcommand on a small fixed config and compares the
sha256 of everything it wrote with a pinned value, so any change to the
random draw order, the replay insert order or the float arithmetic of
training, evaluation, sharing or the oracle shows up here. A change that
alters these bytes on purpose must re-pin them and say why.

The digests were pinned on Python 3.11.7, numpy 2.4.6 and its bundled
OpenBLAS 0.3.31 (x86-64, Haswell kernels). Another BLAS build may round
matrix products differently and so produce other digests.
"""

import hashlib
import json
import os

import pytest

from conftest import desk_config, tiny_config

from cellshare.cli import EXIT_OK, SEED_ENV_VAR, main
from cellshare.config import dump_config

# `cellshare compare --seeds 1`: five runs' artifacts plus summary.csv
COMPARE_DIGEST = \
    "fd81f49be1c287d99343a12449647e56bb2eabb6821f62ed971351a2884324e1"
# `cellshare train --framework smart` with genie attribution
GENIE_DIGEST = \
    "56a066508cdd80b26c0186f433c7181c6dd293c02dedd6c156a08d59798fed0a"
# `cellshare train --framework share-all` on three cells
THREE_CELL_DIGEST = \
    "20d79a43b78b12ba873bb0b277bd80667b45a07ad5fa0eae40dffea81ba0b5e4"
# the same three-cell run with buffer_capacity = 40, so every replay
# buffer wraps many times
WRAPPING_DIGEST = \
    "b9e65383bd2cc1364d7376f94af54b8bb77cb4a4fd18f7fe96272fce4b8113dc"
# `cellshare train --framework smart` on seven cells (one hex ring),
# measured attribution
SEVEN_CELL_DIGEST = \
    "9a946ae3f7f9742799050c9a8fbf141b049947f52d5be4df3ff4f9200fa571de"
# `cellshare oracle` on two cells with one user each
ORACLE_DIGEST = \
    "c1d8ace5fc2e80292f20f8468096aa55b4c903754626a24f8c1e8343f2ebe049"


@pytest.fixture(autouse=True)
def _clean_seed_env(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


def _short_desk_config():
    """The desk scenario cut to 3 episodes x 20 steps, with a CTDE
    broadcast every third step so the sync period is exercised."""
    cfg = desk_config()
    cfg.training.episodes = 3
    cfg.training.steps_per_episode = 20
    cfg.training.eval_episodes = 1
    cfg.sharing.ctde_sync_period = 3
    return cfg


def _config_file(tmp_path, cfg):
    path = tmp_path / "golden.conf"
    path.write_text(dump_config(cfg))
    return str(path)


def _tree_digest(root):
    """sha256 over every file below root: relative path, then bytes."""
    h = hashlib.sha256()
    paths = []
    for dirpath, _dirs, files in os.walk(root):
        paths.extend(os.path.join(dirpath, name) for name in files)
    for path in sorted(paths):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        with open(path, "rb") as fh:
            h.update(rel.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def test_compare_artifacts_are_pinned(tmp_path):
    out = tmp_path / "compare"
    code = main(["compare", "--config",
                 _config_file(tmp_path, _short_desk_config()),
                 "--seeds", "1", "--seed", "0", "--out", str(out)])
    assert code == EXIT_OK
    assert len([p for p in out.rglob("*") if p.is_file()]) == 26
    assert _tree_digest(out) == COMPARE_DIGEST


def test_genie_smart_run_is_pinned(tmp_path):
    cfg = _short_desk_config()
    cfg.sharing.attribution = "genie"
    out = tmp_path / "genie"
    code = main(["train", "--config", _config_file(tmp_path, cfg),
                 "--framework", "smart", "--seed", "3", "--out", str(out)])
    assert code == EXIT_OK
    assert _tree_digest(out) == GENIE_DIGEST


def test_three_cell_share_all_run_is_pinned(tmp_path):
    # with two cells every buffer hears from one sender, and the rows of
    # one cell-step are interchangeable for the loss, so only a third
    # cell makes the order of deliveries between senders show
    cfg = _short_desk_config()
    cfg.network.cells = 3
    out = tmp_path / "three"
    code = main(["train", "--config", _config_file(tmp_path, cfg),
                 "--framework", "share-all", "--seed", "3",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert _tree_digest(out) == THREE_CELL_DIGEST


def test_wrapping_replay_run_is_pinned(tmp_path):
    # the other runs keep buffer_capacity = 10000 and never evict; here
    # each buffer takes 3 own and 6 received rows a step, so it wraps
    # after five steps and the eviction order reaches the minibatches
    cfg = _short_desk_config()
    cfg.network.cells = 3
    cfg.training.buffer_capacity = 40
    out = tmp_path / "wrapping"
    code = main(["train", "--config", _config_file(tmp_path, cfg),
                 "--framework", "share-all", "--seed", "3",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert _tree_digest(out) == WRAPPING_DIGEST


def test_seven_cell_smart_run_is_pinned(tmp_path):
    # one full hex ring: every cell's SINR reports are measured and the
    # estimates gate the share mask, so some experiences go out and some
    # stay home
    cfg = _short_desk_config()
    cfg.network.cells = 7
    assert cfg.sharing.attribution == "measured"
    out = tmp_path / "seven"
    code = main(["train", "--config", _config_file(tmp_path, cfg),
                 "--framework", "smart", "--seed", "3", "--out", str(out)])
    assert code == EXIT_OK
    info = json.loads((out / "run.json").read_text())
    assert info["train_step_count"] > 0
    assert info["experiences_shared_total"] > 0
    assert 0.0 < info["zero_share_fraction"] < 1.0
    assert _tree_digest(out) == SEVEN_CELL_DIGEST


def test_oracle_csv_is_pinned(tmp_path):
    cfg = tiny_config()
    assert (cfg.network.cells, cfg.network.users_per_cell) == (2, 1)
    out = tmp_path / "oracle"
    out.mkdir()
    code = main(["oracle", "--config", _config_file(tmp_path, cfg),
                 "--seed", "4", "--out", str(out / "oracle.csv")])
    assert code == EXIT_OK
    assert _tree_digest(out) == ORACLE_DIGEST
