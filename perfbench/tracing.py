"""Span tracer for the benchmark's traced run.

Wraps public cellshare functions at every module attribute a caller
looks them up by (``cellshare.training.train_step``,
``cellshare.oracle.received_powers``, ...) and the two ``ReplayBuffer``
methods. Each call records a span: name, start, end and the index of the
enclosing span. Spans live in flat in-memory arrays and are written out
once, at the end of the run. Self time is a span's duration minus the
duration of its direct children; the run is single-threaded, so spans
nest strictly and no layer ever waits on another.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# (defining module, attribute, span name). The attribute is patched in
# every cellshare module that holds the same function object, so both
# `from .x import f` callers and `x.f` callers see the wrapper.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("cellshare.channel", "beam_codebook", "channel.beam_codebook"),
    ("cellshare.channel", "sample_channels", "channel.sample_channels"),
    ("cellshare.channel", "matched_beams", "channel.matched_beams"),
    ("cellshare.geometry", "step_mobility", "geometry.step_mobility"),
    ("cellshare.geometry", "spawn_users", "geometry.spawn_users"),
    ("cellshare.physics", "received_powers", "physics.received_powers"),
    ("cellshare.physics", "measure_inter_cell", "physics.measure_inter_cell"),
    ("cellshare.control", "apply_joint_action", "control.apply_joint_action"),
    ("cellshare.control", "encode_state", "control.encode_state"),
    ("cellshare.control", "reward", "control.reward"),
    ("cellshare.qnet", "select_action", "qnet.select_action"),
    ("cellshare.qnet", "train_step", "qnet.train_step"),
    ("cellshare.replay", "ReplayBuffer.insert", "replay.ReplayBuffer.insert"),
    ("cellshare.replay", "ReplayBuffer.sample", "replay.ReplayBuffer.sample"),
    ("cellshare.sharing", "smart_select", "sharing.smart_select"),
    ("cellshare.sharing", "share_all", "sharing.share_all"),
    ("cellshare.sharing", "deliver", "sharing.deliver"),
    ("cellshare.sharing", "ctde_sync", "sharing.ctde_sync"),
    ("cellshare.oracle", "brute_force_step", "oracle.brute_force_step"),
    ("cellshare.metrics", "write_run_outputs", "metrics.write_run_outputs"),
    ("cellshare.training", "run_training", "training.run_training"),
    ("cellshare.training", "evaluate", "training.evaluate"),
)

# spans with children, whose inclusive time is worth reporting too
WALL_SPANS = ("training.run_training", "training.evaluate",
              "oracle.brute_force_step", "sharing.deliver")


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) \
        if values else 0.0


class Tracer:
    """In-memory span store plus the per-layer counters of one run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._child: List[float] = []
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.wall_s: Dict[str, float] = {}
        self.train_step_s: List[float] = []
        self.counters: Dict[str, float] = {}
        self.built_codebooks: set = set()
        self._buffers: Dict[int, object] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
            self.wall_s[name] = 0.0
        return nid

    def _wrap(self, name: str, fn: Callable,
              after: Optional[Callable]) -> Callable:
        nid = self._id(name)
        clock = time.perf_counter
        stack, child = self._stack, self._child
        name_ids, parents = self.name_id, self.parent
        starts, ends = self.start, self.end
        durations = self.train_step_s if name == "qnet.train_step" else None

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            child.append(0.0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t = clock()
                ends[idx] = t
                stack.pop()
                inner = child.pop()
                dur = t - starts[idx]
                self.calls[name] += 1
                self.wall_s[name] += dur
                self.self_s[name] += dur - inner
                if child:
                    child[-1] += dur
                if durations is not None:
                    durations.append(dur)
            if after is not None:
                after(args, result, dur)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- per-call counters ------------------------------------------------
    def _count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def note_codebook(self, antennas: int, bits: int) -> None:
        """Record a codebook built outside the traced calls (set-up)."""
        self.built_codebooks.add((int(antennas), int(bits)))

    def _after_codebook(self, args, result, dur) -> None:
        key = (int(args[0]), int(args[1]))
        if key in self.built_codebooks:
            self._count("channel.beam_codebook.repeats", 1)
        self.built_codebooks.add(key)

    def _after_train_step(self, args, result, dur) -> None:
        self._count("qnet.train_step.rows", len(args[2]))

    def _after_deliver(self, args, result, dur) -> None:
        self._count("sharing.deliver.experiences", sum(result.values()))

    def _after_brute_force(self, args, result, dur) -> None:
        cfg = args[3]
        n_actions = sys.modules["cellshare.control"].action_space_size(
            cfg.users_per_cell)
        self._count("oracle.brute_force_step.configs", n_actions ** cfg.cells)

    def _after_write(self, args, result, dur) -> None:
        with os.scandir(args[0]) as entries:
            self._count("metrics.write_run_outputs.bytes",
                        sum(e.stat().st_size for e in entries))

    def _after_insert(self, args, result, dur) -> None:
        buf = args[0]
        self._buffers[id(buf)] = buf

    def _after_run_training(self, args, result, dur) -> None:
        cfg, framework = args[0], args[1]
        steps = cfg.training.episodes * cfg.training.steps_per_episode
        self._count("training.steps." + framework, steps)
        self._count("training.seconds." + framework, dur)

    # -- install / remove -------------------------------------------------
    def install(self) -> None:
        """Patch every target at every place it is looked up."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        after = {
            "channel.beam_codebook": self._after_codebook,
            "qnet.train_step": self._after_train_step,
            "sharing.deliver": self._after_deliver,
            "oracle.brute_force_step": self._after_brute_force,
            "metrics.write_run_outputs": self._after_write,
            "replay.ReplayBuffer.insert": self._after_insert,
            "training.run_training": self._after_run_training,
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "cellshare" or n.startswith("cellshare.")]
        for module_name, attr, name in TARGETS:
            home = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(name, original,
                                                  after.get(name)))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, after.get(name))
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        """Undo every patch, restoring the original functions."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def collect_buffers(self) -> None:
        """Fold the replay buffers' own counters into the totals and
        drop the references, so finished runs can be freed."""
        for buf in self._buffers.values():
            self._count("replay.inserted_local", buf.inserted_local)
            self._count("replay.inserted_received", buf.inserted_received)
        self._buffers.clear()

    # -- output -----------------------------------------------------------
    def layer_metrics(self, jobs: int, frameworks) -> Dict[str, float]:
        """Per-layer values per traced job (counts, self and wall
        seconds), plus ratios and latency percentiles over all calls."""
        out: Dict[str, float] = {}
        for name in sorted(set(n for _m, _a, n in TARGETS)):
            out[name + ".calls"] = self.calls.get(name, 0) / jobs
            out[name + ".self_s"] = self.self_s.get(name, 0.0) / jobs
        for name in WALL_SPANS:
            out[name + ".wall_s"] = self.wall_s.get(name, 0.0) / jobs
        for key in ("qnet.train_step.rows", "sharing.deliver.experiences",
                    "oracle.brute_force_step.configs",
                    "metrics.write_run_outputs.bytes"):
            out[key] = self.counters.get(key, 0.0) / jobs
        calls = self.calls.get("channel.beam_codebook", 0)
        out["channel.beam_codebook.repeat_frac"] = \
            self.counters.get("channel.beam_codebook.repeats", 0.0) / calls \
            if calls else 0.0
        local = self.counters.get("replay.inserted_local", 0.0)
        received = self.counters.get("replay.inserted_received", 0.0)
        out["replay.received_frac"] = \
            received / (local + received) if local + received else 0.0
        for q in (50, 95):
            out["qnet.train_step.ms_p%d" % q] = \
                1e3 * _percentile(self.train_step_s, q)
        for fw in frameworks:
            seconds = self.counters.get("training.seconds." + fw, 0.0)
            out["training.run_training.steps_per_s." + fw] = \
                self.counters.get("training.steps." + fw, 0.0) / seconds \
                if seconds else 0.0
        return out

    def span_count(self) -> int:
        return len(self.start)

    def write(self, path: str) -> None:
        """Write every span: name table, name ids, parents, start, end."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))
