"""cellshare benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload desk-compare --seed 1 \
        --seconds 30 --trace 0

Runs single-process and single-threaded in a closed loop: the workload's
job is repeated until --seconds are spent (at least twice), each job
starting when the previous one returns. Every job's outputs are checked,
and the artifact digests of every repeat must equal the first job's.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced jobs and prints the per-layer metrics.
The last stdout line is the JSON result; the line before it holds the
details (per-phase rates, oracle latency percentiles with their sample
counts, digests, faults, failures, library versions). An operation that
raises a package error (TrainingFault, ContractViolation,
SearchSpaceError, MeasurementError) is recorded and counted in `failed`
and the run carries on; the exit code is 0 only when every output check
passed and every repeat reproduced the first job.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import benchenv  # first: pins BLAS threads before numpy loads

import numpy  # noqa: E402

MAX_REPORTED_FAILURES = 20
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def reference_loop() -> float:
    """Fixed work of the same kind as the program's (small numpy calls
    and Python scalar arithmetic in a loop), 6 to 11 ms on the machine
    in README.md. Its code never changes, so only the machine moves it."""
    v = numpy.arange(3, dtype=float)
    acc = 0.0
    for _ in range(1000):
        t = numpy.maximum(v + 1.0, 0.5)
        acc += float(numpy.sum(10.0 ** (t / 10.0)))
        acc += abs(complex(v[0], v[1]))
    return acc


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def declared_metrics(section: str) -> dict:
    """name -> unit of one metric list in BENCHMARK.json."""
    with open(os.path.join(benchenv.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def measure_setup(workload: str) -> float:
    """Set-up time of one fresh process, from just before it is started
    until it has built the workload's first codebook."""
    probe = os.path.join(benchenv.HERE, "setup_probe.py")
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, probe, workload],
                          capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError("set-up probe failed: %s" % proc.stderr)
    return float(proc.stdout.split()[-1]) - t0


def _openblas_threads():
    """Thread count the bundled OpenBLAS will use, or None if unknown."""
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "thread_env": {v: os.environ.get(v) for v in benchenv.THREAD_VARS},
        "blas_threads": _openblas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
    }


def _quantile(values, q):
    return float(numpy.percentile(values, q)) if values else 0.0


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run the closed loop of jobs, check and summarize."""
    import workloads
    from tracing import Tracer

    cfg = workloads.set_up(workload)
    setup_samples = []
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.note_codebook(cfg.network.antennas, cfg.network.codebook_bits)
    out_dir = os.path.join(benchenv.OUT, workload.name)

    jobs = []  # (traced, JobResult)
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(jobs) % 2 == 1
        if traced:
            tracer.install()
        try:
            result = workloads.run_job(workload, cfg, seed, out_dir,
                                       time_reference)
        finally:
            if traced:
                tracer.remove()
                tracer.collect_buffers()
        jobs.append((traced, result))
        elapsed = time.perf_counter() - started
        # spread the set-up probes over the run, not one burst
        if len(setup_samples) < SETUP_PROBES * min(1.0, elapsed / seconds):
            setup_samples.append(measure_setup(workload.name))
            elapsed = time.perf_counter() - started
        if len(jobs) >= 2 and elapsed + result.wall_s > seconds:
            break

    while len(setup_samples) < SETUP_PROBES:
        setup_samples.append(measure_setup(workload.name))

    # determinism: every repeat, traced or not, reproduces the first job
    first = jobs[0][1]
    # A package fault (say a TrainingFault from a diverging run) is an
    # outcome of the program, counted in `failed`; a failed output check
    # or a repeat that differs from the first job makes the run incorrect.
    faults = [msg for _t, job in jobs for msg in job.faults]
    failures = [msg for _t, job in jobs for msg in job.check_failures]
    for k, (traced, job) in enumerate(jobs[1:], start=2):
        if job.digests != first.digests or job.faults != first.faults:
            failures.append("job %d (%s) outputs differ from job 1"
                            % (k, "traced" if traced else "untraced"))
    attempted = sum(job.ops for _t, job in jobs)
    failed = min(len(faults) + len(failures), attempted)

    plain = [job for traced, job in jobs if not traced]
    figures = phase_figures(plain, first)
    detail = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "jobs": len(jobs),
        "jobs_untraced": len(plain),
        "setup_s_samples": setup_samples,
        "job_wall_s_samples": [job.wall_s for job in plain],
        **figures,
        "ops_failed_frac": failed / attempted,
        "digests": first.digests if workload.kind == "train"
        else workloads.combined_digest(first.digests),
        "faults": sorted(set(faults))[:MAX_REPORTED_FAILURES],
        "failures": failures[:MAX_REPORTED_FAILURES],
        "environment": environment(),
    }

    if trace:
        traced_jobs = [job for t, job in jobs if t]
        values = tracer.layer_metrics(len(traced_jobs),
                                      workloads.sharing.FRAMEWORKS)
        values["trace.overhead_frac"] = \
            job_cost(traced_jobs) / figures["job_wall_ref"] - 1.0
        for name, key in PHASE_FIGURES.items():
            values[name] = figures[key] or 0.0
        spans = os.path.join(benchenv.OUT, "spans-%s-seed%d.npz"
                             % (workload.name, seed))
        tracer.write(spans)
        detail["spans"] = {"file": os.path.relpath(spans, benchenv.ROOT),
                           "count": tracer.span_count(),
                           "traced_jobs": len(traced_jobs)}
        section = "per_layer"
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "job_wall_ref": figures["job_wall_ref"],
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        section = "end_to_end"

    units = declared_metrics(section)
    if set(values) != set(units):
        raise RuntimeError("metrics %s do not match BENCHMARK.json %s: %s"
                           % (sorted(values), section,
                              sorted(set(values) ^ set(units))))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }
    return {"detail": detail, "result": result}


def job_cost(jobs) -> float:
    """The job in reference-loop units: each step's cost (its wall time
    over the reference loop timed just before it), median over the
    repeats, summed over the steps.

    Every repeat does identical, deterministic work, so a step's spread
    across repeats is interference from outside the process, which on a
    shared host comes in phases that slow the same code by up to 2x. The
    reference loop, timed next to the step, sees the same phase and the
    ratio cancels most of it (README.md has the measurements).
    """
    keys = {key for job in jobs for key in job.step_cost}
    return sum(statistics.median(job.step_cost[key] for job in jobs
                                 if key in job.step_cost)
               for key in keys)


def best_of_repeats(jobs) -> dict:
    """Fastest wall time of each timed call over the repeated jobs (the
    estimate `timeit` recommends; see `job_cost` for the interference)."""
    keys = {key for job in jobs for key in job.op_s}
    return {key: min(job.op_s[key] for job in jobs if key in job.op_s)
            for key in keys}


# per-layer name -> phase figure, reported from the traced run's untraced
# jobs (0 where the workload does no such work)
PHASE_FIGURES = {
    "training.train_env_steps_per_s": "train_env_steps_per_s",
    "training.eval_env_steps_per_s": "eval_env_steps_per_s",
    "training.sum_rate_final_quarter": "sum_rate_final_quarter",
    "sharing.overhead_scalars_per_step": "overhead_scalars_per_step",
    "oracle.call_ms_p50": "oracle_call_ms_p50",
    "oracle.call_ms_p95": "oracle_call_ms_p95",
}


def phase_figures(jobs, first) -> dict:
    """Job time and per-phase rates from the untraced jobs: best-of-repeats
    for the timings, the user-seen distribution for oracle latency, and
    the deterministic outputs of the first job."""
    best = best_of_repeats(jobs)
    reference_s = [t for job in jobs for t in job.reference_s]

    def phase_s(suffix):
        return sum(v for k, v in best.items() if k.endswith(suffix))

    train_s, eval_s = phase_s("/train"), phase_s("/eval")
    calls_ms = [1e3 * v for job in jobs for k, v in job.op_s.items()
                if k.startswith("snapshot/")]
    p95 = _quantile(calls_ms, 95)
    trains = first.train_steps > 0
    return {
        "job_wall_ref": job_cost(jobs),
        "job_wall_s": sum(best.values()),
        "reference_s_median": statistics.median(reference_s),
        "train_env_steps_per_s":
            first.train_steps / train_s if train_s else None,
        "eval_env_steps_per_s":
            first.eval_steps / eval_s if eval_s else None,
        "oracle_call_ms_p50": _quantile(calls_ms, 50) if calls_ms else None,
        "oracle_call_ms_p95": p95 if calls_ms else None,
        "oracle_calls": len(calls_ms),
        "oracle_calls_beyond_p95": sum(1 for ms in calls_ms if ms > p95),
        "sum_rate_final_quarter": _mean(first.sum_rates)
        if trains else None,
        "oracle_best_sum_rate_mean": None if trains
        else _mean(first.sum_rates),
        "overhead_scalars_per_step": _mean(first.scalars_per_step),
    }


def _mean(values):
    return statistics.fmean(values) if values else None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, table=None) -> int:
    """Entry point; `table` replaces the workload table (smoke test)."""
    args = parse_args(argv)
    try:
        benchenv.use_checkout_source()
    except FileNotFoundError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    import workloads
    table = workloads.WORKLOADS if table is None else table
    if args.workload not in table:
        print("error: unknown workload %r (expected one of %s)"
              % (args.workload, ", ".join(table)), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    report = run(table[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    os.makedirs(benchenv.OUT, exist_ok=True)
    path = os.path.join(benchenv.OUT, "result-%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps({"detail": report["detail"]}, sort_keys=True))
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
