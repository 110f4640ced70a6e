"""cstarlab benchmark: seeded closed-loop job streams checked by oracles.

    python3 perfbench/run.py --workload {simulate,algebra} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
`src/` directory.  One client starts one job, waits for it, checks it
against its oracle and only then starts the next.  Jobs come in cycles of
fixed kinds and sizes whose inputs are drawn from `--seed`; the loop runs
whole cycles until `--seconds` have passed.  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
they are the per-layer ones, from a run that repeats every cycle with
tracing on.
The line before it records the run's settings and machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import DeadlineExceeded, Tracer

ROOT = Path(__file__).resolve().parent.parent
#: workload -> (job module, cycles of it per workload cycle).  Two workloads
#: with long runs rather than four short ones: on a shared host the CPU's
#: speed can drift over tens of seconds, and only longer runs average it out.
#: `exact` jobs take milliseconds, so four of its cycles run per cycle of
#: `spectral`, which puts the median job among them and keeps their share
#: of job time large enough to move `jobs_per_s`.
WORKLOADS = {
    "simulate": (("walks", 1), ("towers", 1)),
    "algebra": (("spectral", 1), ("exact", 4)),
}
#: per-job deadline, the same for every job kind
DEADLINE_S = 5.0
#: set-up samples per untraced run: this process plus fresh child processes
SETUP_SAMPLES = 5
#: error tracebacks echoed to stderr per run
MAX_REPORTED_ERRORS = 3


def _import_package():
    src = ROOT / "src"
    if not (src / "cstarlab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no cstarlab package under {src}")
    sys.path.insert(0, str(src))
    import cstarlab
    import cstarlab.cli  # noqa: F401  -- CLI users pay for this import too

    if Path(cstarlab.__file__).resolve().parent != src / "cstarlab":
        raise ImportError(f"imported cstarlab from {cstarlab.__file__}, not from {src}")
    return cstarlab


class Workload:
    """The cycle of a workload: its job modules' cycles, concatenated."""

    def __init__(self, name: str):
        import importlib

        self.members = [(importlib.import_module(m), k) for m, k in WORKLOADS[name]]

    def cycle(self, seed: int, index: int, workdir: str) -> list:
        return [job for module, repeats in self.members for r in range(repeats)
                for job in module.cycle(seed, index * repeats + r, workdir)]

    def warmup(self, workdir: str) -> list:
        return [job for module, _ in self.members for job in module.warmup(workdir)]


def set_up(name: str, workdir: str) -> float:
    """Import cstarlab, then run one small job of each kind; return the program's seconds.

    The benchmark's own imports and the warm-up checks are not timed: the
    checks only feed jobs that read what an earlier job wrote.
    """
    started = time.perf_counter()
    _import_package()
    elapsed = time.perf_counter() - started
    module = Workload(name)
    for job in module.warmup(workdir):
        started = time.perf_counter()
        out = job.run()
        elapsed += time.perf_counter() - started
        job.check(out)
    return elapsed


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Outcome:
    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.wrong = 0
        self.errors = 0
        self.flagged = 0
        self.by_kind: dict[str, list[float]] = {}
        self.busy_s = 0.0
        #: passed jobs per second of job time, one entry per cycle
        self.cycle_rates: list[float] = []

    def add(self, kind: str, latency: float) -> None:
        self.latencies.append(latency)
        self.by_kind.setdefault(kind, []).append(latency)
        self.busy_s += latency

    def run_cycle(self, jobs, run_job) -> None:
        attempted, failed, busy = self.attempted, self.failed, self.busy_s
        for job in jobs:
            run_job(job)
        passed = (self.attempted - attempted) - (self.failed - failed)
        self.cycle_rates.append(passed / (self.busy_s - busy))

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def _on_alarm(signum, frame):
    raise DeadlineExceeded(f"job passed its {DEADLINE_S} s deadline")


def execute(job, outcome: Outcome, tracer=None, job_id: int = 0) -> None:
    """Run one job under the deadline, then check it; record the result."""
    # imported here: `common` imports numpy, which set_up must be first to import
    from common import CheckFailed

    status, out = "ok", None
    if tracer is not None:
        tracer.begin_job(job_id)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    started = time.perf_counter()
    try:
        out = job.run()
    except DeadlineExceeded:
        status = "deadline"
        print(f"deadline passed ({job.kind})", file=sys.stderr)
    except Exception:
        status = "error"
        if outcome.errors < MAX_REPORTED_ERRORS:
            traceback.print_exc(file=sys.stderr)
    finally:
        elapsed = time.perf_counter() - started
        signal.setitimer(signal.ITIMER_REAL, 0)
    if tracer is not None:
        overrun_layers = tracer.end_job()
        if status == "deadline" and "intlinalg" in overrun_layers:
            tracer.counts["intlinalg.deadline_exceeded"] += 1
    outcome.add(job.kind, elapsed)
    if status == "ok":
        try:
            job.check(out)
        except CheckFailed as exc:
            status = "wrong"
            print(f"check failed ({job.kind}): {exc}", file=sys.stderr)
        except Exception:
            status = "wrong"
            traceback.print_exc(file=sys.stderr)
    if status == "ok":
        outcome.flagged += bool(job.flagged(out))
    else:
        outcome.failed += 1
        outcome.wrong += status == "wrong"
        outcome.errors += status == "error"


def closed_loop(module, seed: int, seconds: float, workdir: str, tracer=None):
    """Run whole cycles until `seconds` pass.

    With a tracer, every cycle runs twice on the same inputs, once traced and
    once not, in alternating order, so the two halves do identical work and
    their throughputs give the tracing overhead.
    """
    plain, traced = Outcome(), Outcome()
    started = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - started < seconds:
        passes = (False,) if tracer is None else ((False, True) if index % 2 else (True, False))
        for trace_pass in passes:
            jobs = module.cycle(seed, index, workdir)
            if trace_pass:
                tracer.install()
                traced.run_cycle(jobs, lambda job: execute(job, traced, tracer, traced.attempted))
                tracer.uninstall()
            else:
                plain.run_cycle(jobs, lambda job: execute(job, plain))
        index += 1
    return plain, traced


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(outcome: Outcome, setup: list[float]) -> dict:
    lat = outcome.latencies
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "jobs_per_s": _metric(statistics.median(outcome.cycle_rates), "1/s"),
        "job_p50_s": _metric(statistics.median(lat), "s"),
        "job_p90_s": _metric(deciles[8], "s"),
        "passed_frac": _metric(1.0 - outcome.failed / outcome.attempted, "frac"),
        "unflagged_frac": _metric(1.0 - outcome.flagged / outcome.attempted, "frac"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, plain: Outcome, traced: Outcome) -> dict:
    """Per-layer figures of the traced passes.

    Work counts are per traced job, so they do not grow when a faster
    program fits more jobs into the run; times are shares of the traced
    jobs' wall time (`trace.job_wall_s`).
    """
    jobs = traced.attempted
    wall = sum(traced.latencies)
    counts, calls, group_calls = tracer.counts, tracer.layer_calls, tracer.group_calls

    def share(seconds: float) -> dict:
        return _metric(seconds / wall, "frac")

    def per_job(value: float, unit: str = "count/job") -> dict:
        return _metric(value / jobs, unit)

    def ratio(num: float, den: float) -> dict:
        return _metric(num / den if den else 0.0, "frac")

    untraced_jps = plain.attempted / sum(plain.latencies)
    traced_jps = jobs / wall
    return {
        "rng.stream_calls": per_job(group_calls["rng.stream"]),
        "rng.busy_frac": share(tracer.busy_s["rng"]),
        "walk.calls": per_job(calls["walk"]),
        "walk.busy_frac": share(tracer.busy_s["walk"]),
        "walk.trials": per_job(counts["walk.trials"]),
        "walk.steps_requested": per_job(counts["walk.uniforms"]),
        "walk.sup_resolved_ratio": ratio(counts["walk.sup_resolved"], counts["walk.sup_trials"]),
        "sampler.calls": per_job(calls["sampler"]),
        "sampler.self_frac": share(tracer.self_s["sampler"]),
        "simplex.build_calls": per_job(group_calls["simplex.build"]),
        "simplex.build_frac": share(tracer.group_s["simplex.build"]),
        "simplex.levels": per_job(counts["simplex.levels"]),
        "simplex.collapse_floats": per_job(counts["simplex.collapse_floats"]),
        "simplex.archive_frac": share(tracer.group_s["simplex.archive"]),
        "simplex.archive_bytes": per_job(counts["simplex.archive_bytes"], "B/job"),
        "simplex.pushdown_frac": share(tracer.group_s["simplex.pushdown"]),
        "simplex.covering_frac": share(tracer.group_s["simplex.covering"]),
        "simplex.grid_points": per_job(counts["simplex.grid_points"]),
        "transport.orbit_calls": per_job(group_calls["transport.orbit"]),
        "transport.orbit_frac": share(tracer.group_s["transport.orbit"]),
        "transport.orbit_iterations": per_job(counts["transport.orbit_iterations"]),
        "transport.orbit_starts": per_job(counts["transport.orbit_starts"]),
        "transport.orbit_converged_ratio": ratio(counts["transport.orbit_converged"],
                                                 group_calls["transport.orbit"]),
        "transport.matching_calls": per_job(group_calls["transport.matching"]),
        "transport.matching_frac": share(tracer.group_s["transport.matching"]),
        "transport.matching_pairs": per_job(counts["transport.matching_pairs"]),
        "transport.winf_frac": share(tracer.group_s["transport.winf"]),
        "transport.winf_atoms": per_job(counts["transport.winf_atoms"]),
        "intlinalg.snf_calls": per_job(group_calls["intlinalg.snf"]),
        "intlinalg.snf_frac": share(tracer.group_s["intlinalg.snf"]),
        "intlinalg.snf_entries": per_job(counts["intlinalg.snf_entries"]),
        "intlinalg.snf_max_bits": _metric(int(counts["intlinalg.snf_max_bits"]), "bits"),
        "intlinalg.deadline_exceeded": _metric(int(counts["intlinalg.deadline_exceeded"]), "count"),
        "ktheory.calls": per_job(calls["ktheory"]),
        "ktheory.self_frac": share(tracer.self_s["ktheory"]),
        "cuntz.calls": per_job(calls["cuntz"]),
        "cuntz.self_frac": share(tracer.self_s["cuntz"]),
        "cli.calls": per_job(calls["cli"]),
        "cli.self_frac": share(tracer.self_s["cli"]),
        "cli.report_bytes": per_job(counts["cli.report_bytes"], "B/job"),
        "trace.jobs": _metric(jobs, "count"),
        "trace.spans": per_job(tracer.span_count),
        "trace.job_wall_s": _metric(wall, "s"),
        "trace.traced_jobs_per_s": _metric(traced_jps, "1/s"),
        "trace.untraced_jobs_per_s": _metric(untraced_jps, "1/s"),
        "trace_overhead_frac": _metric(untraced_jps / traced_jps - 1.0, "frac"),
    }


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def _blas_threads() -> int | None:
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cache_sizes() -> dict:
    try:
        text = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                              timeout=10, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    sizes = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
            sizes[parts[0].lower()] = int(parts[1])
    return sizes


def run_record(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": numpy.__config__.CONFIG["Build Dependencies"]["blas"].get("name"),
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(), "deadline_s": DEADLINE_S,
        **_cache_sizes(),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _probe_setup(args, workdir: str) -> float:
    """Set-up time of a fresh child process running the same set-up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=170, check=True,
                          cwd=str(ROOT))
    return float(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        signal.signal(signal.SIGALRM, _on_alarm)
        try:
            own_setup = set_up(args.workload, str(workdir))
        except (FileNotFoundError, ImportError) as exc:
            print(f"cannot run the benchmark: {exc}", file=sys.stderr)
            return 2
        if args.setup_probe:
            print(repr(own_setup))
            return 0
        module = Workload(args.workload)
        record = run_record(args)
        if args.trace:
            tracer = Tracer()
            plain, traced = closed_loop(module, args.seed, args.seconds, str(workdir), tracer)
            tracer.write(str(out_dir / f"trace-{args.workload}-{args.seed}.npz"))
            metrics = per_layer(tracer, plain, traced)
            outcomes = (plain, traced)
        else:
            setup = [own_setup] + [_probe_setup(args, str(workdir))
                                   for _ in range(SETUP_SAMPLES - 1)]
            outcome, _ = closed_loop(module, args.seed, args.seconds, str(workdir))
            metrics = end_to_end(outcome, setup)
            record["setup_samples_s"] = setup
            outcomes = (outcome,)
        record["jobs_by_kind"] = {
            kind: {"jobs": len(lat), "p50_s": statistics.median(lat)}
            for kind, lat in outcomes[-1].by_kind.items()}
        print(json.dumps({"run_record": record}, sort_keys=True))
        print(json.dumps({
            "correct": not any(o.wrong or o.errors for o in outcomes),
            "attempted": sum(o.attempted for o in outcomes),
            "failed": sum(o.failed for o in outcomes),
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
