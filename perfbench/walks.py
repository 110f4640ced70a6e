"""Walk jobs of workload `simulate`: the walk layer used three ways.

* CLI `sample` jobs: reflecting barrier, recurrent and transient p, all
  three schemes, 2000 trials x 2000 steps -- a one-pass hit scan per trial
  plus the sample diagnostics (one tower and its covering radii);
* CLI `walk` jobs: per-state Python stepping of 100 trajectories;
* library `batch_sup` jobs: absorbing barrier, caps 5 / 10 / 20 --
  windowed running-max stepping.

Neither these jobs nor the tower jobs call `transport` or `intlinalg`, so
a change there should leave `simulate` unchanged.
"""

from __future__ import annotations

import os

import numpy as np

import cstarlab.cli as cli
import cstarlab.walk as walk
from common import (
    Job,
    binomial_plausible,
    expect,
    hit_within,
    read_report,
    reflecting_path,
    trial_uniforms,
    wilson,
)

SCHEMES = ("barycenter", "vertices", "faces")
TRANSIENT_CLASS = {"barycenter": "bauer_one_over_n", "vertices": "bauer_cantor",
                   "faces": "poulsen"}
#: (p, scheme) of the sample jobs: two recurrent, two transient
SAMPLE_JOBS = ((0.42, "barycenter"), (0.5, "faces"), (0.6, "vertices"), (0.68, "faces"))
WALK_PS = (0.4, 0.45, 0.5, 0.55, 0.6)
#: (p, cap) of the absorbing sup jobs
SUP_JOBS = ((0.45, 5), (0.48, 10), (0.5, 20))


def sample_job(workdir: str, p: float, start: int, scheme: str, trials: int,
               horizon: int, seed: int) -> Job:
    path = os.path.join(workdir, "sample.jsonl")
    argv = ["sample", "--p", repr(float(p)), "--start", str(start), "--scheme", scheme,
            "--trials", str(trials), "--horizon", str(horizon), "--seed", str(seed),
            "--output", path]

    def check(status):
        expect(status == 0, f"sample exited {status}")
        rec = read_report(path)[0]
        expect(rec["trials"] == trials and rec["horizon"] == horizon, "echoed sizes differ")
        successes = round(rec["estimate"] * trials)
        expect(abs(successes / trials - rec["estimate"]) < 1e-12, "estimate is not k / trials")
        if p > 1 - p:
            exact = walk.hit_zero_probability(walk.WalkParams.point(p, start=start), start)
            lo, hi = wilson(successes, trials)
            expect(lo <= exact <= hi, f"estimate {rec['estimate']} vs exact {exact}")
            expected_class = TRANSIENT_CLASS[scheme]
        else:
            exact = hit_within(p, start, horizon)
            expect(binomial_plausible(successes, trials, exact),
                   f"estimate {rec['estimate']} vs exact {exact}")
            expected_class = "jiang_su"
        # the reported 95 % interval can miss an estimate of 1.0 by one rounding
        expect(rec["ci"][0] - 1e-12 <= rec["estimate"] <= rec["ci"][1] + 1e-12,
               "reported interval misses estimate")
        expect(rec["trace_space_class"] == expected_class, "wrong trace-space class")
        desc = rec["descriptor"]
        expect(desc == {"unit_class": 1, "finiteness": "stably_finite",
                        "trace_space": expected_class}, "wrong descriptor")
        diag = rec["diagnostics"]
        states = reflecting_path(start, p, trial_uniforms(seed, 0, horizon + 1))
        expect(diag["horizon"] == horizon, "diagnostic horizon differs")
        expect(diag["max_dimension"] == max(states), "diagnostic max dimension differs")
        expect(diag["zero_visits"] == states[1:].count(0), "diagnostic zero visits differ")
        radii = diag["covering_radius_samples"].values()
        expect(all(0.0 <= r <= 1.0 for r in radii), "covering radius outside [0, 1]")

    return Job("cli.sample", lambda: cli.run(argv), check)


def walk_job(workdir: str, p: float, start: int, trials: int, length: int, seed: int) -> Job:
    path = os.path.join(workdir, "walk.jsonl")
    argv = ["walk", "--p", repr(float(p)), "--start", str(start), "--length", str(length),
            "--trials", str(trials), "--seed", str(seed), "--output", path]

    def check(status):
        expect(status == 0, f"walk exited {status}")
        recs = read_report(path)
        expect(len(recs) == trials + 1, "wrong record count")
        hits = 0
        for t, rec in enumerate(recs[:-1]):
            expect(rec["trial"] == t and rec["start"] == start, "trial header differs")
            final, top, step = rec["final_state"], rec["max_state"], rec["hit_zero_step"]
            expect((final - start - (length - 1)) % 2 == 0, "final state has the wrong parity")
            expect(top >= max(start, final), "max state below an endpoint")
            if step is not None:
                expect(1 <= step < length and (step - start) % 2 == 0, "impossible hitting step")
                hits += 1
        states = reflecting_path(start, p, trial_uniforms(seed, 0, length))
        first = next((n for n, s in enumerate(states) if n >= 1 and s == 0), None)
        expect((recs[0]["hit_zero_step"], recs[0]["max_state"], recs[0]["final_state"])
               == (first, max(states), states[-1]), "trial 0 differs from the reference walk")
        expect(recs[-1]["frequency_hit_zero"] == hits / trials, "summary frequency differs")
        exact = hit_within(p, start, length - 1)
        expect(binomial_plausible(hits, trials, exact),
               f"hit frequency {hits / trials} vs exact {exact}")

    return Job("cli.walk", lambda: cli.run(argv), check)


def _reference_sup(p: float, start: int, cap: int, seed: int, trial: int) -> int:
    """min(sup, cap + 1) of one absorbing trajectory, from its raw uniforms."""
    drawn = 1 << 10
    while True:
        u = trial_uniforms(seed, trial, drawn)
        state = top = start
        for x in u[1:]:
            if state == 0 or top > cap:
                return min(top, cap + 1)
            state += 1 if x < p else -1
            top = max(top, state)
        if state == 0 or top > cap:
            return min(top, cap + 1)
        drawn *= 4


def sup_job(p: float, start: int, cap: int, trials: int, seed: int) -> Job:
    params = walk.WalkParams.point(p, barrier=walk.Barrier.ABSORBING, start=start)

    def check(out):
        sups, resolved = out
        expect(sups.shape == (trials,) and resolved.shape == (trials,), "wrong shapes")
        expect(bool(resolved.all()), "unresolved trials")
        expect(bool((sups >= start).all() and (sups <= cap + 1).all()), "sup out of range")
        expect(int(sups[0]) == _reference_sup(p, start, cap, seed, 0),
               "trial 0 differs from the reference walk")
        for k in range(cap + 1):
            exact = float(walk.sup_distribution(params, k))
            below = int((sups <= k).sum())
            expect(binomial_plausible(below, trials, exact),
                   f"P(sup <= {k}): {below / trials} vs exact {exact}")

    return Job("walk.batch_sup", lambda: walk.batch_sup(params, trials, seed, cap=cap), check)


def cycle(seed: int, index: int, workdir: str) -> list[Job]:
    """One cycle: the same job kinds, sizes and walk parameters every time;
    only the streams (the seeds handed to the program) are fresh."""
    rng = np.random.default_rng([seed, index, 1])

    def job_seed() -> int:
        return int(rng.integers(1 << 31))

    jobs = [sample_job(workdir, p, 1, scheme, 2000, 2000, job_seed())
            for p, scheme in SAMPLE_JOBS]
    jobs += [walk_job(workdir, p, 2, 100, 2000, job_seed()) for p in WALK_PS]
    jobs += [sup_job(p, 1, cap, 3000, job_seed()) for p, cap in SUP_JOBS]
    return jobs


def warmup(workdir: str) -> list[Job]:
    return [sample_job(workdir, 0.6, 1, "faces", 50, 50, 1),
            walk_job(workdir, 0.5, 1, 5, 50, 1),
            sup_job(0.5, 1, 3, 50, 1)]

