"""Tower jobs of workload `simulate`: archive writes beside archive reads.

Write jobs are CLI `simplex` runs on transient p with every scheme, on a
fixed ladder of horizons; archive size grows quadratically with the horizon, so
reports run from kilobytes to megabytes and both serialisation cost and
memory show.  Each write is followed by a read job that loads the archive
with `SimplexTower.from_json`, pushes a point down the tower and takes a
covering radius.  The walk layer runs one trajectory per write.
"""

from __future__ import annotations

import json
import os

import numpy as np

import cstarlab.cli as cli
import cstarlab.simplex as simplex
from common import (
    Job,
    apply_down,
    expect,
    grid,
    read_report,
    reflecting_path,
    splitmix64,
    trial_uniforms,
)

SCHEMES = ("barycenter", "vertices", "faces")
#: (p, horizon) rungs of the write jobs; every scheme runs at every rung.
#: Archive size grows with the square of the top dimension, whose spread
#: relative to its mean shrinks as p grows, so the heavy rungs use p = 0.8
#: to keep archive sizes, and with them latency, from swinging by seed.
RUNGS = ((0.7, 100), (0.75, 300), (0.8, 450), (0.8, 600))
#: lookahead (levels) of the read jobs' covering radius
WINDOW = 256
BARYCENTRIC_TOL = 1e-12


class Archive:
    """The last archive written: its tower text and parsed document."""

    text: str | None = None
    doc: dict | None = None


def _collapse_invariants(scheme: str, dims: list[int], maps: list[dict], seed: int) -> None:
    """Check every map, and redraw every collapse from the documented stream.

    Collapses draw from the stream keyed by (seed, 0) in trajectory order:
    one vertex index per collapse for `vertices`, `top` sorted uniforms per
    collapse onto a face with top vertex `top` >= 1 for `faces`.
    """
    draws = np.random.Generator(np.random.Philox(key=splitmix64(seed, 0)))
    visits: dict[int, int] = {}
    for i, m in enumerate(maps):
        lo, hi = dims[i], dims[i + 1]
        expect(abs(hi - lo) == 1, f"step {lo} -> {hi} is not +-1")
        if hi < lo:
            expect(m == {"kind": "inclusion"}, f"map {i} should be an inclusion")
            continue
        expect(m["kind"] == "collapse", f"map {i} should be a collapse")
        vec = np.asarray(m["vector"], dtype=float)
        expect(vec.shape == (hi,), f"collapse {i} has {vec.size} coordinates, wants {hi}")
        expect(bool((vec >= -BARYCENTRIC_TOL).all()) and abs(vec.sum() - 1) <= BARYCENTRIC_TOL,
               f"collapse {i} is not barycentric")
        visit = visits.get(hi, 0)
        visits[hi] = visit + 1
        expected = np.zeros(hi)
        if scheme == "barycenter":
            expected[:] = 1.0 / hi
        elif scheme == "vertices":
            expected[int(draws.integers(hi))] = 1.0
        else:
            top = (hi - 1) - (visit % hi)
            if top == 0:
                expected[0] = 1.0
            else:
                cuts = np.sort(draws.random(top))
                expected[: top + 1] = np.diff(np.concatenate(([0.0], cuts, [1.0])))
        expect(np.array_equal(vec, expected), f"collapse {i} differs from its {scheme} draw")


def write_job(workdir: str, archive: Archive, p: float, scheme: str, horizon: int,
              seed: int) -> Job:
    path = os.path.join(workdir, "tower.jsonl")
    argv = ["simplex", "--p", repr(float(p)), "--scheme", scheme, "--horizon", str(horizon),
            "--seed", str(seed), "--output", path]

    def check(status):
        expect(status == 0, f"simplex exited {status}")
        doc = read_report(path)[0]["tower"]
        states = reflecting_path(0, p, trial_uniforms(seed, 0, horizon + 1))
        expect(doc["dims"] == states, "tower dimensions differ from the reference walk")
        expect(doc["scheme"] == scheme and doc["seed"] == splitmix64(seed, 1),
               "tower provenance differs")
        expect(len(doc["maps"]) == len(states) - 1, "need one map per step")
        _collapse_invariants(scheme, doc["dims"], doc["maps"], doc["seed"])
        archive.text = json.dumps(doc, sort_keys=True)
        archive.doc = doc

    return Job("cli.simplex", lambda: cli.run(argv), check)


def _reference_radius(dims: list[int], maps: list[dict], level_m: int, top: int) -> float:
    """Covering radius of the level-m grid by the top vertices of levels m+1..top."""
    batch = np.zeros((0, dims[top] + 1))
    for lev in range(top, level_m, -1):
        corner = np.zeros((1, dims[lev] + 1))
        corner[0, -1] = 1.0
        batch = apply_down(maps, lev, lev - 1, np.vstack([batch, corner]))
    if batch.shape[0] == 0:
        batch = np.eye(dims[level_m] + 1)
    g = grid(dims[level_m])
    return float((0.5 * np.abs(g[:, None, :] - batch[None, :, :]).sum(axis=2)).min(axis=1).max())


def read_job(archive: Archive, rng_seed: list[int]) -> Job:
    """Load the last archive, push a random point down, take a covering radius."""
    picks: dict = {}

    def run():
        rng = np.random.default_rng(rng_seed)
        dims = archive.doc["dims"]
        top = len(dims) - 1
        low = [i for i, d in enumerate(dims) if 1 <= d <= 4]
        picks["m"] = m = low[int(rng.integers(len(low)))]
        picks["j"] = j = int(rng.integers(m, top + 1))
        picks["x"] = x = rng.dirichlet(np.ones(dims[j] + 1))
        tower = simplex.SimplexTower.from_json(archive.text)
        image = simplex.pushdown(tower, j, x, m)
        radius = simplex.covering_radius(tower.truncate(m + WINDOW), m)
        return tower, image, radius

    def check(out):
        tower, image, radius = out
        expect(tower.to_json() == archive.text, "archive does not round-trip")
        doc, m, j = archive.doc, picks["m"], picks["j"]
        ref = apply_down(doc["maps"], j, m, picks["x"][None, :])[0]
        expect(image.shape == ref.shape and float(np.abs(image - ref).max()) <= 1e-12,
               "pushdown differs from the reference")
        top = min(m + WINDOW, len(doc["dims"]) - 1)
        expect(abs(radius - _reference_radius(doc["dims"], doc["maps"], m, top)) <= 1e-12,
               "covering radius differs from the reference")

    return Job("simplex.read", run, check)


def cycle(seed: int, index: int, workdir: str) -> list[Job]:
    """Every scheme at every rung of the ladder, each write followed by a read."""
    rng = np.random.default_rng([seed, index, 2])
    archive = Archive()
    jobs = []
    for k, (p, horizon) in enumerate(RUNGS):
        for scheme in SCHEMES:
            jobs.append(write_job(workdir, archive, p, scheme, horizon,
                                  int(rng.integers(1 << 31))))
            jobs.append(read_job(archive, [seed, index, k, len(jobs)]))
    return jobs


def warmup(workdir: str) -> list[Job]:
    archive = Archive()
    return [write_job(workdir, archive, 0.7, "faces", 40, 1), read_job(archive, [0])]
