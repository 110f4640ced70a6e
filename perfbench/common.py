"""Job type, check failures and reference computations shared by the workloads.

The reference computations here are written from the documented contracts
(SplitMix64-keyed Philox streams, one uniform per trajectory state, the
halved-l1 simplex metric, bottleneck matching as perfect matching under a
threshold) and share no code with cstarlab, so a check built on them can
catch a wrong answer that the package would agree with itself about.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching
from scipy.special import bdtr, bdtrc

#: z-score of the Wilson-interval checks.  A run makes several hundred
#: statistical comparisons; at z = 5 a correct program fails one with
#: probability about 6e-7 when the exact probability is away from 0 and 1.
Z_CHECK = 5.0
#: two-sided tail probability of the exact binomial checks, which replace
#: normal approximations where the exact probability is near 0 or 1 (there
#: a count one above its mean can lie many standard errors out)
BINOMIAL_TAIL = 1e-7


class CheckFailed(Exception):
    """A job's output disagrees with its oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _never_flagged(out) -> bool:
    return False


@dataclass
class Job:
    """One unit of closed-loop work: `run` is timed, `check` is not."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    flagged: Callable[[object], bool] = field(default=_never_flagged)


def read_report(path: str) -> list[dict]:
    """Records of a JSON-lines CLI report after its config record; deletes the file."""
    with open(path) as handle:
        lines = [ln for ln in handle.read().splitlines() if ln and not ln.startswith("#")]
    os.unlink(path)
    return [json.loads(ln) for ln in lines[1:]]


# ---------------------------------------------------------------------------
# random streams and walks
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def splitmix64(seed: int, index: int) -> int:
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def trial_uniforms(seed: int, trial: int, count: int) -> np.ndarray:
    return np.random.Generator(np.random.Philox(key=splitmix64(seed, trial))).random(count)


def reflecting_path(start: int, p: float, uniforms: np.ndarray) -> list[int]:
    """States of the reflecting walk; u[0] is spent on the (fixed) start."""
    state, states = start, [start]
    for u in uniforms[1:]:
        state = 1 if state == 0 else state + (1 if u < p else -1)
        states.append(state)
    return states


def hit_within(p: float, start: int, steps: int) -> float:
    """P(the +-1 walk from `start` >= 1 visits 0 within `steps` steps)."""
    mass = np.zeros(start + steps + 2)
    mass[start] = 1.0
    hit = 0.0
    for _ in range(steps):
        nxt = np.zeros_like(mass)
        nxt[2:] += p * mass[1:-1]
        nxt[:-1] += (1.0 - p) * mass[1:]
        hit += nxt[0]
        nxt[0] = 0.0
        mass = nxt
    return hit


def binomial_plausible(successes: int, trials: int, p: float) -> bool:
    """Is `successes` out of `trials` outside neither tail of Binomial(trials, p)?"""
    at_most = bdtr(successes, trials, p)
    at_least = 1.0 if successes == 0 else bdtrc(successes - 1, trials, p)
    return at_most >= BINOMIAL_TAIL and at_least >= BINOMIAL_TAIL


def wilson(successes: int, trials: int, z: float = Z_CHECK) -> tuple[float, float]:
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return center - half, center + half


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------

def bottleneck(av: np.ndarray, bv: np.ndarray) -> float:
    """Exact bottleneck matching value via scipy's Hopcroft-Karp matcher."""
    dist = np.abs(np.asarray(av, dtype=complex)[:, None] - np.asarray(bv, dtype=complex)[None, :])
    values = np.unique(dist)
    n = dist.shape[0]

    def perfect(threshold: float) -> bool:
        match = maximum_bipartite_matching(csr_matrix(dist <= threshold), perm_type="column")
        return bool((match >= 0).sum() == n)

    lo, hi = -1, len(values) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if perfect(values[mid]):
            hi = mid
        else:
            lo = mid
    return float(values[hi])


# ---------------------------------------------------------------------------
# simplices
# ---------------------------------------------------------------------------

def grid(dim: int, resolution: int = 8) -> np.ndarray:
    pts = []
    for bars in combinations(range(resolution + dim), dim):
        edges = (-1,) + bars + (resolution + dim,)
        pts.append([edges[i + 1] - edges[i] - 1 for i in range(dim + 1)])
    return np.array(pts, dtype=float) / resolution


def apply_down(maps: list[dict], level_j: int, level_m: int, rows: np.ndarray) -> np.ndarray:
    """Push barycentric rows from level j down to level m through archived maps."""
    for lev in range(level_j, level_m, -1):
        m = maps[lev - 1]
        if m["kind"] == "inclusion":
            rows = np.hstack([rows, np.zeros((rows.shape[0], 1))])
        else:
            rows = rows[:, :-1] + np.outer(rows[:, -1], np.asarray(m["vector"]))
    return rows


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------

def int_matmul(a, b) -> np.ndarray:
    """Exact product of integer matrices given as nested sequences."""
    return np.array(a, dtype=object).reshape(len(a), -1) @ np.array(b, dtype=object).reshape(len(b), -1)
