"""Simple random walk on the half-line {0, 1, 2, ...} with a barrier at 0.

Interior transitions go up with probability p and down with probability
q = 1 - p.  At zero the walk either reflects (the next state is forced to
be 1) or is absorbed (it stays at 0 forever); interior transitions are the
same in both modes.  The walk is recurrent when p <= q and transient when
p > q.

Uniform-consumption contract (fixed so that batched and per-trajectory
simulation agree bitwise): trial t draws from the stream keyed by
(seed, t), and a trajectory with L states consumes exactly L uniforms --
u[0] selects the initial state by inverse CDF over the finite support of
the initial distribution, and u[k] drives step k, with "up" exactly when
u[k] < p.  Forced moves at the barrier still consume their uniform.  The
batch helpers (`batch_hits_zero`, `batch_sup`) read a prefix of each
trial's stream under the same rule and stop drawing once that trial's
event is decided, so their results equal the events of the matching
`sample_trajectory` runs.

Oracles: `hit_zero_probability` is the gambler's-ruin closed form, and
`sup_distribution` solves the first-step-analysis tridiagonal system
exactly in rationals.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from .rng import _integer, stream

_PROB_TOL = 1e-12


class InvalidParamsError(ValueError):
    """Walk parameters violate their invariants."""


class UnsupportedBarrierError(ValueError):
    """The requested operation is not defined for this barrier mode."""


def _count(name: str, value, least: int) -> int:
    """`value` as an int >= `least`: what operator.index accepts, bools aside."""
    if not isinstance(value, (bool, np.bool_)) and hasattr(type(value), "__index__"):
        value = operator.index(value)
        if value >= least:
            return value
    raise InvalidParamsError(f"{name} must be an integer >= {least}, got {value!r}")


def _real(name: str, value) -> float:
    """`value` as a float by its `__float__`: bools, strings and bytes are refused."""
    if isinstance(value, (bool, np.bool_, str, bytes)) or not hasattr(type(value), "__float__"):
        raise InvalidParamsError(f"{name} must be real, got {value!r}")
    return float(value)


class Barrier(enum.Enum):
    REFLECTING = "reflecting"
    ABSORBING = "absorbing"


class WalkClass(enum.Enum):
    RECURRENT = "recurrent"
    TRANSIENT = "transient"


@dataclass(frozen=True)
class WalkParams:
    """Transition data (p up, q = 1 - p down, barrier mode) plus initial distribution.

    q is derived from p, never given.  `initial` maps integer states to
    probabilities, as a mapping or as (state, weight) pairs; it must have
    finite support, real nonnegative weights, and sum to 1 within 1e-12.  A
    non-integer state raises TypeError.  The default starts at 0.
    """

    p: float
    q: float = field(init=False)
    barrier: Barrier = Barrier.REFLECTING
    initial: tuple[tuple[int, float], ...] = ((0, 1.0),)

    def __post_init__(self):
        object.__setattr__(self, "p", _real("p", self.p))
        object.__setattr__(self, "q", 1.0 - self.p)
        if not 0.0 <= self.p <= 1.0:
            raise InvalidParamsError(f"p must lie in [0, 1], got {self.p}")
        if not isinstance(self.barrier, Barrier):
            raise InvalidParamsError(f"barrier must be a Barrier, got {self.barrier!r}")
        items = self.initial.items() if isinstance(self.initial, Mapping) else self.initial
        pairs = tuple(sorted((_integer(s, "states must be integers"), _real("initial weights", w))
                             for s, w in items))
        if not pairs:
            raise InvalidParamsError("initial distribution must have nonempty support")
        for state, weight in pairs:
            if state < 0:
                raise InvalidParamsError(f"states must be nonnegative, got {state}")
            if not weight >= 0:
                raise InvalidParamsError(f"initial weights must be nonnegative, got {weight}")
        if len({s for s, _ in pairs}) != len(pairs):
            raise InvalidParamsError("initial distribution lists a state twice")
        if abs(sum(w for _, w in pairs) - 1.0) > _PROB_TOL:
            raise InvalidParamsError("initial distribution must sum to 1 within 1e-12")
        object.__setattr__(self, "initial", pairs)

    @classmethod
    def point(cls, p: float, *, barrier: Barrier = Barrier.REFLECTING,
              start: int = 0) -> "WalkParams":
        return cls(p=p, barrier=barrier, initial=((start, 1.0),))


@dataclass(frozen=True)
class Trajectory:
    """A finite run Y_0, Y_1, ..., Y_N of the walk."""

    states: tuple[int, ...]

    def __post_init__(self):
        if not self.states:
            raise InvalidParamsError("a trajectory needs at least one state")
        if min(self.states) < 0:
            raise InvalidParamsError("states must be nonnegative")

    def __len__(self) -> int:
        return len(self.states)

    @property
    def max_state(self) -> int:
        return max(self.states)

    def zero_visits(self) -> int:
        """Number of indices n >= 1 with Y_n = 0."""
        return sum(1 for s in self.states[1:] if s == 0)


#: first-exit windows: the first is _FIRST_WINDOW steps wide, each next one
#: twice as wide up to _MAX_WINDOW, which bounds a window block's memory
_FIRST_WINDOW = 64
_MAX_WINDOW = 512


def _initial_states(params: WalkParams, uniforms: np.ndarray) -> np.ndarray:
    """Initial states by inverse CDF over the support: one per uniform."""
    support = np.array([s for s, _ in params.initial], dtype=np.int64)
    cdf = np.cumsum([w for _, w in params.initial])
    return support[np.minimum(np.searchsorted(cdf, uniforms, side="right"), len(support) - 1)]


def sample_trajectory(params: WalkParams, length: int, seed: int, *,
                      trial: int = 0) -> Trajectory:
    """Simulate `length` states; fully determined by (params, length, seed, trial).

    `trial` selects the per-trial stream keyed by (seed, trial); batch
    helpers use the same keying, so trial t of a batch reproduces
    `sample_trajectory(..., trial=t)` exactly.

    The path is computed in closed form from the free +-1 walk S (S_0 the
    start): the reflecting walk is S + 2 ceil(R / 2), with R the running
    maximum of max(-S, 0), and the absorbing walk is S frozen at its first 0.
    """
    length = _count("length", length, 1)
    uniforms = stream(seed, trial).random(length)
    steps = np.where(uniforms < params.p, 1, -1)
    steps[0] = _initial_states(params, uniforms[:1])[0]
    free = np.cumsum(steps)
    if params.barrier is Barrier.REFLECTING:
        below = np.maximum.accumulate(np.maximum(-free, 0))
        states = free + 2 * ((below + 1) // 2)
    else:
        states = free
        zero = states == 0
        if zero.any():
            states[zero.argmax():] = 0
    return Trajectory(tuple(states.tolist()))


def _first_exit(gens: list[np.random.Generator], pos: np.ndarray, top: np.ndarray,
                budget: np.ndarray, p: float, cap: float) -> tuple[np.ndarray, np.ndarray]:
    """Step free +-1 walks until each reaches 0, passes `cap` or spends its budget.

    Row i starts at pos[i] with running maximum top[i] and steps up exactly
    when the next uniform of gens[i] is below p.  Rows step in windows of
    _FIRST_WINDOW columns doubling to _MAX_WINDOW, and only rows still
    undecided draw the next window, so a row reads its stream at most one
    window past its stop.  Returns (positions, maxima) at each row's stop.
    """
    pos, top, budget = pos.copy(), top.copy(), budget.copy()
    live = np.flatnonzero((pos != 0) & (top <= cap) & (budget > 0))
    width = _FIRST_WINDOW
    while live.size:
        take = np.minimum(budget[live], width)
        cols = int(take.max())
        block = np.zeros((live.size, cols))
        for row, (i, n) in enumerate(zip(live.tolist(), take.tolist())):
            gens[i].random(out=block[row, :n])
        # the walk after j + 1 steps is 2 * (ups among them) - (j + 1)
        walk = np.cumsum(block < p, axis=1, dtype=np.int32)
        del block
        walk *= 2
        walk -= np.arange(1, cols + 1, dtype=np.int32)
        start = pos[live]
        out = walk <= -np.minimum(start, cols + 1).astype(np.int32)[:, None]
        out |= walk > np.minimum(cap - start, cols).astype(np.int32)[:, None]
        out &= np.arange(cols) < take[:, None]  # columns past a row's budget were not drawn
        stopped = out.any(axis=1)
        stop = np.where(stopped, out.argmax(axis=1), take - 1)
        rows = np.arange(live.size)
        pos[live] = start + walk[rows, stop]
        np.maximum.accumulate(walk, axis=1, out=walk)
        top[live] = np.maximum(top[live], start + walk[rows, stop])
        budget[live] -= stop + 1
        live = live[~stopped & (budget[live] > 0)]
        width = min(2 * width, _MAX_WINDOW)
        del walk, out  # before the next window's block is allocated
    return pos, top


def _open_trials(params: WalkParams, trials: int, seed: int) -> tuple[list, np.ndarray]:
    """Each trial's stream, opened once, and its initial state from u[0]."""
    gens = [stream(seed, t) for t in range(trials)]
    return gens, _initial_states(params, np.array([g.random() for g in gens]))


def batch_hits_zero(params: WalkParams, horizon: int, trials: int, seed: int) -> np.ndarray:
    """Per-trial indicator of visiting 0 within steps [1, horizon].

    Trial t draws from the stream keyed by (seed, t); the result is
    independent of any batching or parallel schedule.  Before its first
    visit to 0 the walk is free, so each trial steps only until that visit.
    """
    horizon, trials = _count("horizon", horizon, 1), _count("trials", trials, 1)
    gens, pos = _open_trials(params, trials, seed)
    budget = np.full(trials, horizon, dtype=np.int64)
    if params.barrier is Barrier.REFLECTING:
        # the forced step 0 -> 1 still consumes its uniform
        forced = np.flatnonzero(pos == 0)
        for t in forced.tolist():
            gens[t].random()
        pos[forced] = 1
        budget[forced] -= 1
    pos, _ = _first_exit(gens, pos, pos, budget, params.p, np.inf)
    return pos == 0


def batch_sup(params: WalkParams, trials: int, seed: int, *, cap: int,
              max_steps: int = 1 << 16) -> tuple[np.ndarray, np.ndarray]:
    """Sample min(sup_n Y_n, cap + 1) for the absorbing walk, per trial.

    Each trial runs until absorption at 0 or until its running maximum
    exceeds `cap` (either resolves every event {sup <= k} for k <= cap).
    Returns (sups, resolved); unresolved trials ran out of `max_steps`
    states.  Trial streams and uniform consumption match `sample_trajectory`.
    """
    if params.barrier is not Barrier.ABSORBING:
        raise UnsupportedBarrierError("sup sampling is an absorbing-mode diagnostic")
    trials, cap = _count("trials", trials, 1), _count("cap", cap, 0)
    max_steps = _count("max_steps", max_steps, 1)
    gens, start = _open_trials(params, trials, seed)
    budget = np.full(trials, max_steps - 1, dtype=np.int64)
    pos, top = _first_exit(gens, start, start, budget, params.p, cap)
    return np.minimum(top, cap + 1), (pos == 0) | (top > cap)


def classify_walk(params: WalkParams) -> WalkClass:
    """Recurrent iff p <= q; defined for the reflecting barrier only."""
    if params.barrier is not Barrier.REFLECTING:
        raise UnsupportedBarrierError("recurrence classification assumes the reflecting barrier")
    return WalkClass.RECURRENT if params.p <= params.q else WalkClass.TRANSIENT


def hit_zero_probability(params: WalkParams, start: int) -> float:
    """Probability that the walk started at `start` ever reaches 0.

    Gambler's ruin: 1 at the start 0 and whenever p <= q (the chain is
    recurrent), and (q/p)**start for p > q, the limit of the hitting
    probabilities of the walk killed at K as K grows.
    """
    start = _count("start", start, 0)
    if start == 0 or params.p <= params.q:
        return 1.0
    return (params.q / params.p) ** start


def sup_distribution(params: WalkParams, k: int) -> Fraction:
    """P(sup_n Y_n <= k) for the absorbing walk, solved exactly.

    First-step analysis on {0, ..., k+1} with absorption at 0 and at k+1:
    hitting k+1 is exactly the event sup > k.  All arithmetic is in
    Fractions (floats are converted exactly), so gambler's-ruin identities
    hold on the nose.
    """
    if params.barrier is not Barrier.ABSORBING:
        raise UnsupportedBarrierError("sup of a reflecting walk is a different quantity")
    k = _count("k", k, 0)
    p, q = Fraction(params.p), Fraction(params.q)

    # g_j = P(absorbed at 0 before k+1 | start j) via a forward sweep
    # g becomes the map j -> value for 0 <= j <= k (zero above).
    g = [Fraction(0)] * (k + 1)
    g[0] = Fraction(1)
    if k >= 1:
        alpha = [Fraction(0)] * (k + 1)
        beta = [Fraction(0)] * (k + 1)
        alpha[1], beta[1] = q, p
        for j in range(2, k + 1):
            denom = 1 - q * beta[j - 1]
            alpha[j] = q * alpha[j - 1] / denom
            beta[j] = p / denom
        g[k] = alpha[k]  # boundary g_{k+1} = 0
        for j in range(k - 1, 0, -1):
            g[j] = alpha[j] + beta[j] * g[j + 1]

    total = Fraction(0)
    for state, weight in params.initial:
        if state <= k:
            total += Fraction(weight) * g[state]
    return total
