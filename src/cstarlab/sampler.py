"""Random algebra descriptors driven by the walk, plus Monte-Carlo estimators.

A reflecting walk whose collapse points are drawn from one of the three
measure schemes determines, with probability one, the trace simplex of the
limit algebra: the one-point simplex's algebra when the walk is recurrent
(p <= q), and otherwise one of two Bauer simplices or the dense-boundary
simplex according to the scheme.  `classify_trace_space` is a lookup of
that almost-sure class; `sample_algebra` attaches finite-stage diagnostics
from an actual simulated tower.  With an absorbing barrier the trace
simplex is finite-dimensional with dimension sup_n Y_n whenever the walk is
absorbed, and `sample_algebra` reports the number of extreme traces
(sup + 1).

The headline estimator is a finite-horizon proxy: the fraction of walks
that come back to 0 within the horizon.  This underestimates the
almost-sure event (infinitely many returns), so every report carries its
horizon; estimates are monotone nondecreasing in the horizon for a fixed
seed because trial streams extend without rewriting their prefixes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .intlinalg import FGAbelianGroup
from .rng import mix64
from .simplex import MeasureScheme, _grid_radius, _window_images, build_tower
from .walk import (
    Barrier,
    InvalidParamsError,
    UnsupportedBarrierError,
    WalkParams,
    _count,
    batch_hits_zero,
    sample_trajectory,
)

#: lookahead (in tower levels) used when sampling covering radii
DIAGNOSTIC_WINDOW = 512

_WILSON_Z95 = 1.959963984540054


class Finiteness(enum.Enum):
    STABLY_FINITE = "stably_finite"
    PURELY_INFINITE = "purely_infinite"


class TraceSpaceKind(enum.Enum):
    JIANG_SU = "jiang_su"
    FINITE_DIM = "finite_dim"
    BAUER_ONE_OVER_N = "bauer_one_over_n"
    BAUER_CANTOR = "bauer_cantor"
    POULSEN = "poulsen"


@dataclass(frozen=True)
class TraceSpaceTag:
    """Which trace simplex a descriptor carries.

    For FINITE_DIM, `points` is the number of extreme traces, so the
    simplex dimension is points - 1; a walk with sup = 0 yields the
    one-point (zero-dimensional) simplex, points = 1.
    """

    kind: TraceSpaceKind
    points: int | None = None

    def __post_init__(self):
        if self.kind is TraceSpaceKind.FINITE_DIM:
            object.__setattr__(self, "points", _count("points", self.points, 1))
        elif self.points is not None:
            raise InvalidParamsError(f"{self.kind.value} does not carry a point count")

    @classmethod
    def jiang_su(cls) -> "TraceSpaceTag":
        return cls(TraceSpaceKind.JIANG_SU)

    @classmethod
    def finite_dim(cls, points: int) -> "TraceSpaceTag":
        return cls(TraceSpaceKind.FINITE_DIM, points)

    def __str__(self) -> str:
        if self.kind is TraceSpaceKind.FINITE_DIM:
            return f"finite_dim({self.points})"
        return self.kind.value


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Elliott-style summary of a K-contractible sample.

    The K-theory tuple is frozen by K-contractibility: (Z, order flag, unit
    class, 0), the order flag recording the standard positive cone in the
    stably finite case.  Purely infinite descriptors carry no trace space.
    """

    unit_class: int
    finiteness: Finiteness
    trace_space: TraceSpaceTag | None

    def __post_init__(self):
        object.__setattr__(self, "unit_class", _count("unit_class", self.unit_class, 1))
        if (self.finiteness is Finiteness.PURELY_INFINITE) != (self.trace_space is None):
            raise InvalidParamsError("purely infinite iff no trace space")

    @property
    def k_theory(self) -> tuple[FGAbelianGroup, bool, int, FGAbelianGroup]:
        ordered = self.finiteness is Finiteness.STABLY_FINITE
        return (FGAbelianGroup.free(1), ordered, self.unit_class, FGAbelianGroup.zero())

    @property
    def is_strongly_k_contractible(self) -> bool:
        return self.finiteness is Finiteness.STABLY_FINITE and self.unit_class == 1


_TRANSIENT_TAGS = {
    MeasureScheme.BARYCENTER_POINT_MASS: TraceSpaceKind.BAUER_ONE_OVER_N,
    MeasureScheme.UNIFORM_VERTICES: TraceSpaceKind.BAUER_CANTOR,
    MeasureScheme.LEBESGUE_FACES: TraceSpaceKind.POULSEN,
}


def classify_trace_space(params: WalkParams, scheme: MeasureScheme) -> TraceSpaceTag:
    """Almost-sure trace-simplex class for the reflecting walk.

    This is a theorem-backed lookup, not a computation on a sample: the
    recurrent walk (p <= q) collapses traces to a point, the transient walk
    sends the dimension to infinity with boundary behaviour set by the
    collapse measure.
    """
    if params.barrier is not Barrier.REFLECTING:
        raise UnsupportedBarrierError("the classification lookup assumes the reflecting walk")
    if params.p <= params.q:
        return TraceSpaceTag.jiang_su()
    return TraceSpaceTag(_TRANSIENT_TAGS[scheme])


@dataclass
class SampleDiagnostics:
    """Finite-stage evidence attached to one sampled descriptor."""

    horizon: int
    zero_visits: int
    max_dimension: int
    censored: bool = False
    absorbed: bool | None = None
    absorption_time: int | None = None
    covering_radius_samples: dict[int, float] = field(default_factory=dict)


def _radius_samples(states: tuple[int, ...], scheme: MeasureScheme,
                    seed: int) -> dict[int, float]:
    """Covering radii at the last levels of dimension 1 and 2.

    Pushdowns are taken over a bounded lookahead window so the diagnostic
    stays cheap on long towers; the window size is DIAGNOSTIC_WINDOW levels.
    Only the prefix of the tower those windows read is built: collapses
    draw in trajectory order, so it equals the full tower's truncation, and
    one sweep down it serves both levels.
    """
    last = {d: level for level, d in enumerate(states) if d in (1, 2)}
    if not last:
        return {}
    tower = build_tower(states[: max(last.values()) + DIAGNOSTIC_WINDOW + 1], scheme, seed)
    images = _window_images(tower, {m: m + DIAGNOSTIC_WINDOW for m in last.values()})
    return {d: _grid_radius(images[m], d) for d, m in sorted(last.items())}


def sample_algebra(params: WalkParams, scheme: MeasureScheme, horizon: int,
                   seed: int) -> tuple[AlgebraDescriptor, SampleDiagnostics]:
    """Run the walk for `horizon` steps and report the sampled descriptor.

    Reflecting mode returns the almost-sure class with unit class 1;
    absorbing mode returns the finite-dimensional tag with sup + 1 extreme
    traces, flagged as censored (never an error) when the walk has not been
    absorbed within the horizon.  The walk draws from the stream keyed by
    (seed, 0) exactly as `sample_trajectory`; tower collapses draw from a
    sub-seed derived by mix64(seed, 1).
    """
    horizon = _count("horizon", horizon, 1)
    traj = sample_trajectory(params, horizon + 1, seed)
    states = traj.states
    diagnostics = SampleDiagnostics(horizon=horizon, zero_visits=traj.zero_visits(),
                                    max_dimension=max(states))
    tower_states = states
    if params.barrier is Barrier.REFLECTING:
        trace_space = classify_trace_space(params, scheme)
    else:
        diagnostics.absorbed = 0 in states
        diagnostics.censored = not diagnostics.absorbed
        if diagnostics.absorbed:
            diagnostics.absorption_time = states.index(0)
            tower_states = states[: diagnostics.absorption_time + 1]
        trace_space = TraceSpaceTag.finite_dim(max(tower_states) + 1)
    descriptor = AlgebraDescriptor(unit_class=1, finiteness=Finiteness.STABLY_FINITE,
                                   trace_space=trace_space)
    if len(tower_states) > 1:
        diagnostics.covering_radius_samples = _radius_samples(
            tower_states, scheme, mix64(seed, 1))
    return descriptor, diagnostics


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95 % Wilson score interval; stable at proportions near 0 and 1, and
    exactly 0 (resp. 1) at the end reached by 0 (resp. `trials`) successes."""
    trials, successes = _count("trials", trials, 1), _count("successes", successes, 0)
    if successes > trials:
        raise InvalidParamsError(f"successes must be <= trials, got {successes} > {trials}")
    z = _WILSON_Z95
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return (low, high)


@dataclass(frozen=True)
class EstimateResult:
    estimate: float
    ci_low: float
    ci_high: float
    successes: int
    trials: int
    horizon: int

    @property
    def ci(self) -> tuple[float, float]:
        return (self.ci_low, self.ci_high)


def estimate_prob_jiang_su(params: WalkParams, trials: int, horizon: int,
                           seed: int) -> EstimateResult:
    """Finite-horizon proxy for the trace-collapsing event.

    Estimates the probability that the walk visits 0 at some step in
    [1, horizon]; this lower-bounds the almost-sure event driving the
    one-point trace simplex.  Trial t draws from the stream keyed by
    (seed, t), so the estimate is reproducible and monotone nondecreasing
    in the horizon for a fixed seed.
    """
    trials, horizon = _count("trials", trials, 1), _count("horizon", horizon, 1)
    hits = batch_hits_zero(params, horizon, trials, seed)
    successes = int(hits.sum())
    lo, hi = wilson_interval(successes, trials)
    return EstimateResult(successes / trials, lo, hi, successes, trials, horizon)


def classify_k_contractible(finiteness: Finiteness, k: int) -> str:
    """Model algebra label for a K-contractible sample with unit class k."""
    k = _count("k", k, 1)
    if finiteness is Finiteness.PURELY_INFINITE:
        return "O_infinity" if k == 1 else f"M_{k}(O_infinity)"
    return "lim Z_{p,q}" if k == 1 else f"lim M_{k}(Z_{{p,q}})"
