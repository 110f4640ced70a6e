import dataclasses
import json
import math

import numpy as np
import pytest

from cstarlab import sampler
from cstarlab.cli import run
from cstarlab.intlinalg import FGAbelianGroup
from cstarlab.rng import mix64
from cstarlab.sampler import (
    DIAGNOSTIC_WINDOW,
    AlgebraDescriptor,
    Finiteness,
    TraceSpaceKind,
    TraceSpaceTag,
    classify_k_contractible,
    classify_trace_space,
    estimate_prob_jiang_su,
    sample_algebra,
    wilson_interval,
)
from cstarlab.simplex import MeasureScheme, SimplexTower, build_tower, covering_radius
from cstarlab.walk import (
    Barrier,
    InvalidParamsError,
    UnsupportedBarrierError,
    WalkParams,
    hit_zero_probability,
    sample_trajectory,
    sup_distribution,
)


class TestClassifyTraceSpace:
    def test_recurrent_is_trace_collapsing(self):
        for scheme in MeasureScheme:
            tag = classify_trace_space(WalkParams.point(0.5), scheme)
            assert tag.kind is TraceSpaceKind.JIANG_SU

    def test_transient_by_scheme(self):
        p = WalkParams.point(0.7)
        assert classify_trace_space(p, MeasureScheme.BARYCENTER_POINT_MASS).kind \
            is TraceSpaceKind.BAUER_ONE_OVER_N
        assert classify_trace_space(p, MeasureScheme.UNIFORM_VERTICES).kind \
            is TraceSpaceKind.BAUER_CANTOR
        assert classify_trace_space(p, MeasureScheme.LEBESGUE_FACES).kind \
            is TraceSpaceKind.POULSEN

    def test_absorbing_unsupported(self):
        with pytest.raises(UnsupportedBarrierError):
            classify_trace_space(WalkParams.point(0.5, barrier=Barrier.ABSORBING),
                                 MeasureScheme.UNIFORM_VERTICES)


class TestDescriptor:
    def test_invariants(self):
        with pytest.raises(InvalidParamsError):
            AlgebraDescriptor(0, Finiteness.STABLY_FINITE, TraceSpaceTag.jiang_su())
        with pytest.raises(InvalidParamsError):
            AlgebraDescriptor(1, Finiteness.PURELY_INFINITE, TraceSpaceTag.jiang_su())
        with pytest.raises(InvalidParamsError):
            AlgebraDescriptor(1, Finiteness.STABLY_FINITE, None)
        with pytest.raises(InvalidParamsError):
            TraceSpaceTag.finite_dim(0)
        with pytest.raises(InvalidParamsError, match="poulsen does not carry a point count"):
            TraceSpaceTag(TraceSpaceKind.POULSEN, 3)

    def test_k_theory_tuple(self):
        d = AlgebraDescriptor(1, Finiteness.STABLY_FINITE, TraceSpaceTag.jiang_su())
        k0, ordered, unit, k1 = d.k_theory
        assert k0 == FGAbelianGroup.free(1)
        assert ordered and unit == 1
        assert k1 == FGAbelianGroup.zero()
        assert d.is_strongly_k_contractible


class TestSampleAlgebra:
    def test_recurrent_descriptor(self):
        params = WalkParams.point(0.4)
        descriptor, diag = sample_algebra(params, MeasureScheme.BARYCENTER_POINT_MASS, 400, 3)
        assert descriptor.trace_space.kind is TraceSpaceKind.JIANG_SU
        assert descriptor.unit_class == 1
        assert not diag.censored
        assert diag.zero_visits > 0
        assert set(diag.covering_radius_samples) <= {1, 2}

    def test_absorbed_from_zero_is_the_point(self):
        params = WalkParams.point(0.5, barrier=Barrier.ABSORBING, start=0)
        descriptor, diag = sample_algebra(params, MeasureScheme.UNIFORM_VERTICES, 50, 1)
        # sup = 0: the one-point (zero-dimensional) trace simplex
        assert descriptor.trace_space == TraceSpaceTag.finite_dim(1)
        assert diag.absorbed and not diag.censored
        assert diag.absorption_time == 0

    def test_absorbed_sup_counts_extreme_traces(self):
        params = WalkParams.point(0.3, barrier=Barrier.ABSORBING, start=2)
        descriptor, diag = sample_algebra(params, MeasureScheme.UNIFORM_VERTICES, 4000, 5)
        assert diag.absorbed and not diag.censored
        states = sample_trajectory(params, 4001, 5).states
        assert diag.absorption_time == states.index(0)
        assert descriptor.trace_space.kind is TraceSpaceKind.FINITE_DIM
        assert descriptor.trace_space.points == diag.max_dimension + 1

    def test_censoring_instead_of_error(self):
        # the walk only rises from state 5, so it is never absorbed
        params = WalkParams.point(1.0, barrier=Barrier.ABSORBING, start=5)
        descriptor, diag = sample_algebra(params, MeasureScheme.UNIFORM_VERTICES, 10, 2)
        assert diag.censored and not diag.absorbed
        assert diag.absorption_time is None
        assert descriptor.trace_space == TraceSpaceTag.finite_dim(16)

    def test_deterministic(self):
        params = WalkParams.point(0.6)
        a = sample_algebra(params, MeasureScheme.LEBESGUE_FACES, 300, 11)
        b = sample_algebra(params, MeasureScheme.LEBESGUE_FACES, 300, 11)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_horizon_validated(self):
        with pytest.raises(InvalidParamsError):
            sample_algebra(WalkParams.point(0.5), MeasureScheme.UNIFORM_VERTICES, 0, 1)

    def test_radius_samples_equal_the_full_towers(self, monkeypatch):
        # sample_algebra builds only the tower prefix its radii read; that
        # prefix must be the full tower's truncation, and the radii those of
        # the tower over the whole horizon
        built = []

        def recording_build(*args):
            built.append(build_tower(*args))
            return built[-1]

        monkeypatch.setattr(sampler, "build_tower", recording_build)
        horizon = 1500
        seen = {"prefix": 0, "none": 0, "both": 0}
        for barrier, p, start in [(Barrier.REFLECTING, 0.4, 0), (Barrier.REFLECTING, 0.5, 0),
                                  (Barrier.REFLECTING, 0.7, 0), (Barrier.REFLECTING, 0.8, 7),
                                  (Barrier.ABSORBING, 0.45, 4), (Barrier.ABSORBING, 0.55, 4)]:
            params = WalkParams(p=p, barrier=barrier, initial=((start, 1.0),))
            for scheme in MeasureScheme:
                for seed in (1, 5, 6):
                    built.clear()
                    _, diag = sample_algebra(params, scheme, horizon, seed)
                    states = sample_trajectory(params, horizon + 1, seed).states
                    if barrier is Barrier.ABSORBING and 0 in states:
                        states = states[: states.index(0) + 1]
                    expected = {}
                    if len(states) > 1:
                        tower = build_tower(states, scheme, mix64(seed, 1))
                        for target in (1, 2):
                            levels = [i for i, d in enumerate(states) if d == target]
                            if levels:
                                window = tower.truncate(levels[-1] + DIAGNOSTIC_WINDOW)
                                expected[target] = covering_radius(window, levels[-1])
                    assert diag.covering_radius_samples == expected
                    low = [i for i, d in enumerate(states) if d in (1, 2)]
                    if low:
                        assert built == [tower.truncate(low[-1] + DIAGNOSTIC_WINDOW)]
                    else:
                        assert built == []
                    seen["none"] += not low
                    seen["both"] += len(expected) == 2
                    seen["prefix"] += bool(low) and low[-1] + DIAGNOSTIC_WINDOW + 1 < len(states)
        # walks that never reach dimension 1 or 2, and walks whose radii
        # read only a prefix of the tower, are both covered
        assert min(seen.values()) > 0

    def test_radius_samples_sweep_one_tower_once(self, monkeypatch):
        # both radii come from one build and one sweep, with no truncated copy
        calls = {"build": 0, "sweep": 0, "truncate": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(sampler, "build_tower", counting("build", build_tower))
        monkeypatch.setattr(sampler, "_window_images", counting("sweep", sampler._window_images))
        monkeypatch.setattr(SimplexTower, "truncate", counting("truncate", SimplexTower.truncate))
        for barrier, p in [(Barrier.REFLECTING, 0.5), (Barrier.REFLECTING, 0.6),
                           (Barrier.ABSORBING, 0.55)]:
            for scheme in MeasureScheme:
                calls.update(build=0, sweep=0)
                _, diag = sample_algebra(WalkParams.point(p, barrier=barrier, start=3),
                                         scheme, 1500, 2)
                assert set(diag.covering_radius_samples) == {1, 2}
                assert calls == {"build": 1, "sweep": 1, "truncate": 0}

    def test_empirical_sup_histogram(self):
        # absorbing mode: descriptor sups across seeds follow the exact law
        params = WalkParams.point(0.5, barrier=Barrier.ABSORBING, start=1)
        trials = 400
        counts = {k: 0 for k in (1, 2, 3)}
        absorbed = 0
        for seed in range(trials):
            descriptor, diag = sample_algebra(params, MeasureScheme.UNIFORM_VERTICES, 4000, seed)
            if diag.absorbed:
                absorbed += 1
                sup = descriptor.trace_space.points - 1
                for k in counts:
                    counts[k] += sup <= k
        assert absorbed > 0.95 * trials
        for k, cnt in counts.items():
            oracle = float(sup_distribution(params, k))
            sigma = math.sqrt(oracle * (1 - oracle) / trials)
            assert abs(cnt / trials - oracle) < 3 * sigma + (trials - absorbed) / trials


class TestEstimate:
    def test_recurrent_near_one(self):
        result = estimate_prob_jiang_su(WalkParams.point(0.4), 2000, 2000, 9)
        assert result.estimate >= 0.999

    def test_transient_matches_oracle(self):
        params = WalkParams.point(0.6, start=1)
        result = estimate_prob_jiang_su(params, 4000, 4000, 13)
        oracle = hit_zero_probability(params, 1)
        assert result.ci_low <= oracle <= result.ci_high

    def test_deterministic(self):
        params = WalkParams.point(0.55)
        r1 = estimate_prob_jiang_su(params, 500, 200, 3)
        r2 = estimate_prob_jiang_su(params, 500, 200, 3)
        assert r1 == r2

    def test_monotone_in_horizon(self):
        params = WalkParams.point(0.6, start=2)
        values = [estimate_prob_jiang_su(params, 400, h, 7).estimate
                  for h in (10, 50, 250, 1250)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(InvalidParamsError):
            estimate_prob_jiang_su(WalkParams.point(0.5), 0, 10, 1)
        with pytest.raises(InvalidParamsError):
            estimate_prob_jiang_su(WalkParams.point(0.5), 10, 0, 1)


class TestWilson:
    def test_extremes_stay_in_unit_interval(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == pytest.approx(0.0, abs=1e-15) and 0 < hi < 0.12
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0 and 0.9 < lo < 1.0
        assert wilson_interval(0, 2000)[0] == 0.0
        assert wilson_interval(2000, 2000)[1] == 1.0

    def test_contains_proportion(self):
        lo, hi = wilson_interval(30, 100)
        assert lo < 0.3 < hi

    def test_integer_counts_accepted(self):
        assert wilson_interval(np.int64(30), np.int64(100)) == wilson_interval(30, 100)

    @pytest.mark.parametrize("successes, trials", [
        (1, 2.5), (1.0, 2), (True, 2), (0, True), (0, 0), (-1, 4), (3, 2)])
    def test_bad_counts_refused(self, successes, trials):
        with pytest.raises(InvalidParamsError):
            wilson_interval(successes, trials)


class TestClassifyKContractible:
    def test_paper_cases(self):
        assert classify_k_contractible(Finiteness.PURELY_INFINITE, 3) == "M_3(O_infinity)"
        assert classify_k_contractible(Finiteness.STABLY_FINITE, 1) == "lim Z_{p,q}"
        assert classify_k_contractible(Finiteness.STABLY_FINITE, 2) == "lim M_2(Z_{p,q})"

    def test_validation(self):
        with pytest.raises(InvalidParamsError):
            classify_k_contractible(Finiteness.STABLY_FINITE, 0)


def test_report_record_schema(tmp_path):
    """The `sample` record carries the sampler's results unchanged: the
    estimate, its interval and the diagnostics of the same configuration."""
    params = WalkParams.point(0.4)
    result = estimate_prob_jiang_su(params, 50, 50, 1)
    _, diag = sample_algebra(params, MeasureScheme.UNIFORM_VERTICES, 50, 1)
    out = str(tmp_path / "s.jsonl")
    assert run(["sample", "--p", "0.4", "--scheme", "vertices", "--trials", "50",
                "--horizon", "50", "--seed", "1", "--output", out]) == 0
    with open(out) as handle:
        record = json.loads([ln for ln in handle if not ln.startswith("#")][1])
    assert {"params", "scheme", "horizon", "trials", "estimate", "ci",
            "diagnostics"} <= set(record)
    assert record["params"] == {"p": params.p, "q": params.q, "barrier": "reflecting",
                                "initial": [[0, 1.0]]}
    assert record["scheme"] == "vertices"
    assert (record["horizon"], record["trials"]) == (result.horizon, result.trials)
    assert record["estimate"] == result.estimate and record["ci"] == list(result.ci)
    assert record["diagnostics"] == json.loads(json.dumps(dataclasses.asdict(diag)))


def test_counts_follow_the_integer_rule():
    """Point counts, unit classes and k are integers >= 1: no float, string
    or bool (Python or numpy) is read as one, and a numpy integer is stored
    as the Python int it equals."""
    sf, pi = Finiteness.STABLY_FINITE, Finiteness.PURELY_INFINITE
    builds = {
        "points": lambda n: TraceSpaceTag.finite_dim(n),
        "unit_class": lambda n: AlgebraDescriptor(unit_class=n, finiteness=pi, trace_space=None),
        "k": lambda n: classify_k_contractible(sf, n),
    }
    for name, build in builds.items():
        for bad in (2.5, True, np.True_, "3", None, 0):
            with pytest.raises(InvalidParamsError, match=f"^{name} must be an integer >= 1, got"):
                build(bad)
    assert classify_k_contractible(pi, np.int64(3)) == "M_3(O_infinity)"
    assert classify_k_contractible(sf, np.int64(3)) == "lim M_3(Z_{p,q})"
    tag = TraceSpaceTag.finite_dim(np.int64(3))
    assert type(tag.points) is int and str(tag) == "finite_dim(3)"
    assert tag == TraceSpaceTag.finite_dim(3)
    descriptor = AlgebraDescriptor(np.int64(3), pi, None)
    assert type(descriptor.unit_class) is int and descriptor.k_theory[2] == 3
