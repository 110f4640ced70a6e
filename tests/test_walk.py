import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from cstarlab.rng import stream
from cstarlab.sampler import estimate_prob_jiang_su, sample_algebra
from cstarlab.simplex import MeasureScheme
from cstarlab.walk import (
    Barrier,
    InvalidParamsError,
    Trajectory,
    UnsupportedBarrierError,
    WalkClass,
    WalkParams,
    _first_exit,
    batch_hits_zero,
    batch_sup,
    classify_walk,
    hit_zero_probability,
    sample_trajectory,
    sup_distribution,
)

from oracles import capped_sup, check_trajectory, walk_states


class TestParams:
    def test_probabilities_validated(self):
        with pytest.raises(InvalidParamsError):
            WalkParams(p=1.2)
        with pytest.raises(InvalidParamsError):
            WalkParams(p=0.5, q=0.6)
        with pytest.raises(InvalidParamsError):
            WalkParams(p=0.5, initial=((0, 0.5), (1, 0.4)))
        with pytest.raises(InvalidParamsError):
            WalkParams(p=0.5, initial=((-1, 1.0),))

    def test_q_defaults_to_complement(self):
        params = WalkParams(p=0.3)
        assert params.q == pytest.approx(0.7)

    def test_initial_accepts_mapping(self):
        params = WalkParams(p=0.5, initial={2: 0.25, 0: 0.75})
        assert params.initial == ((0, 0.75), (2, 0.25))

    def test_initial_forms_agree(self):
        # a mapping and a pair list store the same Python ints and floats
        for initial in ({2: 1}, [(2, 1)], {np.int64(2): np.float64(1)}):
            params = WalkParams(p=0.5, initial=initial)
            assert params.initial == ((2, 1.0),)
            assert [type(x) for x in params.initial[0]] == [int, float]

    @pytest.mark.parametrize("initial", [[(1.5, 1.0)], {1.5: 1.0}, [(np.float64(1), 1.0)]])
    def test_initial_non_integer_state_refused(self, initial):
        with pytest.raises(TypeError):
            WalkParams(p=0.5, initial=initial)

    @pytest.mark.parametrize("initial", [{True: 1.0}, [(False, 1.0)], {True: 0.5, 0: 0.5}])
    def test_initial_bool_state_refused(self, initial):
        with pytest.raises(TypeError, match="states must be integers"):
            WalkParams(p=0.5, initial=initial)

    @pytest.mark.parametrize("initial", [[(0, math.nan), (3, 1.0)], {0: math.nan, 3: 1.0}])
    def test_initial_nan_weight_refused(self, initial):
        with pytest.raises(InvalidParamsError, match="nonnegative, got nan"):
            WalkParams(p=0.5, initial=initial)


class TestSampleTrajectory:
    def test_pure_drift(self):
        traj = sample_trajectory(WalkParams.point(1.0), 5, seed=0)
        assert traj.states == (0, 1, 2, 3, 4)

    def test_same_seed_same_trajectory(self):
        params = WalkParams.point(0.55, start=2)
        assert sample_trajectory(params, 300, 9) == sample_trajectory(params, 300, 9)
        assert sample_trajectory(params, 300, 9) != sample_trajectory(params, 300, 10)

    def test_trial_streams_differ(self):
        params = WalkParams.point(0.5, start=3)
        t0 = sample_trajectory(params, 100, 4, trial=0)
        t1 = sample_trajectory(params, 100, 4, trial=1)
        assert t0 != t1

    def test_reflecting_structure(self):
        params = WalkParams.point(0.4)
        traj = sample_trajectory(params, 2000, 13)
        check_trajectory(traj, Barrier.REFLECTING)
        # never two consecutive zeros
        assert all(not (a == 0 and b == 0) for a, b in zip(traj.states, traj.states[1:]))

    def test_absorbing_structure(self):
        params = WalkParams.point(0.4, barrier=Barrier.ABSORBING, start=3)
        traj = sample_trajectory(params, 2000, 13)
        check_trajectory(traj, Barrier.ABSORBING)
        if 0 in traj.states:
            first = traj.states.index(0)
            assert all(s == 0 for s in traj.states[first:])

    def test_hit_frequency_matches_oracle(self):
        # drift keeps the horizon truncation far below the tolerance here
        params = WalkParams.point(0.6, q=0.4, start=1)
        trials, horizon = 3000, 3000
        hits = batch_hits_zero(params, horizon, trials, seed=21)
        freq = hits.mean()
        p_true = hit_zero_probability(params, 1)
        sigma = math.sqrt(p_true * (1 - p_true) / trials)
        assert abs(freq - p_true) < 3 * sigma

    def test_length_validated(self):
        with pytest.raises(InvalidParamsError):
            sample_trajectory(WalkParams.point(0.5), 0, 1)


class TestBatchConsistency:
    def test_event_helper_matches_simulator(self):
        trials, seed = 6, 11
        laws = [((0, 1.0),), ((1, 1.0),), ((3, 1.0),), ((0, 0.25), (2, 0.5), (5, 0.25))]
        for p, initial in itertools.product((0.0, 0.3, 0.5, 0.6, 1.0), laws):
            for barrier in Barrier:
                params = WalkParams(p=p, barrier=barrier, initial=initial)
                for horizon in (1, 2, 37, 300):
                    runs = [list(walk_states(params, stream(seed, t).random(horizon + 1)))
                            for t in range(trials)]
                    for (t, states), length in itertools.product(enumerate(runs),
                                                                 (horizon, horizon + 1)):
                        traj = sample_trajectory(params, length, seed, trial=t)
                        assert traj.states == tuple(states[:length])
                    expected = [0 in states[1:] for states in runs]
                    assert batch_hits_zero(params, horizon, trials, seed).tolist() == expected
            params = WalkParams(p=p, barrier=Barrier.ABSORBING, initial=initial)
            for max_steps, cap in itertools.product((1, 2, 40, 65536), (0, 4)):
                expected = [capped_sup(walk_states(params, stream(seed, t).random(max_steps)), cap)
                            for t in range(trials)]
                sups, resolved = batch_sup(params, trials, seed, cap=cap, max_steps=max_steps)
                assert list(zip(sups.tolist(), resolved.tolist())) == expected

    def test_first_exit_stops_rows_at_their_own_budgets(self):
        # budgets far apart within one window; a hit scan only ever mixes two that
        # differ by the forced first step of trials starting at a reflecting 0
        budgets = [1, 5, 63, 64, 65, 100, 700, 2000]
        params = WalkParams.point(0.55, barrier=Barrier.ABSORBING, start=2)
        gens = [stream(8, t) for t in range(len(budgets))]
        for g in gens:
            g.random()
        start = np.full(len(budgets), 2)
        pos, top = _first_exit(gens, start, start, np.array(budgets), params.p, 12)
        for t, budget in enumerate(budgets):
            states = list(walk_states(params, stream(8, t).random(budget + 1)))
            stop = next((n for n, s in enumerate(states) if s == 0 or s > 12), budget)
            assert (pos[t], top[t]) == (states[stop], max(states[:stop + 1]))

    def test_batch_matches_per_trial(self):
        params = WalkParams.point(0.45, start=1)
        batch = batch_hits_zero(params, 50, 25, seed=3)
        for t in range(25):
            traj = sample_trajectory(params, 51, 3, trial=t)
            assert batch[t] == (0 in traj.states[1:])

    def test_batch_sup_matches_per_trial(self):
        params = WalkParams.point(0.5, barrier=Barrier.ABSORBING, start=1)
        sups, resolved = batch_sup(params, 60, seed=5, cap=4)
        assert resolved.all()
        for t in range(60):
            traj = sample_trajectory(params, 4000, 5, trial=t)
            if 0 in traj.states and traj.max_state <= 4:
                assert sups[t] == traj.max_state
            elif traj.max_state > 4:
                assert sups[t] == 5  # capped: sup exceeded 4
            # else: absorption falls beyond the trajectory window; no claim


class TestClassification:
    def test_paper_cases(self):
        assert classify_walk(WalkParams.point(0.5)) is WalkClass.RECURRENT
        assert classify_walk(WalkParams.point(0.6)) is WalkClass.TRANSIENT
        assert classify_walk(WalkParams.point(0.4)) is WalkClass.RECURRENT

    def test_absorbing_unsupported(self):
        with pytest.raises(UnsupportedBarrierError):
            classify_walk(WalkParams.point(0.5, barrier=Barrier.ABSORBING))


class TestHitZeroProbability:
    def test_at_zero(self):
        assert hit_zero_probability(WalkParams.point(0.9), 0) == 1.0

    def test_recurrent_regime(self):
        for p in (0.0, 0.3, 0.5):
            assert hit_zero_probability(WalkParams.point(p), 5) == 1.0

    def test_transient_matches_closed_form(self):
        # P(absorbed at 0 before k + 1) increases to the hitting probability,
        # and by gambler's ruin is within (q/p)^(k+1) of it
        for p in (0.6, 0.75):
            for i in (1, 2, 4):
                absorbing = WalkParams.point(p, barrier=Barrier.ABSORBING, start=i)
                limit = float(sup_distribution(absorbing, 100))
                assert abs(hit_zero_probability(WalkParams.point(p), i) - limit) < 1e-12

    def test_never_returns_when_q_zero(self):
        assert hit_zero_probability(WalkParams.point(1.0), 2) == 0.0


class TestSupDistribution:
    def test_start_zero(self):
        params = WalkParams(p=0.5, barrier=Barrier.ABSORBING, initial=((0, 1.0),))
        assert sup_distribution(params, 0) == 1

    def test_gamblers_ruin_identity(self):
        params = WalkParams.point(0.5, barrier=Barrier.ABSORBING, start=1)
        for k in range(1, 11):
            assert sup_distribution(params, k) == Fraction(k, k + 1)

    def test_monotone_and_consistent_with_hit_probability(self):
        params = WalkParams.point(0.6, q=0.4, barrier=Barrier.ABSORBING, start=1)
        values = [sup_distribution(params, k) for k in range(0, 40)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        limit = hit_zero_probability(WalkParams.point(0.6, q=0.4, start=1), 1)
        assert float(values[-1]) < limit
        assert abs(float(values[-1]) - limit) < 1e-6

    def test_reflecting_unsupported(self):
        with pytest.raises(UnsupportedBarrierError):
            sup_distribution(WalkParams.point(0.5), 3)

    def test_empirical_histogram(self):
        params = WalkParams.point(0.5, barrier=Barrier.ABSORBING, start=1)
        trials = 20000
        sups, resolved = batch_sup(params, trials, seed=17, cap=6)
        assert resolved.all()
        for k in range(1, 7):
            emp = (sups <= k).mean()
            oracle = float(sup_distribution(params, k))
            sigma = math.sqrt(oracle * (1 - oracle) / trials)
            assert abs(emp - oracle) < 3 * sigma


def test_trajectory_validation():
    with pytest.raises(InvalidParamsError):
        Trajectory(())
    with pytest.raises(InvalidParamsError):
        check_trajectory(Trajectory((0, 0)), Barrier.REFLECTING)
    with pytest.raises(InvalidParamsError):
        check_trajectory(Trajectory((0, 2)), Barrier.ABSORBING)
    with pytest.raises(InvalidParamsError):
        check_trajectory(Trajectory((1, 3)), Barrier.REFLECTING)


_REFLECTING = WalkParams.point(0.6)
_ABSORBING = WalkParams.point(0.45, barrier=Barrier.ABSORBING, start=2)


@pytest.mark.parametrize("name, least, call", [
    ("length", 1, lambda n: sample_trajectory(_REFLECTING, n, 1)),
    ("horizon", 1, lambda n: batch_hits_zero(_REFLECTING, n, 10, 0)),
    ("trials", 1, lambda n: batch_hits_zero(_REFLECTING, 10, n, 0)),
    ("trials", 1, lambda n: batch_sup(_ABSORBING, n, 0, cap=3)),
    ("cap", 0, lambda n: batch_sup(_ABSORBING, 10, 0, cap=n)),
    ("max_steps", 1, lambda n: batch_sup(_ABSORBING, 10, 0, cap=3, max_steps=n)),
    ("start", 0, lambda n: hit_zero_probability(_REFLECTING, n)),
    ("k", 0, lambda n: sup_distribution(_ABSORBING, n)),
    ("horizon", 1, lambda n: sample_algebra(_REFLECTING, MeasureScheme.UNIFORM_VERTICES, n, 1)),
    ("trials", 1, lambda n: estimate_prob_jiang_su(_REFLECTING, n, 10, 0)),
    ("horizon", 1, lambda n: estimate_prob_jiang_su(_REFLECTING, 10, n, 0)),
], ids=["sample_trajectory", "batch_hits_zero-horizon", "batch_hits_zero-trials",
        "batch_sup-trials", "batch_sup-cap", "batch_sup-max_steps", "hit_zero_probability",
        "sup_distribution", "sample_algebra", "estimate_prob_jiang_su-trials",
        "estimate_prob_jiang_su-horizon"])
def test_counts_are_integers_at_their_bound(name, least, call):
    for bad in (least - 1, least + 1.5, float(least + 2), True, np.True_, "3", None):
        with pytest.raises(InvalidParamsError, match=f"^{name} must be an integer >= {least}, got"):
            call(bad)
    # numpy integers are integers, and what they give is what the int gives
    assert repr(call(np.int64(least + 2))) == repr(call(least + 2))
