"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, not configurable: spectral agreement at 1e-6
(self-adjoint) and 1e-5 (unitary ensemble) with optimizer gradient
tolerance 1e-8, exact equality for the combinatorial routes, Monte-Carlo
agreement within three binomial standard errors, and byte-identical CLI
reports modulo the timestamp header.  Run with `pytest tests/test_acceptance.py -s`
to see the per-criterion lines as they complete.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from cstarlab.cli import run as cli_run
from cstarlab.cuntz import (
    LscStep,
    dim_function,
    dimension_drop_boundary_maps,
    dimension_drop_unit,
    k1_trivial,
    nccw_check,
)
from cstarlab.intlinalg import FGAbelianGroup, IntMatrix, Z, ZERO_GROUP, cokernel
from cstarlab.ktheory import k_dimension_drop, k_toeplitz
from cstarlab.rng import stream
from cstarlab.sampler import estimate_prob_jiang_su
from cstarlab.simplex import MeasureScheme, draw_collapse, is_barycentric
from cstarlab.transport import (
    DiscreteMeasure,
    bottleneck_brute_force,
    matching_distance,
    random_hermitian,
    random_unitary,
    sorted_matching_value,
    unitary_distance,
    wasserstein_inf,
)
from cstarlab.walk import Barrier, WalkParams, batch_sup, hit_zero_probability, sup_distribution

from oracles import surjective_box_search, surjective_minors_gcd


@contextmanager
def criterion(num: int, title: str):
    started = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {title}", flush=True)
        raise
    print(f"[criterion {num:02d}] PASS  {title}  ({time.time() - started:.1f}s)", flush=True)


def test_criterion_01_weyl_equality_hermitian():
    with criterion(1, "Weyl equality for self-adjoint pairs at 1e-6"):
        started = time.time()
        rng = stream(2026_01)
        worst = 0.0
        for n in range(2, 7):
            for _ in range(200):
                a, b = random_hermitian(n, rng), random_hermitian(n, rng)
                res = unitary_distance(a, b, tol=1e-8)
                delta = matching_distance(np.linalg.eigvalsh(a.array),
                                          np.linalg.eigvalsh(b.array))
                worst = max(worst, abs(res.value - delta))
                assert abs(res.value - delta) <= 1e-6, (n, res.value, delta)
        elapsed = time.time() - started
        print(f"    worst |d_U - delta| = {worst:.2e} over 1000 pairs, {elapsed:.0f}s")
        assert elapsed < 120.0


def test_criterion_02_sorted_attainment():
    with criterion(2, "sorted matching attains the permutation bottleneck exactly"):
        rng = stream(2026_02)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            a, b = rng.standard_normal(n), rng.standard_normal(n)
            assert sorted_matching_value(a, b) == bottleneck_brute_force(a, b)


def test_criterion_03_unitary_pairs():
    with criterion(3, "orbit distance matches spectral matching for unitary pairs at 1e-5"):
        rng = stream(2026_03)
        worst = 0.0
        for n in (2, 3, 4):
            for _ in range(100):
                a, b = random_unitary(n, rng), random_unitary(n, rng)
                res = unitary_distance(a, b, tol=1e-8)
                delta = matching_distance(a.spectrum(), b.spectrum())
                worst = max(worst, abs(res.value - delta))
                assert abs(res.value - delta) <= 1e-5, (n, res.value, delta)
        print(f"    worst |d_U - delta| = {worst:.2e} over 300 pairs")


def test_criterion_04_wasserstein_hall_equivalence():
    with criterion(4, "equal-weight transport equals the bottleneck matching exactly"):
        rng = stream(2026_04)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            mu = DiscreteMeasure.equal_weights(tuple(x))
            nu = DiscreteMeasure.equal_weights(tuple(y))
            assert wasserstein_inf(mu, nu) == bottleneck_brute_force(x, y)


def test_criterion_05_recurrence_proxy():
    with criterion(5, "return-to-zero frequencies match the hitting oracles"):
        started = time.time()
        recurrent = estimate_prob_jiang_su(WalkParams.point(0.4, q=0.6),
                                           trials=10_000, horizon=10_000, seed=505)
        assert recurrent.estimate >= 0.999, recurrent

        transient = estimate_prob_jiang_su(WalkParams.point(0.6, q=0.4, start=1),
                                           trials=10_000, horizon=10_000, seed=506)
        oracle = hit_zero_probability(WalkParams.point(0.6, q=0.4, start=1), 1)
        assert abs(oracle - 2 / 3) < 1e-9
        assert transient.ci_low <= oracle <= transient.ci_high, (transient, oracle)
        elapsed = time.time() - started
        print(f"    recurrent {recurrent.estimate:.4f}, transient "
              f"{transient.estimate:.4f} vs oracle {oracle:.4f}, {elapsed:.0f}s")
        assert elapsed < 60.0


def test_criterion_06_absorbing_dimension_law():
    with criterion(6, "absorbing sup distribution matches the exact linear solve"):
        params = WalkParams.point(0.5, barrier=Barrier.ABSORBING, start=1)
        trials = 100_000
        sups, resolved = batch_sup(params, trials, seed=606, cap=10)
        assert resolved.all()
        for k in range(1, 11):
            oracle = sup_distribution(params, k)
            assert oracle == Fraction(k, k + 1)
            emp = float((sups <= k).mean())
            sigma = math.sqrt(float(oracle) * (1 - float(oracle)) / trials)
            assert abs(emp - float(oracle)) <= 3 * sigma, (k, emp, float(oracle))


def test_criterion_07_scheme_invariants():
    with criterion(7, "collapse draws satisfy the three measure-scheme invariants"):
        draws_per_scheme = 10_000
        n = 3

        rng = stream(707)
        for _ in range(draws_per_scheme):
            vec = draw_collapse(MeasureScheme.BARYCENTER_POINT_MASS, n, 0, rng)
            assert np.array_equal(vec, np.full(n, 1.0 / n))

        rng = stream(708)
        counts = np.zeros(n)
        for _ in range(draws_per_scheme):
            vec = draw_collapse(MeasureScheme.UNIFORM_VERTICES, n, 0, rng)
            hot = np.flatnonzero(vec == 1.0)
            assert hot.size == 1 and vec.sum() == 1.0
            counts[hot[0]] += 1
        sigma = math.sqrt((1 / n) * (1 - 1 / n) / draws_per_scheme)
        assert np.all(np.abs(counts / draws_per_scheme - 1 / n) <= 3 * sigma)

        rng = stream(709)
        total = np.zeros(n)
        for _ in range(draws_per_scheme):
            vec = draw_collapse(MeasureScheme.LEBESGUE_FACES, n, 0, rng)
            assert is_barycentric(vec)
            total += vec
        mean = total / draws_per_scheme
        assert np.abs(mean - 1.0 / n).max() <= 0.01, mean


def test_criterion_08_ktheory_reproductions():
    with criterion(8, "six-term computations reproduce the worked K-theory examples"):
        assert k_toeplitz() == (Z, ZERO_GROUP)
        for p in range(1, 21):
            for q in range(1, 21):
                if math.gcd(p, q) == 1:
                    assert k_dimension_drop(p, q) == (Z, ZERO_GROUP), (p, q)
        k0, k1 = k_dimension_drop(2, 4)
        assert k0 == Z
        assert k1 == FGAbelianGroup.cyclic(2)
        assert k1 == cokernel(IntMatrix.from_rows([[4, -2]]))


def test_criterion_09_cuntz_criteria():
    with criterion(9, "semigroup criteria: K1 triviality, unit classes, dimension value"):
        for p in range(1, 21):
            for q in range(1, 21):
                m0, m1 = dimension_drop_boundary_maps(p, q)
                verdict = k1_trivial(m0, m1)
                assert verdict == (math.gcd(p, q) == 1), (p, q)
                diff = m0 - m1
                assert verdict == surjective_minors_gcd(diff)
                if p <= 5 and q <= 5:
                    # literal lattice search: coefficients up to the block sizes
                    assert surjective_box_search(diff, 6) == verdict
        for p in range(1, 11):
            for q in range(1, 11):
                if math.gcd(p, q) == 1:
                    assert nccw_check(dimension_drop_unit(p, q)), (p, q)
        assert dim_function(LscStep.indicator(0, Fraction(1, 2))) == Fraction(1, 2)


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "repeated CLI runs are byte-identical modulo the timestamp header"):
        batteries = [
            ["walk", "--p", "0.6", "--start", "1", "--length", "200",
             "--trials", "50", "--seed", "41"],
            ["sample", "--p", "0.4", "--scheme", "barycenter", "--trials", "1000",
             "--horizon", "1000", "--seed", "7"],
            ["simplex", "--p", "0.7", "--scheme", "faces", "--horizon", "100",
             "--seed", "43"],
            ["weyl", "--n", "4", "--trials", "25", "--seed", "1"],
            ["cuntz", "--max-size", "10"],
            ["ktheory", "--max-size", "10"],
        ]
        for idx, argv in enumerate(batteries):
            out = tmp_path / f"report_{idx}.out"
            argv = argv + ["--output", str(out)]
            assert cli_run(argv) == 0, argv
            first = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
            assert cli_run(argv) == 0, argv
            second = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
            assert first == second, argv


def test_acceptance_summary_line(capsys):
    # marker so the tail of the acceptance log is self-describing
    print("acceptance criteria executed: 1-10 (see PASS/FAIL lines above)")
