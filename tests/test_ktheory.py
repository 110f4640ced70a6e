import numpy as np
import pytest

from cstarlab.intlinalg import FGAbelianGroup, IntMatrix, Z, ZERO_GROUP, cokernel
from cstarlab.ktheory import (
    InconsistentDataError,
    MAP_NAMES,
    SLOT_NAMES,
    SixTermProblem,
    UNDETERMINED,
    audit_exactness,
    k_dimension_drop,
    k_toeplitz,
    solve_six_term,
    toeplitz_index_of_shift,
)
from cstarlab.rng import stream


def toeplitz_problem(boundary=1):
    return SixTermProblem.for_algebra(
        k0_ideal=Z, k1_ideal=ZERO_GROUP, k0_quotient=Z, k1_quotient=Z,
        exp_map=IntMatrix(0, 1, ()),
        index_map=IntMatrix.from_rows([[boundary]]))


def random_group(rng):
    """Free of rank 0-2, with a cyclic summand 15 % of the time."""
    g = FGAbelianGroup.free(int(rng.integers(0, 3)))
    return g.direct_sum(FGAbelianGroup.cyclic(int(rng.integers(2, 7)))) if rng.random() < 0.15 else g


class TestSolveSixTerm:
    def test_toeplitz_input(self):
        sol = solve_six_term(toeplitz_problem(1))
        assert sol == {"k0_algebra": Z, "k1_algebra": ZERO_GROUP}

    def test_all_known_groups_zero(self):
        p = SixTermProblem.for_algebra(k0_ideal=ZERO_GROUP, k1_ideal=ZERO_GROUP,
                                       k0_quotient=ZERO_GROUP, k1_quotient=ZERO_GROUP)
        sol = solve_six_term(p)
        assert sol == {"k0_algebra": ZERO_GROUP, "k1_algebra": ZERO_GROUP}
        assert audit_exactness(p, sol)

    def test_dimension_drop_input(self):
        p = SixTermProblem.for_algebra(
            k0_ideal=ZERO_GROUP, k1_ideal=Z,
            k0_quotient=FGAbelianGroup.free(2), k1_quotient=ZERO_GROUP,
            exp_map=IntMatrix.from_rows([[3, -2]]),
            index_map=IntMatrix(0, 0, ()))
        sol = solve_six_term(p)
        assert sol == {"k0_algebra": Z, "k1_algebra": ZERO_GROUP}

    def test_undetermined_without_flanking_map(self):
        # nonzero torsion ideal group blocks the cokernel constraint
        p = SixTermProblem.for_algebra(
            k0_ideal=FGAbelianGroup.cyclic(2), k1_ideal=ZERO_GROUP,
            k0_quotient=ZERO_GROUP, k1_quotient=ZERO_GROUP)
        assert solve_six_term(p) is UNDETERMINED

    def test_unknowns_must_be_one_corner(self):
        with pytest.raises(InconsistentDataError):
            solve_six_term(SixTermProblem(k0_ideal=Z))

    def test_map_adjacent_to_unknown_rejected(self):
        p = SixTermProblem.for_algebra(
            k0_ideal=Z, k1_ideal=ZERO_GROUP, k0_quotient=Z, k1_quotient=Z,
            exp_map=IntMatrix(0, 1, ()), index_map=IntMatrix.from_rows([[1]]))
        bad = SixTermProblem(**{**p.__dict__, "iota0": IntMatrix.from_rows([[1]])})
        with pytest.raises(InconsistentDataError):
            solve_six_term(bad)

    def test_map_shape_mismatch_rejected(self):
        p = toeplitz_problem()
        bad = SixTermProblem(**{**p.__dict__, "index_map": IntMatrix.from_rows([[1, 0]])})
        with pytest.raises(InconsistentDataError):
            solve_six_term(bad)

    def test_map_between_non_free_groups_rejected(self):
        p = SixTermProblem.for_algebra(
            k0_ideal=FGAbelianGroup.cyclic(2), k1_ideal=Z, k0_quotient=Z, k1_quotient=Z,
            index_map=IntMatrix.from_rows([[1]]))
        with pytest.raises(InconsistentDataError, match="index_map given between non-free"):
            solve_six_term(p)

    def test_audit_refuses_missing_map_away_from_the_corner(self):
        # exp_map runs K0(A/J) = Z -> K1(J) = Z, both ends nonzero and known
        p = SixTermProblem.for_algebra(k0_ideal=ZERO_GROUP, k1_ideal=Z,
                                       k0_quotient=Z, k1_quotient=ZERO_GROUP)
        with pytest.raises(InconsistentDataError,
                           match="exp_map missing away from the unknown corner"):
            audit_exactness(p, {"k0_algebra": Z, "k1_algebra": Z})

    def test_audit_refuses_window_without_the_solvers_map(self):
        # K0(J) = Z needs index_map into it to bound K0(A); the solver gives up
        p = SixTermProblem.for_algebra(k0_ideal=Z, k1_ideal=ZERO_GROUP,
                                       k0_quotient=ZERO_GROUP, k1_quotient=Z)
        assert solve_six_term(p) is UNDETERMINED
        with pytest.raises(InconsistentDataError, match="audit requires the maps the solver used"):
            audit_exactness(p, {"k0_algebra": Z, "k1_algebra": ZERO_GROUP})

    def test_audit_on_solved_problems(self):
        for p in [toeplitz_problem(1), toeplitz_problem(-1)]:
            sol = solve_six_term(p)
            assert audit_exactness(p, sol)

    def test_toeplitz_extension_from_the_ideal_side(self):
        # K(T) = (Z, 0) and K(C(T)) = (Z, Z) with pi0 an isomorphism give K(K)
        p = SixTermProblem(k0_algebra=Z, k1_algebra=ZERO_GROUP, k0_quotient=Z, k1_quotient=Z,
                           pi0=IntMatrix.from_rows([[1]]), pi1=IntMatrix.zeros(1, 0))
        sol = solve_six_term(p)
        assert sol == {"k0_ideal": Z, "k1_ideal": ZERO_GROUP}
        assert audit_exactness(p, sol)

    def test_toeplitz_extension_from_the_quotient_side(self):
        # K(K) = (Z, 0) and K(T) = (Z, 0) with iota0 = 0 give K(C(T))
        p = SixTermProblem(k0_ideal=Z, k1_ideal=ZERO_GROUP, k0_algebra=Z, k1_algebra=ZERO_GROUP,
                           iota0=IntMatrix.from_rows([[0]]), iota1=IntMatrix(0, 0, ()))
        sol = solve_six_term(p)
        assert sol == {"k0_quotient": Z, "k1_quotient": Z}
        assert audit_exactness(p, sol)
        more_rank = FGAbelianGroup.free(2)
        more_torsion = Z.direct_sum(FGAbelianGroup.cyclic(2))
        assert not audit_exactness(p, {**sol, "k0_quotient": more_rank})
        assert not audit_exactness(p, {**sol, "k0_quotient": more_torsion})

    def test_undetermined_without_outgoing_map(self):
        # W = K0(J) is 0, so coker(a) is known; Y = K0(A/J) is Z and exp_map is missing
        p = SixTermProblem.for_algebra(k0_ideal=ZERO_GROUP, k1_ideal=Z,
                                       k0_quotient=Z, k1_quotient=ZERO_GROUP)
        assert solve_six_term(p) is UNDETERMINED

    def test_audit_accepts_every_solved_problem(self):
        # corner problems over all three corners with torsion and some maps
        # absent; adding a free summand to a solved slot breaks exactness
        rng = np.random.default_rng(7)
        solved = 0
        for _ in range(1500):
            c = int(rng.integers(0, 3))
            slots = [random_group(rng) if i % 3 != c else None for i in range(6)]
            maps = [None] * 6
            for i in (c + 1, (c + 4) % 6):
                src, dst = slots[i], slots[(i + 1) % 6]
                if src.is_free and dst.is_free and rng.random() < 0.7:
                    maps[i] = IntMatrix.from_rows(
                        rng.integers(-3, 4, (dst.free_rank, src.free_rank)), cols=src.free_rank)
            p = SixTermProblem(**dict(zip(SLOT_NAMES, slots)), **dict(zip(MAP_NAMES, maps)))
            sol = solve_six_term(p)
            if sol is UNDETERMINED:
                continue
            solved += 1
            assert audit_exactness(p, sol)
            name = SLOT_NAMES[c + 3 * int(rng.integers(0, 2))]
            assert not audit_exactness(p, {**sol, name: sol[name].direct_sum(Z)})
        assert solved > 300


class TestToeplitz:
    def test_paper_values(self):
        k0, k1 = k_toeplitz()
        assert k0 == Z and k1 == ZERO_GROUP

    def test_consistent_with_solver(self):
        sol = solve_six_term(toeplitz_problem(toeplitz_index_of_shift()))
        assert (sol["k0_algebra"], sol["k1_algebra"]) == k_toeplitz()

    def test_index_of_shift_derivation(self):
        # boundary value [1 - v*v] - [1 - vv*] for the shift v, evaluated on
        # a finite section large enough that the tail never enters:
        # v e_i = e_{i+1}, v* e_{i+1} = e_i on basis vectors i < n - 1.
        n = 12
        v = np.zeros((n, n))
        v[np.arange(1, n), np.arange(n - 1)] = 1.0
        one_minus_vstarv = np.eye(n) - v.T @ v
        one_minus_vvstar = np.eye(n) - v @ v.T
        # away from the truncation edge, 1 - v*v vanishes and 1 - vv* is the
        # rank-one projection onto the first basis vector
        assert np.allclose(one_minus_vstarv[: n - 1, : n - 1], 0.0)
        interior_rank = np.linalg.matrix_rank(one_minus_vvstar[: n - 1, : n - 1])
        assert interior_rank == 1
        assert toeplitz_index_of_shift() == 0 - interior_rank


class TestDimensionDrop:
    def test_coprime_pair(self):
        assert k_dimension_drop(2, 3) == (Z, ZERO_GROUP)

    def test_trivial_pair(self):
        assert k_dimension_drop(1, 1) == (Z, ZERO_GROUP)

    def test_non_coprime_pair(self):
        k0, k1 = k_dimension_drop(2, 4)
        assert k0 == Z
        assert k1 == FGAbelianGroup.cyclic(2)
        # cross-check against the cokernel of the exponential matrix
        assert k1 == cokernel(IntMatrix.from_rows([[4, -2]]))

    def test_validation(self):
        with pytest.raises(ValueError):
            k_dimension_drop(0, 3)

    def test_large_prime_torsion(self):
        # 2^61 - 1 is prime: renormalising the torsion must not factor it
        p = 2 ** 61 - 1
        assert k_dimension_drop(p, 2 * p) == (Z, FGAbelianGroup.cyclic(p))

    def test_symmetry(self):
        rng = stream(7)
        for _ in range(40):
            p = int(rng.integers(1, 13))
            q = int(rng.integers(1, 13))
            assert k_dimension_drop(p, q) == k_dimension_drop(q, p)

    def test_torsion_is_gcd(self):
        from math import gcd

        rng = stream(8)
        for _ in range(60):
            p = int(rng.integers(1, 16))
            q = int(rng.integers(1, 16))
            _, k1 = k_dimension_drop(p, q)
            d = gcd(p, q)
            expected = ZERO_GROUP if d == 1 else FGAbelianGroup.cyclic(d)
            assert k1 == expected
            assert k1 == cokernel(IntMatrix.from_rows([[q, -p]]))
