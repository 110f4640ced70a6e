import math
from fractions import Fraction

import numpy as np
import pytest

import cstarlab.transport as transport
from cstarlab.rng import stream
from cstarlab.transport import (
    DiscreteMeasure,
    IncompatibleSpacesError,
    NormalMatrix,
    NotNormalError,
    SizeMismatchError,
    bottleneck_brute_force,
    matching_distance,
    operator_norm,
    random_hermitian,
    random_normal,
    random_unitary,
    sorted_matching_value,
    spectral_measure,
    unitary_distance,
    wasserstein_inf,
    winf_pair,
)


class TestMatchingDistance:
    def test_identical_multisets(self):
        assert matching_distance([1.0, 2.0, 3.0], [3.0, 1.0, 2.0]) == 0.0

    def test_frozen_two_point_case(self):
        # brute force over the two permutations of S_2 gives 0.5
        assert matching_distance([0.0, 1.0], [0.5, 0.5]) == 0.5
        assert bottleneck_brute_force([0.0, 1.0], [0.5, 0.5]) == 0.5

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            matching_distance([1.0], [1.0, 2.0])

    def test_threshold_equals_brute_force(self):
        rng = stream(101)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert matching_distance(a, b) == bottleneck_brute_force(a, b)

    def test_sorted_attainment_on_real_multisets(self):
        rng = stream(102)
        for trial in range(200):
            n = int(rng.integers(1, 9))
            if trial % 2:  # spectra of random self-adjoint matrices
                a = np.linalg.eigvalsh(random_hermitian(n, rng).array)
                b = np.linalg.eigvalsh(random_hermitian(n, rng).array)
            else:
                a, b = rng.standard_normal(n), rng.standard_normal(n)
            assert sorted_matching_value(a, b) == bottleneck_brute_force(a, b)

    def test_metric_properties(self):
        rng = stream(103)
        for _ in range(150):
            n = int(rng.integers(1, 7))
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            dab = matching_distance(a, b)
            assert dab == matching_distance(b, a)
            # float slack: each value is a rounded pairwise distance
            assert matching_distance(a, c) <= dab + matching_distance(b, c) + 1e-12
            # indiscernibles: distinct multisets are separated
            if sorted(zip(a.real, a.imag)) != sorted(zip(b.real, b.imag)):
                assert dab > 0.0
        assert matching_distance([1.0 + 1j], [1.0 + 1j]) == 0.0

    def test_tuple_multisets(self):
        assert matching_distance((1.0, 2.0), (2.0, 1.0)) == 0.0
        with pytest.raises(ValueError):
            matching_distance((), ())


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan),
                                     complex(math.inf, 1.0)])
    @pytest.mark.parametrize("route", [matching_distance, sorted_matching_value,
                                       bottleneck_brute_force])
    def test_non_finite_values_refused(self, route, bad):
        with pytest.raises(ValueError, match="finite"):
            route([bad, 1.0], [bad, 1.0])
        with pytest.raises(ValueError, match="finite"):
            route([0.0, 1.0], [1.0, bad])


def _hausdorff_and_brute(a, b):
    dist = np.abs(a[:, None] - b[None, :])
    h = max(dist.min(axis=1).max(), dist.min(axis=0).max())
    return h, bottleneck_brute_force(a, b)


class TestBottleneckSearch:
    """The threshold search starts at the Hausdorff distance h <= delta;
    real multisets take the sorted closed form with no search."""

    @pytest.fixture
    def probes(self, monkeypatch):
        counted = []
        flow = transport._flow

        def counting_flow(*args):
            counted.append(1)
            return flow(*args)

        monkeypatch.setattr(transport, "_flow", counting_flow)
        return counted

    def _complex_pairs(self, seed, count):
        rng = stream(seed)
        for _ in range(count):
            n = int(rng.integers(2, 9))
            yield (rng.standard_normal(n) + 1j * rng.standard_normal(n),
                   rng.standard_normal(n) + 1j * rng.standard_normal(n))

    def test_one_probe_when_hausdorff_is_optimal(self, probes):
        checked = 0
        for a, b in self._complex_pairs(104, 120):
            h, delta = _hausdorff_and_brute(a, b)
            if h != delta:
                continue
            probes.clear()
            assert matching_distance(a, b) == delta
            assert len(probes) == 1
            checked += 1
        assert checked >= 40

    def test_search_above_hausdorff_equals_brute_force(self):
        checked = 0
        for a, b in self._complex_pairs(105, 200):
            h, delta = _hausdorff_and_brute(a, b)
            if h < delta:
                assert matching_distance(a, b) == delta
                checked += 1
        assert checked >= 20

    def test_real_closed_form_equals_threshold_search(self, probes):
        rng = stream(106)
        for trial in range(150):
            n = int(rng.integers(1, 65))
            a, b = rng.standard_normal(n), rng.standard_normal(n)
            if trial % 3 == 1:  # ties within and across the two sides
                a, b = np.round(a, 1), np.round(b, 1)
            ones = np.ones(n, dtype=np.intp)
            search = transport._bottleneck_from_matrix(np.abs(a[:, None] - b[None, :]),
                                                       ones, ones)[0]
            probes.clear()
            # a -0.0 imaginary part is no imaginary part
            b_signed = b + 1j * np.full(n, -0.0) if trial % 2 else b
            value = matching_distance(a, b_signed)
            assert not probes
            assert value == search
            assert math.copysign(1.0, value) == 1.0


class TestNormalMatrix:
    def test_rejects_non_normal(self):
        with pytest.raises(NotNormalError):
            NormalMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_flags(self):
        rng = stream(7)
        assert random_hermitian(4, rng).is_hermitian
        u = random_unitary(4, rng)
        assert u.is_unitary and not u.is_hermitian
        nm = random_normal(4, rng).array
        assert operator_norm(nm @ nm.conj().T - nm.conj().T @ nm) <= 1e-10

    def test_operator_norm_is_top_singular_value(self):
        rng = stream(8)
        for shape in ((5, 5), (80, 70)):
            g = rng.standard_normal(shape)
            assert operator_norm(g) == pytest.approx(np.linalg.svd(g, compute_uv=False)[0])


class TestUnitaryDistance:
    def test_identical_inputs(self):
        a = random_hermitian(3, stream(1))
        res = unitary_distance(a, a)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.converged
        assert np.allclose(res.unitary, np.eye(3))

    def test_permuted_diagonals(self):
        a = NormalMatrix(np.diag([0.0, 1.0]).astype(complex))
        b = NormalMatrix(np.diag([1.0, 0.0]).astype(complex))
        res = unitary_distance(a, b)
        assert res.value == pytest.approx(0.0, abs=1e-10)

    def test_hermitian_pairs_match_spectral_distance(self):
        rng = stream(2)
        for n in (2, 4, 6):
            for _ in range(10):
                a, b = random_hermitian(n, rng), random_hermitian(n, rng)
                res = unitary_distance(a, b, 1e-8)
                delta = matching_distance(np.linalg.eigvalsh(a.array),
                                          np.linalg.eigvalsh(b.array))
                assert res.converged
                assert abs(res.value - delta) <= 1e-6
                assert res.lower_bound == pytest.approx(delta, abs=1e-12)
                assert res.value >= res.lower_bound - 1e-7

    def test_hermitian_lower_bound_is_matching_of_eigh_spectra(self):
        # the ascending eigh spectra matched in order give the bottleneck
        # value of the threshold search bit for bit
        rng = stream(6)
        for n in range(1, 9):
            for _ in range(10):
                a, b = random_hermitian(n, rng), random_hermitian(n, rng)
                res = unitary_distance(a, b)
                delta = matching_distance(np.linalg.eigh(a.array)[0], np.linalg.eigh(b.array)[0])
                assert res.lower_bound == delta

    def test_unitary_pairs_certified_in_closed_form(self):
        rng = stream(5)
        for n in (2, 5, 6, 8):
            for _ in range(5):
                a, b = random_unitary(n, rng), random_unitary(n, rng)
                res = unitary_distance(a, b, 1e-8)
                delta = matching_distance(a.spectrum(), b.spectrum())
                assert res.converged and res.iterations == 0
                assert res.certificate_gap == res.value - delta
                assert abs(res.certificate_gap) <= 1e-12

    def test_certificate_unitary(self):
        rng = stream(3)
        a, b = random_hermitian(4, rng), random_hermitian(4, rng)
        res = unitary_distance(a, b)
        u = res.unitary
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-10)
        achieved = operator_norm(a.array - u @ b.array @ u.conj().T)
        assert achieved == pytest.approx(res.value, abs=1e-12)

    def test_normal_pairs_never_exceed_matching(self):
        # aligning the eigenbases along an optimal matching realises the
        # matching value, so the orbit distance is at most that; for general
        # normal pairs it may drop strictly below and no equality is claimed
        rng = stream(4)
        tol = 1e-8
        for n in (3, 5, 8):
            for _ in range(10):
                a, b = random_normal(n, rng), random_normal(n, rng)
                res = unitary_distance(a, b, tol)
                delta = matching_distance(a.spectrum(), b.spectrum())
                assert res.value <= delta + 1e-9
                assert res.lower_bound <= delta
                assert res.certificate_gap == res.value - res.lower_bound
                assert res.converged == (res.certificate_gap <= tol)
                u = res.unitary
                assert operator_norm(a.array - u @ b.array @ u.conj().T) == pytest.approx(
                    res.value, abs=1e-12)

    def test_normal_pair_below_matching(self):
        # spectra found offline by descent on random 3x3 pairs: the orbit
        # distance lies strictly below the matching distance delta (possible
        # for normal pairs from n = 3 on), and the reported unitary attains
        # the reported value, so the input certifies itself
        lam = [0.3 - 0.3j, 1.6 + 0.3j, 1.2 + 1.8j]
        mu = [-1.5 + 0.1j, -0.3 - 2.2j, -0.1 + 0.2j]
        a, b = np.diag(lam), np.diag(mu)
        delta = matching_distance(lam, mu)
        res = unitary_distance(a, b, seed=0)
        assert res.value < delta - 1e-5
        assert res.value >= res.lower_bound
        assert not res.converged and res.n_starts > 1
        u = res.unitary
        assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-12)
        assert operator_norm(a - u @ b @ u.conj().T) == pytest.approx(res.value, abs=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            unitary_distance(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("tol", [0.0, -1e-8, float("inf"), float("nan")])
    def test_bad_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            unitary_distance(np.eye(2), np.eye(2), tol=tol)


class TestDiscreteMeasure:
    def test_rejects_floats_and_bad_sums(self):
        with pytest.raises(TypeError):
            DiscreteMeasure((0.0,), (1.0,))
        with pytest.raises(ValueError):
            DiscreteMeasure((0.0, 1.0), (Fraction(1, 2), Fraction(1, 3)))
        with pytest.raises(ValueError):
            DiscreteMeasure((0.0,), (Fraction(0),))

    def test_point_masses(self):
        assert wasserstein_inf(DiscreteMeasure.point(0.0), DiscreteMeasure.point(3 + 4j)) == 5.0

    def test_equal_weights_reduce_to_matching(self):
        rng = stream(40)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            mu = DiscreteMeasure.equal_weights(tuple(x))
            nu = DiscreteMeasure.equal_weights(tuple(y))
            assert wasserstein_inf(mu, nu) == bottleneck_brute_force(x, y)

    def test_denominator_rescaling_invariance(self):
        # same measure written over a coarser and a finer denominator
        mu1 = DiscreteMeasure((0.0, 1.0), (Fraction(1, 2), Fraction(1, 2)))
        mu2 = DiscreteMeasure((0.0, 0.0, 1.0, 1.0),
                              (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)))
        nu = DiscreteMeasure((0.25, 0.8), (Fraction(3, 4), Fraction(1, 4)))
        assert wasserstein_inf(mu1, nu) == wasserstein_inf(mu2, nu)

    def test_unequal_weight_example(self):
        mu = DiscreteMeasure((0.0, 1.0), (Fraction(1, 3), Fraction(2, 3)))
        nu = DiscreteMeasure((0.25, 0.75), (Fraction(1, 2), Fraction(1, 2)))
        # one third of the mass at 1 must travel to 0.25
        assert wasserstein_inf(mu, nu) == 0.75

    def test_unequal_weights_equal_brute_force_of_expanded_atoms(self):
        rng = stream(46)
        for _ in range(100):
            denom = int(rng.integers(2, 9))
            sides = []
            for _ in range(2):
                k = int(rng.integers(1, denom + 1))
                cuts = np.sort(rng.choice(np.arange(1, denom), k - 1, replace=False))
                counts = np.diff(np.concatenate(([0], cuts, [denom])))
                z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
                sides.append((DiscreteMeasure(tuple(z), tuple(Fraction(int(c), denom)
                                                              for c in counts)),
                              np.repeat(z, counts)))
            (mu, x), (nu, y) = sides
            assert wasserstein_inf(mu, nu) == bottleneck_brute_force(x, y)

    def test_denominator_beyond_old_expansion_budget(self):
        # D = 6007: an equal-weight expansion would match 6007 atoms per side
        rng = stream(47)
        x, y = rng.standard_normal(3), rng.standard_normal(4)
        cx, cy = np.array([1, 3000, 3006]), np.array([2000, 7, 3999, 1])
        mu = DiscreteMeasure(tuple(x), tuple(Fraction(int(c), 6007) for c in cx))
        nu = DiscreteMeasure(tuple(y), tuple(Fraction(int(c), 6007) for c in cy))
        expected = sorted_matching_value(np.repeat(x, cx), np.repeat(y, cy))
        assert wasserstein_inf(mu, nu) == expected

    def test_denominator_overflowing_int32_refused(self):
        tiny = Fraction(1, 2**31)
        mu = DiscreteMeasure((0.0, 1.0), (tiny, 1 - tiny))
        with pytest.raises(ValueError, match="int32"):
            wasserstein_inf(mu, DiscreteMeasure.point(0.5))
        # the largest denominator that fits is accepted
        small = Fraction(1, 2**31 - 1)
        nu = DiscreteMeasure((0.0, 1.0), (small, 1 - small))
        assert wasserstein_inf(nu, DiscreteMeasure.point(0.25)) == 0.75

    def test_large_expansion_equals_sorted_matching(self):
        # 41 and 31 equal weights expand to 1271 atoms on each side
        rng = stream(45)
        x, y = rng.standard_normal(41), rng.standard_normal(31)
        mu, nu = DiscreteMeasure.equal_weights(tuple(x)), DiscreteMeasure.equal_weights(tuple(y))
        expected = sorted_matching_value(np.repeat(x, 31), np.repeat(y, 41))
        assert wasserstein_inf(mu, nu) == expected

    def test_incompatible_spaces(self):
        mu = DiscreteMeasure.point(0.0, space="interval")
        nu = DiscreteMeasure.point(1.0, space="circle")
        with pytest.raises(IncompatibleSpacesError):
            wasserstein_inf(mu, nu)

    def test_non_finite_distances_refused(self):
        for bad in (math.nan, math.inf):
            mu = DiscreteMeasure.equal_weights((0.0, complex(bad, 0.0)))
            with pytest.raises(ValueError, match="finite"):
                wasserstein_inf(mu, DiscreteMeasure.point(1.0))
            with pytest.raises(ValueError, match="finite"):
                wasserstein_inf(DiscreteMeasure.point(0.0), DiscreteMeasure.point(complex(0.0, bad)))

    def test_planar_atoms_are_complex(self):
        mu = DiscreteMeasure.point(0j)
        nu = DiscreteMeasure.point(3 + 4j)
        assert wasserstein_inf(mu, nu) == 5.0


class TestSpectralMeasure:
    def test_identity_matrix(self):
        sm = spectral_measure(np.eye(3))
        assert sm.atoms == (1 + 0j,)
        assert sm.weights == (Fraction(1),)

    def test_projection_weights(self):
        proj = np.diag([1.0, 1.0, 1.0, 0.0, 0.0])
        sm = spectral_measure(proj)
        weights = dict(zip(sm.atoms, sm.weights))
        assert weights[0j] == Fraction(2, 5)
        assert weights[1 + 0j] == Fraction(3, 5)

    def test_moments_match_traces(self):
        rng = stream(41)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            a = random_normal(n, rng)
            sm = spectral_measure(a)
            for k in range(1, 5):
                moment = sum((atom ** k) * complex(w) for atom, w in zip(sm.atoms, sm.weights))
                trace = np.trace(np.linalg.matrix_power(a.array, k)) / n
                assert abs(moment - trace) < 1e-8

    def test_repeated_eigenvalue_is_one_atom(self):
        # u diag(i, i, 0) u*: the rounded copies of i must merge even when
        # the third eigenvalue sorts between them
        rng = np.random.default_rng(1)
        for _ in range(300):
            u = random_unitary(3, rng).array
            sm = spectral_measure(u @ np.diag([1j, 1j, 0]) @ u.conj().T)
            assert sorted(sm.weights) == [Fraction(1, 3), Fraction(2, 3)]
            weights = {round(atom.real, 6) + 1j * round(atom.imag, 6): w
                       for atom, w in zip(sm.atoms, sm.weights)}
            assert weights == {1j: Fraction(2, 3), 0j: Fraction(1, 3)}

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_chain_of_neighbours_is_one_atom(self, n):
        # neighbours 0.9e-9 apart, ends up to 6.3e-9 apart, in shuffled
        # order: the longest chain an n x n matrix can hold merges fully
        chain = np.random.default_rng(n).permutation(n - 1) * 0.9e-9
        sm = spectral_measure(np.diag(np.append(chain, 5.0)))
        assert sm.weights == (Fraction(n - 1, n), Fraction(1, n))
        assert sm.atoms[1] == 5.0 and abs(sm.atoms[0] - (n - 2) * 0.45e-9) < 1e-18

    def test_winf_pair_hermitian_equals_matching(self):
        rng = stream(42)
        for n in (2, 3, 5):
            a, b = random_hermitian(n, rng), random_hermitian(n, rng)
            delta = matching_distance(np.linalg.eigvalsh(a.array), np.linalg.eigvalsh(b.array))
            assert winf_pair(a, b) == pytest.approx(delta, abs=1e-9)

    def test_winf_pair_identical(self):
        a = random_normal(4, stream(43))
        assert winf_pair(a, a) == 0.0

    def test_normal_pairs_table_without_equality_claim(self):
        # record (W_inf, d_U) for random normal pairs: the orbit distance is
        # bounded by the spectral transport value (alignment), equality is
        # deliberately not asserted
        rng = stream(44)
        for _ in range(5):
            a, b = random_normal(3, rng), random_normal(3, rng)
            w = winf_pair(a, b)
            res = unitary_distance(a, b)
            assert w >= 0.0 and res.value >= 0.0
            assert res.value <= w + 1e-6
