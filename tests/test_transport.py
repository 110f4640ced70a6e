import math
from fractions import Fraction

import numpy as np
import pytest

import cstarlab.transport as transport
from oracles import bottleneck_threshold_search
from cstarlab.rng import mix64, stream
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
        for trial in range(200):
            n = int(rng.integers(1, 9))
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            if trial % 2:  # ties within and across the two sides
                a, b = np.round(a, 1), np.round(b, 1)
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


@pytest.fixture
def searches(monkeypatch):
    """(t, smallest label of a column with demand left) of every minimax
    search `_bottleneck` runs."""
    recorded = []
    labels = transport._minimax_labels

    def recording(dist, flow, out, inn, t):
        col, col_pred, row_pred = labels(dist, flow, out, inn, t)
        recorded.append((t, float(col[inn > 0].min())))
        return col, col_pred, row_pred

    monkeypatch.setattr(transport, "_minimax_labels", recording)
    return recorded


@pytest.fixture
def matchings(monkeypatch):
    """One entry per `_bottleneck` call ("bottleneck") and per scipy
    maximum flow ("max_flow")."""
    from scipy.sparse import csgraph

    counted = []
    bottleneck, max_flow = transport._bottleneck, csgraph.maximum_flow

    def counting_bottleneck(*args):
        counted.append("bottleneck")
        return bottleneck(*args)

    def counting_max_flow(*args, **kwargs):
        counted.append("max_flow")
        return max_flow(*args, **kwargs)

    monkeypatch.setattr(transport, "_bottleneck", counting_bottleneck)
    monkeypatch.setattr(csgraph, "maximum_flow", counting_max_flow)
    return counted


def _complex_multisets(rng, n, rounded):
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if rounded:  # ties within and across the two sides
        a, b = np.round(a, 1), np.round(b, 1)
    return a, b


def _counts(rng, atoms, denom):
    cuts = np.sort(rng.choice(np.arange(1, denom), atoms - 1, replace=False))
    return np.diff(np.concatenate(([0], cuts, [denom])))


class TestBottleneckSearch:
    """`_bottleneck` starts at the Hausdorff distance h <= delta and raises
    its threshold only along minimax augmenting paths; real multisets take
    the sorted closed form with no matching at all."""

    def _complex_pairs(self, seed, count):
        rng = stream(seed)
        for _ in range(count):
            n = int(rng.integers(2, 9))
            yield (rng.standard_normal(n) + 1j * rng.standard_normal(n),
                   rng.standard_normal(n) + 1j * rng.standard_normal(n))

    def test_no_augmentation_above_hausdorff_when_optimal(self, searches, matchings):
        checked = 0
        for a, b in self._complex_pairs(104, 120):
            h, delta = _hausdorff_and_brute(a, b)
            if h != delta:
                continue
            searches.clear()
            matchings.clear()
            assert matching_distance(a, b) == delta
            # every search reached a column with demand left inside {dist <= h}
            assert all(t == h and label <= h for t, label in searches)
            assert matchings == ["bottleneck"]
            checked += 1
        assert checked >= 40

    def test_search_above_hausdorff_equals_brute_force(self, searches):
        checked = 0
        for a, b in self._complex_pairs(105, 200):
            h, delta = _hausdorff_and_brute(a, b)
            if h < delta:
                searches.clear()
                assert matching_distance(a, b) == delta
                # the threshold rose from h, each time to a search's label
                assert searches[0][0] == h
                assert any(label > t for t, label in searches)
                checked += 1
        assert checked >= 20

    def test_real_closed_form_equals_threshold_search(self, matchings):
        rng = stream(106)
        for trial in range(150):
            n = int(rng.integers(1, 65))
            a, b = rng.standard_normal(n), rng.standard_normal(n)
            if trial % 3 == 1:  # ties within and across the two sides
                a, b = np.round(a, 1), np.round(b, 1)
            ones = np.ones(n, dtype=np.intp)
            search = bottleneck_threshold_search(np.abs(a[:, None] - b[None, :]), ones, ones)
            matchings.clear()
            # a -0.0 imaginary part is no imaginary part
            b_signed = b + 1j * np.full(n, -0.0) if trial % 2 else b
            value = matching_distance(a, b_signed)
            assert not matchings
            assert value == search
            assert math.copysign(1.0, value) == 1.0

    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
    def test_equals_threshold_search_up_to_256(self, n):
        rng = stream(108, n)
        for trial in range(12 if n <= 64 else 4):
            a, b = _complex_multisets(rng, n, rounded=trial % 2 == 1)
            ones = np.ones(n, dtype=np.intp)
            expected = bottleneck_threshold_search(np.abs(a[:, None] - b[None, :]), ones, ones)
            assert matching_distance(a, b) == expected

    def test_capacitated_equals_threshold_search(self):
        # rational measures over D = 12, 48 and 6007, some atoms rounded
        # onto ties; supplies and demands are the integer masses w * D
        rng = stream(109)
        for trial in range(90):
            denom = (12, 48, 6007)[trial % 3]
            sides = []
            for _ in range(2):
                counts = _counts(rng, int(rng.integers(1, 7)), denom)
                z = rng.standard_normal(counts.size) + 1j * rng.standard_normal(counts.size)
                if trial % 2:
                    z = np.round(z, 1)
                sides.append((DiscreteMeasure(tuple(z), tuple(Fraction(int(c), denom)
                                                              for c in counts)), z, counts))
            (mu, x, cx), (nu, y, cy) = sides
            expected = bottleneck_threshold_search(np.abs(x[:, None] - y[None, :]), cx, cy)
            assert wasserstein_inf(mu, nu) == expected

    def test_large_expansion_equals_threshold_search(self):
        # 41 and 31 complex atoms of equal weight: 1271 units per side
        rng = stream(110)
        x = rng.standard_normal(41) + 1j * rng.standard_normal(41)
        y = rng.standard_normal(31) + 1j * rng.standard_normal(31)
        mu, nu = DiscreteMeasure.equal_weights(tuple(x)), DiscreteMeasure.equal_weights(tuple(y))
        expected = bottleneck_threshold_search(np.abs(x[:, None] - y[None, :]),
                                               np.full(41, 31), np.full(31, 41))
        assert wasserstein_inf(mu, nu) == expected

    def test_no_max_flow_in_any_entry_point(self, matchings):
        # each bottleneck value and each orbit permutation comes from one
        # `_bottleneck` call; scipy's maximum flow runs in none of them
        rng = stream(111)
        a, b = _complex_multisets(rng, 12, rounded=False)
        calls = {
            "matching": lambda: matching_distance(a, b),
            "winf": lambda: wasserstein_inf(DiscreteMeasure.equal_weights(tuple(a)),
                                            DiscreteMeasure.equal_weights(tuple(b[:4]))),
            "winf_pair": lambda: winf_pair(random_normal(4, rng), random_normal(4, rng)),
            "hermitian": lambda: unitary_distance(random_hermitian(4, rng),
                                                  random_hermitian(4, rng)),
            "unitary": lambda: unitary_distance(random_unitary(4, rng), random_unitary(4, rng)),
            "normal": lambda: unitary_distance(random_normal(4, rng), random_normal(4, rng)),
        }
        seen = {}
        for name, call in calls.items():
            matchings.clear()
            call()
            seen[name] = (matchings.count("bottleneck"), matchings.count("max_flow"))
        assert seen == {"matching": (1, 0), "winf": (1, 0), "winf_pair": (1, 0),
                        "hermitian": (0, 0), "unitary": (1, 0), "normal": (1, 0)}

    def test_orbit_permutation_is_the_bottleneck_flow(self):
        # on tied multisets several perfect matchings fit within delta; the
        # flow `_bottleneck` ends with is one of them, and it aligns the orbit
        rng = stream(112)
        several = 0
        for trial in range(40):
            n = int(rng.integers(2, 7))
            la, lb = _complex_multisets(rng, n, rounded=True)
            dist = np.abs(la[:, None] - lb[None, :])
            ones = np.ones(n, dtype=np.intp)
            delta, flow = transport._bottleneck(dist, ones, ones)
            assert set(np.unique(flow).tolist()) <= {0, 1}
            assert (flow.sum(axis=0) == 1).all() and (flow.sum(axis=1) == 1).all()
            assert dist[flow == 1].max() <= delta
            fitting = dist[np.arange(n), transport._all_perms(n)].max(axis=1) <= delta
            several += int(fitting.sum()) > 1

            u, v = random_unitary(n, rng).array, random_unitary(n, rng).array
            a, b = NormalMatrix((u * la) @ u.conj().T), NormalMatrix((v * lb) @ v.conj().T)
            (ea, va), (eb, vb) = a.eigenbasis(), b.eigenbasis()
            value, flow = transport._bottleneck(np.abs(ea[:, None] - eb[None, :]), ones, ones)
            perm = flow.argmax(axis=1)
            assert np.abs(ea - eb[perm]).max() == value
            result = unitary_distance(a, b, seed=trial)
            if result.start_index == 0:
                aligned = va @ vb[:, perm].conj().T
                assert np.array_equal(result.unitary, aligned)
                assert result.value == pytest.approx(value, rel=1e-12, abs=1e-12)
            else:
                assert result.value < value
        assert several >= 15


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    @pytest.mark.parametrize("route", [lambda m: unitary_distance(m, np.eye(2)),
                                       spectral_measure,
                                       lambda m: winf_pair(np.eye(2), m)],
                             ids=["unitary_distance", "spectral_measure", "winf_pair"])
    def test_non_finite_entries_refused(self, route, bad):
        m = np.eye(2, dtype=complex)
        m[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            route(m)

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
        # value of matching_distance bit for bit
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
        # pinned bitwise; a change of descent may keep the value or lower it
        assert res.value == 3.094479181242151
        assert res.value <= 3.0944791814275145
        assert res.value < delta - 1e-5
        assert res.value >= res.lower_bound
        assert not res.converged and res.n_starts > 1 and res.start_index >= 1
        u = res.unitary
        assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-12)
        assert operator_norm(a - u @ b @ u.conj().T) == pytest.approx(res.value, abs=1e-12)

    def test_eigenbasis_alignments_are_stationary(self):
        # u = va P vb* makes u b u* commute with a, so the gradient
        # skew([b, c d*]) vanishes for every P: such a start cannot move,
        # which is why the descent battery holds none
        rng = stream(9)
        for n in (3, 4):
            perms = np.eye(n, dtype=complex)[transport._all_perms(n)]
            for _ in range(20):
                a, b = random_normal(n, rng), random_normal(n, rng)
                va, vb = a.eigenbasis()[1], b.eigenbasis()[1]
                _, grads = transport._orbit_gradients(a.array, b.array,
                                                      va @ perms @ vb.conj().T)
                assert np.linalg.norm(grads.reshape(len(perms), -1), axis=1).max() <= 1e-9

    def test_benchmark_find_below_matching(self):
        # the normal n = 4 pair of the benchmark's spectral cycle 43 under
        # seed 1, replayed in the cycle's draw order from default_rng([1, 43, 4]):
        # 7 Hermitian, 4 unitary and one n = 2 normal pair, each followed by
        # its orbit seed, then the pair and its own orbit seed
        rng = np.random.default_rng([1, 43, 4])

        def gaussian(n):
            return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

        def unitary(n):
            q, r = np.linalg.qr(gaussian(n))
            return q * (np.diag(r) / np.abs(np.diag(r)))

        def normal(n):
            u = unitary(n)
            eig = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            return (u * eig) @ u.conj().T

        for make, sizes in ((gaussian, range(2, 9)), (unitary, (3, 4, 6, 8)), (normal, (2,))):
            for n in sizes:
                make(n), make(n)
                rng.integers(1 << 31)
        a, b = normal(4), normal(4)
        seed = int(rng.integers(1 << 31))
        assert seed == 14941291
        delta = matching_distance(np.linalg.eigvals(a), np.linalg.eigvals(b))
        res = unitary_distance(a, b, 1e-8, seed=seed)
        # pinned bitwise; a change of descent may keep the value or lower it
        assert res.value == 2.9760256325448657
        assert res.value <= 2.976025632987835
        assert res.value <= delta - 1e-4
        assert res.value >= res.lower_bound
        assert res.start_index >= 1
        u = res.unitary
        assert operator_norm(a - u @ b @ u.conj().T) == pytest.approx(res.value, abs=1e-12)

    @pytest.mark.parametrize("n, seed, trial", [(4, 4, 8), (8, 2, 3)])
    def test_descent_stops_when_no_start_can_beat_aligned(self, n, seed, trial):
        # seeded pairs whose gap stays open and whose starts all stay above
        # the aligned value: every start freezes before MAX_ITER, since at
        # its recent rate it could not reach that value, and start 0 stands
        rng = stream(seed, trial)
        a, b = random_normal(n, rng), random_normal(n, rng)
        res = unitary_distance(a, b, 1e-8, seed=mix64(seed, trial))
        assert res.n_starts > 1
        assert res.iterations < transport.MAX_ITER
        assert res.start_index == 0 and not res.converged
        u = res.unitary
        assert operator_norm(a.array - u @ b.array @ u.conj().T) == pytest.approx(
            res.value, abs=1e-12)

    def test_start_counts(self):
        # start 0 is the aligned unitary; a descended pair adds the battery:
        # all 24 permutations at n = 4, N_STARTS = 16 starts at other n.
        # Most random pairs close under the shifted-spectra bound, so n = 3
        # takes the pair of test_normal_pair_below_matching, whose gap stays
        # open, and n = 4 and 5 take 30 random pairs each
        rng = stream(10)
        a = random_normal(4, rng)
        for pair in ((random_hermitian(4, rng), random_hermitian(4, rng)),
                     (random_unitary(4, rng), random_unitary(4, rng)), (a, a)):
            res = unitary_distance(*pair)
            assert (res.start_index, res.n_starts) == (0, 1)
        lam = [0.3 - 0.3j, 1.6 + 0.3j, 1.2 + 1.8j]
        mu = [-1.5 + 0.1j, -0.3 - 2.2j, -0.1 + 0.2j]
        pairs = {3: [(np.diag(lam), np.diag(mu))]}
        for n in (4, 5):
            pairs[n] = [(random_normal(n, rng), random_normal(n, rng)) for _ in range(30)]
        for n, group in pairs.items():
            descended = 0
            for a, b in group:
                res = unitary_distance(a, b, seed=n)
                if res.n_starts > 1:
                    descended += 1
                    assert res.n_starts == (25 if n == 4 else 17)
                    assert 0 <= res.start_index < res.n_starts
                else:
                    assert (res.start_index, res.iterations, res.converged) == (0, 0, True)
            assert descended >= 1

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_shifted_spectra_bound_is_sound(self, n):
        # the bound contains the Hausdorff distance h, and no unitary beats
        # it: neither the returned one nor Haar draws
        rng = stream(112, n)
        for _ in range(12):
            a, b = random_normal(n, rng), random_normal(n, rng)
            la, lb = a.eigenbasis()[0], b.eigenbasis()[0]
            bound = transport._shifted_spectra_bound(la, lb)
            assert bound >= transport._hausdorff(transport._distance_matrix(la, lb))
            res = unitary_distance(a, b)
            unitaries = [res.unitary] + [random_unitary(n, rng).array for _ in range(20)]
            for u in unitaries:
                assert bound <= operator_norm(a.array - u @ b.array @ u.conj().T) + 1e-12
            assert res.lower_bound <= res.value + 1e-12

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
        # masses are int64, so D = 2**40, past int32, is accepted and exact:
        # a mass of 1 / D is moved or not
        tiny = Fraction(1, 2**40)
        mu = DiscreteMeasure((0.0, 1.0), (tiny, 1 - tiny))
        nu = DiscreteMeasure((0.0, 1.0), (2 * tiny, 1 - 2 * tiny))
        assert wasserstein_inf(mu, nu) == 1.0
        assert wasserstein_inf(mu, mu) == 0.0
        assert wasserstein_inf(mu, DiscreteMeasure.point(0.25)) == 0.75
        # the largest denominator that fits is accepted
        edge = Fraction(1, 2**63 - 1)
        mu = DiscreteMeasure((0.0, 1.0), (edge, 1 - edge))
        assert wasserstein_inf(mu, DiscreteMeasure((0.0, 1.0), (2 * edge, 1 - 2 * edge))) == 1.0
        # D = 3 * 2**62 does not fit int64 masses; unchecked, the cast wraps them
        huge = Fraction(1, 3 * 2**62)
        with pytest.raises(ValueError, match="int64 masses"):
            wasserstein_inf(DiscreteMeasure((0.0, 1.0), (huge, 1 - huge)),
                            DiscreteMeasure.point(0.5))

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
