"""Spectral jobs of workload `algebra`: two uses of the transport layer.

* orbit jobs: `unitary_distance` on hermitian, unitary and normal pairs,
  n from 2 to 8 at tol 1e-8 -- batched dense SVD descent.  Unitary n >= 6
  and normal n = 8 do not converge at the seed, so `unflagged_frac`
  catches speed bought with convergence.  Sizes whose convergence is a
  coin toss at the seed (unitary and normal n = 5) are left out so that
  `unflagged_frac` does not swing from seed to seed;
* matching jobs: `matching_distance` on real and complex multisets up to
  n = 256 -- pure-Python augmenting paths;
* `wasserstein_inf` on rational-weight measures and `winf_pair` on normal
  pairs.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

import cstarlab.transport as transport
from common import Job, bottleneck, expect

# Two thirds of a cycle are orbit jobs, so the median job is an orbit job
# and p90 falls among the n = 6..8 orbits rather than between job kinds.
HERMITIAN_SIZES = (2, 3, 4, 5, 6, 7, 8)
UNITARY_SIZES = (3, 4, 6, 8)
NORMAL_SIZES = (2, 4, 8)
REAL_MATCHING_SIZES = (8, 128)
COMPLEX_MATCHING_SIZES = (32, 256)
WINF_DENOMINATORS = (12, 48)
WINF_PAIR_SIZES = (4,)


def _gaussian(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pair(rng, ensemble: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    def one():
        if ensemble == "hermitian":
            g = _gaussian(rng, n)
            return (g + g.conj().T) / 2
        if ensemble == "unitary":
            return _unitary(rng, n)
        u = _unitary(rng, n)
        eig = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return (u * eig) @ u.conj().T

    return one(), one()


def orbit_job(ensemble: str, a: np.ndarray, b: np.ndarray, seed: int) -> Job:
    n = a.shape[0]

    def check(res):
        u = res.unitary
        expect(np.linalg.norm(u @ u.conj().T - np.eye(n), 2) <= 1e-9, "certificate is not unitary")
        achieved = np.linalg.norm(a - u @ b @ u.conj().T, 2)
        expect(abs(achieved - res.value) <= 1e-9 * (1 + res.value),
               "reported value is not attained by the reported unitary")
        if ensemble == "hermitian":
            delta = transport.sorted_matching_value(np.linalg.eigvalsh(a), np.linalg.eigvalsh(b))
            expect(abs(res.value - delta) <= 1e-6, f"hermitian orbit {res.value} vs {delta}")
        elif ensemble == "unitary" and n <= 4:
            delta = transport.bottleneck_brute_force(np.linalg.eigvals(a), np.linalg.eigvals(b))
            expect(abs(res.value - delta) <= 1e-5, f"unitary orbit {res.value} vs {delta}")

    return Job(f"transport.orbit.{ensemble}",
               lambda: transport.unitary_distance(a, b, 1e-8, seed=seed), check,
               flagged=lambda res: not res.converged)


def matching_job(a: np.ndarray, b: np.ndarray) -> Job:
    def check(value):
        if np.isrealobj(a):
            expect(value == transport.sorted_matching_value(a, b), "differs from sorted matching")
        else:
            expect(value == bottleneck(a, b), "differs from the reference matching")
        if a.size <= 8:
            expect(value == transport.bottleneck_brute_force(a, b), "differs from brute force")

    kind = "transport.matching.real" if np.isrealobj(a) else "transport.matching.complex"
    return Job(kind, lambda: transport.matching_distance(a, b), check)


def _rational_measure(rng, atoms: int, denominator: int):
    cuts = np.sort(rng.choice(np.arange(1, denominator), atoms - 1, replace=False))
    counts = np.diff(np.concatenate(([0], cuts, [denominator])))
    points = rng.standard_normal(atoms) + 1j * rng.standard_normal(atoms)
    weights = tuple(Fraction(int(c), denominator) for c in counts)
    return transport.DiscreteMeasure(tuple(complex(z) for z in points), weights), points, counts


def winf_job(rng, denominator: int) -> Job:
    most = min(6, denominator)
    mu, xs, cx = _rational_measure(rng, int(rng.integers(2, most + 1)), denominator)
    nu, ys, cy = _rational_measure(rng, int(rng.integers(2, most + 1)), denominator)

    def check(value):
        left, right = np.repeat(xs, cx), np.repeat(ys, cy)
        expect(value == bottleneck(left, right), "differs from the expanded matching")

    return Job("transport.winf", lambda: transport.wasserstein_inf(mu, nu), check)


def winf_pair_job(a: np.ndarray, b: np.ndarray) -> Job:
    def check(value):
        delta = bottleneck(np.linalg.eigvals(a), np.linalg.eigvals(b))
        expect(abs(value - delta) <= 1e-9, f"spectral transport {value} vs {delta}")

    return Job("transport.winf_pair", lambda: transport.winf_pair(a, b), check)


def cycle(seed: int, index: int, workdir: str) -> list[Job]:
    rng = np.random.default_rng([seed, index, 4])

    def job_seed() -> int:
        return int(rng.integers(1 << 31))

    jobs = []
    for ensemble, sizes in (("hermitian", HERMITIAN_SIZES), ("unitary", UNITARY_SIZES),
                            ("normal", NORMAL_SIZES)):
        for n in sizes:
            a, b = random_pair(rng, ensemble, n)
            jobs.append(orbit_job(ensemble, a, b, job_seed()))
    for n in REAL_MATCHING_SIZES:
        jobs.append(matching_job(rng.standard_normal(n), rng.standard_normal(n)))
    for n in COMPLEX_MATCHING_SIZES:
        jobs.append(matching_job(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                                 rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    for denominator in WINF_DENOMINATORS:
        jobs.append(winf_job(rng, denominator))
    for n in WINF_PAIR_SIZES:
        jobs.append(winf_pair_job(*random_pair(rng, "normal", n)))
    return jobs


def warmup(workdir: str) -> list[Job]:
    rng = np.random.default_rng(0)
    return [orbit_job("hermitian", *random_pair(rng, "hermitian", 2), 1),
            orbit_job("unitary", *random_pair(rng, "unitary", 2), 1),
            orbit_job("normal", *random_pair(rng, "normal", 2), 1),
            matching_job(rng.standard_normal(4), rng.standard_normal(4)),
            matching_job(rng.standard_normal(4) + 1j, rng.standard_normal(4) + 0j),
            winf_job(rng, 4),
            winf_pair_job(*random_pair(rng, "normal", 2))]
