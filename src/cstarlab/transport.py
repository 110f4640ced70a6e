"""Spectral distances: optimal matching, unitary orbits, infinity-Wasserstein.

Three routes to the same circle of quantities:

* `matching_distance` -- the bottleneck matching value between two
  eigenvalue multisets, computed exactly by threshold binary search over
  the pairwise distances, each threshold tested for a perfect matching by
  maximum flow (`bottleneck_brute_force` is the small-n oracle kept for
  verification);
* `unitary_distance` -- the orbit distance inf_u ||a - u b u*|| with a
  unitary attaining it: in closed form for Hermitian (Weyl) and unitary
  (Bhatia-Davis) pairs, where it equals the matching distance of the
  spectra, and as an upper bound from multi-start descent otherwise;
* `wasserstein_inf` -- the bottleneck transport distance between discrete
  measures with rational weights, computed exactly by expanding to a
  common denominator and matching equal-weight atoms.

For Hermitian and unitary pairs the first two agree, and the third reduces
to the first on spectral counting measures; for general normal pairs the
package only records the values, asserting no equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Callable, Sequence

import numpy as np

from .rng import stream

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-12
NORMALITY_TOL = 1e-10
ATOM_MERGE_TOL = 1e-9
# descent: starts, iteration cap, stagnant iterations before a start freezes
N_STARTS = 20
MAX_ITER = 120
PATIENCE = 6


class SizeMismatchError(ValueError):
    """Inputs must have the same number of eigenvalues / matrix size."""


class IncompatibleSpacesError(ValueError):
    """The two measures do not live over the same metric space."""


class NotNormalError(ValueError):
    """Matrix failed the normality certificate at construction."""


@dataclass(frozen=True)
class EigenMultiset:
    """A finite multiset of complex numbers (spectrum with multiplicity)."""

    values: tuple[complex, ...]

    def __post_init__(self):
        if len(self.values) < 1:
            raise ValueError("an eigenvalue multiset cannot be empty")

    def __len__(self) -> int:
        return len(self.values)


def _as_values(x) -> np.ndarray:
    vals = getattr(x, "values", x)
    arr = np.atleast_1d(np.asarray(vals, dtype=complex))
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("expected a nonempty one-dimensional multiset")
    return arr


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value, from the singular-value decomposition."""
    m = np.asarray(m, dtype=complex)
    if min(m.shape) == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


# ---------------------------------------------------------------------------
# bottleneck matching
# ---------------------------------------------------------------------------

def _perfect_matching(adj: np.ndarray) -> np.ndarray | None:
    """Row i matched to column perm[i] in a square boolean adjacency, or None.

    Dinic's maximum flow (source -> rows -> columns -> sink) is O(E sqrt(V))
    on every input, unlike scipy's `maximum_bipartite_matching`, which takes
    tens of seconds on some threshold graphs of expanded equal-weight atoms."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    n = adj.shape[0]
    rows, cols = np.nonzero(adj)
    tail = np.concatenate([np.zeros(n, dtype=np.intp), rows + 1, np.arange(n + 1, 2 * n + 1)])
    head = np.concatenate([np.arange(1, n + 1), cols + n + 1, np.full(n, 2 * n + 1)])
    network = csr_matrix((np.ones(tail.size, dtype=np.int32), (tail, head)),
                         shape=(2 * n + 2, 2 * n + 2))
    result = maximum_flow(network, 0, 2 * n + 1, method="dinic")
    if result.flow_value < n:
        return None
    rows, cols = (result.flow[1:n + 1, n + 1:2 * n + 1] > 0).nonzero()
    return cols[np.argsort(rows)]


def _bottleneck_from_matrix(dist: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest r such that {(i, j): dist_ij <= r} has a perfect matching,
    with one such matching as perm (row i matched to column perm[i])."""
    values = np.unique(dist)
    # the threshold values[-1] admits every pair, so the identity matches
    lo, hi, best = -1, len(values) - 1, np.arange(dist.shape[0])
    while hi - lo > 1:
        mid = (lo + hi) // 2
        perm = _perfect_matching(dist <= values[mid])
        if perm is None:
            lo = mid
        else:
            hi, best = mid, perm
    return float(values[hi]), best


def _distance_matrix(av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    """The one pairwise-distance computation every bottleneck route shares,
    so that values from different routes are bitwise comparable."""
    return np.abs(av[:, None] - bv[None, :])


def _value_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    av, bv = _as_values(a), _as_values(b)
    if av.size != bv.size:
        raise SizeMismatchError(f"multiset sizes differ: {av.size} vs {bv.size}")
    return av, bv


def matching_distance(a, b) -> float:
    """Bottleneck matching value between two equal-size multisets.

    Exact in the sense that the answer is always one of the pairwise
    distances |a_i - b_j|, selected by threshold binary search with
    matching feasibility tests.
    """
    return _bottleneck_from_matrix(_distance_matrix(*_value_pair(a, b)))[0]


@lru_cache(maxsize=None)
def _all_perms(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp)


def bottleneck_brute_force(a, b) -> float:
    """Oracle: minimise the max pairwise distance over all n! permutations."""
    av, bv = _value_pair(a, b)
    n = av.size
    if n > 8:
        raise ValueError("brute force is reserved for n <= 8")
    dist = _distance_matrix(av, bv)
    perms = _all_perms(n)
    vals = dist[np.arange(n)[None, :], perms]
    return float(vals.max(axis=1).min())


def sorted_matching_value(a, b) -> float:
    """Matching value of the increasing rearrangements (real multisets)."""
    av, bv = _value_pair(a, b)
    if np.abs(av.imag).max() > 0 or np.abs(bv.imag).max() > 0:
        raise ValueError("sorted matching is defined for real multisets")
    return float(np.max(np.abs(np.sort(av.real) - np.sort(bv.real))))


# ---------------------------------------------------------------------------
# normal matrices and the unitary orbit distance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalMatrix:
    """A square complex matrix with a normality certificate.

    Construction measures ||aa* - a*a|| and refuses anything above 1e-10;
    Hermitian and unitary subtypes are flagged when within 1e-12.
    """

    array: np.ndarray

    def __post_init__(self):
        arr = np.array(self.array, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError("expected a nonempty square matrix")
        residual = operator_norm(arr @ arr.conj().T - arr.conj().T @ arr)
        if residual > NORMALITY_TOL:
            raise NotNormalError(f"normality residual {residual:.3e} exceeds {NORMALITY_TOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "_residual", residual)

    @property
    def n(self) -> int:
        return self.array.shape[0]

    @property
    def normality_residual(self) -> float:
        return self._residual

    @property
    def is_hermitian(self) -> bool:
        return operator_norm(self.array - self.array.conj().T) <= HERMITIAN_TOL

    @property
    def is_unitary(self) -> bool:
        eye = np.eye(self.n)
        return operator_norm(self.array @ self.array.conj().T - eye) <= UNITARY_TOL

    def spectrum(self) -> np.ndarray:
        """Eigenvalues via a complex Schur form (unitary change of basis)."""
        from scipy.linalg import schur

        t, _ = schur(self.array, output="complex")
        return np.diag(t).copy()

    def eigenbasis(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, unitary) sorted by (real, imag) ascending."""
        from scipy.linalg import schur

        t, z = schur(self.array, output="complex")
        eig = np.diag(t)
        order = np.lexsort((eig.imag, eig.real))
        return eig[order], z[:, order]


def _as_normal(x) -> NormalMatrix:
    return x if isinstance(x, NormalMatrix) else NormalMatrix(np.asarray(x))


def random_hermitian(n: int, rng: np.random.Generator) -> NormalMatrix:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return NormalMatrix((g + g.conj().T) / 2)


def random_unitary(n: int, rng: np.random.Generator) -> NormalMatrix:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return NormalMatrix(q)


def random_normal(n: int, rng: np.random.Generator) -> NormalMatrix:
    u = random_unitary(n, rng).array
    eig = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return NormalMatrix((u * eig) @ u.conj().T)


@dataclass(frozen=True)
class UnitaryDistanceResult:
    """Outcome of `unitary_distance`: the value and a unitary attaining it.
    `certificate_gap` is set in closed form, `grad_norm` after descent."""

    value: float
    unitary: np.ndarray
    grad_norm: float | None
    converged: bool
    start_index: int
    n_starts: int
    iterations: int
    hermitian_lower_bound: float | None = None
    certificate_gap: float | None = None

    def __float__(self) -> float:
        return self.value


def _batched_expm_skew(s: np.ndarray) -> np.ndarray:
    """exp of a stack of skew-Hermitian matrices via the Hermitian eigenproblem."""
    h = -1j * s  # Hermitian
    lam, v = np.linalg.eigh(h)
    phase = np.exp(1j * lam)
    return np.einsum("sij,sj,skj->sik", v, phase, v.conj())


def _orbit_values(a: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
    m = a[None, :, :] - u @ b[None, :, :] @ np.conj(np.swapaxes(u, 1, 2))
    return np.linalg.svd(m, compute_uv=False)[:, 0]


def _orbit_gradients(a: np.ndarray, b: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and Riemannian gradients of u -> ||a - u b u*|| at a stack of u.

    With (w, sigma, v) the top singular triple of m = a - u b u* and
    c = u* v, d = u* w, the derivative along u exp(eps s) is
    -Re tr(s (b Y - Y b)) for Y = c d*, so the gradient is the
    skew-Hermitian part of [b, Y].
    """
    uh = np.conj(np.swapaxes(u, 1, 2))
    m = a[None, :, :] - u @ b[None, :, :] @ uh
    left, sigma, right_h = np.linalg.svd(m)
    w = left[:, :, 0]
    v = np.conj(right_h[:, 0, :])
    c = np.einsum("sij,sj->si", uh, v)
    d = np.einsum("sij,sj->si", uh, w)
    y = c[:, :, None] * np.conj(d)[:, None, :]
    n_mat = b[None, :, :] @ y - y @ b[None, :, :]
    grad = (n_mat - np.conj(np.swapaxes(n_mat, 1, 2))) / 2
    return sigma[:, 0], grad


def _starting_unitaries(a: NormalMatrix, b: NormalMatrix, seed: int) -> np.ndarray:
    """Deterministic multi-start battery: identity, permutation matrices,
    spectral alignments, and Haar-random unitaries to fill the quota."""
    n = a.n
    starts: list[np.ndarray] = [np.eye(n, dtype=complex)]

    perm_list: list[tuple[int, ...]]
    if n <= 4:
        perm_list = list(itertools.permutations(range(n)))
    else:
        rng = stream(seed, 1)
        perm_list = [tuple(range(n - 1, -1, -1))]
        perm_list += [tuple(rng.permutation(n)) for _ in range(4)]
    for perm in perm_list:
        if perm == tuple(range(n)):
            continue
        p = np.zeros((n, n), dtype=complex)
        p[np.arange(n), list(perm)] = 1.0
        starts.append(p)

    # alignments of the two eigenbases: exact minimisers live among these
    # when the pair is simultaneously diagonalisable after conjugation
    _, va = a.eigenbasis()
    _, vb = b.eigenbasis()
    vb_h = vb.conj().T
    align_perms = perm_list if n <= 4 else [tuple(range(n))] + perm_list[:3]
    for perm in align_perms:
        p = np.zeros((n, n), dtype=complex)
        p[np.arange(n), list(perm)] = 1.0
        starts.append(va @ p @ vb_h)

    rng = stream(seed, 2)
    while len(starts) < N_STARTS:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(g)
        starts.append(q * (np.diag(r) / np.abs(np.diag(r))))
    return np.stack(starts)


def unitary_distance(a, b, tol: float = 1e-8, *, seed: int = 0) -> UnitaryDistanceResult:
    """The unitary orbit distance inf ||a - u b u*||, with a unitary attaining it.

    Hermitian pairs (Weyl) and unitary pairs (Bhatia-Davis) have orbit
    distance equal to the matching distance delta of their spectra, attained
    by aligning the eigenbases (`eigh`, resp. complex Schur) along an optimal
    matching.  `certificate_gap` is value - delta, and `converged` certifies
    that gap <= `tol`; a value below delta beyond rounding raises.

    All other pairs, such as general normal ones whose orbit distance can
    drop below delta, run multi-start descent over the unitary group: each
    start follows the negative gradient in the skew-Hermitian
    parametrisation with Armijo backtracking until the gradient norm falls
    below `tol`.  Starts that stop making progress (the operator norm is
    only subdifferentiable at singular-value ties) are frozen after
    `PATIENCE` stagnant iterations and simply keep their best value.  The
    best value across starts is an upper bound reported with its unitary;
    `converged` records whether that start met the gradient tolerance.
    `seed` draws the random starts.
    """
    na, nb = _as_normal(a), _as_normal(b)
    if na.n != nb.n:
        raise SizeMismatchError(f"matrix sizes differ: {na.n} vs {nb.n}")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    hermitian = na.is_hermitian and nb.is_hermitian
    if hermitian:
        (la, va), (lb, vb) = np.linalg.eigh(na.array), np.linalg.eigh(nb.array)
    elif na.is_unitary and nb.is_unitary:
        (la, va), (lb, vb) = na.eigenbasis(), nb.eigenbasis()
    else:
        return _descend(na, nb, tol, seed)
    delta, perm = _bottleneck_from_matrix(_distance_matrix(la, lb))
    u = va @ vb[:, perm].conj().T
    value = operator_norm(na.array - u @ nb.array @ u.conj().T)
    if value < delta - 1e-7:
        raise RuntimeError(f"numerical fault: orbit value {value} fell below the "
                           f"spectral matching lower bound {delta}")
    return UnitaryDistanceResult(
        value=value,
        unitary=u,
        grad_norm=None,
        converged=value - delta <= tol,
        start_index=0, n_starts=1, iterations=0,
        hermitian_lower_bound=delta if hermitian else None,
        certificate_gap=value - delta,
    )


def _descend(na: NormalMatrix, nb: NormalMatrix, tol: float,
             seed: int) -> UnitaryDistanceResult:
    """Multi-start descent for the pairs `unitary_distance` has no closed form for."""
    amat, bmat = na.array, nb.array
    u = _starting_unitaries(na, nb, seed)
    s = u.shape[0]
    # a value of (numerically) zero certifies a global minimum outright; the
    # svd-based gradient is meaningless on the zero matrix
    value_floor = 1e-13 * (1.0 + operator_norm(amat))

    def _norms(grad_stack, vals):
        norms = np.linalg.norm(grad_stack.reshape(len(vals), -1), axis=1)
        return np.where(vals <= value_floor, 0.0, norms)

    values, grads = _orbit_gradients(amat, bmat, u)
    grad_norms = _norms(grads, values)
    step = np.full(s, 0.5)
    frozen = grad_norms < tol
    stagnant = np.zeros(s, dtype=int)
    iterations = 0

    while not frozen.all() and iterations < MAX_ITER:
        iterations += 1
        active = np.flatnonzero(~frozen)
        g = grads[active]
        gn2 = grad_norms[active] ** 2
        eta = step[active].copy()
        cur = values[active]
        accepted = np.zeros(active.size, dtype=bool)
        new_u = u[active].copy()
        for _ in range(45):
            trying = np.flatnonzero(~accepted)
            if trying.size == 0:
                break
            cand = u[active[trying]] @ _batched_expm_skew(-eta[trying, None, None] * g[trying])
            cand_vals = _orbit_values(amat, bmat, cand)
            ok = cand_vals <= cur[trying] - 1e-4 * eta[trying] * gn2[trying]
            idx_ok = trying[ok]
            new_u[idx_ok] = cand[ok]
            accepted[idx_ok] = True
            eta[trying[~ok]] /= 2.0
            stalled = trying[~ok][eta[trying[~ok]] < 1e-16]
            if stalled.size:
                accepted[stalled] = True  # keep old u; will freeze below
        u[active] = new_u
        step[active] = np.clip(eta * 2.0, 0.0, 4.0)
        vals_a, grads_a = _orbit_gradients(amat, bmat, u[active])
        progressed = values[active] - vals_a > 1e-10 * (1.0 + np.abs(vals_a))
        stagnant[active] = np.where(progressed, 0, stagnant[active] + 1)
        values[active] = vals_a
        grads[active] = grads_a
        grad_norms[active] = _norms(grads_a, vals_a)
        frozen[active] = ((grad_norms[active] < tol) | (step[active] < 1e-14)
                          | (stagnant[active] >= PATIENCE))
        converged_vals = values[frozen & (grad_norms < tol)]
        if converged_vals.size:
            # starts parked at a value some start already certified are duplicates
            vbest = float(converged_vals.min())
            frozen |= np.abs(values - vbest) <= 1e-9 * (1.0 + abs(vbest))

    # among starts within rounding of the best value, prefer one that met the
    # gradient tolerance; ties break by start index
    vmin = float(values.min())
    near = np.flatnonzero(values <= vmin + max(1e-12, 1e-9 * abs(vmin)))
    near_converged = near[grad_norms[near] < tol]
    best = int(near_converged[0]) if near_converged.size else int(near[0])
    return UnitaryDistanceResult(
        value=float(values[best]),
        unitary=u[best],
        grad_norm=float(grad_norms[best]),
        converged=bool(grad_norms[best] < tol),
        start_index=best,
        n_starts=s,
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# discrete measures and the infinity-Wasserstein distance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure with exactly rational weights.

    Weights must be Fractions (or ints); floats are refused so that the
    equal-weight expansion used by `wasserstein_inf` is exact.
    """

    atoms: tuple
    weights: tuple[Fraction, ...]
    space: str | None = None

    def __post_init__(self):
        if len(self.atoms) != len(self.weights) or len(self.atoms) < 1:
            raise ValueError("need one weight per atom and at least one atom")
        cleaned = []
        for w in self.weights:
            if isinstance(w, float):
                raise TypeError("weights must be exact rationals, not floats")
            w = Fraction(w)
            if w <= 0:
                raise ValueError("weights must be positive")
            cleaned.append(w)
        if sum(cleaned) != 1:
            raise ValueError("weights must sum to exactly 1")
        object.__setattr__(self, "weights", tuple(cleaned))
        object.__setattr__(self, "atoms", tuple(self.atoms))

    @classmethod
    def point(cls, atom, space: str | None = None) -> "DiscreteMeasure":
        return cls((atom,), (Fraction(1),), space)

    @classmethod
    def equal_weights(cls, atoms: Sequence, space: str | None = None) -> "DiscreteMeasure":
        n = len(atoms)
        return cls(tuple(atoms), tuple(Fraction(1, n) for _ in range(n)), space)

    def common_denominator(self) -> int:
        return lcm(*[w.denominator for w in self.weights])


def wasserstein_inf(mu: DiscreteMeasure, nu: DiscreteMeasure,
                    metric: Callable | None = None, *, max_expansion: int = 4096) -> float:
    """Bottleneck transport distance between two rational discrete measures.

    Both measures are expanded over the common denominator of all weights
    into equal-weight atom lists, where an optimal plan may be taken to be
    a matching; the value is then the exact bottleneck matching of the
    expanded lists.  Without a `metric` oracle the atoms are treated as
    complex numbers and distances are computed exactly as in
    `matching_distance`, so the two routes are bitwise comparable.
    """
    if mu.space is not None and nu.space is not None and mu.space != nu.space:
        raise IncompatibleSpacesError(f"measures live over {mu.space!r} vs {nu.space!r}")
    denom = lcm(mu.common_denominator(), nu.common_denominator())
    if denom > max_expansion:
        raise ValueError(f"common denominator {denom} exceeds the expansion budget")

    def expand(measure: DiscreteMeasure) -> list:
        out = []
        for atom, w in zip(measure.atoms, measure.weights):
            out.extend([atom] * int(w * denom))
        return out

    left, right = expand(mu), expand(nu)
    if metric is None:
        dist = _distance_matrix(np.asarray(left, dtype=complex),
                                np.asarray(right, dtype=complex))
    else:
        dist = np.array([[float(metric(x, y)) for y in right] for x in left])
    return _bottleneck_from_matrix(dist)[0]


def spectral_measure(a) -> DiscreteMeasure:
    """Normalised counting measure on the spectrum of a normal matrix.

    Eigenvalues closer than 1e-9 are merged into a single atom at their
    mean, accumulating weight in exact n-ths.
    """
    na = _as_normal(a)
    eig = na.spectrum()
    order = np.lexsort((eig.imag, eig.real))
    eig = eig[order]
    clusters: list[list[complex]] = [[eig[0]]]
    for lam in eig[1:]:
        if abs(lam - clusters[-1][-1]) <= ATOM_MERGE_TOL:
            clusters[-1].append(lam)
        else:
            clusters.append([lam])
    n = na.n
    atoms = tuple(complex(np.mean(c)) for c in clusters)
    weights = tuple(Fraction(len(c), n) for c in clusters)
    return DiscreteMeasure(atoms, weights, space="C")


def winf_pair(a, b) -> float:
    """Infinity-Wasserstein distance between the two spectral measures.

    In a matrix algebra the trace is unique, so the trace supremum in the
    orbit-distance comparison collapses to this single value.
    """
    return wasserstein_inf(spectral_measure(a), spectral_measure(b))
