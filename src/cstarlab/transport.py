"""Spectral distances: optimal matching, unitary orbits, infinity-Wasserstein.

Three routes to the same circle of quantities, on one threshold search
whose probes are Dinic flows of integer supplies to integer demands.  The
search probes the Hausdorff distance h of the two sides first, a lower
bound that is itself a candidate threshold (Gabow-Tarjan), and
binary-searches the distances above h only when that probe fails:

* `matching_distance` -- the bottleneck matching value between two
  eigenvalue multisets, all supplies one; real multisets take the sorted
  closed form (Weyl) with no search (`bottleneck_brute_force` is the
  small-n oracle kept for verification);
* `unitary_distance` -- the orbit distance inf_u ||a - u b u*|| between
  certified bounds, with a unitary attaining the upper one: eigenbases
  aligned along an optimal matching attain the matching distance delta,
  which is exact for Hermitian (Weyl: ascending spectra, no search) and
  unitary (Bhatia-Davis) pairs; for other normal pairs h and
  delta / 2.91 (Bhatia-Davis-Koosis) bound it below, and descent from
  permutation and Haar starts runs only when that leaves a gap;
* `wasserstein_inf` -- the bottleneck transport distance between discrete
  measures with rational weights, exact on atoms of integer mass w * D.

For Hermitian and unitary pairs the first two agree, and the third reduces
to the first on spectral counting measures; for general normal pairs the
orbit distance is at most delta and can drop below it (from n = 3 on), so
only the certified bounds are asserted.  NaN and infinite values are
refused by every bottleneck entry point and by `NormalMatrix`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import inf, lcm
from typing import Sequence

import numpy as np

from .rng import stream

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-12
NORMALITY_TOL = 1e-10
ATOM_MERGE_TOL = 1e-9
# Bhatia-Davis-Koosis: delta <= 2.91 ||a - b|| for normal a, b
BDK_CONSTANT = 2.91
# descent: starts, iteration cap, stagnant iterations before a start freezes
N_STARTS = 16
MAX_ITER = 120
PATIENCE = 6


class SizeMismatchError(ValueError):
    """Inputs must have the same number of eigenvalues / matrix size."""


class IncompatibleSpacesError(ValueError):
    """The two measures do not live over the same metric space."""


class NotNormalError(ValueError):
    """Matrix failed the normality certificate at construction."""


def _as_values(x) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=complex))
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

def _flow(adj: np.ndarray, supply: np.ndarray, demand: np.ndarray) -> np.ndarray | None:
    """A k x l integer flow on the edges of a boolean adjacency that ships
    every row's supply to the columns' demands, or None.

    Dinic's maximum flow (source -> rows -> columns -> sink), a perfect
    matching when all supplies and demands are one (scipy's
    `maximum_bipartite_matching` took 57 s on a 1271-atom threshold graph)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    k, l = adj.shape
    sink = k + l + 1
    rows, cols = np.nonzero(adj)
    tail = np.concatenate([np.zeros(k, dtype=np.intp), rows + 1, np.arange(k + 1, sink)])
    head = np.concatenate([np.arange(1, k + 1), cols + k + 1, np.full(l, sink)])
    capacity = np.concatenate([supply, np.minimum(supply[rows], demand[cols]), demand])
    network = csr_matrix((capacity.astype(np.int32), (tail, head)), shape=(sink + 1, sink + 1))
    result = maximum_flow(network, 0, sink, method="dinic")
    if result.flow_value < supply.sum():
        return None
    return result.flow[1:k + 1, k + 1:sink].toarray()


def _hausdorff(dist: np.ndarray) -> float:
    """Hausdorff distance of two finite sets from their distance matrix:
    the largest row or column minimum."""
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


def _bottleneck_from_matrix(dist: np.ndarray, supply: np.ndarray,
                            demand: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest r such that {(i, j): dist_ij <= r} carries a flow of the
    supplies to the demands, with one such flow.

    Every row and column needs an edge, so r is at least the Hausdorff
    distance h, itself an entry of `dist`: h is probed first (Gabow-Tarjan),
    and only when it fails does a binary search run over the entries above
    it.  The flow returned is always the one built at r itself."""
    values = np.unique(dist)
    lo = int(np.searchsorted(values, _hausdorff(dist)))
    best = _flow(dist <= values[lo], supply, demand)
    if best is not None:
        return float(values[lo]), best
    # values[-1] admits every pair: never probed, its flow is built last
    hi = len(values) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        flow = _flow(dist <= values[mid], supply, demand)
        if flow is None:
            lo = mid
        else:
            hi, best = mid, flow
    if best is None:
        best = _flow(dist <= values[hi], supply, demand)
    return float(values[hi]), best


def _distance_matrix(av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    """The one pairwise-distance computation every bottleneck route shares,
    so that values from different routes are bitwise comparable."""
    return np.abs(av[:, None] - bv[None, :])


def _value_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    av, bv = _as_values(a), _as_values(b)
    if av.size != bv.size:
        raise SizeMismatchError(f"multiset sizes differ: {av.size} vs {bv.size}")
    if not (np.isfinite(av).all() and np.isfinite(bv).all()):
        raise ValueError("multisets must be finite: no NaN or infinite values")
    return av, bv


def _sorted_value(av: np.ndarray, bv: np.ndarray) -> float:
    """Largest gap between the increasing rearrangements of two real
    multisets.  Rounding |x - y| is monotone in the exact distance, so this
    is bitwise the bottleneck value of `_distance_matrix` (Weyl)."""
    return float(np.max(np.abs(np.sort(av.real) - np.sort(bv.real))))


def matching_distance(a, b) -> float:
    """Bottleneck matching value between two equal-size multisets.

    Exact in the sense that the answer is always one of the pairwise
    distances |a_i - b_j|.  Real multisets (no nonzero imaginary part) take
    the sorted closed form; complex ones the threshold search of
    `_bottleneck_from_matrix`, which probes the Hausdorff distance first and
    binary-searches the distances above it only if that probe fails.
    """
    av, bv = _value_pair(a, b)
    if not (av.imag.any() or bv.imag.any()):
        return _sorted_value(av, bv)
    ones = np.ones(av.size, dtype=np.intp)
    return _bottleneck_from_matrix(_distance_matrix(av, bv), ones, ones)[0]


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
    if av.imag.any() or bv.imag.any():
        raise ValueError("sorted matching is defined for real multisets")
    return _sorted_value(av, bv)


# ---------------------------------------------------------------------------
# normal matrices and the unitary orbit distance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalMatrix:
    """A square complex matrix with a normality certificate.

    Construction refuses NaN and infinite entries, measures ||aa* - a*a||
    and refuses anything above 1e-10; Hermitian and unitary subtypes are
    flagged when within 1e-12.  The complex Schur form is computed once,
    on first use, and both the spectrum and the eigenbasis read it.
    """

    array: np.ndarray

    def __post_init__(self):
        arr = np.array(self.array, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError("expected a nonempty square matrix")
        if not np.isfinite(arr).all():
            raise ValueError("matrix entries must be finite: no NaN or infinite values")
        residual = operator_norm(arr @ arr.conj().T - arr.conj().T @ arr)
        if residual > NORMALITY_TOL:
            raise NotNormalError(f"normality residual {residual:.3e} exceeds {NORMALITY_TOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)

    @property
    def n(self) -> int:
        return self.array.shape[0]

    @cached_property
    def is_hermitian(self) -> bool:
        return operator_norm(self.array - self.array.conj().T) <= HERMITIAN_TOL

    @cached_property
    def is_unitary(self) -> bool:
        eye = np.eye(self.n)
        return operator_norm(self.array @ self.array.conj().T - eye) <= UNITARY_TOL

    @cached_property
    def _schur(self) -> tuple[np.ndarray, np.ndarray]:
        from scipy.linalg import schur

        t, z = schur(self.array, output="complex")
        t.setflags(write=False)
        z.setflags(write=False)
        return t, z

    def spectrum(self) -> np.ndarray:
        """Eigenvalues, the diagonal of the complex Schur form."""
        return np.diag(self._schur[0]).copy()

    def eigenbasis(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, unitary) sorted by (real, imag) ascending."""
        t, z = self._schur
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
    """Outcome of `unitary_distance`: the value, a unitary attaining it, and
    the certified lower bound; `certificate_gap` is value - lower_bound.
    Start 0 is the aligned unitary: a pair without descent reports start 0
    of 1, a descended one 1 + the battery size of starts, and start 1 + k
    when battery start k of `_starting_unitaries` gave the value."""

    value: float
    unitary: np.ndarray
    lower_bound: float
    certificate_gap: float
    converged: bool
    start_index: int
    n_starts: int
    iterations: int

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


def _starting_unitaries(n: int, seed: int) -> np.ndarray:
    """The descent battery: permutation matrices, identity first, then
    Haar unitaries from `stream(seed, 2)` up to `N_STARTS`.

    For n <= 4 the permutations are all n!; above that they are the
    identity, the reversal and four drawn from `stream(seed, 1)` (a drawn
    identity is skipped).  Eigenbasis alignments va P vb* are not starts:
    u b u* then commutes with a, so the gradient skew([b, c d*]) vanishes
    there and such a start would freeze where it began, at a value no
    lower than the aligned one the caller already holds."""
    if n <= 4:
        perms = _all_perms(n)
    else:
        rng = stream(seed, 1)
        drawn = [np.arange(n - 1, -1, -1)] + [rng.permutation(n) for _ in range(4)]
        perms = [np.arange(n)] + [p for p in drawn if (p != np.arange(n)).any()]
    rng = stream(seed, 2)
    haar = [random_unitary(n, rng).array for _ in range(N_STARTS - len(perms))]
    return np.stack([*np.eye(n, dtype=complex)[perms], *haar])


def unitary_distance(a, b, tol: float = 1e-8, *, seed: int = 0) -> UnitaryDistanceResult:
    """The unitary orbit distance inf ||a - u b u*||, with a unitary attaining it.

    Every pair starts from the aligned closed form: the eigenbases aligned
    along an optimal bottleneck matching of the spectra give u = va P vb*
    (P = 1 on the ascending `eigh` spectra of Hermitian pairs), and its value
    ||a - u b u*|| is an upper bound that equals the matching distance
    delta up to rounding.  The lower bound is delta itself for Hermitian
    (Weyl) and unitary (Bhatia-Davis) pairs, where the orbit distance is
    delta.  For other normal pairs it is max(h, delta / 2.91), with h the
    Hausdorff distance of the spectra (a unit eigenvector x of a with
    eigenvalue lam gives ||a - u b u*|| >= dist(lam, sigma(b))) and 2.91
    the Bhatia-Davis-Koosis constant; their orbit distance can drop below
    delta.  `certificate_gap` is value - lower_bound and `converged`
    certifies that gap <= `tol`.

    Only normal pairs whose gap stays open run multi-start descent over the
    unitary group (`_descend`; `seed` draws its random starts).  Descent
    stops once it closes the gap, and its value replaces the aligned one
    only when lower.  A value below the lower bound beyond rounding raises.
    """
    na, nb = _as_normal(a), _as_normal(b)
    if na.n != nb.n:
        raise SizeMismatchError(f"matrix sizes differ: {na.n} vs {nb.n}")
    if not 0 < tol < inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    hermitian = na.is_hermitian and nb.is_hermitian
    if hermitian:
        (la, va), (lb, vb) = np.linalg.eigh(na.array), np.linalg.eigh(nb.array)
        delta = _sorted_value(la, lb)
    else:
        (la, va), (lb, vb) = na.eigenbasis(), nb.eigenbasis()
        dist = _distance_matrix(la, lb)
        ones = np.ones(na.n, dtype=np.intp)
        delta, flow = _bottleneck_from_matrix(dist, ones, ones)
        vb = vb[:, flow.argmax(axis=1)]
    u = va @ vb.conj().T
    value = operator_norm(na.array - u @ nb.array @ u.conj().T)
    start_index, n_starts, iterations = 0, 1, 0
    if hermitian or (na.is_unitary and nb.is_unitary):
        lower = delta
    else:
        lower = max(_hausdorff(dist), delta / BDK_CONSTANT)
        if value - lower > tol:
            found, best_u, best, battery, iterations = _descend(na, nb, lower + tol, tol, seed)
            n_starts += battery
            if found < value:
                value, u, start_index = found, best_u, 1 + best
    if value < lower - 1e-7:
        raise RuntimeError(f"numerical fault: orbit value {value} fell below its "
                           f"lower bound {lower}")
    return UnitaryDistanceResult(
        value=value,
        unitary=u,
        lower_bound=lower,
        certificate_gap=value - lower,
        converged=value - lower <= tol,
        start_index=start_index, n_starts=n_starts, iterations=iterations,
    )


def _descend(na: NormalMatrix, nb: NormalMatrix, target: float, tol: float,
             seed: int) -> tuple[float, np.ndarray, int, int, int]:
    """Multi-start descent on u -> ||a - u b u*|| from `_starting_unitaries`.

    Each start follows the negative gradient in the skew-Hermitian
    parametrisation with Armijo backtracking (at most 45 halvings of the
    step).  The operator norm is only subdifferentiable at singular-value
    ties, so a start freezes when its gradient norm falls below `tol` or
    it makes no progress for `PATIENCE` iterations; all starts stop once
    some value reaches `target`, or after `MAX_ITER` iterations.
    Stationarity is no certificate: the caller judges the value by its
    lower bound alone.
    Returns (value, unitary, battery index) of the lowest value found, the
    battery size and the iterations run.
    """
    amat, bmat = na.array, nb.array
    u = _starting_unitaries(na.n, seed)
    s = u.shape[0]
    # a value of (numerically) zero is a global minimum outright; the
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

    while not frozen.all() and iterations < MAX_ITER and values.min() > target:
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
            new_u[trying[ok]] = cand[ok]
            accepted[trying[ok]] = True
            eta[trying[~ok]] /= 2.0
        u[active] = new_u
        step[active] = np.clip(eta * 2.0, 0.0, 4.0)
        vals_a, grads_a = _orbit_gradients(amat, bmat, u[active])
        progressed = values[active] - vals_a > 1e-10 * (1.0 + np.abs(vals_a))
        stagnant[active] = np.where(progressed, 0, stagnant[active] + 1)
        values[active] = vals_a
        grads[active] = grads_a
        grad_norms[active] = _norms(grads_a, vals_a)
        frozen[active] = (grad_norms[active] < tol) | (stagnant[active] >= PATIENCE)

    best = int(np.argmin(values))
    return float(values[best]), u[best], best, s, iterations


# ---------------------------------------------------------------------------
# discrete measures and the infinity-Wasserstein distance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure with exactly rational weights.

    Weights must be Fractions (or ints); floats are refused so that the
    integer masses `wasserstein_inf` transports are exact.
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


def wasserstein_inf(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Bottleneck transport distance between two rational discrete measures.

    Over the common denominator D of all weights (at most 2**31 - 1, the
    int32 flow capacity) each atom carries the integer mass w * D, and the
    value is the threshold search of `matching_distance` over the atom
    distances with those masses as supplies and demands.  The atoms are
    complex numbers and their distances are computed exactly as in
    `matching_distance`, so the two routes are bitwise comparable.
    """
    if mu.space is not None and nu.space is not None and mu.space != nu.space:
        raise IncompatibleSpacesError(f"measures live over {mu.space!r} vs {nu.space!r}")
    denom = lcm(mu.common_denominator(), nu.common_denominator())
    if denom > np.iinfo(np.int32).max:
        raise ValueError(f"common denominator {denom} overflows int32 flow capacities")
    supply = np.array([int(w * denom) for w in mu.weights])
    demand = np.array([int(w * denom) for w in nu.weights])
    dist = _distance_matrix(np.asarray(mu.atoms, dtype=complex),
                            np.asarray(nu.atoms, dtype=complex))
    if not np.isfinite(dist).all():
        raise ValueError("atom distances must be finite: no NaN or infinite values")
    return _bottleneck_from_matrix(dist, supply, demand)[0]


def spectral_measure(a) -> DiscreteMeasure:
    """Normalised counting measure on the spectrum of a normal matrix.

    Eigenvalues within 1e-9 of each other, directly or through a chain of
    such neighbours, are merged into a single atom at their mean,
    accumulating weight in exact n-ths; atoms follow the eigenbasis order
    of their first member.
    """
    na = _as_normal(a)
    eig, _ = na.eigenbasis()
    # transitive closure of the neighbour relation by repeated squaring;
    # each eigenvalue is labelled by the first member of its chain
    reach = _distance_matrix(eig, eig) <= ATOM_MERGE_TOL
    for _ in range((na.n - 1).bit_length()):  # ceil(log2 n) squarings
        reach = reach @ reach
    labels = reach.argmax(axis=1)
    clusters = [eig[labels == first] for first in np.unique(labels)]
    atoms = tuple(complex(np.mean(c)) for c in clusters)
    weights = tuple(Fraction(len(c), na.n) for c in clusters)
    return DiscreteMeasure(atoms, weights, space="C")


def winf_pair(a, b) -> float:
    """Infinity-Wasserstein distance between the two spectral measures.

    In a matrix algebra the trace is unique, so the trace supremum in the
    orbit-distance comparison collapses to this single value.
    """
    return wasserstein_inf(spectral_measure(a), spectral_measure(b))
