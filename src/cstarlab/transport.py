"""Spectral distances: optimal matching, unitary orbits, infinity-Wasserstein.

Three routes to the same circle of quantities, on one bottleneck routine,
`_bottleneck`, over integer supplies and demands.  It starts at the
Hausdorff distance h of the two sides, a lower bound that is itself an
entry of the distance matrix, ships what it can within h and raises its
threshold only along minimax augmenting paths (Gabow-Tarjan), so no
threshold is ever probed and the value is an entry of the matrix:

* `matching_distance` -- the bottleneck matching value between two
  eigenvalue multisets, all supplies one; real multisets take the sorted
  closed form (Weyl) with no matching (`bottleneck_brute_force` is the
  small-n oracle kept for verification);
* `unitary_distance` -- the orbit distance inf_u ||a - u b u*|| between
  certified bounds, with a unitary attaining the upper one: eigenbases
  aligned along the matching `_bottleneck` ends with attain the matching
  distance delta, which is exact for Hermitian (Weyl: ascending spectra,
  no matching) and unitary (Bhatia-Davis) pairs; for other normal pairs h
  and delta / 2.91 (Bhatia-Davis-Koosis) bound it below, then, if that
  leaves a gap, Weyl's perturbation theorem on the singular values of
  a - z over a fixed set of shifts z, and descent from permutation and
  Haar starts, until none can beat the aligned value at its recent rate,
  runs only when both leave a gap;
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

from .rng import _integer, stream

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-12
NORMALITY_TOL = 1e-10
ATOM_MERGE_TOL = 1e-9
# Bhatia-Davis-Koosis: delta <= 2.91 ||a - b|| for normal a, b
BDK_CONSTANT = 2.91
# descent: starts, iteration cap, iterations over which a start's rate is read
N_STARTS = 16
MAX_ITER = 120
WINDOW = 2


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

def _hausdorff(dist: np.ndarray) -> float:
    """Hausdorff distance of two finite sets from their distance matrix:
    the largest row or column minimum.  It bounds the bottleneck value
    below, and for spectra of a normal pair it bounds the orbit distance
    below too; `_shifted_spectra_bound` contains it, at its shifts z on
    the eigenvalues."""
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


def _minimax_labels(dist: np.ndarray, flow: np.ndarray, out: np.ndarray,
                    inn: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column labels max(t, smallest largest edge of a residual path from a
    row with supply left), with the predecessors of the paths that attain
    them: the row before each column and the column before each row (-1 at
    a path's first row).

    Rows reach columns along any edge and columns reach rows back along
    edges that carry flow.  Labels start at t, so paths inside the graph
    {dist <= t} all read t and are found in Bellman-Ford rounds by number
    of edges, shortest first; the rounds stop as soon as a column with
    demand left reads t.  Predecessors change only on a strict decrease,
    so they form a forest rooted at the rows with supply left."""
    k, l = dist.shape
    row = np.where(out > 0, t, inf)
    col = np.full(l, inf)
    row_pred = np.full(k, -1)
    col_pred = np.full(l, -1)
    free = inn > 0
    flow_rows, flow_cols = np.divmod(np.flatnonzero(flow > 0), l)
    changed = np.flatnonzero(out > 0)
    while changed.size:
        open_cols = np.flatnonzero(col > t)
        cand = np.maximum(row[changed, None], dist[changed][:, open_cols])
        best = cand.argmin(axis=0)
        value = cand[best, np.arange(open_cols.size)]
        better = value < col[open_cols]
        cols = open_cols[better]
        if not cols.size:
            break
        col[cols] = value[better]
        col_pred[cols] = changed[best[better]]
        if (col[free] <= t).any():
            break
        # each row's lowest-labelled column among those its flow enters
        order = np.lexsort((col[flow_cols], flow_rows))
        rows, via = flow_rows[order], flow_cols[order]
        first = np.ones(rows.size, dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        rows, via = rows[first], via[first]
        down = col[via] < row[rows]
        changed = rows[down]
        row[changed] = col[via[down]]
        row_pred[changed] = via[down]
    return col, col_pred, row_pred


def _bottleneck(dist: np.ndarray, supply: np.ndarray,
                demand: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest entry r of the k x l matrix `dist` such that
    {(i, j): dist_ij <= r} carries a flow of the integer supplies of the
    rows to the demands of the columns (equal totals), by minimax
    augmenting paths (Gabow-Tarjan 1988), with that flow.

    Every row and column needs an edge, so r is at least the Hausdorff
    distance h, and the threshold t starts there.  First, in rounds, each
    row with supply left proposes to its nearest column with demand left
    within t, and each column takes its first proposer.  Then each search
    labels the residual paths by their largest edge (`_minimax_labels`).
    If no column with demand left is reachable within t, t rises to the
    smallest such label m: the flow is then maximum in {dist < m} and
    incomplete, so r >= m.  Every node-disjoint path to a column with label
    at most t is augmented by its residual capacity: the least of the
    supply left at its first row, the demand left at its last column and
    the flow on its backward edges.  At the end the flow fits within t, so
    t is r, an entry of `dist`, bitwise the value of a threshold search;
    for unit supplies and demands the flow is a permutation matrix, a
    perfect matching inside {dist <= r}.

    Each augmentation ships at least one unit, so a matching (all supplies
    and demands one) takes at most n.  Paths found at one threshold are
    shortest in edges, so as in Edmonds-Karp there are O((k + l) k l)
    augmentations at each threshold value, whatever the masses.
    """
    flow = np.zeros(dist.shape, dtype=np.int64)
    out, inn = supply.astype(np.int64), demand.astype(np.int64)
    t = _hausdorff(dist)
    while out.any():
        rows, cols = np.flatnonzero(out > 0), np.flatnonzero(inn > 0)
        near = dist[rows][:, cols]
        pick = near.argmin(axis=1)
        within = near[np.arange(rows.size), pick] <= t
        if not within.any():
            break
        cols, first = np.unique(cols[pick[within]], return_index=True)
        rows = rows[within][first]
        units = np.minimum(out[rows], inn[cols])
        flow[rows, cols] += units
        out[rows] -= units
        inn[cols] -= units
    while out.any():
        col, col_pred, row_pred = _minimax_labels(dist, flow, out, inn, t)
        free = np.flatnonzero(inn > 0)
        t = max(t, float(col[free].min()))
        used_rows, used_cols = set(), set()
        for sink in free[col[free] <= t].tolist():
            # rows[i] -> cols[i] forward, cols[i + 1] -> rows[i] backward
            rows, cols = [int(col_pred[sink])], [sink]
            while row_pred[rows[-1]] >= 0:
                cols.append(int(row_pred[rows[-1]]))
                rows.append(int(col_pred[cols[-1]]))
            if used_rows.intersection(rows) or used_cols.intersection(cols):
                continue
            used_rows.update(rows)
            used_cols.update(cols)
            units = min(out[rows[-1]], inn[sink], *flow[rows[:-1], cols[1:]].tolist())
            flow[rows, cols] += units
            flow[rows[:-1], cols[1:]] -= units
            out[rows[-1]] -= units
            inn[sink] -= units
    return t, flow


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
    the sorted closed form; complex ones the minimax augmenting paths of
    `_bottleneck`, from a maximum matching at the Hausdorff distance.
    """
    av, bv = _value_pair(a, b)
    if not (av.imag.any() or bv.imag.any()):
        return _sorted_value(av, bv)
    ones = np.ones(av.size, dtype=np.intp)
    return _bottleneck(_distance_matrix(av, bv), ones, ones)[0]


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
    the certified lower bound (delta for Hermitian and unitary pairs; for
    other normal pairs the larger of h and delta / 2.91, or, when that
    leaves the gap open, of the shifted-spectra bound and delta / 2.91);
    `certificate_gap` is value - lower_bound.  Start 0 is the aligned
    unitary: a pair without descent reports start 0 of 1, a descended one
    1 + the battery size of starts, and start 1 + k when battery start k
    of `_starting_unitaries` gave the value."""

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
    there: such a start could not leave the aligned value."""
    if n <= 4:
        perms = _all_perms(n)
    else:
        rng = stream(seed, 1)
        drawn = [np.arange(n - 1, -1, -1)] + [rng.permutation(n) for _ in range(4)]
        perms = [np.arange(n)] + [p for p in drawn if (p != np.arange(n)).any()]
    rng = stream(seed, 2)
    haar = [random_unitary(n, rng).array for _ in range(N_STARTS - len(perms))]
    return np.stack([*np.eye(n, dtype=complex)[perms], *haar])


def _shift_gaps(la: np.ndarray, lb: np.ndarray, z: np.ndarray) -> np.ndarray:
    """max_i | sort|la - z|_i - sort|lb - z|_i | at each shift z."""
    moduli_a = np.sort(np.abs(la[None, :] - z[:, None]), axis=1)
    moduli_b = np.sort(np.abs(lb[None, :] - z[:, None]), axis=1)
    return np.abs(moduli_a - moduli_b).max(axis=1)


def _shifted_spectra_bound(la: np.ndarray, lb: np.ndarray) -> float:
    """A lower bound on inf_u ||a - u b u*|| for normal a, b with spectra
    la, lb: the largest `_shift_gaps` over a fixed set of shifts z.

    ||a - u b u*|| = ||(a - z) - u (b - z) u*||, the singular values of a
    normal a - z are the moduli |la - z|, and Weyl's perturbation theorem
    bounds each difference of sorted singular values by the norm (Bhatia,
    *Matrix Analysis*, ch. III).  The shifts are both spectra, their
    pairwise midpoints and a 31 x 31 grid over [-3R, 3R]^2 (R the largest
    eigenvalue modulus), then four 11 x 11 grids centred on the best shift
    so far: the first spans one step of the coarse grid either way, and
    each later one is ten times finer.  At z on an eigenvalue the
    smallest moduli are 0 and that eigenvalue's distance to the other
    spectrum, so the bound contains the Hausdorff distance h.
    """
    radius = max(np.abs(la).max(), np.abs(lb).max())
    axis = np.linspace(-3 * radius, 3 * radius, 31)
    z = np.concatenate([la, lb, ((la[:, None] + lb[None, :]) / 2).ravel(),
                        (axis[:, None] + 1j * axis[None, :]).ravel()])
    gaps = _shift_gaps(la, lb, z)
    best = int(gaps.argmax())
    centre, bound = z[best], float(gaps[best])
    offsets = np.arange(-5, 6)
    offsets = (offsets[:, None] + 1j * offsets[None, :]).ravel()
    spacing = (axis[1] - axis[0]) / 5
    for _ in range(4):
        z = centre + spacing * offsets
        spacing /= 10
        gaps = _shift_gaps(la, lb, z)
        best = int(gaps.argmax())
        if gaps[best] > bound:
            centre, bound = z[best], float(gaps[best])
    return bound


def unitary_distance(a, b, tol: float = 1e-8, *, seed: int = 0) -> UnitaryDistanceResult:
    """The unitary orbit distance inf ||a - u b u*||, with a unitary attaining it.

    Every pair starts from the aligned closed form: the eigenbases aligned
    along an optimal bottleneck matching of the spectra give u = va P vb*
    (P = 1 on the ascending `eigh` spectra of Hermitian pairs; otherwise
    `_bottleneck` gives delta and the perfect matching inside
    {dist <= delta} it ends with), and its value ||a - u b u*|| is an upper
    bound that equals the matching distance delta up to rounding: any such
    matching gives max_i |lam_i - mu_P(i)| = delta.  The lower bound is
    delta itself for Hermitian (Weyl) and unitary (Bhatia-Davis) pairs,
    where the orbit distance is delta.  For other normal pairs it
    is first max(h, delta / 2.91), with h the Hausdorff distance of the
    spectra (a unit eigenvector x of a with eigenvalue lam gives
    ||a - u b u*|| >= dist(lam, sigma(b))) and 2.91 the Bhatia-Davis-Koosis
    constant; their orbit distance can drop below delta.  If that leaves
    the gap open, the lower bound becomes max(`_shifted_spectra_bound`,
    delta / 2.91), which contains h.  `converged` certifies that
    `certificate_gap` = value - lower_bound is at most `tol`.

    Only normal pairs whose gap stays open under both bounds run
    multi-start descent over the unitary group (`_descend`; `seed` draws
    its random starts) until it closes the gap or no start could beat the
    aligned value at its recent rate; its value replaces the aligned one
    only when lower.  A value below the lower bound beyond rounding raises.
    """
    seed = _integer(seed)
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
        delta, flow = _bottleneck(dist, ones, ones)
        vb = vb[:, flow.argmax(axis=1)]
    u = va @ vb.conj().T
    value = operator_norm(na.array - u @ nb.array @ u.conj().T)
    start_index, n_starts, iterations = 0, 1, 0
    if hermitian or (na.is_unitary and nb.is_unitary):
        lower = delta
    else:
        lower = max(_hausdorff(dist), delta / BDK_CONSTANT)
        if value - lower > tol:
            lower = max(_shifted_spectra_bound(la, lb), delta / BDK_CONSTANT)
        if value - lower > tol:
            found, best_u, best, battery, iterations = _descend(na, nb, lower + tol, value, seed)
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


def _descend(na: NormalMatrix, nb: NormalMatrix, target: float, aligned: float,
             seed: int) -> tuple[float, np.ndarray, int, int, int]:
    """Multi-start descent on u -> ||a - u b u*|| from `_starting_unitaries`.

    Each start follows the negative gradient in the skew-Hermitian
    parametrisation with Armijo backtracking (at most 45 halvings of the
    step).  Only a value below `aligned` is of use, so after k >= `WINDOW`
    iterations a start freezes when value - aligned exceeds its mean
    decrease over the last `WINDOW` times the `MAX_ITER` - k left: at its
    recent rate it could not beat `aligned`.  The norm is nonsmooth at
    singular-value ties, where the gradient need not shrink, so no
    stationarity is tested; the caller judges the value by its lower bound
    alone.  All starts stop once some value reaches `target`, or after
    `MAX_ITER` iterations.  Returns (value, unitary, battery index) of the
    lowest value found, the battery size and the iterations run.
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
    frozen = np.zeros(s, dtype=bool)
    trail = [values.copy()]
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
        values[active], grads[active] = _orbit_gradients(amat, bmat, u[active])
        grad_norms[active] = _norms(grads[active], values[active])
        trail.append(values.copy())
        if iterations >= WINDOW:
            rate = (trail[-1 - WINDOW] - values) / WINDOW
            frozen |= values - aligned > rate * (MAX_ITER - iterations)

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

    Over the common denominator D of all weights (at most 2**63 - 1, the
    int64 range) each atom carries the integer mass w * D, and the value
    is `_bottleneck` over the atom distances with those masses as supplies
    and demands, the routine of `matching_distance`.  The atoms are
    complex numbers and their distances are computed exactly as in
    `matching_distance`, so the two routes are bitwise comparable.
    """
    if mu.space is not None and nu.space is not None and mu.space != nu.space:
        raise IncompatibleSpacesError(f"measures live over {mu.space!r} vs {nu.space!r}")
    denom = lcm(mu.common_denominator(), nu.common_denominator())
    if denom > np.iinfo(np.int64).max:
        raise ValueError(f"common denominator {denom} overflows int64 masses")
    supply = np.array([int(w * denom) for w in mu.weights])
    demand = np.array([int(w * denom) for w in nu.weights])
    dist = _distance_matrix(np.asarray(mu.atoms, dtype=complex),
                            np.asarray(nu.atoms, dtype=complex))
    if not np.isfinite(dist).all():
        raise ValueError("atom distances must be finite: no NaN or infinite values")
    return _bottleneck(dist, supply, demand)[0]


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
