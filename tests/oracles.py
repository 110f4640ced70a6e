"""Independent oracles shared by the test modules.

Everything here deliberately avoids the code paths under test: surjectivity
is decided by enumerating lattice points or maximal minors rather than
Smith forms, determinants come from Bareiss elimination, rank products are
summed one entry at a time, Smith forms are compared with an elimination
whose every step runs full-length, step functions are compared on explicit
rational grids, walks are stepped one state per uniform, towers are
built one `TowerMap` per step and pushed down one stacked batch per level,
and bottleneck values come from a binary search of Dinic flow probes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd

import numpy as np

from cstarlab.cuntz import EXT_INF, ExtNat
from cstarlab.intlinalg import IntMatrix, _bezout, det_bareiss
from cstarlab.rng import stream
from cstarlab.simplex import MeasureScheme, TowerMap
from cstarlab.walk import Barrier, InvalidParamsError, Trajectory, WalkParams


def _flow_fits(adj: np.ndarray, supply: np.ndarray, demand: np.ndarray) -> bool:
    """Does a boolean adjacency carry a flow of the row supplies to the
    column demands?  Dinic's maximum flow (source -> rows -> columns ->
    sink)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    k, l = adj.shape
    sink = k + l + 1
    rows, cols = np.nonzero(adj)
    tail = np.concatenate([np.zeros(k, dtype=np.intp), rows + 1, np.arange(k + 1, sink)])
    head = np.concatenate([np.arange(1, k + 1), cols + k + 1, np.full(l, sink)])
    capacity = np.concatenate([supply, np.minimum(supply[rows], demand[cols]), demand])
    network = csr_matrix((capacity.astype(np.int32), (tail, head)), shape=(sink + 1, sink + 1))
    return maximum_flow(network, 0, sink, method="dinic").flow_value == supply.sum()


def bottleneck_threshold_search(dist: np.ndarray, supply: np.ndarray,
                                demand: np.ndarray) -> float:
    """Smallest entry r of `dist` such that {dist <= r} carries a flow of
    the supplies to the demands: the Hausdorff distance h is probed first,
    then a binary search runs over the distinct entries above it."""
    values = np.unique(dist)
    h = max(dist.min(axis=1).max(), dist.min(axis=0).max())
    lo = int(np.searchsorted(values, h))
    if _flow_fits(dist <= values[lo], supply, demand):
        return float(values[lo])
    hi = len(values) - 1  # admits every pair
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _flow_fits(dist <= values[mid], supply, demand):
            hi = mid
        else:
            lo = mid
    return float(values[hi])


def is_unimodular(m: IntMatrix) -> bool:
    return m.rows == m.cols and abs(det_bareiss(m)) == 1


def surjective_box_search(m: IntMatrix, bound: int) -> bool:
    """Is every unit vector of Z^rows an integer combination of m's columns,
    with coefficients in [-bound, bound]?  (Sound for 'yes'; a 'no' only
    rules out the search box.)"""
    if m.rows == 0:
        return True
    targets = {tuple(1 if i == j else 0 for i in range(m.rows)) for j in range(m.rows)}
    found = set()
    cols = m.cols
    for coeffs in product(range(-bound, bound + 1), repeat=cols):
        image = tuple(sum(m.entry(i, j) * coeffs[j] for j in range(cols))
                      for i in range(m.rows))
        if image in targets:
            found.add(image)
            if found == targets:
                return True
    return False


def surjective_minors_gcd(m: IntMatrix) -> bool:
    """Surjectivity over Z via the classical maximal-minor criterion:
    an r x c matrix is onto Z^r iff the gcd of its r x r minors is 1."""
    if m.rows == 0:
        return True
    if m.cols < m.rows:
        return False
    g = 0
    for cols in combinations(range(m.cols), m.rows):
        sub = IntMatrix.from_rows(
            [[m.entry(i, j) for j in cols] for i in range(m.rows)], cols=m.rows)
        g = gcd(g, abs(det_bareiss(sub)))
        if g == 1:
            return True
    return False


def random_unimodular(rng: np.random.Generator, n: int, steps: int = 12) -> IntMatrix:
    """Product of random elementary row operations: unimodular by construction."""
    a = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.integers(n), rng.integers(n)
        if i == j:
            continue
        k = int(rng.integers(-3, 4))
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
    if rng.random() < 0.5 and n >= 2:
        a[0], a[1] = a[1], a[0]
    return IntMatrix.from_rows(a, cols=n)


def dense_eliminate(a: list[list[int]], rows: int, cols: int) -> tuple[int, ...]:
    """`intlinalg._eliminate` with every row and column step run over whole
    rows and columns, zero entries included: the same pivots, Bezout
    coefficients and operations, so every entry must come out equal."""
    t = 0
    while t < min(rows, cols):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(a[i][j])
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
                    if x == 1:
                        break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        while True:
            refilled = True
            while refilled:
                refilled = False
                for i in range(t + 1, rows):
                    p, b = a[t][t], a[i][t]
                    if b % p == 0:
                        if b:
                            q = b // p
                            a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                        continue
                    g, x, y = _bezout(p, b)
                    pg, bg = p // g, b // g
                    a[t], a[i] = ([x * s + y * r for s, r in zip(a[t], a[i])],
                                  [pg * r - bg * s for s, r in zip(a[t], a[i])])
                for j in range(t + 1, cols):
                    p, b = a[t][t], a[t][j]
                    if b % p == 0:
                        if b:
                            q = b // p
                            for row in a:
                                row[j] -= q * row[t]
                        continue
                    g, x, y = _bezout(p, b)
                    pg, bg = p // g, b // g
                    for row in a:
                        row[t], row[j] = x * row[t] + y * row[j], pg * row[j] - bg * row[t]
                    refilled = True
            d = a[t][t]
            if d == 1:
                break
            offender = next((i for i in range(t + 1, rows)
                             if any(a[i][j] % d for j in range(t + 1, cols))), None)
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
        t += 1
    return tuple(a[i][i] for i in range(min(rows, cols)) if a[i][i])


def dense_smith_form(m: IntMatrix):
    """(U, D, V) entries and the nonzero diagonal from `dense_eliminate` on
    [[m, I], [I, 0]]."""
    r, c = m.rows, m.cols
    a = [row + [int(i == k) for k in range(r)] for i, row in enumerate(m.to_lists())]
    a += [[int(i == j) for j in range(c)] + [0] * r for i in range(c)]
    diagonal = dense_eliminate(a, r, c)
    return (tuple(tuple(row[c:]) for row in a[:r]), tuple(tuple(row[:c]) for row in a[:r]),
            tuple(tuple(row[:c]) for row in a[r:]), diagonal)


def ext_matvec_per_entry(m: IntMatrix, v) -> tuple[ExtNat, ...]:
    """M v summed one entry at a time: k * x is 0 for k = 0 (oo * 0 = 0),
    oo for an infinite x and k * x otherwise; a negative k raises."""
    out = []
    for row in m.entries:
        acc = ExtNat(0)
        for k, x in zip(row, v):
            if k < 0:
                raise ValueError("multiplier must be nonnegative")
            acc = acc + (ExtNat(0) if k == 0 else EXT_INF if x.is_infinite
                         else ExtNat(k * x.value))
        out.append(acc)
    return tuple(out)


def fraction_grid(k: int) -> list[Fraction]:
    """The rational grid {0, 1/k, ..., 1} used to compare step functions."""
    return [Fraction(i, k) for i in range(k + 1)]


def walk_states(params: WalkParams, uniforms: np.ndarray):
    """Stepwise reference walk, yielding one state per uniform: u[0] picks
    the start (the first state whose cumulative weight exceeds it, else the
    last), and a move at 0 is forced but still consumes its uniform."""
    u = uniforms.tolist()
    acc, state = 0.0, params.initial[-1][0]
    for s, w in params.initial:
        acc += w
        if u[0] < acc:
            state = s
            break
    yield state
    reflecting = params.barrier is Barrier.REFLECTING
    for x in u[1:]:
        if state == 0:
            state = 1 if reflecting else 0
        elif x < params.p:
            state += 1
        else:
            state -= 1
        yield state


def capped_sup(states, cap: int) -> tuple[int, bool]:
    """(min(sup, cap + 1), resolved) of an absorbing run cut at its first
    state that is 0 or above `cap`; unresolved if no state is."""
    top = 0
    for s in states:
        top = max(top, s)
        if s == 0 or top > cap:
            return min(top, cap + 1), True
    return min(top, cap + 1), False


def reference_tower(dims, scheme: MeasureScheme, seed: int) -> tuple[TowerMap, ...]:
    """The maps of build_tower(dims, scheme, seed): one collapse drawn per
    rising step in trajectory order from the stream keyed by (seed, 0), the
    face schedule counting visits per dimension."""
    rng = stream(seed)
    visits: dict[int, int] = {}
    maps = []
    for a, b in zip(dims, dims[1:]):
        if b == a - 1:
            maps.append(TowerMap("inclusion"))
            continue
        vec = np.zeros(b)
        if scheme is MeasureScheme.BARYCENTER_POINT_MASS:
            vec[:] = 1.0 / b
        elif scheme is MeasureScheme.UNIFORM_VERTICES:
            vec[int(rng.integers(b))] = 1.0
        else:
            c = visits.get(b, 0)
            visits[b] = c + 1
            top = (b - 1) - (c % b)
            if top == 0:
                vec[0] = 1.0
            else:
                cuts = np.sort(rng.random(top))
                vec[: top + 1] = np.diff(np.concatenate(([0.0], cuts, [1.0])))
        maps.append(TowerMap("collapse", tuple(float(x) for x in vec)))
    return tuple(maps)


def tower_doc(dims, maps, scheme: MeasureScheme | None, seed) -> dict:
    """The documented archive of a tower, as json.loads reads it back."""
    return {
        "dims": list(dims),
        "maps": [{"kind": m.kind} if m.vector is None
                 else {"kind": m.kind, "vector": list(m.vector)} for m in maps],
        "scheme": scheme.value if scheme else None,
        "seed": seed,
    }


def _apply_map(m: TowerMap, batch: np.ndarray) -> np.ndarray:
    """One step down: append a zero coordinate, or fold the last one onto
    the base along the collapse vector."""
    if m.kind == "inclusion":
        return np.hstack([batch, np.zeros((batch.shape[0], 1))])
    return batch[:, :-1] + np.outer(batch[:, -1], np.asarray(m.vector))


def reference_pushdown(maps, level_j: int, point: np.ndarray, level_m: int) -> np.ndarray:
    """A level-j point pushed to level m one map at a time."""
    batch = np.asarray(point, dtype=float)[None, :]
    for lev in range(level_j, level_m, -1):
        batch = _apply_map(maps[lev - 1], batch)
    return batch[0]


def reference_top_vertex_images(dims, maps, level_m: int) -> np.ndarray:
    """Top vertices of the levels above m pushed to level m: stack each
    level's top vertex under the batch, then apply that level's map."""
    batch = np.zeros((0, dims[-1] + 1))
    for lev in range(len(dims) - 1, level_m, -1):
        top = np.zeros((1, dims[lev] + 1))
        top[0, -1] = 1.0
        batch = _apply_map(maps[lev - 1], np.vstack([batch, top]))
    return batch


def check_trajectory(traj: Trajectory, barrier: Barrier) -> None:
    """Raise if the state sequence is impossible under the given barrier."""
    for a, b in zip(traj.states, traj.states[1:]):
        if a == 0:
            if barrier is Barrier.REFLECTING and b != 1:
                raise InvalidParamsError("reflecting walk must step 0 -> 1")
            if barrier is Barrier.ABSORBING and b != 0:
                raise InvalidParamsError("absorbing walk must stay at 0")
        elif abs(a - b) != 1:
            raise InvalidParamsError(f"interior steps must move by one, got {a} -> {b}")


def barycentric_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Halved l1 distance; vertex-to-vertex distance is 1."""
    return 0.5 * float(np.abs(np.asarray(x) - np.asarray(y)).sum())
