"""Finite truncations of random projective systems of simplices.

A tower records a dimension trajectory d_0, d_1, ... (steps of +-1) together
with one affine map per step, pointing *down* the tower: when the dimension
drops the map is the base-face inclusion, and when it rises the map is a
collapse that fixes the base and sends the new top vertex to a stored point
of the base.  Collapse points are drawn from one of three measures:

* ``BARYCENTER_POINT_MASS`` -- the point mass at the barycentre of the base;
* ``UNIFORM_VERTICES``      -- uniform over the base's vertices;
* ``LEBESGUE_FACES``        -- Lebesgue measure on a face of the base, the
  face cycling through base >= next face >= ... >= first vertex on
  successive collapses into the same dimension (see `draw_collapse`).

A `SimplexTower` stores its dimensions and one read-only float64 array
`coords` holding every collapse vector in step order; the int64 array
`offsets` gives step i the slice coords[offsets[i]:offsets[i + 1]], which
is empty for an inclusion.  One constructor lays out, copies, checks and
freezes every tower: `build_tower` hands it the buffer its draws were
written into, `truncate` returns a checked copy, and no object is kept per
step.  The archive, pushdown and covering-radius code read slices of
`coords`, the last in one fold down the tower that serves several levels;
`maps` presents the same data as `TowerMap` objects on demand.

Distances between barycentric vectors use the halved l1 metric, so two
vertices are at distance exactly 1.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from math import comb
from typing import Sequence

import numpy as np

from .rng import _integer, stream
from .walk import Trajectory

BARYCENTRIC_TOL = 1e-12


class InvalidTrajectoryError(ValueError):
    """The dimension sequence cannot drive a tower (non +-1 steps)."""


class DimensionMismatchError(ValueError):
    """A point or level index does not fit the tower's dimensions."""


class MeasureScheme(enum.Enum):
    BARYCENTER_POINT_MASS = "barycenter"
    UNIFORM_VERTICES = "vertices"
    LEBESGUE_FACES = "faces"


def is_barycentric(vec: np.ndarray, tol: float = BARYCENTRIC_TOL) -> bool:
    vec = np.asarray(vec, dtype=float)
    return vec.ndim == 1 and vec.size >= 1 and bool(
        np.all(vec >= -tol) and abs(float(vec.sum()) - 1.0) <= tol)


def _uniform_on_face(top_vertex: int, out: np.ndarray, rng: np.random.Generator) -> None:
    """Write a Lebesgue-uniform point of conv{e_0, ..., e_top_vertex} into
    the zeroed vector `out`, drawing top_vertex uniforms (none for a vertex).

    Sorted-uniform spacings: the gaps of top_vertex sorted uniforms in [0,1]
    are exactly Dirichlet(1, ..., 1), i.e. uniform on the face.
    """
    if top_vertex == 0:
        out[0] = 1.0
        return
    cuts = rng.random(top_vertex)
    cuts.sort()
    out[0] = cuts[0]
    np.subtract(cuts[1:], cuts[:-1], out=out[1:top_vertex])
    out[top_vertex] = 1.0 - cuts[-1]


def face_top_vertex(n: int, visit_index: int) -> int:
    """Top vertex of the face sampled on the visit_index-th collapse into dimension n.

    The base of that collapse has vertices e_0 .. e_{n-1}; successive visits
    cycle through the faces with top vertex n-1, n-2, ..., 0 and wrap.
    """
    n = _integer(n, "dimensions must be integers")
    visit_index = _integer(visit_index, "visit indices must be integers")
    if n < 1:
        raise ValueError("collapses exist only into dimension >= 1")
    if visit_index < 0:
        raise ValueError("visit index must be nonnegative")
    return (n - 1) - (visit_index % n)


def draw_collapse(scheme: MeasureScheme, n: int, visit_index: int,
                  rng: np.random.Generator, out: np.ndarray | None = None) -> np.ndarray:
    """Draw the image of the new top vertex for a collapse into dimension n.

    The result is a barycentric point of the base (length n).  For n = 1 the
    base is a single point and every scheme returns (1.0,).  `visit_index`
    only matters for the Lebesgue-faces scheme, which selects the target
    face per `face_top_vertex`; the other schemes still consume their draws
    so streams stay aligned across schemes of the same shape.  The point is
    written into `out`, a zeroed length-n vector, when one is given.
    """
    if n < 1:
        raise ValueError("collapses exist only into dimension >= 1")
    if out is None:
        out = np.zeros(n)
    if scheme is MeasureScheme.BARYCENTER_POINT_MASS:
        out.fill(1.0 / n)
    elif scheme is MeasureScheme.UNIFORM_VERTICES:
        out[int(rng.integers(n))] = 1.0
    elif scheme is MeasureScheme.LEBESGUE_FACES:
        _uniform_on_face(face_top_vertex(n, visit_index), out, rng)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return out


@dataclass(frozen=True)
class TowerMap:
    """One step's map, pointing from level i+1 down to level i."""

    kind: str  # "inclusion" | "collapse"
    vector: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("inclusion", "collapse"):
            raise ValueError(f"unknown map kind {self.kind!r}")
        if (self.kind == "collapse") != (self.vector is not None):
            raise ValueError("collapse maps carry a vector, inclusions do not")
        if self.vector is not None and not is_barycentric(np.array(self.vector)):
            raise ValueError("collapse vector must be barycentric")


_INCLUSION = TowerMap("inclusion")


def _layout(dims: Sequence[int]) -> tuple[tuple[int, ...], np.ndarray]:
    """Checked dimensions and the offsets of their collapse vectors.

    Step i is a collapse exactly when the dimension rises; its vector has
    dims[i + 1] coordinates and sits at coords[offsets[i]:offsets[i + 1]].
    An inclusion owns the empty slice.
    """
    d = np.asarray(dims)
    if d.size == 0:
        raise InvalidTrajectoryError("a tower needs at least one level")
    if d.ndim != 1 or d.dtype.kind not in "iu" or d.min() < 0:
        raise InvalidTrajectoryError("dimensions must be a sequence of integers >= 0")
    steps = np.diff(d)
    bad = np.flatnonzero(np.abs(steps) != 1)
    if bad.size:
        i = int(bad[0])
        raise InvalidTrajectoryError(f"dimension step {d[i]} -> {d[i + 1]} is not +-1")
    lengths = np.where(steps > 0, d[1:], 0)
    offsets = np.zeros(d.size, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return tuple(d.tolist()), offsets


def _collapses(offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length in coords of every collapse vector, in step order."""
    lengths = np.diff(offsets)
    return offsets[:-1][lengths > 0], lengths[lengths > 0]


def _check_coords(coords: np.ndarray, offsets: np.ndarray) -> None:
    """Every collapse vector must be barycentric to BARYCENTRIC_TOL."""
    if coords.shape != (offsets[-1],):
        raise InvalidTrajectoryError(
            f"need {offsets[-1]} collapse coordinates, got shape {coords.shape}")
    starts, _ = _collapses(offsets)
    if not starts.size:
        return
    ok = np.abs(np.add.reduceat(coords, starts) - 1.0) <= BARYCENTRIC_TOL
    ok &= np.logical_and.reduceat(coords >= -BARYCENTRIC_TOL, starts)
    if not ok.all():
        step = int(np.searchsorted(offsets, starts[np.argmin(ok)], side="right")) - 1
        raise ValueError(f"collapse vector at step {step} must be barycentric")


@dataclass(frozen=True, eq=False)
class SimplexTower:
    """A truncated projective system: dims[i] is the simplex dimension at level i.

    Step i sends level i+1 to level i; it is an inclusion exactly when the
    dimension drops by one and a collapse exactly when it rises by one.
    All collapse vectors live in one read-only float64 array `coords`, in
    step order: the vector of step i is coords[offsets[i]:offsets[i + 1]],
    empty for an inclusion.  The constructor, the one path to a tower,
    derives `offsets` from `dims`, copies `coords`, checks every collapse
    vector is barycentric to BARYCENTRIC_TOL and makes both read-only, and
    stores the seed as None or an int (by the integer rule of `rng`).
    `maps` presents the same data as TowerMap objects on first access.
    """

    dims: tuple[int, ...]
    coords: np.ndarray = ()
    scheme: MeasureScheme | None = None
    seed: int | None = None
    offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dims, offsets = _layout(self.dims)
        try:
            coords = np.array(self.coords, dtype=float)
        except OverflowError:
            raise ValueError("collapse coordinates must be finite floats") from None
        _check_coords(coords, offsets)
        if self.seed is not None:
            object.__setattr__(self, "seed", _integer(self.seed, "a tower seed is an int or None"))
        coords.flags.writeable = False
        offsets.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "offsets", offsets)

    def __eq__(self, other):
        if not isinstance(other, SimplexTower):
            return NotImplemented
        return (self.dims == other.dims and self.scheme == other.scheme
                and self.seed == other.seed and np.array_equal(self.coords, other.coords))

    def __hash__(self):
        return hash((self.dims, self.scheme, self.seed))

    def __len__(self) -> int:
        return len(self.dims)

    @property
    def top_level(self) -> int:
        return len(self.dims) - 1

    @cached_property
    def maps(self) -> tuple[TowerMap, ...]:
        """One TowerMap per step, read off `coords` on first access."""
        off = self.offsets.tolist()
        values = self.coords.tolist()
        return tuple(TowerMap("collapse", tuple(values[a:b])) if b > a else _INCLUSION
                     for a, b in zip(off, off[1:]))

    def truncate(self, last_level: int) -> "SimplexTower":
        last_level = _integer(last_level, "tower levels must be integers")
        if last_level < 0:
            raise InvalidTrajectoryError("a tower needs at least one level")
        last_level = min(last_level, self.top_level)
        return SimplexTower(self.dims[: last_level + 1], self.coords[: self.offsets[last_level]],
                            self.scheme, self.seed)

    def to_json(self) -> str:
        """The bytes of json.dumps(doc, sort_keys=True) for the documented doc.

        One string writer builds the document.  Coordinates are written with
        float repr, as the json encoder does (they are finite: the
        constructor checks them).  When most coordinates repeat their left
        neighbour bit for bit (the barycentre rows, the zeros of vertex
        rows), each run of equal coordinates is repr'd once and repeated;
        otherwise each coordinate is repr'd.
        """
        bits = self.coords.view(np.int64)
        repeats = bits[1:] == bits[:-1]
        off = self.offsets.tolist()
        scheme = self.scheme.value if self.scheme else None
        if 2 * np.count_nonzero(repeats) <= bits.size:
            texts = list(map(repr, self.coords.tolist()))
        else:
            fresh = np.concatenate(([True], ~repeats))
            heads = np.array(list(map(repr, self.coords[fresh].tolist())), dtype=object)
            texts = heads[np.cumsum(fresh) - 1].tolist()
        rows = ", ".join('{"kind": "collapse", "vector": [' + ", ".join(texts[a:b]) + "]}"
                         if b > a else '{"kind": "inclusion"}' for a, b in zip(off, off[1:]))
        return "".join(['{"dims": ', json.dumps(self.dims), ', "maps": [', rows,
                        '], "scheme": ', json.dumps(scheme),
                        ', "seed": ', json.dumps(self.seed, sort_keys=True), "}"])

    @classmethod
    def from_json(cls, text: str) -> "SimplexTower":
        """Read the document `to_json` writes; one of another shape raises ValueError."""
        doc = json.loads(text)
        if not (isinstance(doc, dict) and isinstance(doc.get("maps"), list)
                and isinstance(doc.get("dims"), list) and all(type(d) is int for d in doc["dims"])):
            raise ValueError("a tower document is an object with a list of maps and of int dims")
        maps = doc["maps"]
        for i, m in enumerate(maps):
            if not isinstance(m, dict) or m.get("kind") not in ("inclusion", "collapse"):
                raise ValueError(f"unknown map at step {i}: {m!r}")
            if (m["kind"] == "collapse") != isinstance(m.get("vector"), list):
                raise ValueError("collapse maps carry a vector, inclusions do not")
        dims, offsets = _layout(doc["dims"])
        if len(maps) != len(dims) - 1:
            raise InvalidTrajectoryError("need exactly one map per step")
        lengths = np.diff(offsets)
        wrong = np.flatnonzero(lengths != [len(m.get("vector", ())) for m in maps])
        if wrong.size:
            i = int(wrong[0])
            expected = "collapse" if lengths[i] else "inclusion"
            if maps[i]["kind"] != expected:
                raise InvalidTrajectoryError(f"map {i} should be a {expected}")
            raise InvalidTrajectoryError(
                f"collapse vector at step {i} must have length {lengths[i]}")
        coords = list(chain.from_iterable(m["vector"] for m in maps if "vector" in m))
        if not set(map(type, coords)) <= {int, float}:
            raise ValueError("collapse coordinates must be JSON numbers")
        scheme = MeasureScheme(doc["scheme"]) if doc.get("scheme") else None
        return cls(dims, coords, scheme, doc.get("seed"))


def build_tower(trajectory: Trajectory | Sequence[int], scheme: MeasureScheme,
                seed: int) -> SimplexTower:
    """Assemble the tower driven by a +-1 dimension trajectory.

    Collapse draws come from the stream keyed by (seed, 0), consumed in
    trajectory order by `draw_collapse`; each dimension keeps its own visit
    counter for the faces schedule, so the tower is a pure function of its
    arguments.  Draws are written straight into `coords`.
    """
    states = trajectory.states if isinstance(trajectory, Trajectory) else trajectory
    dims, offsets = _layout(states)
    starts, lengths = _collapses(offsets)
    coords = np.zeros(offsets[-1])
    rng = stream(seed)
    visits: dict[int, int] = {}
    for a, n in zip(starts.tolist(), lengths.tolist()):
        c = visits.get(n, 0)
        visits[n] = c + 1
        draw_collapse(scheme, n, c, rng, coords[a: a + n])
    return SimplexTower(dims, coords, scheme, seed)


def pushdown(tower: SimplexTower, level_j: int, point: np.ndarray, level_m: int) -> np.ndarray:
    """Image of a level-j point at level m <= j under the composed tower maps."""
    level_j = _integer(level_j, "tower levels must be integers")
    level_m = _integer(level_m, "tower levels must be integers")
    if not (0 <= level_m <= level_j <= tower.top_level):
        raise DimensionMismatchError(
            f"need 0 <= m <= j <= {tower.top_level}, got m={level_m}, j={level_j}")
    point = np.asarray(point, dtype=float)
    if point.shape != (tower.dims[level_j] + 1,):
        raise DimensionMismatchError(
            f"point has {point.shape} coordinates, level {level_j} needs "
            f"{tower.dims[level_j] + 1}")
    if not is_barycentric(point, tol=1e-9):
        raise DimensionMismatchError("point is not barycentric")
    off = tower.offsets.tolist()
    for lev in range(level_j, level_m, -1):
        a, b = off[lev - 1], off[lev]
        if a == b:
            point = np.append(point, 0.0)
        else:
            point = point[:-1] + point[-1] * tower.coords[a:b]
    return point


def barycentric_grid(dim: int, resolution: int = 8) -> np.ndarray:
    """All barycentric vectors on Delta_dim with coordinates in multiples of 1/resolution."""
    if resolution < 1:
        raise ValueError(f"grid resolution must be >= 1, got {resolution}")
    count = comb(resolution + dim, dim)
    if count > 500_000:
        raise ValueError(f"grid with {count} points is too large; use a lower level")
    # compositions of `resolution` into dim+1 parts via stars and bars: the
    # parts are the gaps between dim bars among resolution+dim slots
    bars = np.fromiter(chain.from_iterable(combinations(range(resolution + dim), dim)),
                       dtype=np.int64, count=count * dim).reshape(count, dim)
    return (np.diff(bars, axis=1, prepend=-1, append=resolution + dim) - 1) / resolution


def _window_images(tower: SimplexTower, windows: dict[int, int]) -> dict[int, np.ndarray]:
    """Images at each level m of the top vertices of levels windows[m] .. m+1.

    One fold down from the highest window end (the top, for windows past it)
    in one (levels x width) buffer: row r, the image of level high - r's top
    vertex, is added as the sweep reaches that level.  A collapse folds the
    live rows' last column onto the base and clears it; an inclusion appends
    the zero column the cleared buffer holds.  A level's rows are copied out
    as the sweep passes it; rows above every window still to read are no
    longer added or folded.  Rows fold alone, so images ignore other levels.
    """
    if min(windows) < 0 or max(windows) > tower.top_level:
        raise DimensionMismatchError(f"levels {sorted(windows)} reach outside the tower")
    ends = {m: min(w, tower.top_level) for m, w in windows.items()}
    dims, off, coords = tower.dims, tower.offsets.tolist(), tower.coords
    low, high = min(ends), max(ends.values())
    buf = np.zeros((high - low, max(dims[low: high + 1]) + 1))
    images, live = {}, 0
    for r, lev in enumerate(range(high, low - 1, -1)):
        if lev in ends:
            images[lev] = buf[high - ends[lev]: r, : dims[lev] + 1].copy()
            live = high - max((w for m, w in ends.items() if m < lev), default=low - 1)
        if r < live:
            continue
        last = dims[lev]
        buf[r, last] = 1.0
        a, b = off[lev - 1], off[lev]
        if b > a:
            block = buf[live: r + 1]
            block[:, :last] += block[:, last, None] * coords[a:b]
            block[:, last] = 0.0
    return images


def top_vertex_images(tower: SimplexTower, level_m: int) -> np.ndarray:
    """Images at level m of the top vertices of every level above m, top first."""
    level_m = _integer(level_m, "tower levels must be integers")
    return _window_images(tower, {level_m: tower.top_level})[level_m]


def _grid_radius(pts: np.ndarray, dim: int) -> float:
    """How far the 1/8-grid of Delta_dim can be from `pts` (its vertices if none)."""
    if pts.shape[0] == 0:
        pts = np.eye(dim + 1)
    grid = barycentric_grid(dim)
    radius = 0.0
    chunk = 4096
    for lo in range(0, grid.shape[0], chunk):
        block = grid[lo: lo + chunk]
        dists = 0.5 * np.abs(block[:, None, :] - pts[None, :, :]).sum(axis=2)
        radius = max(radius, float(dists.min(axis=1).max()))
    return radius


def covering_radius(tower: SimplexTower, level_m: int) -> float:
    """How far the 1/8-grid of the level-m simplex can be from the top-vertex
    images of all levels above m (from its vertices, when m is the top level)."""
    return _grid_radius(top_vertex_images(tower, level_m), tower.dims[level_m])
