import itertools
import json

import numpy as np
import pytest

from cstarlab.rng import stream
from cstarlab.simplex import (
    BARYCENTRIC_TOL,
    DimensionMismatchError,
    InvalidTrajectoryError,
    MeasureScheme,
    SimplexTower,
    TowerMap,
    _window_images,
    barycentric_grid,
    build_tower,
    covering_radius,
    draw_collapse,
    face_top_vertex,
    is_barycentric,
    pushdown,
    top_vertex_images,
)
from cstarlab.walk import WalkParams, sample_trajectory
from oracles import (
    barycentric_distance,
    reference_pushdown,
    reference_top_vertex_images,
    reference_tower,
    tower_doc,
)

SCHEMES = list(MeasureScheme)


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def trajectories():
    """Rising, falling and walk-driven dimension sequences, lengths 1 upward."""
    yield [0]
    yield [3]
    yield [0, 1]
    yield [2, 1]
    yield list(range(40))
    yield list(range(12, -1, -1))
    yield [4, 5, 6, 5, 4, 3, 4, 5, 6, 7, 6]
    for p, length, seed in [(0.3, 150, 1), (0.5, 300, 2), (0.6, 41, 3),
                            (0.7, 400, 4), (0.8, 250, 5)]:
        yield list(sample_trajectory(WalkParams.point(p), length, seed).states)


class TestDrawCollapse:
    def test_barycenter_is_deterministic(self):
        rng = stream(0)
        vec = draw_collapse(MeasureScheme.BARYCENTER_POINT_MASS, 3, 0, rng)
        assert np.allclose(vec, [1 / 3, 1 / 3, 1 / 3])
        assert vec.shape == (3,)

    def test_base_point_case(self):
        rng = stream(0)
        for scheme in SCHEMES:
            assert draw_collapse(scheme, 1, 0, rng).tolist() == [1.0]

    def test_vertices_hits_both_with_equal_frequency(self):
        rng = stream(1)
        draws = np.array([draw_collapse(MeasureScheme.UNIFORM_VERTICES, 2, 0, rng)
                          for _ in range(10_000)])
        assert set(np.unique(draws)) == {0.0, 1.0}
        freq = draws[:, 0].mean()
        sigma = 0.5 / np.sqrt(10_000)
        assert abs(freq - 0.5) < 3 * sigma

    def test_faces_schedule_cycles(self):
        # collapses into dimension 4 draw in the base on faces of top vertex
        # 3, 2, 1, 0, 3, ... as visits accumulate
        assert [face_top_vertex(4, v) for v in range(6)] == [3, 2, 1, 0, 3, 2]
        rng = stream(2)
        for visit, expected_top in [(0, 3), (1, 2), (2, 1), (3, 0)]:
            vec = draw_collapse(MeasureScheme.LEBESGUE_FACES, 4, visit, rng)
            assert vec.shape == (4,)
            assert is_barycentric(vec)
            assert np.all(vec[expected_top + 1:] == 0.0)

    @pytest.mark.parametrize("n, visit", [(2.5, 1), (4, 1.0), (True, 0), (4, np.True_),
                                          ("4", 1)])
    def test_faces_schedule_takes_integers_only(self, n, visit):
        # face_top_vertex(2.5, 1) once returned 0.5
        with pytest.raises(ValueError, match="must be integers"):
            face_top_vertex(n, visit)
        assert face_top_vertex(np.int64(4), np.uint8(5)) == face_top_vertex(4, 5) == 2

    def test_faces_full_face_mean_is_barycenter(self):
        # sorted-uniform spacings are uniform on the simplex, whose mean is
        # the barycenter by symmetry
        rng = stream(3)
        draws = np.array([draw_collapse(MeasureScheme.LEBESGUE_FACES, 3, 0, rng)
                          for _ in range(100_000)])
        assert np.abs(draws.mean(axis=0) - 1 / 3).max() < 0.01

    def test_all_schemes_barycentric(self):
        rng = stream(4)
        for scheme in SCHEMES:
            for n in range(1, 7):
                for visit in range(n + 2):
                    assert is_barycentric(draw_collapse(scheme, n, visit, rng))

    def test_out_slice_gets_the_same_draw(self):
        for scheme in SCHEMES:
            for n in range(1, 6):
                for visit in range(n + 1):
                    buf = np.zeros(n + 4)
                    vec = draw_collapse(scheme, n, visit, stream(n), buf[2: 2 + n])
                    assert np.shares_memory(vec, buf)
                    assert buf.tobytes() == np.concatenate(
                        ([0.0, 0.0], draw_collapse(scheme, n, visit, stream(n)),
                         [0.0, 0.0])).tobytes()

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            draw_collapse(MeasureScheme.BARYCENTER_POINT_MASS, 0, 0, stream(0))
        with pytest.raises(ValueError, match="dimension >= 1"):
            face_top_vertex(0, 0)
        with pytest.raises(ValueError, match="visit index must be nonnegative"):
            face_top_vertex(2, -1)
        with pytest.raises(ValueError, match="unknown scheme"):
            draw_collapse("faces", 2, 0, stream(0))


class TestBuildTower:
    def test_single_collapse_to_point(self):
        for scheme in SCHEMES:
            tower = build_tower([0, 1], scheme, seed=5)
            assert tower.maps[0] == TowerMap("collapse", (1.0,))

    def test_shapes_forced_by_steps(self):
        tower = build_tower([0, 1, 0], MeasureScheme.UNIFORM_VERTICES, seed=5)
        assert [m.kind for m in tower.maps] == ["collapse", "inclusion"]

    def test_barycenter_second_collapse(self):
        tower = build_tower([0, 1, 2], MeasureScheme.BARYCENTER_POINT_MASS, seed=5)
        assert tower.maps[1] == TowerMap("collapse", (0.5, 0.5))

    def test_deterministic_in_seed(self):
        traj = sample_trajectory(WalkParams.point(0.7), 200, 8)
        t1 = build_tower(traj, MeasureScheme.LEBESGUE_FACES, seed=9)
        t2 = build_tower(traj, MeasureScheme.LEBESGUE_FACES, seed=9)
        t3 = build_tower(traj, MeasureScheme.LEBESGUE_FACES, seed=10)
        assert t1 == t2
        assert t1 != t3

    def test_rejects_bad_steps(self):
        with pytest.raises(InvalidTrajectoryError):
            build_tower([0, 2], MeasureScheme.UNIFORM_VERTICES, seed=0)
        with pytest.raises(InvalidTrajectoryError):
            build_tower([0, 0], MeasureScheme.UNIFORM_VERTICES, seed=0)
        with pytest.raises(InvalidTrajectoryError, match="at least one level"):
            build_tower([0, 1], MeasureScheme.UNIFORM_VERTICES, seed=0).truncate(-1)

    def test_json_roundtrip(self):
        traj = sample_trajectory(WalkParams.point(0.6), 60, 3)
        tower = build_tower(traj, MeasureScheme.LEBESGUE_FACES, seed=1)
        assert SimplexTower.from_json(tower.to_json()) == tower


class TestFlatTowerAgainstReference:
    """build_tower, the archive and the pushed-down batches agree bitwise
    with the per-map construction in tests/oracles.py."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_build_matches_per_collapse_draws(self, scheme):
        for k, dims in enumerate(trajectories()):
            tower = build_tower(dims, scheme, seed=100 + k)
            ref = reference_tower(dims, scheme, 100 + k)
            assert tower.dims == tuple(dims)
            assert tower.maps == ref
            assert bits(tower.coords) == bits([x for m in ref if m.vector for x in m.vector])
            assert tower.offsets.tolist() == np.cumsum(
                [0] + [len(m.vector or ()) for m in ref]).tolist()

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_archive_is_the_documented_json(self, scheme):
        for k, dims in enumerate(trajectories()):
            tower = build_tower(dims, scheme, seed=200 + k)
            text = tower.to_json()
            doc = tower_doc(dims, reference_tower(dims, scheme, 200 + k), scheme, 200 + k)
            assert text == json.dumps(doc, sort_keys=True)
            back = SimplexTower.from_json(text)
            assert back == tower
            assert bits(back.coords) == bits(tower.coords)
            assert back.to_json() == text

    @pytest.mark.parametrize("vectors, repeats", [
        # -0.0 among zeros, in a tower where most coordinates repeat their
        # left neighbour bit for bit
        ([[1.0]] + [[0.0] * (n - 1) + [1.0] for n in range(2, 6)]
         + [[0.0, 0.0, -0.0, 0.0, 1.0, 0.0], [0.0] * 6 + [1.0], [-0.0] * 7 + [1.0]], True),
        # -0.0 among distinct values
        ([[1.0], [0.25, 0.75], [0.125, -0.0, 0.875], [0.1, 0.2, 0.3, 0.4],
          [0.5, 0.0625, 0.125, 0.25, 0.0625], [0.05, 0.15, 0.2, 0.1, 0.3, 0.2],
          [0.3, 0.1, 0.2, 0.05, 0.15, 0.125, 0.075], [0.5, 0.25, 0.0625, 0.0625, 0.03125, 0.03125, 0.0625, 0.0]], False),
        # single-coordinate and constant rows
        ([[1.0] * 1] + [[1 / n] * n for n in range(2, 9)], True),
    ])
    def test_hand_written_archives_round_trip(self, vectors, repeats):
        dims = list(range(len(vectors) + 1)) + [len(vectors) - 1, len(vectors) - 2]
        flat = np.array([x for v in vectors for x in v])
        same = flat[1:].view(np.int64) == flat[:-1].view(np.int64)
        assert (2 * np.count_nonzero(same) > flat.size) == repeats
        maps = [TowerMap("collapse", tuple(v)) for v in vectors]
        maps += [TowerMap("inclusion"), TowerMap("inclusion")]
        for seed in (None, 7):
            text = json.dumps(tower_doc(dims, maps, None, seed), sort_keys=True)
            tower = SimplexTower.from_json(text)
            assert tower.maps == tuple(maps)
            assert tower.to_json() == text
            assert bits(tower.coords) == bits(flat)
        # an archived seed is an int or null; a structured one is refused
        with pytest.raises(ValueError, match="seed"):
            SimplexTower.from_json(json.dumps(tower_doc(dims, maps, None, {"b": 1, "a": [2, 3]})))

    def test_constructor_checks_every_collapse(self):
        assert SimplexTower((0, 1, 0), [1.0]).maps == (TowerMap("collapse", (1.0,)),
                                                       TowerMap("inclusion"))
        with pytest.raises(InvalidTrajectoryError):
            SimplexTower((0, 1, 2), [1.0])
        with pytest.raises(InvalidTrajectoryError):
            SimplexTower((0, 2), [0.5, 0.5])
        with pytest.raises(InvalidTrajectoryError):
            SimplexTower((-1, 0), [])
        with pytest.raises(ValueError):
            SimplexTower((0, 1, 2), [1.0, 0.6, 0.6])
        with pytest.raises(ValueError):
            SimplexTower((0, 1, 2), [1.0, -0.1, 1.1])

    def test_constructor_stores_int_seeds(self):
        # an index-like seed is stored as a Python int, so its archive is
        # written and read back; bools and every other value are refused
        for seed in (5, np.int64(5), np.uint64(5)):
            tower = build_tower([0, 1, 2, 1], MeasureScheme.LEBESGUE_FACES, seed)
            assert type(tower.seed) is int and tower.seed == 5
            assert SimplexTower.from_json(tower.to_json()) == tower
        for seed in (True, np.True_, {"a": 1}, "5", 5.0, [5]):
            with pytest.raises(ValueError, match="seed"):
                SimplexTower((0, 1, 0), [1.0], seed=seed)

    def test_constructor_refuses_coordinates_beyond_floats(self):
        # an int past the float range once escaped as OverflowError
        for dims, coords in [((0, 1), [10**400]), ((0, 1, 2), [1.0, 10**400, -10**400])]:
            with pytest.raises(ValueError, match="finite floats"):
                SimplexTower(dims, coords)

    def test_from_json_rejects_malformed_maps(self):
        good = tower_doc([0, 1, 2, 1], [TowerMap("collapse", (1.0,)),
                                        TowerMap("collapse", (0.5, 0.5)),
                                        TowerMap("inclusion")], None, 1)
        SimplexTower.from_json(json.dumps(good))
        for i, bad in [(1, {"kind": "inclusion"}), (2, {"kind": "collapse", "vector": [1.0]}),
                       (1, {"kind": "collapse", "vector": [1.0]}),
                       (1, {"kind": "collapse", "vector": [0.7, 0.7]}),
                       (0, {"kind": "twist"}), (2, {"kind": "inclusion", "vector": []}),
                       (0, {"kind": "collapse", "vector": ["1.0"]}),
                       (0, {"kind": "collapse", "vector": [True]}),
                       (1, {"kind": "collapse", "vector": [10**400, 0]})]:
            doc = json.loads(json.dumps(good))
            doc["maps"][i] = bad
            with pytest.raises(ValueError):
                SimplexTower.from_json(json.dumps(doc))
        # documents that are no tower object, dims that are no JSON ints and
        # seeds that are neither an int nor null
        docs = [5, [], {"dims": [0, 1, 2, 1]}, {"maps": []}, {**good, "maps": 3},
                {**good, "dims": "0121"}]
        docs += [{**good, "maps": [5, *good["maps"][1:]]},
                 {**good, "maps": [{"vector": [1.0]}, *good["maps"][1:]]},
                 {**good, "maps": [{"kind": "collapse", "vector": 1.0}, *good["maps"][1:]]}]
        docs += [{**good, "dims": dims} for dims in ([0, 1.9, 2, 1], [0, "1", 2, 1],
                                                     [0, True, 2, 1], [0, 1, 2, None])]
        docs += [{**good, "seed": seed} for seed in ("x", 1.5, True, [1])]
        docs += [{**good, "maps": good["maps"][:-1]}]
        for doc in docs:
            with pytest.raises(ValueError):
                SimplexTower.from_json(json.dumps(doc))
        # the map constructor refuses the same shapes
        for kind, vector in [("twist", None), ("collapse", None), ("inclusion", (1.0,)),
                             ("collapse", (0.7, 0.7))]:
            with pytest.raises(ValueError):
                TowerMap(kind, vector)
        assert SimplexTower.from_json(json.dumps({**good, "seed": None})).seed is None

    def test_truncate_is_a_prefix(self):
        dims = list(sample_trajectory(WalkParams.point(0.6), 120, 9).states)
        tower = build_tower(dims, MeasureScheme.LEBESGUE_FACES, 9)
        for last in (0, 1, 57, tower.top_level, tower.top_level + 5):
            cut = tower.truncate(last)
            assert cut == build_tower(dims[: last + 1], MeasureScheme.LEBESGUE_FACES, 9)
            assert cut.maps == tower.maps[:last]

    def test_every_construction_path_is_read_only(self):
        source = np.array([1.0, 0.25, 0.75])
        direct = SimplexTower((0, 1, 2, 1), source)
        source[:] = 0.0
        assert direct.coords.tolist() == [1.0, 0.25, 0.75]
        dims = list(sample_trajectory(WalkParams.point(0.6), 80, 4).states)
        built = build_tower(dims, MeasureScheme.LEBESGUE_FACES, 4)
        for tower in (direct, built, built.truncate(30), built.truncate(0),
                      SimplexTower.from_json(built.to_json())):
            for array in (tower.coords, tower.offsets):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[:1] = 0

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_pushdown_matches_map_by_map(self, scheme):
        rng = stream(17)
        for k, dims in enumerate(trajectories()):
            tower = build_tower(dims, scheme, seed=400 + k)
            ref_maps = reference_tower(dims, scheme, 400 + k)
            for _ in range(4):
                m, j = sorted(int(x) for x in rng.integers(len(dims), size=2))
                point = rng.dirichlet(np.ones(dims[j] + 1))
                got = pushdown(tower, j, point, m)
                assert bits(got) == bits(reference_pushdown(ref_maps, j, point, m))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_top_vertex_images_match_stacked_batches(self, scheme):
        for k, dims in enumerate(trajectories()):
            tower = build_tower(dims, scheme, seed=300 + k)
            ref_maps = reference_tower(dims, scheme, 300 + k)
            for level in sorted({0, len(dims) // 3, len(dims) // 2, len(dims) - 1}):
                got = top_vertex_images(tower, level)
                want = reference_top_vertex_images(dims, ref_maps, level)
                assert got.shape == want.shape
                assert bits(got) == bits(want)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_one_sweep_reads_each_window_as_its_truncation(self, scheme):
        # each level read in one sweep gets bitwise the images of its own
        # truncated tower, whichever levels share the sweep: windows past
        # the top, the top level itself, nested windows and a lower window
        # ending below a higher level, after which rows stop being folded
        for k, dims in enumerate(trajectories()):
            tower = build_tower(dims, scheme, seed=500 + k)
            top = tower.top_level
            for windows in ({top: top + 3, 0: top // 2},
                            {0: top, top // 3: top // 3 + 7, top // 2: top + 10},
                            {0: min(5, top), top // 2: top // 2 + 1},
                            {0: top // 2 + 3, top // 2: top}):
                got = _window_images(tower, windows)
                assert sorted(got) == sorted(windows)
                for m, w in windows.items():
                    want = top_vertex_images(tower.truncate(w), m)
                    assert got[m].shape == want.shape
                    assert bits(got[m]) == bits(want)
            with pytest.raises(DimensionMismatchError):
                _window_images(tower, {0: top, top + 1: top + 1})


class TestPushdown:
    def build(self, p=0.65, length=120, seed=11, scheme=MeasureScheme.LEBESGUE_FACES):
        traj = sample_trajectory(WalkParams.point(p), length, seed)
        return build_tower(traj, scheme, seed=seed)

    def test_identity(self):
        tower = self.build()
        j = tower.top_level
        point = np.full(tower.dims[j] + 1, 1.0 / (tower.dims[j] + 1))
        assert np.array_equal(pushdown(tower, j, point, j), point)

    def test_collapse_to_point_level(self):
        tower = build_tower([0, 1, 2], MeasureScheme.BARYCENTER_POINT_MASS, seed=5)
        out = pushdown(tower, 2, np.array([0.0, 0.0, 1.0]), 0)
        assert out.tolist() == [1.0]

    def test_top_vertex_to_barycenter(self):
        tower = build_tower([0, 1, 2], MeasureScheme.BARYCENTER_POINT_MASS, seed=5)
        out = pushdown(tower, 2, np.array([0.0, 0.0, 1.0]), 1)
        assert np.allclose(out, [0.5, 0.5])

    def test_functorial(self):
        tower = self.build()
        rng = stream(12)
        levels = sorted(rng.choice(len(tower.dims), size=3, replace=False))
        m, k, j = (int(x) for x in levels)
        for _ in range(20):
            cuts = np.sort(rng.random(tower.dims[j]))
            point = np.diff(np.concatenate(([0.0], cuts, [1.0])))
            direct = pushdown(tower, j, point, m)
            via = pushdown(tower, k, pushdown(tower, j, point, k), m)
            assert np.abs(direct - via).max() < 1e-10

    def test_preserves_barycentric(self):
        tower = self.build(p=0.75, length=300, seed=21)
        rng = stream(13)
        j = tower.top_level
        for _ in range(50):
            cuts = np.sort(rng.random(tower.dims[j]))
            point = np.diff(np.concatenate(([0.0], cuts, [1.0])))
            out = pushdown(tower, j, point, 0 if tower.dims[0] == 0 else 1)
            assert out.min() > -1e-10
            assert abs(out.sum() - 1.0) < 1e-10

    def test_dimension_errors(self):
        tower = self.build()
        with pytest.raises(DimensionMismatchError):
            pushdown(tower, 1, np.array([1.0, 0.0, 0.0, 0.0]), 0)
        with pytest.raises(DimensionMismatchError):
            pushdown(tower, 0, np.array([1.0]), 1)
        with pytest.raises(DimensionMismatchError, match="not barycentric"):
            pushdown(tower, 1, np.full(tower.dims[1] + 1, 0.7), 0)


class TestCoveringRadius:
    @pytest.mark.parametrize("level", [True, 1.0, 1.5, "1", None])
    def test_levels_are_integers(self, level):
        # covering_radius(tower, True) once read level 1
        tower = build_tower([0, 1, 2, 1, 2], MeasureScheme.LEBESGUE_FACES, 3)
        calls = [lambda m: covering_radius(tower, m), lambda m: top_vertex_images(tower, m),
                 tower.truncate, lambda m: pushdown(tower, 4, np.full(3, 1 / 3), m)]
        for call in calls:
            with pytest.raises(ValueError, match="tower levels must be integers"):
                call(level)
        assert covering_radius(tower, np.int64(1)) == covering_radius(tower, 1)

    def test_vacuous_pushdown_set(self):
        # no levels above: the reference set is the vertex set, so the
        # farthest grid point of the segment is its midpoint at distance 1/2
        tower = SimplexTower((1,), ())
        assert covering_radius(tower, 0) == pytest.approx(0.5)

    def test_iterated_barycenters_stabilise(self):
        # deterministic rising tower under the barycentre scheme: pushed-down
        # top vertices form a fixed finite set, so the radius is constant
        values = []
        for length in (30, 60, 120):
            tower = build_tower(list(range(length)), MeasureScheme.BARYCENTER_POINT_MASS, 0)
            values.append(covering_radius(tower, 2))
        assert values[0] > 0.0
        assert values[0] == pytest.approx(values[1]) == pytest.approx(values[2])
        # direct computation: images at level 2 are the barycenter (1/3,1/3,1/3)
        # and the midpoint (1/2,1/2,0); the farthest 1/8-grid point is a vertex
        pts = top_vertex_images(build_tower(list(range(30)),
                                            MeasureScheme.BARYCENTER_POINT_MASS, 0), 2)
        grid = barycentric_grid(2)
        expected = max(min(barycentric_distance(g, p) for p in pts) for g in grid)
        assert values[0] == pytest.approx(expected)

    def test_lebesgue_faces_radius_regression(self):
        # empirical regression target recorded from this implementation: a
        # transient walk never revisits low dimensions, so under the
        # per-dimension visit schedule the pushdowns at the last dims=2
        # level form a spread but non-dense cloud.  Observed envelope at
        # p=0.7 over seeds 0..29: radii in [0.2, 0.8], at least 90% below
        # 0.75, and the value at horizon 600 already includes everything the
        # longer tower contributes.
        radii = []
        for seed in range(30):
            traj = sample_trajectory(WalkParams.point(0.7), 600, seed)
            tower = build_tower(traj, MeasureScheme.LEBESGUE_FACES, seed)
            level = max(i for i, d in enumerate(tower.dims) if d == 2)
            radii.append(covering_radius(tower, level))
        radii = np.array(radii)
        assert np.all((radii > 0.0) & (radii < 0.8))
        assert np.mean(radii < 0.75) >= 0.9
        # stabilisation: extending the horizon can only add pushdown points,
        # and in practice stops moving the radius at all
        traj = sample_trajectory(WalkParams.point(0.7), 1200, 0)
        tower = build_tower(traj, MeasureScheme.LEBESGUE_FACES, 0)
        level = max(i for i, d in enumerate(tower.dims) if d == 2)
        longer = covering_radius(tower, level)
        assert longer <= radii[0] + 1e-12
        assert longer > 0.2

    @pytest.mark.parametrize("dim", range(7))
    def test_grid_is_stars_and_bars(self, dim):
        # part j of a composition is the gap between bars j-1 and j, with
        # bars at -1 and resolution+dim closing the ends
        for resolution in (1, 3, 8):
            rows = []
            for bars in itertools.combinations(range(resolution + dim), dim):
                ends = (-1, *bars, resolution + dim)
                rows.append([b - a - 1 for a, b in zip(ends, ends[1:])])
            expected = np.array(rows, dtype=float) / resolution
            assert bits(barycentric_grid(dim, resolution)) == bits(expected)
            assert barycentric_grid(dim, resolution).shape == expected.shape

    def test_grid_guard(self):
        with pytest.raises(ValueError):
            barycentric_grid(40)
        for resolution in (0, -1):
            with pytest.raises(ValueError, match="resolution"):
                barycentric_grid(2, resolution)

    def test_grid_reads_integers(self):
        # bools, floats and strings are refused by the integer rule of `rng`;
        # numpy integers give the grid of the same Python ints
        for dim, resolution, match in ((True, 8, "^dimensions"), (2.0, 8, "^dimensions"),
                                       (2, True, "^grid resolutions"),
                                       (2, np.True_, "^grid resolutions"),
                                       (2, "3", "^grid resolutions")):
            with pytest.raises(ValueError, match=match):
                barycentric_grid(dim, resolution)
        assert bits(barycentric_grid(np.int64(2), np.int8(3))) == bits(barycentric_grid(2, 3))


def test_is_barycentric_tolerance():
    assert is_barycentric(np.array([0.5, 0.5]))
    assert is_barycentric(np.array([0.5, 0.5 + 0.5 * BARYCENTRIC_TOL]))
    assert not is_barycentric(np.array([0.6, 0.6]))
    assert not is_barycentric(np.array([-0.1, 1.1]))
