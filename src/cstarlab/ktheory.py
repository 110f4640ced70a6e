"""Constrained six-term exact-sequence solver over f.g. abelian groups.

The cyclic sequence is laid out as

    K0(J) --iota0--> K0(A) --pi0--> K0(A/J)
      ^                                |
    index                             exp
      |                                v
    K1(A/J) <--pi1-- K1(A) <--iota1-- K1(J)

with the two K-groups of exactly one corner (ideal, algebra or quotient)
unknown.  Connecting maps are integer matrices and are only meaningful
between *known free* groups, so each unknown slot X sits in a five-term
window  V --a--> W --> X --> Y --d--> Z  where a and d are data.  Exactness
forces a short exact sequence 0 -> coker(a) -> X -> ker(d) -> 0, and since
ker(d) is a subgroup of a free group it is free and the extension splits.
Solver and audit read each window once (`_window`): the solver answers
coker(a) + ker(d), or `UNDETERMINED` rather than guess an extension when a
nonzero flanking group lacks its map; the audit checks ranks and torsion.
Both read a missing map with a zero end as the zero map.

Orientation conventions (fixed once, used consistently):

* the generator of K1 of the circle algebra is the class of the degree-one
  unitary z, and the generator of K0 of the compacts is the class of a
  rank-one projection;
* with these generators the boundary map sends the shift's symbol class to
  [1 - v*v] - [1 - vv*] = -1 (see `toeplitz_index_of_shift`);
* for the dimension-drop interval with fibre sizes (p, q), the exponential
  map out of K0 of the two matrix-block endpoints is the 1 x 2 matrix
  [q, -p] in the rank-one generators of the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cuntz import dimension_drop_sizes
from .intlinalg import ZERO_GROUP, Z, FGAbelianGroup, IntMatrix, cokernel, kernel_rank, rank

SLOT_NAMES = ("k0_ideal", "k0_algebra", "k0_quotient",
              "k1_ideal", "k1_algebra", "k1_quotient")
MAP_NAMES = ("iota0", "pi0", "exp_map", "iota1", "pi1", "index_map")


class InconsistentDataError(ValueError):
    """The known groups and maps cannot sit in any exact six-term sequence."""


class _Undetermined:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNDETERMINED"

    def __bool__(self):
        return False


UNDETERMINED = _Undetermined()


@dataclass(frozen=True)
class SixTermProblem:
    """Slots are FGAbelianGroup or None (= unknown); maps are IntMatrix or None.

    Map i runs from slot i to slot (i+1) mod 6 in the SLOT_NAMES ordering,
    i.e. iota0: K0(J)->K0(A), pi0: K0(A)->K0(A/J), exp_map: K0(A/J)->K1(J),
    iota1: K1(J)->K1(A), pi1: K1(A)->K1(A/J), index_map: K1(A/J)->K0(J).
    A map may only be supplied when both of its endpoints are known and free.
    """

    k0_ideal: FGAbelianGroup | None = None
    k0_algebra: FGAbelianGroup | None = None
    k0_quotient: FGAbelianGroup | None = None
    k1_ideal: FGAbelianGroup | None = None
    k1_algebra: FGAbelianGroup | None = None
    k1_quotient: FGAbelianGroup | None = None
    iota0: IntMatrix | None = None
    pi0: IntMatrix | None = None
    exp_map: IntMatrix | None = None
    iota1: IntMatrix | None = None
    pi1: IntMatrix | None = None
    index_map: IntMatrix | None = None

    @classmethod
    def for_algebra(cls, *, k0_ideal: FGAbelianGroup, k1_ideal: FGAbelianGroup,
                    k0_quotient: FGAbelianGroup, k1_quotient: FGAbelianGroup,
                    exp_map: IntMatrix | None = None,
                    index_map: IntMatrix | None = None) -> "SixTermProblem":
        """The standard shape: ideal and quotient known, middle algebra wanted."""
        return cls(k0_ideal=k0_ideal, k1_ideal=k1_ideal,
                   k0_quotient=k0_quotient, k1_quotient=k1_quotient,
                   exp_map=exp_map, index_map=index_map)

    def slots(self) -> tuple[FGAbelianGroup | None, ...]:
        return tuple(getattr(self, name) for name in SLOT_NAMES)

    def maps(self) -> tuple[IntMatrix | None, ...]:
        return tuple(getattr(self, name) for name in MAP_NAMES)


def _unknown_positions(slots) -> tuple[int, int]:
    """The two unknown slots, which must be one corner: slots c and c + 3."""
    unknown = tuple(i for i, g in enumerate(slots) if g is None)
    if len(unknown) == 2 and unknown[1] == unknown[0] + 3:
        return unknown
    raise InconsistentDataError(
        f"unknown slots must be the two K-groups of one corner, got "
        f"{tuple(SLOT_NAMES[i] for i in unknown)}")


def _check_map_shapes(slots, maps) -> None:
    for i, mat in enumerate(maps):
        if mat is None:
            continue
        src, dst = slots[i], slots[(i + 1) % 6]
        if src is None or dst is None:
            raise InconsistentDataError(
                f"map {MAP_NAMES[i]} given but an endpoint is unknown")
        if not (src.is_free and dst.is_free):
            raise InconsistentDataError(
                f"map {MAP_NAMES[i]} given between non-free groups; "
                "torsion endpoints are outside the solver's scope")
        if (mat.rows, mat.cols) != (dst.free_rank, src.free_rank):
            raise InconsistentDataError(
                f"map {MAP_NAMES[i]} has shape {mat.rows}x{mat.cols}, expected "
                f"{dst.free_rank}x{src.free_rank}")


def _window(slots, maps, x: int):
    """(coker(a), ker(d)) of the window at unknown slot x; a part is 0 when
    its flanking group W or Y is 0, None when that group is nonzero and its
    map is not given."""
    w, y = slots[(x - 1) % 6], slots[(x + 1) % 6]
    into_w, out_of_y = maps[(x - 2) % 6], maps[(x + 1) % 6]
    sub = ZERO_GROUP if w.is_zero else None if into_w is None else cokernel(into_w)
    quot = (ZERO_GROUP if y.is_zero else None if out_of_y is None
            else FGAbelianGroup.free(kernel_rank(out_of_y)))
    return sub, quot


def solve_six_term(problem: SixTermProblem):
    """Fill in the unknown corner of a six-term sequence, if it is forced.

    Returns a dict {slot_name: FGAbelianGroup} for the two unknown slots, or
    the UNDETERMINED sentinel when the data does not force them.  Raises
    InconsistentDataError when the unknown slots are not one corner, or a
    given map has an unknown or non-free end or the wrong shape.
    """
    slots, maps = problem.slots(), problem.maps()
    positions = _unknown_positions(slots)
    _check_map_shapes(slots, maps)
    solution: dict[str, FGAbelianGroup] = {}
    for x in positions:
        sub, quot = _window(slots, maps, x)
        if sub is None or quot is None:
            return UNDETERMINED
        solution[SLOT_NAMES[x]] = sub.direct_sum(quot)
    return solution


def audit_exactness(problem: SixTermProblem, solution: dict[str, FGAbelianGroup]) -> bool:
    """Rank-and-torsion bookkeeping check of im = ker at all six nodes.

    With r_i the rank of the image of map i, exactness forces
    rank(G_j) = r_{j-1} + r_j at every node j, and the torsion of a solved
    slot must be exactly the torsion of the cokernel coker(a) it extends.
    """
    slots, maps = list(problem.slots()), problem.maps()
    positions = _unknown_positions(slots)
    sub = {x: _window(slots, maps, x)[0] for x in positions}
    for x in positions:
        slots[x] = solution[SLOT_NAMES[x]]

    image_rank = [0] * 6
    for i in range(6):
        x = i if i in positions else (i + 1) % 6
        if maps[i] is not None:
            image_rank[i] = rank(maps[i])
        elif x not in positions:  # a missing map with a zero end is the zero map
            if not (slots[i].is_zero or slots[(i + 1) % 6].is_zero):
                raise InconsistentDataError(f"map {MAP_NAMES[i]} missing away from the unknown corner")
        elif sub[x] is None:
            raise InconsistentDataError("audit requires the maps the solver used")
        else:  # constructed maps: X ->> ker(d) <= Y out of x, W ->> coker(a) <= X into x
            image_rank[i] = slots[x].free_rank - sub[x].free_rank if x == i else sub[x].free_rank
    return (all(slots[j].free_rank == image_rank[j - 1] + image_rank[j] for j in range(6))
            and all(slots[x].torsion == sub[x].torsion for x in positions))


def k_dimension_drop(p: int, q: int) -> tuple[FGAbelianGroup, FGAbelianGroup]:
    """K-theory of the dimension-drop interval with fibre sizes (p, q).

    The ideal of functions vanishing at both endpoints has K-groups (0, Z)
    and the endpoint evaluation quotient is a two-block matrix algebra with
    K-groups (Z^2, 0); the exponential map is [q, -p] in the rank-one
    generators.  Coprime (p, q) give (Z, 0); in general K1 = Z/gcd(p, q).
    The sizes are checked by `cuntz.dimension_drop_sizes`: integers >= 1,
    numpy integers included, bools refused.
    """
    p, q = dimension_drop_sizes(p, q)
    problem = SixTermProblem.for_algebra(
        k0_ideal=ZERO_GROUP, k1_ideal=Z,
        k0_quotient=FGAbelianGroup.free(2), k1_quotient=ZERO_GROUP,
        exp_map=IntMatrix(1, 2, ((q, -p),)),
        index_map=IntMatrix(0, 0, ()),
    )
    solution = solve_six_term(problem)
    assert solution is not UNDETERMINED
    return solution["k0_algebra"], solution["k1_algebra"]


def toeplitz_index_of_shift() -> int:
    """Boundary value of the shift's symbol class, in the fixed orientation.

    The shift v is an isometry, so 1 - v*v = 0, while 1 - vv* is the
    rank-one projection onto the first basis vector.  With [rank-one] = +1
    generating K0 of the compacts, the boundary of the degree-one unitary
    is [1 - v*v] - [1 - vv*] = -1.
    """
    return -1


def k_toeplitz() -> tuple[FGAbelianGroup, FGAbelianGroup]:
    """K-theory of the shift algebra via the compacts <| shift -> circle sequence."""
    problem = SixTermProblem.for_algebra(
        k0_ideal=Z, k1_ideal=ZERO_GROUP,
        k0_quotient=Z, k1_quotient=Z,
        exp_map=IntMatrix(0, 1, ()),
        index_map=IntMatrix.from_rows([[toeplitz_index_of_shift()]]),
    )
    solution = solve_six_term(problem)
    assert solution is not UNDETERMINED
    return solution["k0_algebra"], solution["k1_algebra"]
