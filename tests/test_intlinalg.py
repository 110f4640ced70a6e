import re
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cstarlab.intlinalg as intlinalg
from cstarlab.intlinalg import (
    FGAbelianGroup,
    IntMatrix,
    Z,
    ZERO_GROUP,
    cokernel,
    det_bareiss,
    invariant_factors,
    kernel_rank,
    rank,
    smith_normal_form,
)
from cstarlab.rng import stream

from oracles import dense_smith_form, is_unimodular, random_unimodular


@st.composite
def int_matrices(draw, max_dim=5, lo=-9, hi=9):
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    data = [[draw(st.integers(lo, hi)) for _ in range(cols)] for _ in range(rows)]
    return IntMatrix.from_rows(data, cols=cols)


def is_divisibility_chain(diag):
    nonzero = [d for d in diag if d != 0]
    if any(d < 0 for d in nonzero):
        return False
    if any(b % a != 0 for a, b in zip(nonzero, nonzero[1:])):
        return False
    # zeros only at the end
    seen_zero = False
    for d in diag:
        if d == 0:
            seen_zero = True
        elif seen_zero:
            return False
    return True


# I - A^T for a Cuntz-Krieger matrix A with about two ones per row (n = 32,
# |det| = 328): "1" is 1, "-" is -1, "." is 0.  Swap-and-restart pivoting
# grew its entries past 9 Mbit and ran for minutes.
CK32 = (
    "1....................-..........",
    ".1..............................",
    "..1.......................-....-",
    "...1................-...........",
    "....1............-............--",
    ".....1......................-...",
    "......1.........................",
    ".......1..-.............-....--.",
    "........1...--.-................",
    "...--....1.....-........-......-",
    "..........1.....-..........-.-..",
    "....-....-.1..........-.....-...",
    "..........-.1-.-.-.--.-.........",
    "-.......-....1..................",
    "..........-...1.......-.........",
    "..-.-..........1.......-.-......",
    ".-......-.......1-.......-......",
    ".-...-.-....-..-.1.....-........",
    "..................1...--........",
    "..............-.-..1..-.........",
    "....................1...........",
    "........-.........-..1..........",
    "......................1.--......",
    ".-...-............-....1....-...",
    "...-.--..--.............1.......",
    ".......-.-..............-1......",
    "...............-..-.............",
    ".-.........................1..-.",
    "..-.............-......-....1...",
    "..............-.............-1.-",
    "....................-.-...-...1.",
    "...-...........-....-...--.....1",
)


def _alarm(signum, frame):
    raise TimeoutError("Smith form ran past its time budget")


class TestSmithNormalForm:
    def test_identity(self):
        m = IntMatrix.identity(2)
        snf = smith_normal_form(m)
        assert snf.d == m

    def test_diag_2_3(self):
        # frozen from direct multiplication: diag(2,3) ~ diag(1,6)
        m = IntMatrix.from_rows([[2, 0], [0, 3]])
        snf = smith_normal_form(m)
        assert snf.d == IntMatrix.from_rows([[1, 0], [0, 6]])
        assert snf.u @ m @ snf.v == snf.d
        assert is_unimodular(snf.u) and is_unimodular(snf.v)

    def test_gcd_row(self):
        # gcd(3, 2) = 1 by Euclid, so [3, -2] ~ [1, 0]
        m = IntMatrix.from_rows([[3, -2]])
        assert smith_normal_form(m).d == IntMatrix.from_rows([[1, 0]])

    def test_empty_matrices(self):
        for shape in [(0, 0), (0, 3), (3, 0)]:
            m = IntMatrix.zeros(*shape)
            snf = smith_normal_form(m)
            assert snf.d == m
            assert snf.u @ m @ snf.v == snf.d

    @settings(max_examples=150, deadline=None)
    @given(int_matrices())
    def test_snf_contract(self, m):
        snf = smith_normal_form(m)
        assert snf.u @ m @ snf.v == snf.d
        assert abs(det_bareiss(snf.u)) == 1
        assert abs(det_bareiss(snf.v)) == 1
        assert all(snf.d.entry(i, j) == 0
                   for i in range(m.rows) for j in range(m.cols) if i != j)
        assert is_divisibility_chain(snf.d.diagonal())

    @settings(max_examples=150, deadline=None)
    @given(int_matrices())
    def test_rank_nullity(self, m):
        assert rank(m) + kernel_rank(m) == m.cols

    @settings(max_examples=150, deadline=None)
    @given(int_matrices())
    def test_readers_match_smith_form(self, m):
        diag = [x for x in smith_normal_form(m).d.diagonal() if x]
        # the readers run on an equal matrix whose diagonal is not cached yet,
        # and on m itself, whose diagonal smith_normal_form left behind
        for same in (IntMatrix(m.rows, m.cols, m.entries), m):
            assert rank(same) == len(diag)
            assert kernel_rank(same) == m.cols - len(diag)
            assert cokernel(same) == FGAbelianGroup(m.rows - len(diag),
                                                    tuple(x for x in diag if x > 1))

    def test_readers_eliminate_once(self, monkeypatch):
        calls = []
        eliminate = intlinalg._eliminate

        def counting(*args):
            calls.append(args)
            return eliminate(*args)

        monkeypatch.setattr(intlinalg, "_eliminate", counting)
        m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
        assert (rank(m), cokernel(m), kernel_rank(m)) == (3, FGAbelianGroup(0, (2, 6, 12)), 0)
        assert len(calls) == 1

    def test_smith_form_fills_the_diagonal_cache(self, monkeypatch):
        calls = []
        eliminate = intlinalg._eliminate

        def counting(*args):
            calls.append(args)
            return eliminate(*args)

        monkeypatch.setattr(intlinalg, "_eliminate", counting)
        m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
        snf = smith_normal_form(m)
        assert (cokernel(m), kernel_rank(m), rank(m)) == (FGAbelianGroup(0, (2, 6, 12)), 0, 3)
        assert snf.d.diagonal() == (2, 6, 12)
        assert len(calls) == 1

    def test_entries_stay_small_on_a_sparse_cuntz_krieger_matrix(self):
        m = IntMatrix.from_rows([[{"1": 1, "-": -1, ".": 0}[c] for c in row] for row in CK32])
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(10)
        try:
            snf = smith_normal_form(m)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert snf.u @ m @ snf.v == snf.d
        assert is_unimodular(snf.u) and is_unimodular(snf.v)
        assert cokernel(IntMatrix(m.rows, m.cols, m.entries)) == FGAbelianGroup.cyclic(328)
        assert snf.d.diagonal() == (1,) * 31 + (328,)
        assert max(abs(x).bit_length()
                   for t in (snf.u, snf.d, snf.v) for row in t.entries for x in row) <= 64


def _cuntz_krieger(rng, n, ones_per_row):
    """I - A^T for a random 0/1 matrix A with about `ones_per_row` ones per row."""
    a = (rng.random((n, n)) < ones_per_row / n).astype(int)
    return IntMatrix.from_rows((np.eye(n, dtype=int) - a.T).tolist())


def _bitwise_inputs(kind):
    rng = np.random.default_rng(24)
    if kind == "cuntz_krieger":  # the benchmark's classes: two ones per row, 1.5 above n = 32
        return [_cuntz_krieger(rng, n, 2.0 if n <= 32 else 1.5)
                for n in range(8, 41, 4) for _ in range(6)]
    if kind == "three_ones_per_row":
        return [_cuntz_krieger(rng, n, 3.0) for n in (24, 32, 40) for _ in range(4)]
    if kind == "dense":
        return [IntMatrix.from_rows(rng.integers(-9, 10, shape).tolist())
                for shape in ((6, 6), (7, 7), (4, 6)) for _ in range(8)]
    if kind == "zero_lines":
        out = [IntMatrix.zeros(0, k) for k in range(4)] + [IntMatrix.zeros(k, 0) for k in range(4)]
        out.append(IntMatrix.zeros(3, 4))
        for rows, cols in ((4, 4), (3, 5), (5, 3)):
            m = rng.integers(-6, 7, (rows, cols))
            m[int(rng.integers(rows))] = 0
            m[:, int(rng.integers(cols))] = 0
            out.append(IntMatrix.from_rows(m.tolist()))
        return out
    assert kind == "boundary_maps"  # [q, -p] of the dimension-drop sweeps
    return [IntMatrix.from_rows([[q, -p]]) for q in range(1, 21) for p in range(1, q + 1)]


@pytest.mark.parametrize("kind", ["cuntz_krieger", "three_ones_per_row", "dense",
                                  "zero_lines", "boundary_maps"])
def test_smith_form_equals_dense_elimination_bitwise(kind):
    # skipping zero entries must leave every entry of U, D, V and the cached
    # diagonal exactly as the full-length elimination computes them
    for m in _bitwise_inputs(kind):
        u, d, v, diagonal = dense_smith_form(m)
        assert IntMatrix(m.rows, m.cols, m.entries)._smith_diagonal == diagonal
        snf = smith_normal_form(m)
        assert (snf.u.entries, snf.d.entries, snf.v.entries) == (u, d, v)
        assert (snf.u.rows, snf.d.rows, snf.d.cols, snf.v.cols) == (m.rows, m.rows, m.cols, m.cols)
        assert m._smith_diagonal == diagonal


class TestCokernel:
    def test_zero_endomorphism(self):
        assert cokernel(IntMatrix.zeros(1, 1)) == Z

    def test_bezout_surjection(self):
        # 3x - 2y covers every integer
        assert cokernel(IntMatrix.from_rows([[3, -2]])) == ZERO_GROUP

    def test_even_image(self):
        assert cokernel(IntMatrix.from_rows([[2, -4]])) == FGAbelianGroup.cyclic(2)

    def test_unimodular_invariance(self):
        rng = stream(2024)
        for _ in range(120):
            r, c = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            m = IntMatrix.from_rows(rng.integers(-9, 10, size=(r, c)).tolist(), cols=c)
            u = random_unimodular(rng, r)
            v = random_unimodular(rng, c)
            assert cokernel(m) == cokernel(u @ m @ v)


class TestKernelRank:
    def test_identity(self):
        assert kernel_rank(IntMatrix.identity(2)) == 0

    def test_line(self):
        # kernel of [3, -2] is spanned by (2, 3)
        assert kernel_rank(IntMatrix.from_rows([[3, -2]])) == 1

    def test_zero_row(self):
        assert kernel_rank(IntMatrix.zeros(1, 2)) == 2


class TestFGAbelianGroup:
    def test_chain_enforced(self):
        with pytest.raises(ValueError):
            FGAbelianGroup(0, (4, 2))
        with pytest.raises(ValueError):
            FGAbelianGroup(0, (1,))

    @pytest.mark.parametrize("free_rank, torsion", [(1.5, ()), (True, ()), (np.int64(1), ()),
                                                    (0, (2.0,)), (0, (np.int64(2),))])
    def test_invariants_are_python_ints(self, free_rank, torsion):
        # FGAbelianGroup(1.5) once printed Z^1.5, and FGAbelianGroup(True) Z
        with pytest.raises(ValueError):
            FGAbelianGroup(free_rank, torsion)

    def test_invariant_factors_renormalise(self):
        assert invariant_factors([2, 3]) == (6,)
        assert invariant_factors([2, 2]) == (2, 2)
        assert invariant_factors([4, 6]) == (2, 12)
        assert invariant_factors([]) == ()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(2, 60), max_size=5))
    def test_invariant_factors_match_diagonal_cokernel(self, orders):
        diag = [[d if i == j else 0 for j in range(len(orders))] for i, d in enumerate(orders)]
        torsion = cokernel(IntMatrix.from_rows(diag, cols=len(orders))).torsion
        assert invariant_factors(orders) == torsion

    def test_degenerate_cyclic_orders(self):
        # Z/0 is Z and Z/1 is the trivial group
        assert FGAbelianGroup.cyclic(0) == Z
        assert FGAbelianGroup.cyclic(1) == ZERO_GROUP

    def test_direct_sum(self):
        a = FGAbelianGroup(1, (2,))
        b = FGAbelianGroup(0, (3,))
        assert a.direct_sum(b) == FGAbelianGroup(1, (6,))

    def test_str(self):
        assert str(ZERO_GROUP) == "0"
        assert str(Z) == "Z"
        assert str(FGAbelianGroup(2, (2, 4))) == "Z^2 + Z/2 + Z/4"


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(1, 2, ((1,),))
    with pytest.raises(TypeError):
        IntMatrix(1, 1, ((1.5,),))
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[1.5, 2]])
    assert IntMatrix.from_rows(np.array([[1, 2]])).entries == ((1, 2),)
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2]]) @ IntMatrix.from_rows([[1, 2]])
    rows = [[(i * 40 + j) % 7 - 3 for j in range(40)] for i in range(40)]
    assert IntMatrix(40, 40, tuple(map(tuple, rows))).rows == 40
    # a bool deep in a 40 x 40 matrix is named
    deep = [list(row) for row in rows]
    deep[37][23] = True
    with pytest.raises(TypeError, match=r"^entries must be Python ints, got True$"):
        IntMatrix(40, 40, tuple(map(tuple, deep)))
    # the checked constructor refuses numpy integers; from_rows converts them
    named = re.escape(repr(np.int64(5)))  # np.int64(5) on numpy 2, 5 before
    with pytest.raises(TypeError, match=f"^entries must be Python ints, got {named}$"):
        IntMatrix(1, 2, ((1, np.int64(5)),))
    m = IntMatrix.from_rows([[1, np.int64(5)]])
    assert m.entries == ((1, 5),) and type(m.entries[0][1]) is int
    # from_rows refuses bools as the constructor does, wherever they sit
    for bad in ([[True, 2]], [[1, 2], [3, False]], [(x for x in (1, True))], [[1, np.True_]]):
        with pytest.raises(TypeError, match="bool"):
            IntMatrix.from_rows(bad)
    # dimensions are Python ints, as entries are
    for build in (lambda: IntMatrix(1.0, 1, ((2,),)), lambda: IntMatrix(1, True, ((2,),)),
                  lambda: IntMatrix.identity(True), lambda: IntMatrix.zeros(np.int64(1), 1)):
        with pytest.raises(ValueError, match="^matrix dimensions must be ints >= 0"):
            build()
    # a ragged row after many good ones
    ragged = [list(row) for row in rows]
    ragged[39] = ragged[39][:39]
    with pytest.raises(ValueError, match=r"^expected 40 columns, got 39$"):
        IntMatrix(40, 40, tuple(map(tuple, ragged)))
    with pytest.raises(ValueError, match=r"^expected 40 columns, got 39$"):
        IntMatrix.from_rows(ragged)
    # a missing row, a difference of two shapes and a non-square determinant
    with pytest.raises(ValueError, match=r"^expected 2 rows, got 1$"):
        IntMatrix(2, 1, ((1,),))
    with pytest.raises(ValueError, match="^shape mismatch: 1x2 vs 2x1$"):
        IntMatrix.from_rows([[1, 2]]) - IntMatrix.from_rows([[1], [2]])
    with pytest.raises(ValueError, match="square"):
        det_bareiss(IntMatrix.from_rows([[1, 2]]))
