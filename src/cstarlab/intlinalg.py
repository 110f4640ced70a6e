"""Exact integer-matrix algebra: Smith normal form, kernels, cokernels.

Everything here runs over Z with Python's arbitrary-precision integers, so
there is no overflow regardless of how large intermediate entries get.  The
two consumers are the six-term exact-sequence solver (boundary/exponential
maps between free K-groups) and the Cuntz-semigroup surjectivity criterion.

One elimination routine computes every Smith form.  Pivoting strategy:
move the smallest nonzero entry (in absolute value) of the working block
into pivot position, then zero each entry of its column and row with one
unimodular 2 x 2 step that puts gcd(pivot, entry) on the pivot (Bezout
coefficients), never by repeated swapping and restarting, which let
entries reach millions of bits on sparse 32 x 32 inputs.  No entry bound
is proved, and the transforms do grow: on 12 Cuntz-Krieger inputs of size
40 with ones at density 1/2 (`default_rng(7)`), U and V reached
326,407-bit entries and the slowest call took 1.1 s on a 2-CPU host, while
the diagonal D stayed at 47 bits or less.  Bounding the transforms
(Storjohann's reduction modulo the finished pivots, or Kannan-Bachem 1979)
is ROADMAP direction 6.  Only `smith_normal_form` builds the unimodular
transforms.  `rank`, `cokernel` and `kernel_rank` read the diagonal alone,
which each `IntMatrix` computes at most once and keeps;
`smith_normal_form` leaves its own diagonal there too.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence


@dataclass(frozen=True)
class IntMatrix:
    """An immutable rows x cols integer matrix (row-major nested tuples)."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.entries)}")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError(f"expected {self.cols} columns, got {len(row)}")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise TypeError(f"entries must be Python ints, got {x!r}")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], *, cols: int | None = None) -> "IntMatrix":
        """Build from any nested iterable of integers; `cols` disambiguates empty rows."""
        data = tuple(tuple(operator.index(x) for x in row) for row in rows)
        ncols = cols if cols is not None else (len(data[0]) if data else 0)
        return cls(len(data), ncols, data)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def entry(self, i: int, j: int) -> int:
        return self.entries[i][j]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            row = self.entries[i]
            out.append(tuple(sum(row[k] * other.entries[k][j] for k in range(self.cols))
                             for j in range(other.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(a - b for a, b in zip(ra, rb))
                               for ra, rb in zip(self.entries, other.entries)))

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.entries) + "]"

    @cached_property
    def _smith_diagonal(self) -> tuple[int, ...]:
        """Nonzero Smith-form diagonal (the invariant factors), computed once."""
        return _eliminate(self.to_lists(), self.rows, self.cols)


@dataclass(frozen=True)
class FGAbelianGroup:
    """A finitely generated abelian group Z^free_rank + Z/d1 + ... + Z/dk.

    The torsion orders form a divisibility chain d1 | d2 | ... with every
    di >= 2 (trivial factors are never stored), so equality of invariants
    is literal structural equality.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for d in self.torsion:
            if not isinstance(d, int) or d < 2:
                raise ValueError(f"torsion orders must be integers >= 2, got {d!r}")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError(f"torsion orders must form a divisibility chain, got {self.torsion}")

    @classmethod
    def free(cls, rank: int) -> "FGAbelianGroup":
        return cls(rank, ())

    @classmethod
    def zero(cls) -> "FGAbelianGroup":
        return cls(0, ())

    @classmethod
    def cyclic(cls, n: int) -> "FGAbelianGroup":
        """Z/n for n >= 2, Z for n = 0, trivial group for n = 1."""
        if n == 0:
            return cls(1, ())
        if n == 1:
            return cls(0, ())
        return cls(0, (n,))

    @property
    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @property
    def is_free(self) -> bool:
        return not self.torsion

    def direct_sum(self, other: "FGAbelianGroup") -> "FGAbelianGroup":
        """Direct sum, renormalising the combined torsion to a chain."""
        return FGAbelianGroup(self.free_rank + other.free_rank,
                              invariant_factors(self.torsion + other.torsion))

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


Z = FGAbelianGroup.free(1)
ZERO_GROUP = FGAbelianGroup.zero()


def invariant_factors(orders: Sequence[int]) -> tuple[int, ...]:
    """Renormalise cyclic orders (each >= 2) into a divisibility chain.

    Pairwise, Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b): slot i takes the gcd of
    itself and every later slot, which take the matching lcms, so slot i
    ends up dividing all later ones.  No order is ever factored.
    """
    orders = [int(d) for d in orders if d != 1]
    if any(d < 1 for d in orders):
        raise ValueError("cyclic orders must be positive")
    for i in range(len(orders)):
        for j in range(i + 1, len(orders)):
            g = math.gcd(orders[i], orders[j])
            orders[i], orders[j] = g, orders[i] // g * orders[j]
    return tuple(d for d in orders if d >= 2)


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ m @ V == d with U, V unimodular and d diagonal (chain d1|d2|...)."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix


def _bezout(p: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x p + y b = g = gcd(p, b) > 0, by extended Euclid."""
    r0, r1, x0, x1, y0, y1 = p, b, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1, x0, x1, y0, y1 = r1, r0 - q * r1, x1, x0 - q * x1, y1, y0 - q * y1
    return (r0, x0, y0) if r0 > 0 else (-r0, -x0, -y0)


def _eliminate(a: list[list[int]], rows: int, cols: int) -> tuple[int, ...]:
    """Bring the top-left rows x cols block of `a` to Smith form, in place.

    Pivots come from that block only, while row operations act on whole
    rows of `a` and column operations on whole columns, so whatever sits to
    the right of or below the block records the transforms.  Returns the
    block's nonzero diagonal (the invariant factors).
    """
    t = 0
    while t < min(rows, cols):
        # smallest nonzero entry of the remaining block becomes the pivot;
        # the scan stops at the first unit, which nothing can undercut
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
            # zero column t, then row t, each entry by one unimodular 2x2
            # step that leaves gcd(pivot, entry) on the pivot; a row step of
            # that kind can refill column t, so clear again until both stay
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
            # pivot must divide the rest of the block for the chain property;
            # a unit pivot always does
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


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Diagonalise m over Z by unimodular row and column operations.

    Returns (U, D, V) with U*m*V = D exactly, |det U| = |det V| = 1 and the
    nonzero diagonal of D a divisibility chain of positive integers.  Empty
    matrices come back unchanged with identity transforms.  The elimination
    runs on [[m, I], [I, 0]], so U and V come out of the same operations
    that reduce m.
    """
    r, c = m.rows, m.cols
    a = [row + [int(i == k) for k in range(r)] for i, row in enumerate(m.to_lists())]
    a += [[int(i == j) for j in range(c)] + [0] * r for i in range(c)]
    diagonal = _eliminate(a, r, c)
    # the block's pivots are the ones m alone would take, so this is the
    # diagonal that rank, cokernel and kernel_rank read
    m.__dict__.setdefault("_smith_diagonal", diagonal)
    return SmithDecomposition(IntMatrix.from_rows((row[c:] for row in a[:r]), cols=r),
                              IntMatrix.from_rows((row[:c] for row in a[:r]), cols=c),
                              IntMatrix.from_rows((row[:c] for row in a[r:]), cols=c))


def rank(m: IntMatrix) -> int:
    """Rank of m over Q (equivalently the number of nonzero SNF entries)."""
    return len(m._smith_diagonal)


def cokernel(m: IntMatrix) -> FGAbelianGroup:
    """Cokernel of m viewed as a map Z^cols -> Z^rows."""
    diag = m._smith_diagonal
    return FGAbelianGroup(m.rows - len(diag), tuple(d for d in diag if d > 1))


def kernel_rank(m: IntMatrix) -> int:
    """Rank of ker(m : Z^cols -> Z^rows); kernels of integer maps are free."""
    return m.cols - len(m._smith_diagonal)


def det_bareiss(m: IntMatrix) -> int:
    """Exact determinant via Bareiss fraction-free elimination.

    Kept independent of the SNF code path so tests can certify that the
    transforms returned by `smith_normal_form` really are unimodular.
    """
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact division: every 2x2 minor update is divisible by prev
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
