"""Cuntz-semigroup arithmetic for concrete one-dimensional models.

Three layers:

* `ExtNat` -- the extended naturals {0, 1, 2, ..., oo}, the rank values of
  finite-dimensional blocks;
* `LscStep` -- lower-semicontinuous ExtNat-valued step functions on [0, 1]
  with exact rational breakpoints, modelling the semigroup of the interval
  algebra; addition is pointwise, and the order is pointwise <= (for 0/oo
  valued functions this is exactly containment of open supports), so the
  supremum of an increasing chain is its last member;
* `CuNccwElement` -- pairs (f, v) subject to the boundary conditions
  f(0) = M0 v and f(1) = M1 v of a one-dimensional NCCW pullback, with the
  rank-bookkeeping convention oo * 0 = 0 in the matrix products
  (`ext_matvec` builds one ExtNat per row).

`k1_trivial` decides triviality of K1 for such a pullback: it is
equivalent to surjectivity of M0 - M1 over the integers, read off the
Smith normal form.  `CuJiangSu` is the two-sheet monoid N_0 |_| (0, oo]
(compact classes and soft classes with a value, built by `compact` and
`soft`), with the standard order in which a soft element never dominates
the compact element of the same value.

A stored integer is exactly an `int`.  A rational is a Fraction as it is or
Fraction(rng._integer(x)): floats, bools, strings and Decimals raise TypeError.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .intlinalg import IntMatrix, cokernel
from .rng import _integer


class DimensionMismatchError(ValueError):
    """Component counts or matrix shapes do not line up."""


class ShapeMismatchError(ValueError):
    """The two boundary matrices must have equal shapes."""


class NotIncreasingError(ValueError):
    """A chain handed to the supremum was not increasing."""


# ---------------------------------------------------------------------------
# extended naturals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtNat:
    """A value in {0, 1, 2, ...} u {oo}; `None` encodes oo."""

    value: int | None = 0

    def __post_init__(self):
        if self.value is not None:
            if type(self.value) is not int or self.value < 0:
                raise ValueError(f"ExtNat wants a nonnegative int or None, got {self.value!r}")

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def __add__(self, other: "ExtNat") -> "ExtNat":
        other = as_extnat(other)
        if self.is_infinite or other.is_infinite:
            return EXT_INF
        return ExtNat(self.value + other.value)

    __radd__ = __add__

    def __le__(self, other: "ExtNat") -> bool:
        other = as_extnat(other)
        if other.is_infinite:
            return True
        if self.is_infinite:
            return False
        return self.value <= other.value

    def __lt__(self, other: "ExtNat") -> bool:
        other = as_extnat(other)
        return self <= other and self != other

    def __gt__(self, other: "ExtNat") -> bool:
        return as_extnat(other) < self

    def __ge__(self, other: "ExtNat") -> bool:
        return as_extnat(other) <= self

    def __str__(self) -> str:
        return "inf" if self.is_infinite else str(self.value)


EXT_INF = ExtNat(None)


def as_extnat(x: Union["ExtNat", int]) -> ExtNat:
    if isinstance(x, ExtNat):
        return x
    return ExtNat(x)


# ---------------------------------------------------------------------------
# lower-semicontinuous step functions on [0, 1]
# ---------------------------------------------------------------------------

def _as_fraction(x, what: str) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(_integer(x, f"{what} must be Fractions or integers"))


@dataclass(frozen=True)
class LscStep:
    """An ExtNat-valued lsc step function on [0, 1] in canonical form.

    `breakpoints` are strictly increasing rationals in the open interval;
    `interval_values[i]` is the constant value on the i-th open gap,
    `breakpoint_values[i]` the value at the i-th breakpoint, and
    `left_value` / `right_value` the values at 0 and 1.  Construction
    merges redundant breakpoints (equal neighbouring interval values whose
    breakpoint value agrees) and then insists on lower semicontinuity:
    every point value is <= the neighbouring interval values.
    """

    breakpoints: tuple[Fraction, ...]
    interval_values: tuple[ExtNat, ...]
    breakpoint_values: tuple[ExtNat, ...]
    left_value: ExtNat
    right_value: ExtNat

    def __post_init__(self):
        bps = tuple(_as_fraction(b, "breakpoints") for b in self.breakpoints)
        ivals = tuple(as_extnat(v) for v in self.interval_values)
        pvals = tuple(as_extnat(v) for v in self.breakpoint_values)
        left = as_extnat(self.left_value)
        right = as_extnat(self.right_value)
        if len(ivals) != len(bps) + 1:
            raise ValueError("need one interval value per gap")
        if len(pvals) != len(bps):
            raise ValueError("need one point value per breakpoint")
        if any(not (0 < b < 1) for b in bps):
            raise ValueError("breakpoints must lie strictly inside (0, 1)")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")

        # canonical form: drop breakpoints separating equal values
        cb: list[Fraction] = []
        ci: list[ExtNat] = [ivals[0]]
        cp: list[ExtNat] = []
        for b, pv, nxt in zip(bps, pvals, ivals[1:]):
            if ci[-1] == nxt == pv:
                continue
            cb.append(b)
            cp.append(pv)
            ci.append(nxt)

        for i, pv in enumerate(cp):
            if not (pv <= ci[i] and pv <= ci[i + 1]):
                raise ValueError(f"not lower semicontinuous at breakpoint {cb[i]}")
        if not left <= ci[0]:
            raise ValueError("not lower semicontinuous at 0")
        if not right <= ci[-1]:
            raise ValueError("not lower semicontinuous at 1")

        object.__setattr__(self, "breakpoints", tuple(cb))
        object.__setattr__(self, "interval_values", tuple(ci))
        object.__setattr__(self, "breakpoint_values", tuple(cp))
        object.__setattr__(self, "left_value", left)
        object.__setattr__(self, "right_value", right)

    @classmethod
    def constant(cls, value) -> "LscStep":
        v = as_extnat(value)
        return cls((), (v,), (), v, v)

    @classmethod
    def zero(cls) -> "LscStep":
        return cls.constant(0)

    @classmethod
    def indicator(cls, lo, hi, value=1) -> "LscStep":
        """`value` on the open interval (lo, hi), zero elsewhere."""
        lo, hi = _as_fraction(lo, "points"), _as_fraction(hi, "points")
        if not (0 <= lo < hi <= 1):
            raise ValueError("need 0 <= lo < hi <= 1")
        bps = tuple(b for b in (lo, hi) if 0 < b < 1)
        ivals = (0,) * (lo > 0) + (value,) + (0,) * (hi < 1)
        return cls(bps, ivals, (0,) * len(bps), 0, 0)

    def value_at(self, x) -> ExtNat:
        x = _as_fraction(x, "points")
        if not 0 <= x <= 1:
            raise ValueError("the function lives on [0, 1]")
        if x == 0:
            return self.left_value
        if x == 1:
            return self.right_value
        i = bisect_left(self.breakpoints, x)
        if i < len(self.breakpoints) and self.breakpoints[i] == x:
            return self.breakpoint_values[i]
        return self.interval_values[i]


def _zip_regions(f: LscStep, g: LscStep) -> tuple[list[Fraction], list[tuple[ExtNat, ExtNat]]]:
    """The merged breakpoints of f and g, and their (f_value, g_value) pairs
    over the common refinement of [0, 1]: the point 0, then each open gap
    followed by the breakpoint closing it, then the last gap and the point
    1.  One merge walk over the two breakpoint lists reads every value by
    index: between breakpoints each function keeps its interval value.
    """
    fb, gb = f.breakpoints, g.breakpoints
    cuts, pairs = [], [(f.left_value, g.left_value)]
    i = j = 0
    while i < len(fb) or j < len(gb):
        cut = min(fb[i] if i < len(fb) else 1, gb[j] if j < len(gb) else 1)
        pairs.append((f.interval_values[i], g.interval_values[j]))
        at_f = i < len(fb) and fb[i] == cut
        at_g = j < len(gb) and gb[j] == cut
        pairs.append((f.breakpoint_values[i] if at_f else f.interval_values[i],
                      g.breakpoint_values[j] if at_g else g.interval_values[j]))
        cuts.append(cut)
        i += at_f
        j += at_g
    pairs.append((f.interval_values[i], g.interval_values[j]))
    pairs.append((f.right_value, g.right_value))
    return cuts, pairs


def lsc_add(f: LscStep, g: LscStep) -> LscStep:
    """Pointwise sum over the merged breakpoint set, renormalised."""
    cuts, pairs = _zip_regions(f, g)
    vals = [fv + gv for fv, gv in pairs]
    return LscStep(tuple(cuts), tuple(vals[1:-1:2]), tuple(vals[2:-1:2]), vals[0], vals[-1])


def lsc_leq(f: LscStep, g: LscStep) -> bool:
    """Pointwise order: f <= g at every interval, breakpoint and endpoint."""
    return all(fv <= gv for fv, gv in _zip_regions(f, g)[1])


def lsc_sup_chain(chain: Sequence[LscStep]) -> LscStep:
    """Supremum of a finite chain checked nonempty and increasing in
    `lsc_leq`: its pointwise max envelope, which is its last member."""
    chain = list(chain)
    if not chain:
        raise NotIncreasingError("the chain must be nonempty")
    for a, b in zip(chain, chain[1:]):
        if not lsc_leq(a, b):
            raise NotIncreasingError("the chain is not increasing")
    return chain[-1]


# ---------------------------------------------------------------------------
# NCCW pullback elements
# ---------------------------------------------------------------------------

def _check_nonnegative(m: IntMatrix, name: str) -> None:
    if any(x < 0 for row in m.entries for x in row):
        raise ValueError(f"{name} must have nonnegative entries")


def ext_matvec(m: IntMatrix, v: Sequence[ExtNat]) -> tuple[ExtNat, ...]:
    """M v in ExtNat arithmetic with the rank convention oo * 0 = 0: a row
    sums k * x over its nonzero multipliers k (all must be nonnegative), and
    is oo if one of those x is."""
    if m.cols != len(v):
        raise DimensionMismatchError(f"matrix has {m.cols} columns, vector has {len(v)}")
    vec = [as_extnat(x) for x in v]
    out = []
    for row in m.entries:
        terms = [(k, x) for k, x in zip(row, vec) if k]
        if any(k < 0 for k, _ in terms):
            raise ValueError("multiplier must be nonnegative")
        out.append(EXT_INF if any(x.is_infinite for _, x in terms)
                   else ExtNat(sum(k * x.value for k, x in terms)))
    return tuple(out)


@dataclass(frozen=True)
class CuNccwElement:
    """An element (f, v) of the pullback model, boundary data included.

    Construction checks shapes and nonnegativity of the boundary matrices
    only; whether the boundary conditions actually hold is `nccw_check`'s
    job, so invalid candidates can be represented and rejected.
    """

    f: tuple[LscStep, ...]
    v: tuple[ExtNat, ...]
    m0: IntMatrix
    m1: IntMatrix

    def __post_init__(self):
        object.__setattr__(self, "f", tuple(self.f))
        object.__setattr__(self, "v", tuple(as_extnat(x) for x in self.v))
        if self.m0.rows != self.m1.rows or self.m0.cols != self.m1.cols:
            raise ShapeMismatchError("boundary matrices must have equal shapes")
        if len(self.f) != self.m0.rows:
            raise DimensionMismatchError(
                f"{len(self.f)} function components vs {self.m0.rows} matrix rows")
        if len(self.v) != self.m0.cols:
            raise DimensionMismatchError(
                f"{len(self.v)} vector entries vs {self.m0.cols} matrix columns")
        _check_nonnegative(self.m0, "M0")
        _check_nonnegative(self.m1, "M1")


def nccw_check(e: CuNccwElement) -> bool:
    """True iff f(0) = M0 v and f(1) = M1 v hold component-wise."""
    at0 = tuple(comp.left_value for comp in e.f)
    at1 = tuple(comp.right_value for comp in e.f)
    return at0 == ext_matvec(e.m0, e.v) and at1 == ext_matvec(e.m1, e.v)


def add_elements(e1: CuNccwElement, e2: CuNccwElement) -> CuNccwElement:
    """Component-wise sum; only defined over the same boundary data."""
    if e1.m0 != e2.m0 or e1.m1 != e2.m1:
        raise ShapeMismatchError("elements live over different pullbacks")
    return CuNccwElement(
        tuple(lsc_add(a, b) for a, b in zip(e1.f, e2.f)),
        tuple(a + b for a, b in zip(e1.v, e2.v)),
        e1.m0, e1.m1)


def dimension_drop_sizes(p: int, q: int) -> tuple[int, int]:
    """The block sizes (p, q) of a dimension-drop interval, as Python ints.

    Each must be an integer >= 1 by the integer rule of `rng` (Python and
    numpy integers, never a bool).  Anything else raises the same
    ValueError.  Every dimension-drop entry point checks its sizes here.
    """
    message, got = "block sizes must be integers >= 1", f"p={p!r}, q={q!r}"
    sizes = (_integer(p, message, got), _integer(q, message, got))
    if min(sizes) < 1:
        raise ValueError(f"{message}, got {got}")
    return sizes


def dimension_drop_boundary_maps(p: int, q: int) -> tuple[IntMatrix, IntMatrix]:
    """Boundary matrices of the (p, q) dimension-drop interval.

    At 0 the fibre is the p-block amplified q times, at 1 the q-block
    amplified p times, so M0 = [q, 0] and M1 = [0, p] on the rank vector
    (v_p, v_q).  The sizes are checked by `dimension_drop_sizes`: integers
    >= 1, numpy integers included, bools refused.
    """
    p, q = dimension_drop_sizes(p, q)
    return IntMatrix(1, 2, ((q, 0),)), IntMatrix(1, 2, ((0, p),))


def dimension_drop_unit(p: int, q: int) -> CuNccwElement:
    """The unit's class: constant rank pq with block ranks (p, q).

    The sizes are checked by `dimension_drop_sizes`: integers >= 1, numpy
    integers included, bools refused.
    """
    p, q = dimension_drop_sizes(p, q)
    m0, m1 = dimension_drop_boundary_maps(p, q)
    return CuNccwElement((LscStep.constant(p * q),), (ExtNat(p), ExtNat(q)), m0, m1)


def k1_trivial(m0: IntMatrix, m1: IntMatrix) -> bool:
    """Whether the pullback has trivial K1: M0 - M1 surjective over Z.

    An integer matrix is surjective iff its cokernel is trivial.
    """
    if (m0.rows, m0.cols) != (m1.rows, m1.cols):
        raise ShapeMismatchError("boundary matrices must have equal shapes")
    return cokernel(m0 - m1).is_zero


LEBESGUE = "lebesgue"


def dim_function(f: LscStep, measure=LEBESGUE) -> Fraction:
    """Measure of the open support {f > 0}.

    `measure` is either the LEBESGUE marker or an iterable of
    (position, weight) atoms with exact rational data.  The support of an
    lsc function is open, so for Lebesgue measure only the open gaps with
    nonzero value (oo included) contribute.
    """
    if isinstance(measure, str):
        if measure != LEBESGUE:
            raise ValueError(f"unknown measure {measure!r}")
        cuts = [Fraction(0), *f.breakpoints, Fraction(1)]
        total = Fraction(0)
        for lo, hi, val in zip(cuts, cuts[1:], f.interval_values):
            if val.value != 0:
                total += hi - lo
        return total
    total = Fraction(0)
    for pos, weight in measure:
        if f.value_at(pos).value != 0:
            total += _as_fraction(weight, "weights")
    return total


# ---------------------------------------------------------------------------
# the monoid N_0 |_| (0, oo]
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CuJiangSu:
    """Compact classes N_0 and soft classes (0, oo] with their standard order.

    Addition lands in the soft sheet as soon as one summand is soft.  The
    order restricts to the usual ones on each sheet; across sheets, a soft
    value is dominated by the compact of the same size, while a nonzero
    compact k only sits below soft values strictly larger than k.
    """

    kind: str
    value: int | float | Fraction

    def __post_init__(self):
        if self.kind == "compact":
            if type(self.value) is not int or self.value < 0:
                raise ValueError("compact classes carry an integer >= 0")
        elif self.kind == "soft":
            if not isinstance(self.value, (float, Fraction)):
                message = "soft values must be floats, Fractions or integers"
                object.__setattr__(self, "value", _integer(self.value, message))
            if not self.value > 0:
                raise ValueError("soft classes carry a value in (0, oo]")
        else:
            raise ValueError(f"unknown kind {self.kind!r}")

    @classmethod
    def compact(cls, k: int) -> "CuJiangSu":
        return cls("compact", k)

    @classmethod
    def soft(cls, t) -> "CuJiangSu":
        return cls("soft", t)

    @property
    def is_compact(self) -> bool:
        return self.kind == "compact"

    def __add__(self, other: "CuJiangSu") -> "CuJiangSu":
        if self.is_compact and other.is_compact:
            return CuJiangSu.compact(self.value + other.value)
        return CuJiangSu.soft(self.value + other.value)

    def __le__(self, other: "CuJiangSu") -> bool:
        if self.is_compact and not other.is_compact:
            return self.value == 0 or self.value < other.value
        return self.value <= other.value

    def __lt__(self, other: "CuJiangSu") -> bool:
        return self <= other and self != other

    def __str__(self) -> str:
        if self.is_compact:
            return f"[{self.value}]"
        return f"soft({'inf' if self.value == math.inf else self.value})"

