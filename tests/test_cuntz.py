import enum
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarlab.cuntz import (
    EXT_INF,
    CuJiangSu,
    CuNccwElement,
    DimensionMismatchError,
    ExtNat,
    LEBESGUE,
    LscStep,
    NotIncreasingError,
    ShapeMismatchError,
    add_elements,
    dim_function,
    dimension_drop_boundary_maps,
    dimension_drop_unit,
    ext_matvec,
    k1_trivial,
    lsc_add,
    lsc_leq,
    lsc_sup_chain,
    nccw_check,
)
from cstarlab.intlinalg import FGAbelianGroup, IntMatrix, invariant_factors
from cstarlab.ktheory import k_dimension_drop
from cstarlab.rng import stream
from cstarlab.transport import DiscreteMeasure

from oracles import (
    ext_matvec_per_entry,
    fraction_grid,
    surjective_box_search,
    surjective_minors_gcd,
)

GRID = fraction_grid(1000)


def grid_values(f):
    return [f.value_at(x) for x in GRID]


class TestExtNat:
    def test_total_order(self):
        assert ExtNat(0) <= ExtNat(5) <= EXT_INF
        assert not EXT_INF <= ExtNat(10 ** 9)
        assert EXT_INF <= EXT_INF

    def test_absorbing_addition(self):
        assert ExtNat(3) + ExtNat(4) == ExtNat(7)
        assert EXT_INF + ExtNat(4) == EXT_INF
        assert ExtNat(4) + EXT_INF == EXT_INF

    def test_rank_multiplication_convention(self):
        # oo * 0 = 0, oo * 3 = oo and 4 * 5 = 20, as one-entry products M v
        assert ext_matvec(IntMatrix.from_rows([[0]]), (EXT_INF,)) == (ExtNat(0),)
        assert ext_matvec(IntMatrix.from_rows([[3]]), (EXT_INF,)) == (EXT_INF,)
        assert ext_matvec(IntMatrix.from_rows([[4]]), (ExtNat(5),)) == (ExtNat(20),)
        with pytest.raises(ValueError, match="^multiplier must be nonnegative$"):
            ext_matvec(IntMatrix.from_rows([[-1]]), (ExtNat(5),))

    def test_validation(self):
        with pytest.raises(ValueError):
            ExtNat(-1)
        with pytest.raises(ValueError):
            ExtNat(1.5)


@st.composite
def lsc_steps(draw):
    k = draw(st.integers(0, 4))
    pool = sorted(draw(st.sets(st.fractions(min_value=Fraction(1, 16),
                                            max_value=Fraction(15, 16),
                                            max_denominator=16),
                               min_size=k, max_size=k)))
    values = st.one_of(st.integers(0, 4).map(ExtNat), st.just(EXT_INF))
    ivals = [draw(values) for _ in range(k + 1)]
    pvals = []
    for i in range(k):
        cap = min(ivals[i], ivals[i + 1], key=lambda v: (v.is_infinite, v.value or 0))
        if cap.is_infinite:
            pvals.append(draw(values))
        else:
            pvals.append(ExtNat(draw(st.integers(0, cap.value))))
    left = ivals[0] if ivals[0].is_infinite else ExtNat(draw(st.integers(0, ivals[0].value)))
    right = ivals[-1] if ivals[-1].is_infinite else ExtNat(draw(st.integers(0, ivals[-1].value)))
    return LscStep(tuple(pool), tuple(ivals), tuple(pvals), left, right)


class TestLscStep:
    def test_indicator_values(self):
        f = LscStep.indicator(0, Fraction(1, 2))
        assert f.value_at(0) == ExtNat(0)
        assert f.value_at(Fraction(1, 4)) == ExtNat(1)
        assert f.value_at(Fraction(1, 2)) == ExtNat(0)
        assert f.value_at(1) == ExtNat(0)

    def test_lsc_enforced(self):
        with pytest.raises(ValueError):
            # point value above a neighbouring interval value
            LscStep((Fraction(1, 2),), (ExtNat(1), ExtNat(0)), (ExtNat(1),),
                    ExtNat(0), ExtNat(0))
        with pytest.raises(ValueError):
            LscStep((), (ExtNat(0),), (), ExtNat(1), ExtNat(0))
        half, third = Fraction(1, 2), Fraction(1, 3)
        for args, match in [(((), (1, 1), (), 0, 0), "one interval value per gap"),
                            (((half,), (1, 1), (), 0, 0), "one point value per breakpoint"),
                            (((1,), (1, 1), (0,), 0, 0), "strictly inside"),
                            (((half, third), (1, 2, 1), (0, 0), 0, 0), "strictly increasing"),
                            (((), (0,), (), 0, 1), "not lower semicontinuous at 1")]:
            with pytest.raises(ValueError, match=match):
                LscStep(*args)
        with pytest.raises(ValueError, match="need 0 <= lo < hi <= 1"):
            LscStep.indicator(half, half)
        with pytest.raises(ValueError, match="lives on"):
            LscStep.constant(1).value_at(2)

    def test_canonical_form_merges(self):
        f = LscStep((Fraction(1, 3),), (ExtNat(2), ExtNat(2)), (ExtNat(2),),
                    ExtNat(0), ExtNat(1))
        assert f.breakpoints == ()
        assert f == LscStep.constant(2) if f.left_value == ExtNat(2) else True
        # idempotence: rebuilding from the fields is a fixed point
        again = LscStep(f.breakpoints, f.interval_values, f.breakpoint_values,
                        f.left_value, f.right_value)
        assert again == f

    @settings(max_examples=80, deadline=None)
    @given(lsc_steps())
    def test_canonicalisation_idempotent(self, f):
        again = LscStep(f.breakpoints, f.interval_values, f.breakpoint_values,
                        f.left_value, f.right_value)
        assert again == f

    def test_add_identity(self):
        f = LscStep.indicator(Fraction(1, 4), Fraction(3, 4), 2)
        assert lsc_add(f, LscStep.zero()) == f

    def test_add_spec_example(self):
        # indicator of (0,1/2) plus indicator of (0,1): 2 on (0,1/2), 1 at
        # 1/2 and on (1/2,1), 0 at the endpoints
        f = LscStep.indicator(0, Fraction(1, 2))
        g = LscStep.indicator(0, 1)
        h = lsc_add(f, g)
        oracle = [f.value_at(x) + g.value_at(x) for x in GRID]
        assert grid_values(h) == oracle
        assert h.value_at(Fraction(1, 4)) == ExtNat(2)
        assert h.value_at(Fraction(1, 2)) == ExtNat(1)
        assert h.value_at(Fraction(3, 4)) == ExtNat(1)

    def test_add_infinity_absorbs(self):
        f = LscStep.indicator(0, 1, 3)
        inf_fn = LscStep.indicator(0, 1, EXT_INF)
        h = lsc_add(f, inf_fn)
        assert h.value_at(Fraction(1, 2)) == EXT_INF
        assert h.value_at(0) == ExtNat(0)

    @settings(max_examples=60, deadline=None)
    @given(lsc_steps(), lsc_steps())
    def test_add_matches_grid_oracle(self, f, g):
        h = lsc_add(f, g)
        coarse = fraction_grid(48)
        assert [h.value_at(x) for x in coarse] == \
            [f.value_at(x) + g.value_at(x) for x in coarse]

    @settings(max_examples=60, deadline=None)
    @given(lsc_steps(), lsc_steps())
    def test_add_commutative(self, f, g):
        assert lsc_add(f, g) == lsc_add(g, f)

    @settings(max_examples=40, deadline=None)
    @given(lsc_steps(), lsc_steps(), lsc_steps())
    def test_add_associative(self, f, g, h):
        assert lsc_add(lsc_add(f, g), h) == lsc_add(f, lsc_add(g, h))


class TestLscOrder:
    def test_support_containment(self):
        assert lsc_leq(LscStep.indicator(0, Fraction(1, 2)), LscStep.indicator(0, 1))
        assert not lsc_leq(LscStep.indicator(0, 1), LscStep.indicator(0, Fraction(1, 2)))

    @settings(max_examples=60, deadline=None)
    @given(lsc_steps())
    def test_reflexive(self, f):
        assert lsc_leq(f, f)

    @settings(max_examples=60, deadline=None)
    @given(lsc_steps(), lsc_steps())
    def test_antisymmetric(self, f, g):
        if lsc_leq(f, g) and lsc_leq(g, f):
            assert f == g

    @settings(max_examples=40, deadline=None)
    @given(lsc_steps(), lsc_steps(), lsc_steps())
    def test_transitive(self, f, g, h):
        if lsc_leq(f, g) and lsc_leq(g, h):
            assert lsc_leq(f, h)

    @settings(max_examples=40, deadline=None)
    @given(lsc_steps(), lsc_steps(), lsc_steps())
    def test_addition_monotone(self, f, g, h):
        if lsc_leq(f, g):
            assert lsc_leq(lsc_add(f, h), lsc_add(g, h))


class TestSupChain:
    def test_growing_supports(self):
        chain = [LscStep.indicator(0, 1 - Fraction(1, k)) for k in range(2, 21)]
        sup = lsc_sup_chain(chain)
        assert sup == chain[-1]
        assert dim_function(sup) == 1 - Fraction(1, 20)

    def test_singleton_and_constant(self):
        f = LscStep.indicator(0, Fraction(1, 3), 2)
        assert lsc_sup_chain([f]) == f
        assert lsc_sup_chain([f, f, f]) == f

    def test_not_increasing_rejected(self):
        f = LscStep.indicator(0, Fraction(1, 2))
        g = LscStep.indicator(Fraction(1, 2), 1)
        with pytest.raises(NotIncreasingError):
            lsc_sup_chain([f, g])
        with pytest.raises(NotIncreasingError):
            lsc_sup_chain([])

    @settings(max_examples=40, deadline=None)
    @given(lsc_steps(), st.lists(lsc_steps(), max_size=3))
    def test_sup_is_last_member_and_max_envelope(self, f, steps):
        # f, f + g1, f + g1 + g2, ... is increasing in the pointwise order
        chain = [f]
        for g in steps:
            chain.append(lsc_add(chain[-1], g))
        sup = lsc_sup_chain(chain)
        assert sup == chain[-1]
        points = GRID + [b for h in chain for b in h.breakpoints]
        assert [sup.value_at(x) for x in points] == \
            [max(h.value_at(x) for h in chain) for x in points]


class TestNccw:
    def test_unit_element_of_prime_pair(self):
        # rank bookkeeping: the unit has rank pq over the interval and
        # block ranks (p, q); amplifications give rank(1 (x) 1_q) = q * p
        assert nccw_check(dimension_drop_unit(2, 3))

    def test_zero_element(self):
        m0, m1 = dimension_drop_boundary_maps(2, 3)
        zero = CuNccwElement((LscStep.zero(),), (ExtNat(0), ExtNat(0)), m0, m1)
        assert nccw_check(zero)

    def test_violating_element(self):
        m0, m1 = dimension_drop_boundary_maps(2, 3)
        bad = CuNccwElement((LscStep.constant(6),), (ExtNat(1), ExtNat(1)), m0, m1)
        assert not nccw_check(bad)  # 3 * 1 != 6 at the left endpoint

    def test_infinity_times_zero_column(self):
        m = IntMatrix.from_rows([[0, 2]])
        assert ext_matvec(m, (EXT_INF, ExtNat(3))) == (ExtNat(6),)

    def test_ext_matvec_matches_per_entry_oracle(self):
        # 1-4 x 1-4 matrices with entries in 0..5 (-1..5 every 50th case),
        # about a fifth of the vector entries oo
        rng = stream(18, 0)
        errors = 0
        for case in range(2000):
            rows, cols = (int(x) for x in rng.integers(1, 5, 2))
            m = IntMatrix.from_rows(rng.integers(-1 if case % 50 == 0 else 0, 6, (rows, cols)))
            v = [EXT_INF if rng.random() < 0.2 else ExtNat(int(rng.integers(0, 7)))
                 for _ in range(cols)]
            try:
                expected = ext_matvec_per_entry(m, v)
            except ValueError as exc:
                errors += 1
                with pytest.raises(ValueError, match=f"^{exc}$"):
                    ext_matvec(m, v)
                continue
            assert ext_matvec(m, v) == expected
        assert errors > 0

    def test_addition_preserves_validity(self):
        e = dimension_drop_unit(3, 4)
        m0, m1 = e.m0, e.m1
        other = CuNccwElement((LscStep.constant(24),), (ExtNat(6), ExtNat(8)), m0, m1)
        assert nccw_check(other)
        total = add_elements(e, other)
        assert nccw_check(total)

    def test_dimension_validation(self):
        m0, m1 = dimension_drop_boundary_maps(2, 3)
        with pytest.raises(DimensionMismatchError):
            CuNccwElement((), (ExtNat(1), ExtNat(1)), m0, m1)
        with pytest.raises(ShapeMismatchError):
            CuNccwElement((LscStep.zero(),), (ExtNat(0), ExtNat(0)),
                          m0, IntMatrix.from_rows([[1, 1, 1]]))
        with pytest.raises(DimensionMismatchError):
            CuNccwElement((LscStep.zero(),), (ExtNat(0),), m0, m1)
        with pytest.raises(ValueError, match="M0 must have nonnegative entries"):
            CuNccwElement((LscStep.zero(),), (ExtNat(0), ExtNat(0)),
                          IntMatrix.from_rows([[-1, 0]]), m1)
        with pytest.raises(DimensionMismatchError):
            ext_matvec(m0, (ExtNat(1),))
        with pytest.raises(ShapeMismatchError, match="different pullbacks"):
            add_elements(dimension_drop_unit(2, 3), dimension_drop_unit(3, 4))


DIMENSION_DROP_ENTRY_POINTS = [dimension_drop_boundary_maps, dimension_drop_unit, k_dimension_drop]


class TestDimensionDropSizes:
    # the three dimension-drop entry points share one check of (p, q)
    @pytest.mark.parametrize("entry", DIMENSION_DROP_ENTRY_POINTS)
    @pytest.mark.parametrize("p, q", [(True, 2), (2, True), (False, 1), (np.True_, 2),
                                      (2.0, 3), ("2", 3), (None, 3), (0, 3), (2, -1)])
    def test_refused_with_one_message(self, entry, p, q):
        message = f"block sizes must be integers >= 1, got p={p!r}, q={q!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            entry(p, q)

    @pytest.mark.parametrize("entry", DIMENSION_DROP_ENTRY_POINTS)
    def test_numpy_integers_accepted(self, entry):
        assert entry(np.int64(2), np.int32(4)) == entry(2, 4)

    def test_numpy_sizes_become_python_ints(self):
        m0, m1 = dimension_drop_boundary_maps(np.int64(2), np.uint8(3))
        unit = dimension_drop_unit(np.int64(2), np.uint8(3))
        assert [type(x) for x in m0.entries[0] + m1.entries[0]] == [int] * 4
        assert [type(x.value) for x in unit.v] == [int, int]
        assert nccw_check(unit)


class TestK1Trivial:
    def test_prime_pair(self):
        m0, m1 = dimension_drop_boundary_maps(2, 3)
        assert (m0 - m1) == IntMatrix.from_rows([[3, -2]])
        assert k1_trivial(m0, m1)

    def test_non_coprime_pair(self):
        m0, m1 = dimension_drop_boundary_maps(2, 4)
        assert not k1_trivial(m0, m1)

    def test_zero_difference(self):
        m = IntMatrix.from_rows([[1, 2]])
        assert not k1_trivial(m, m)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            k1_trivial(IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1, 2]]))

    def test_agrees_with_brute_force_on_small_shapes(self):
        rng = stream(55)
        for _ in range(120):
            rows = int(rng.integers(1, 4))
            cols = int(rng.integers(1, 4))
            m0 = IntMatrix.from_rows(rng.integers(0, 6, size=(rows, cols)).tolist(), cols=cols)
            m1 = IntMatrix.from_rows(rng.integers(0, 6, size=(rows, cols)).tolist(), cols=cols)
            verdict = k1_trivial(m0, m1)
            assert verdict == surjective_minors_gcd(m0 - m1)
            if surjective_box_search(m0 - m1, 6):
                assert verdict


class TestDimFunction:
    def test_half_indicator(self):
        assert dim_function(LscStep.indicator(0, Fraction(1, 2))) == Fraction(1, 2)

    def test_zero_function(self):
        assert dim_function(LscStep.zero()) == 0

    def test_constant_has_full_support(self):
        for k in (1, 2, 7):
            assert dim_function(LscStep.constant(k)) == 1

    def test_breakpoint_values_do_not_contribute(self):
        f = lsc_add(LscStep.indicator(0, Fraction(1, 2)),
                    LscStep.indicator(Fraction(1, 2), 1))
        assert dim_function(f) == 1 - 0  # two open halves, breakpoint is null

    def test_atomic_measure(self):
        f = LscStep.indicator(0, Fraction(1, 2))
        atoms = [(Fraction(1, 4), Fraction(1, 2)), (Fraction(3, 4), Fraction(1, 2))]
        assert dim_function(f, atoms) == Fraction(1, 2)

    def test_monotone_under_order(self):
        f = LscStep.indicator(Fraction(1, 4), Fraction(1, 2))
        g = LscStep.indicator(Fraction(1, 8), Fraction(3, 4), 2)
        assert lsc_leq(f, g)
        assert dim_function(f) <= dim_function(g)

    def test_additive_on_supports(self):
        # measure of union of supports, cross-checked with interval lengths
        f = LscStep.indicator(0, Fraction(1, 3))
        g = LscStep.indicator(Fraction(1, 4), Fraction(1, 2))
        union_length = Fraction(1, 2)  # (0,1/3) u (1/4,1/2) = (0,1/2)
        assert dim_function(lsc_add(f, g)) == union_length


class TestCuJiangSu:
    def test_zero_below_everything(self):
        zero = CuJiangSu.compact(0)
        for other in [CuJiangSu.compact(0), CuJiangSu.compact(5),
                      CuJiangSu.soft(Fraction(1, 10)), CuJiangSu.soft(math.inf)]:
            assert zero <= other

    def test_soft_below_compact_of_same_value(self):
        assert CuJiangSu.soft(1) <= CuJiangSu.compact(1)
        assert not CuJiangSu.compact(1) <= CuJiangSu.soft(1)

    def test_cross_sheet_strictness(self):
        assert CuJiangSu.compact(1) <= CuJiangSu.soft(Fraction(3, 2))
        assert not CuJiangSu.compact(2) <= CuJiangSu.soft(2)
        assert CuJiangSu.soft(2) <= CuJiangSu.soft(2)

    def test_addition(self):
        assert CuJiangSu.compact(1) + CuJiangSu.soft(0.5) == CuJiangSu.soft(1.5)
        assert CuJiangSu.compact(2) + CuJiangSu.compact(3) == CuJiangSu.compact(5)
        assert CuJiangSu.soft(1) + CuJiangSu.soft(math.inf) == CuJiangSu.soft(math.inf)

    def test_constructor_and_validation(self):
        assert CuJiangSu("compact", 2) == CuJiangSu.compact(2)
        with pytest.raises(ValueError):
            CuJiangSu.soft(0)
        with pytest.raises(ValueError):
            CuJiangSu.compact(-1)
        for k in (True, 1.0, np.int64(1)):  # compact(True) once printed [True]
            with pytest.raises(ValueError, match="compact classes carry an integer"):
                CuJiangSu.compact(k)
        with pytest.raises(ValueError):
            CuJiangSu("weird", 1)

    def test_order_against_two_sheet_model(self):
        # frozen from the unique-trace picture: a compact class pairs to its
        # integer value, a soft class to its value minus an infinitesimal
        import itertools

        elements = [CuJiangSu.compact(k) for k in range(0, 4)]
        elements += [CuJiangSu.soft(Fraction(t, 2)) for t in range(1, 7)]

        def model_leq(x, y):
            # encode soft(t) as (t, 0) and compact(k) as (k, 1) ordered
            # lexicographically, except compact(0) is the zero element
            def key(e):
                if e.is_compact:
                    return (Fraction(e.value), 1 if e.value > 0 else -1)
                return (Fraction(e.value), 0)
            return key(x) <= key(y)

        for x, y in itertools.product(elements, repeat=2):
            assert (x <= y) == model_leq(x, y), (str(x), str(y))


def test_lebesgue_marker():
    assert dim_function(LscStep.constant(1), LEBESGUE) == 1
    with pytest.raises(ValueError):
        dim_function(LscStep.constant(1), "counting")


class _Two(enum.IntEnum):
    TWO = 2


#: what the exact layer refuses where it stores an integer, and where it
#: reads a rational (a Fraction, or an integer by `rng._integer`)
NOT_INTS = (True, np.True_, 2.5, "6", _Two.TWO)
NOT_RATIONALS = (True, np.True_, 2.5, "1/4", Decimal("0.25"))
HALF = Fraction(1, 2)

#: entry point, the values it refuses, and the exception and message
REFUSALS = [
    ("IntMatrix", lambda x: IntMatrix(1, 2, ((1, x),)), NOT_INTS,
     TypeError, "^entries must be Python ints, got "),
    ("FGAbelianGroup", lambda x: FGAbelianGroup(x), NOT_INTS, ValueError, "^free rank"),
    ("FGAbelianGroup torsion", lambda x: FGAbelianGroup(0, (2, x)), NOT_INTS,
     ValueError, "^torsion orders"),
    ("FGAbelianGroup.cyclic", FGAbelianGroup.cyclic, NOT_INTS, ValueError, "^cyclic orders"),
    ("invariant_factors", lambda x: invariant_factors([x, 4]), NOT_INTS,
     ValueError, "^cyclic orders"),
    ("ExtNat", ExtNat, NOT_INTS, ValueError, "^ExtNat wants a nonnegative int or None, got "),
    ("CuJiangSu.compact", CuJiangSu.compact, NOT_INTS, ValueError, "^compact classes"),
    ("CuJiangSu.soft", CuJiangSu.soft, (True, np.True_, "6"), ValueError, "^soft values"),
    ("LscStep.indicator value", lambda x: LscStep.indicator(0, 1, x), NOT_INTS,
     ValueError, "^ExtNat wants"),
    ("LscStep breakpoints", lambda x: LscStep((x,), (1, 1), (1,), 0, 0), NOT_RATIONALS,
     TypeError, "^breakpoints must be Fractions or integers, got "),
    ("LscStep.indicator", lambda x: LscStep.indicator(0, x), NOT_RATIONALS,
     TypeError, "^points must be Fractions or integers, got "),
    ("LscStep.value_at", LscStep.indicator(0, 1).value_at, NOT_RATIONALS,
     TypeError, "^points must be Fractions or integers, got "),
    ("dim_function point", lambda x: dim_function(LscStep.constant(1), [(x, 1)]), NOT_RATIONALS,
     TypeError, "^points must be"),
    ("dim_function weight", lambda x: dim_function(LscStep.constant(1), [(HALF, x)]),
     NOT_RATIONALS, TypeError, "^weights must be Fractions or integers, got "),
    ("DiscreteMeasure", lambda x: DiscreteMeasure((0, 1, 2, 3), (x,) * 4), NOT_RATIONALS,
     TypeError, "^weights must be Fractions or integers, got "),
]

#: numpy integers are read as Python ints: entry point, input, exact result
CONVERSIONS = [
    ("dim_function int64 weights",
     lambda w: dim_function(LscStep.constant(1), [(HALF, w), (Fraction(1, 3), w)]),
     np.int64(2 ** 62), Fraction(2 ** 63)),
    ("DiscreteMeasure int64 weight", lambda w: DiscreteMeasure((0,), (w,)).weights[0],
     np.int64(1), Fraction(1)),
    ("CuJiangSu.soft int64", lambda t: CuJiangSu.soft(t).value, np.int64(3), 3),
    # a Fraction of numpy integers once kept its int64 parts, and the sum wrapped
    ("dim_function int64-Fraction weights",
     lambda w: dim_function(LscStep.constant(1), [(HALF, w), (Fraction(1, 3), w)]),
     Fraction(np.int64(2 ** 62)), Fraction(2 ** 63)),
    ("CuJiangSu.soft int64-Fraction doubled",
     lambda t: (CuJiangSu.soft(t) + CuJiangSu.soft(t)).value,
     Fraction(np.int64(2 ** 62)), Fraction(2 ** 63)),
]


@pytest.mark.parametrize("build, value, expected", [
    *(pytest.param(build, x, (error, match), id=f"{name}-{x!r}")
      for name, build, values, error, match in REFUSALS for x in values),
    *(pytest.param(build, x, expected, id=name) for name, build, x, expected in CONVERSIONS),
])
def test_exact_numbers_have_one_rule_each(build, value, expected):
    if isinstance(expected, tuple):
        error, match = expected
        with pytest.raises(error, match=match):
            build(value)
        return
    got = build(value)
    assert got == expected and type(got) is type(expected)
    assert type(getattr(got, "numerator", got)) is int
