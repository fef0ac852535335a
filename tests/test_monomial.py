import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from hmideals.constructors import spectrum_diagonal
from hmideals.errors import DimensionError
from hmideals.monomial import (
    INFINITE,
    MonIdeal,
    _sweep,
    divides,
    max_ideal_power,
    squarefree_ideal,
    unit_ideal,
)

from oracles import packed_minimalize, packed_subset, pairwise_minimalize, pairwise_subset


def I(n, *gens):
    return MonIdeal(n, tuple(gens))


class TestNormalization:
    def test_redundant_generators_dropped(self):
        assert I(2, (1, 0), (2, 0), (1, 1)) == I(2, (1, 0))

    def test_duplicates_dropped(self):
        assert I(2, (1, 2), (1, 2)) == I(2, (1, 2))

    def test_idempotent(self):
        a = I(3, (2, 0, 1), (0, 3, 0), (1, 1, 1))
        assert MonIdeal(3, a.gens) == a

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            I(2, (1, 0, 0))

    def test_normalize_sorted(self):
        a = MonIdeal(2, ((0, 3), (1, 1), (2, 0), (1, 2)))
        assert a.gens == ((0, 3), (1, 1), (2, 0))


class TestMembership:
    def test_unit_contains_everything(self):
        assert unit_ideal(2).contains((0, 0))

    def test_zero_contains_nothing(self):
        assert not I(2).contains((5, 5))

    def test_cusp_value_standard_monomials(self):
        # (x^2, x y, y^3): 1, x, y, y^2 are outside
        a = I(2, (2, 0), (1, 1), (0, 3))
        assert not a.contains((0, 0))
        assert not a.contains((1, 0))
        assert not a.contains((0, 2))
        assert a.contains((1, 1))
        assert a.contains((0, 3))

    def test_divides(self):
        assert divides((1, 2), (3, 2))
        assert not divides((1, 2), (0, 5))


class TestLattice:
    def test_sum(self):
        assert I(2, (2, 0)) + I(2, (0, 3)) == I(2, (2, 0), (0, 3))

    def test_product(self):
        m = I(2, (1, 0), (0, 1))
        assert m * m == I(2, (2, 0), (1, 1), (0, 2))

    def test_power_matches_repeated_product(self):
        a = I(2, (2, 0), (0, 3))
        assert a ** 3 == a * a * a

    def test_power_zero_is_unit(self):
        assert I(2, (2, 1)) ** 0 == unit_ideal(2)

    def test_subset_chain(self):
        # decreasing chain of the (2,3)-diagonal values
        assert I(2, (2, 0), (1, 1), (0, 3)).subset(I(2, (1, 0), (0, 2)))
        assert I(2, (1, 0), (0, 2)).subset(I(2, (1, 0), (0, 1)))

    def test_scale(self):
        assert I(2, (1, 2)).scale((1, 0)) == I(2, (2, 2))


class TestColength:
    def test_maximal_ideal_powers(self):
        from math import comb

        for n in (1, 2, 3):
            for q in (0, 1, 2, 3, 4):
                assert max_ideal_power(n, q).colength() == comb(n + q - 1, n)

    def test_cusp_value(self):
        assert I(2, (2, 0), (1, 1), (0, 3)).colength() == 4

    def test_infinite(self):
        assert I(2, (1, 1)).colength() is INFINITE

    def test_unit(self):
        assert unit_ideal(3).colength() == 0

    def test_zero_variables(self):
        # the ring is the field: one monomial, 1
        assert I(0).colength() == 1
        assert unit_ideal(0).colength() == 0


class TestCountOutside:
    def test_finite_difference(self):
        outer = I(2, (1, 0), (0, 2))
        inner = I(2, (2, 0), (1, 1), (0, 3))
        assert outer.count_outside(inner) == 2  # x and y^2

    def test_equal_ideals(self):
        a = I(2, (1, 1))
        assert a.count_outside(a) == 0

    def test_infinite_difference(self):
        assert I(2, (1, 0)).count_outside(I(2, (2, 0))) is INFINITE

    def test_infinite_strip(self):
        # (y) / (x y): monomials y^b, b >= 1, all outside the inner ideal
        assert I(2, (0, 1)).count_outside(I(2, (1, 1))) is INFINITE

    def test_outer_generator_past_inner_box(self):
        # (x^5, y) / (y): the monomials x^a, a >= 5, lie past every exponent
        # of the inner ideal
        assert I(2, (5, 0), (0, 1)).count_outside(I(2, (0, 1))) is INFINITE

    def test_zero_variables(self):
        assert unit_ideal(0).count_outside(I(0)) == 1
        assert unit_ideal(0).count_outside(unit_ideal(0)) == 0

    def test_zero_outer(self):
        assert I(2).count_outside(I(2)) == 0

    def test_not_contained_raises(self):
        with pytest.raises(ValueError):
            I(2, (2, 0)).count_outside(I(2, (0, 1)))


class TestDivisorial:
    def test_gcd_part(self):
        a = I(2, (2, 1), (1, 3))
        assert a.divisorial_part() == (1, 1)
        assert a.strip_divisorial() == I(2, (1, 0), (0, 2))

    def test_already_primitive(self):
        a = I(2, (1, 0), (0, 1))
        assert a.divisorial_part() == (0, 0)
        assert a.strip_divisorial() == a


class TestSquarefree:
    @pytest.mark.parametrize("support,degree", [
        ((0, 1, 2, 3), 2), ((0, 2, 3), 3), ((1, 3), 1), ((0, 1, 2), 0), ((0, 1), 3),
    ])
    def test_one_generator_per_subset(self, support, degree):
        ideal = squarefree_ideal(4, support, degree)
        assert len(ideal.gens) == math.comb(len(support), degree)
        for g in ideal.gens:
            assert sum(g) == degree and set(g) <= {0, 1}
            assert all(g[i] == 0 for i in range(4) if i not in support)

    def test_degree_zero_is_unit(self):
        assert squarefree_ideal(3, (0, 2), 0) == unit_ideal(3)


class TestSerialization:
    def test_round_trip(self):
        # every generator, as a list, in stored (ascending lex) order
        a = I(3, (2, 0, 1), (0, 1, 2))
        assert a.to_json() == {"n": 3, "gens": [[0, 1, 2], [2, 0, 1]]}

    def test_display(self):
        assert str(I(2, (2, 0), (1, 1), (0, 3))) == "(x^2, x*y, y^3)"
        assert str(I(2, (2, 0), (0, 2))) == "(x^2, y^2)"  # one exponent, two names
        assert str(unit_ideal(2)) == "(1)"
        assert str(I(2)) == "(0)"

    def test_display_names(self):
        # x, y, z up to three variables, z1..zn beyond; exponent 1 is the bare name
        assert str(I(3, (1, 0, 0), (0, 1, 0), (0, 0, 1))) == "(x, y, z)"
        assert str(I(4, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))) == (
            "(z1, z2, z3, z4)")
        assert str(I(2, (1, 2))) == "(x*y^2)"

    def test_display_huge_exponent(self):
        # no table up to the largest exponent: this returns at once
        assert str(MonIdeal(1, ((10**9,),))) == "(x^1000000000)"


@pytest.mark.parametrize("call, error, message", [
    (lambda: I(2, (1, 0)).contains((1,)), DimensionError, "vector length 1 != 2"),
    (lambda: I(2, (1, 0)) + I(3, (1, 0, 0)), DimensionError, "variable counts differ: 2 != 3"),
    (lambda: I(2, (1, 0)) ** -1, ValueError, "negative ideal power"),
    (lambda: I(2).divisorial_part(), ValueError, "zero ideal has no divisorial part"),
    (lambda: max_ideal_power(2, -1), ValueError, "negative power of the maximal ideal"),
], ids=["contains-length", "sum-counts", "negative-power", "zero-divisorial", "negative-max-power"])
def test_rejects_bad_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_principal_ideal():
    """A one-generator ideal holds exactly the multiples of its generator."""
    a = I(2, (2, 3))
    assert a.gens == ((2, 3),)
    assert a.contains((2, 3)) and a.contains((4, 3)) and not a.contains((1, 9))


@pytest.mark.parametrize("n", [3, 11])
def test_equal_calls_construct_equally(monkeypatch, n):
    """No cache is filled on first use, so per-call construction counts
    repeat exactly (unit ideals are built at import or every time)."""
    built = []
    original = MonIdeal.__post_init__

    def counting(self):
        built.append(self.n)
        original(self)

    monkeypatch.setattr(MonIdeal, "__post_init__", counting)
    counts = []
    for _ in range(2):
        before = len(built)
        assert unit_ideal(n) ** 2 == unit_ideal(n)
        counts.append(len(built) - before)
    assert counts[0] == counts[1]


# Exponents small enough to collide and divide, or up to 2**70, which
# forces the packed oracle's fields far wider than a machine word.
_EXPONENTS = st.integers(0, 4) | st.integers(0, 2 ** 70)


@st.composite
def _vectors(draw, n, exponents=_EXPONENTS):
    """Drawn vectors, then multiples of some of them (so that generators
    divide one another)."""
    base = draw(st.lists(st.tuples(*[exponents] * n), max_size=8))
    if not base:
        return base
    shifts = st.tuples(*[st.integers(0, 3)] * n)
    extra = draw(st.lists(st.tuples(st.sampled_from(base), shifts), max_size=6))
    return base + [tuple(map(sum, zip(g, s))) for g, s in extra]


@st.composite
def _ideal_pairs(draw):
    """(inner, outer): inner mixes multiples of outer's generators, some by
    exponents past outer's largest, with some of outer's own generators and
    vectors of its own; or inner is outer."""
    n = draw(st.integers(1, 6))
    # Small exponents in outer make narrow packed fields that inner's overflow.
    exponents = draw(st.sampled_from([st.integers(0, 4), _EXPONENTS]))
    outer = MonIdeal(n, tuple(draw(_vectors(n, exponents))))
    if draw(st.integers(0, 4)) == 0:
        return outer, outer
    mult = st.tuples(*[st.integers(0, 2) | st.integers(0, 2 ** 70)] * n)
    inner = [tuple(map(sum, zip(g, draw(mult))))
             for g in draw(st.lists(st.sampled_from(outer.gens), max_size=5))
             ] if outer.gens else []
    inner += draw(st.lists(st.sampled_from(outer.gens), max_size=3)) if outer.gens else []
    inner += draw(st.lists(st.tuples(*[_EXPONENTS] * n), max_size=2))
    return MonIdeal(n, tuple(inner)), outer


class TestPackedKernel:
    """The lex sweep against the pairwise routes and the packed divisibility
    test it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), _vectors(n))))
    def test_minimalize(self, drawn):
        n, gens = drawn
        want = pairwise_minimalize(gens)
        assert MonIdeal(n, tuple(gens)).gens == want == packed_minimalize(gens, n)

    @settings(max_examples=150, deadline=None)
    @given(_ideal_pairs())
    def test_subset(self, pair):
        inner, outer = pair
        assert inner.subset(outer) == pairwise_subset(inner, outer) == packed_subset(inner, outer)
        assert outer.subset(inner) == pairwise_subset(outer, inner) == packed_subset(outer, inner)

    def test_nearest_generator_misses(self):
        """(0,5,0) is the lex-nearest generator before (1,1,1) and (1,1,0)
        and divides neither: the sweep settles them."""
        outer = I(3, (0, 0, 1), (0, 5, 0))
        assert I(3, (1, 1, 1), (0, 6, 0)).subset(outer)
        assert not I(3, (1, 1, 0), (0, 6, 0)).subset(outer)

    def test_sweep_stops_at_first_kept_miss(self):
        """With stored vectors the sweep returns the first tested vector it
        keeps: (1,0,1) divides the stored (2,1,1), so filing on past it would
        break the antichain of filed vectors."""
        stored = ((0, 0, 3), (0, 3, 0), (2, 1, 1))
        vecs = sorted(stored + ((1, 3, 0), (1, 0, 1), (1, 1, 0)))
        assert _sweep(vecs, 3, stored) == [(1, 0, 1)]
        assert _sweep(sorted(stored + ((1, 3, 0),)), 3, stored) == []

    def test_clamp_past_largest_exponent(self):
        outer = I(2, (3, 0), (0, 3))  # inner's exponents run far past outer's
        assert I(2, (2 ** 70, 0), (1, 9)).subset(outer)
        assert not I(2, (2 ** 70, 0), (2, 2)).subset(outer)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            I(2, (1, -1))


# Cutoffs that keep one spectrum build to a few ms: the last level then
# holds up to about 80 generators for n = 2, 190 for n = 3 and 400 for
# n = 4..6.
_SWEEP_CUTOFFS = {1: 12, 2: 16, 3: 4, 4: F(5, 2), 5: 2, 6: F(5, 3)}


@st.composite
def _staircase_mixes(draw, dims=(1, 3)):
    """(n, gens): a staircase level of a random diagonal spectrum (a large
    antichain), shuffled together with duplicates and multiples of its
    generators and a few vectors drawn in its bounding box."""
    n = draw(st.integers(*dims))
    # Drawn down from the largest values, which Hypothesis tries first.
    m_vec = draw(st.tuples(*[st.integers(0, 3).map(lambda d: 6 - d)] * n))
    top = _SWEEP_CUTOFFS[n]
    cutoff = top - draw(st.fractions(0, F(top, 2), max_denominator=6))
    levels = [ideal.gens for _, ideal in spectrum_diagonal(m_vec, cutoff).jumps]
    base = list(draw(st.sampled_from(levels[-3:]))) if levels else [(0,) * n]
    shifts = st.tuples(*[st.integers(0, 1) | st.integers(0, 9)] * n)
    extra = draw(st.lists(st.tuples(st.sampled_from(base), shifts), max_size=40))
    gens = base + [tuple(map(sum, zip(g, s))) for g, s in extra]
    box = st.tuples(*[st.integers(0, max(map(max, base)))] * n)
    gens += draw(st.lists(box, max_size=8))
    return n, draw(st.permutations(gens))


class TestStaircaseSweep:
    """The sweep against the pairwise route and the packed test, on large
    antichains."""

    @settings(max_examples=60, deadline=None)
    @given(_staircase_mixes())
    def test_large_antichains(self, drawn):
        n, gens = drawn
        ideal = MonIdeal(n, tuple(gens))
        assert ideal.gens == pairwise_minimalize(gens)
        # Nothing but n and gens is stored.
        assert MonIdeal.__slots__ == MonIdeal._fields

    @settings(max_examples=30, deadline=None)
    @given(_staircase_mixes(dims=(4, 6)))
    def test_large_antichains_nested(self, drawn):
        """n = 4..6: the cells of the middle coordinates."""
        n, gens = drawn
        want = pairwise_minimalize(gens)
        assert MonIdeal(n, tuple(gens)).gens == want == packed_minimalize(gens, n)

    def test_large_max_ideal_powers(self):
        """The sweep keeps every generator of an antichain in near-linear
        time; the packed scan it replaced took about 6 s for these two."""
        start = time.perf_counter()
        assert len(max_ideal_power(4, 40).gens) == math.comb(43, 3) == 12341
        assert len(max_ideal_power(6, 12).gens) == math.comb(17, 5) == 6188
        assert time.perf_counter() - start < 3

    @settings(max_examples=40, deadline=None)
    @given(_staircase_mixes(), st.data())
    def test_bad_vectors_rejected(self, drawn, data):
        n, gens = drawn
        i = data.draw(st.integers(0, len(gens) - 1))
        at = data.draw(st.integers(0, n - 1))
        wrong = gens[i] + (0,) if data.draw(st.booleans()) else gens[i][:-1]
        with pytest.raises(DimensionError):
            MonIdeal(n, tuple(gens[:i] + [wrong] + gens[i + 1:]))
        negative = gens[i][:at] + (-1 - gens[i][at],) + gens[i][at + 1:]
        with pytest.raises(ValueError) as excinfo:
            MonIdeal(n, tuple(gens[:i] + [negative] + gens[i + 1:]))
        assert excinfo.type is ValueError


@st.composite
def _shuffled_with_duplicates(draw):
    """(n, gens) for n = 1, 2: drawn vectors and multiples of them, some
    repeated, in a drawn order."""
    n = draw(st.integers(1, 2))
    gens = draw(_vectors(n))
    if gens:
        gens += draw(st.lists(st.sampled_from(gens), max_size=6))
    return n, draw(st.permutations(gens))


class TestRunningMinimum:
    """For n <= 2 minimalization keeps a vector iff its last coordinate is
    below every one kept before it in lex order; checked against the
    pairwise route and against the sweep it bypasses."""

    @staticmethod
    def _check(n, gens):
        want = pairwise_minimalize(gens)
        assert MonIdeal(n, tuple(gens)).gens == want == tuple(_sweep(sorted(set(gens)), n))

    @settings(max_examples=150, deadline=None)
    @given(_shuffled_with_duplicates())
    def test_unsorted_with_duplicates(self, drawn):
        self._check(*drawn)

    @settings(max_examples=60, deadline=None)
    @given(_staircase_mixes(dims=(1, 2)))
    def test_large_antichains(self, drawn):
        self._check(*drawn)

    def test_huge_exponents(self):
        big = 2 ** 70
        gens = [(big, 0), (0, big), (big, 1), (big - 1, big - 1), (1, big), (big, 0)]
        self._check(2, gens)
        assert MonIdeal(2, tuple(gens)).gens == ((0, big), (big - 1, big - 1), (big, 0))
        self._check(1, [(big,), (big + 1,), (big,)])

    @pytest.mark.parametrize("n", [1, 2])
    def test_bad_vectors_rejected(self, n):
        good = (2 ** 70,) * n
        with pytest.raises(ValueError) as excinfo:
            MonIdeal(n, (good, good[1:] + (-1,)))
        assert excinfo.type is ValueError
        for wrong in (good + (0,), good[1:]):
            with pytest.raises(DimensionError):
                MonIdeal(n, (good, wrong))
