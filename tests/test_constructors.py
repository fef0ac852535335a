"""Spectra and ideals from closed-form combinatorics: diagonal hypersurfaces,
cones over Fermat hypersurfaces, sums of functions in disjoint variables,
normal crossing divisors and Q-divisors."""

import gc
import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from hmideals import (
    MonIdeal,
    max_ideal_power,
    nc_ideal,
    power_scale_check,
    qdivisor_ideal,
    spectrum_diagonal,
    spectrum_one_var,
    spectrum_ordinary_fermat,
    spectrum_thom_sebastiani,
    unit_ideal,
)

from hmideals.constructors import _staircases
from hmideals.monomial import _minimalize

from oracles import (
    box_spectrum_diagonal,
    howald_multiplier,
    split_thom_sebastiani,
    sum_fermat_cone,
    truncated_sumset,
)


def I(n, *gens):
    return MonIdeal(n, tuple(gens))


class TestDiagonal:
    def test_cusp_table(self):
        v = spectrum_diagonal((2, 3), F(13, 6))
        assert v.jumping_numbers() == [F(5, 6), F(7, 6), F(11, 6), F(13, 6)]
        ideals = [i for _, i in v.jumps]
        assert ideals == [
            I(2, (1, 0), (0, 1)),
            I(2, (1, 0), (0, 2)),
            I(2, (2, 0), (1, 1), (0, 3)),
            I(2, (2, 0), (1, 2), (0, 4)),
        ]

    def test_node_integer_jumps(self):
        v = spectrum_diagonal((2, 2), F(9, 2))
        assert v.jumping_numbers() == [1, 2, 3, 4]

    def test_smooth_germ(self):
        v = spectrum_one_var(1, F(7, 2))
        assert v.jumping_numbers() == [1, 2, 3]
        assert v.value_at(F(3, 2)) == I(1, (1,))
        assert v.value_at(F(5, 2)) == I(1, (2,))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_power_of_x(self, m):
        # I_{k,alpha} = m^{k(m-1) + p - 1} at alpha = -p/m, 1 <= p <= m
        v = spectrum_one_var(m, 2)
        for k in (0, 1):
            for p in range(1, m + 1):
                alpha = F(-p, m)
                if k - alpha > v.cutoff:
                    continue
                e = k * (m - 1) + p - 1
                expect = I(1, (e,)) if e > 0 else unit_ideal(1)
                assert v.hmi(k, alpha) == expect

    def test_power_of_x_jump_positions(self):
        # rho(a) = (a + 1 + floor(a/(m-1)))/m skips the multiples of one
        v = spectrum_one_var(4, 2)
        assert v.jumping_numbers() == [F(1, 4), F(1, 2), F(3, 4), F(5, 4), F(3, 2), F(7, 4)]

    def test_minimal_exponent_sum(self):
        v = spectrum_diagonal((2, 3, 5), 2)
        assert v.minimal_exponent() == F(1, 2) + F(1, 3) + F(1, 5)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            spectrum_diagonal((), 1)
        with pytest.raises(ValueError):
            spectrum_diagonal((0, 2), 1)

    def test_five_quintics(self):
        # The box enumeration does not finish on this input (about 5.1M
        # lattice points); the staircase kernel takes about 60 ms on a 2-CPU
        # host, and spectrum_ordinary_fermat(5, 5, 3) is the same call.
        v = spectrum_diagonal((5,) * 5, 3)
        assert v.jumping_numbers() == [F(k, 5) for k in range(5, 16)]
        assert [i for _, i in v.jumps[:4]] == [max_ideal_power(5, d) for d in (1, 2, 3, 4)]
        assert [len(i.gens) for _, i in v.jumps] == [
            5, 15, 35, 70, 106, 160, 230, 330, 475, 621, 815]


def _first_jump(m_vec):
    return sum(F(1, m) for m in m_vec)


# Cutoffs relative to the first jump e = sum 1/m_j; e + 1 is a later jump.
_CUTOFFS = {
    "below": lambda e: e - F(1, 60),
    "on": lambda e: e,
    "past": lambda e: e + F(1, 60),
    "one": lambda e: F(1),
    "two": lambda e: F(2),
    "on-next": lambda e: e + 1,
}
# For three variables the box oracle is too slow for every pair, so each
# m_vec takes one of the cheaper kinds in turn.
_CUTOFFS_3 = ("below", "on", "past", "one")


class TestDiagonalOracle:
    """The staircase kernel against the box enumeration it replaced."""

    @pytest.mark.parametrize("kind", list(_CUTOFFS))
    def test_one_and_two_variables(self, kind):
        for n in (1, 2):
            for m_vec in itertools.product(range(1, 6), repeat=n):
                cutoff = _CUTOFFS[kind](_first_jump(m_vec))
                assert spectrum_diagonal(m_vec, cutoff) == box_spectrum_diagonal(m_vec, cutoff)

    def test_three_variables(self):
        m_vecs = itertools.product(range(1, 6), repeat=3)
        for i, m_vec in enumerate(m_vecs):
            cutoff = _CUTOFFS[_CUTOFFS_3[i % len(_CUTOFFS_3)]](_first_jump(m_vec))
            assert spectrum_diagonal(m_vec, cutoff) == box_spectrum_diagonal(m_vec, cutoff)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 3), min_size=1, max_size=3),
           st.fractions(min_value=F(1, 12), max_value=2, max_denominator=12))
    def test_random_small(self, m_vec, cutoff):
        assert spectrum_diagonal(m_vec, cutoff) == box_spectrum_diagonal(m_vec, cutoff)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.integers(0, 40),
           st.sampled_from(["on-jump", "below-jump", "off-lattice"]))
    def test_integer_cutoff(self, m_vec, i, kind):
        """The kernel compares integer weights with floor(cutoff * lcm(m_j));
        the oracle compares Fraction weights with the cutoff.  Cutoffs on a
        jump (cutoff * lcm an integer), just below one and between two
        multiples of 1/lcm."""
        scale = math.lcm(*m_vec)
        jumps = box_spectrum_diagonal(m_vec, _first_jump(m_vec) + 1).jumping_numbers()
        beta = jumps[i % len(jumps)]
        cutoff = {"on-jump": beta, "below-jump": beta - F(1, 7 * scale),
                  "off-lattice": beta + F(1, 2 * scale)}[kind]
        assert ((cutoff * scale).denominator == 1) == (kind == "on-jump")
        spect = spectrum_diagonal(m_vec, cutoff)
        assert spect == box_spectrum_diagonal(m_vec, cutoff)
        assert (beta in spect.jumping_numbers()) == (kind != "below-jump")


def _scaled_weight(m, mu, scale):
    """scale * (mu + 1 + mu // (m - 1)) / m, or scale * (mu + 1) for m = 1."""
    return scale * (mu + 1) if m == 1 else scale * (mu + 1 + mu // (m - 1)) // m


def _weight_tables(m_vec, top):
    """Each coordinate's scaled weights at mu = 0, 1, ..., up to the first
    past top; the scale is lcm(m_j)."""
    scale = math.lcm(*m_vec)
    tables = []
    for m in m_vec:
        table = [_scaled_weight(m, 0, scale)]
        while table[-1] <= top:
            table.append(_scaled_weight(m, len(table), scale))
        tables.append(table)
    return tables


@st.composite
def _levels_case(draw):
    """(m_vec, top) with n from 1 to 6: top = floor(cutoff * lcm(m_j)) for a
    cutoff with denominator <= 12, up to 3 (up to 2 for n >= 5, where the
    levels grow fastest), or the scaled weight of a drawn exponent vector (a
    cutoff on a jump) when that is at most the same bound."""
    m_vec = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    scale = math.lcm(*m_vec)
    bound = 3 if len(m_vec) <= 4 else 2
    cutoff = draw(st.fractions(min_value=F(1, 12), max_value=bound, max_denominator=12))
    top = math.floor(cutoff * scale)
    if draw(st.booleans()):
        jump = sum(_scaled_weight(m, draw(st.integers(0, m)), scale) for m in m_vec)
        if jump <= bound * scale:
            top = jump
    return tuple(m_vec), top


@settings(max_examples=100, deadline=None)
@given(_levels_case())
@example(((2, 3), 13))  # the cusp at 13/6, a jump
@example(((2, 2), 6))  # the node at 3, a jump
@example(((1,), 2))
@example(((1, 1, 1), 3))  # the first jump is the cutoff
@example(((6, 6, 6, 6), 4))
@example(((6, 5, 4, 3), 180))
@example(((6,) * 6, 12))  # (6,)*6 at 2: its certifying level has 702 generators
@example(((2, 3, 5), 91))  # the spectra-build anchors, as top = cutoff * lcm(m_j)
@example(((4, 4, 4), 11))
@example(((3, 3, 3, 3), 10))
@example(((4, 4, 4, 4), 12))  # the Fermat cone (4, 4) at 3
@example(((5,) * 5, 15))
def test_walk_levels_are_the_truncated_sumset(case):
    """Each staircase walk finds the next level itself; the levels are those
    of the sumset scan the builder used before: the achieved weights up to
    top, then the first one past it.  Each walk's output is already the
    minimal antichain in lex order, which spectrum_diagonal takes as its
    level's generators without minimalizing them."""
    m_vec, top = case
    tables = _weight_tables(m_vec, top)
    levels, staircases = _staircases(tables, top)
    assert levels == truncated_sumset(tables, top)
    assert len(staircases) == len(levels)
    assert all(_minimalize(gens, len(m_vec)) == gens for gens in staircases)


@st.composite
def _diagonal_case(draw):
    """(m_vec, cutoff) with n from 1 to 6: the weight of a drawn exponent
    vector (a cutoff on a jump), at most the later jump e + 1 past the first
    jump e, or half a step of 1/lcm(m_j) past it (a cutoff off every jump)."""
    m_vec = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=6)))
    scale = math.lcm(*m_vec)
    jump = sum(_scaled_weight(m, draw(st.integers(0, m)), scale) for m in m_vec)
    jump = min(F(jump, scale), _first_jump(m_vec) + 1)
    return m_vec, jump if draw(st.booleans()) else jump + F(1, 2 * scale)


@settings(max_examples=100, deadline=None)
@given(_diagonal_case())
@example(((2, 3), F(13, 6)))  # the spectra-build anchors
@example(((2, 3, 5), F(91, 30)))
@example(((4, 4, 4), F(11, 4)))
@example(((3, 3, 3, 3), F(10, 3)))
@example(((4, 4, 4, 4), F(3)))  # the Fermat cone (4, 4) at 3
@example(((5,) * 5, F(3)))
def test_diagonal_levels_are_minimal(case):
    """spectrum_diagonal takes each walk's output as its level's generators
    without minimalizing them (MonIdeal._of_antichain); minimalizing the
    same generators in full is the second route and changes nothing."""
    m_vec, cutoff = case
    n = len(m_vec)
    spect = spectrum_diagonal(m_vec, cutoff)
    assert spect.jumps
    for _, ideal in spect.jumps:
        assert ideal == MonIdeal(n, ideal.gens)


# Cutoffs relative to the cone's first jump n/m; n/m + 1 is a later jump.
_FERMAT_CUTOFFS = {
    "off-lattice": lambda n, m: F(n, m) + F(1, 7),
    "below-first": lambda n, m: F(n, m) - F(1, 7 * m),
    "on-first": lambda n, m: F(n, m),
    "on-next": lambda n, m: F(n, m) + 1,
}
_FERMAT_GRID = [*itertools.product(range(2, 5), range(2, 6)), (5, 2), (5, 3)]


class TestFermatCone:
    def test_cubic_cone_first_jumps(self):
        v = spectrum_ordinary_fermat(3, 3, 3)
        assert v.minimal_exponent() == 1
        assert v.jumping_numbers()[:4] == [1, F(4, 3), F(5, 3), 2]

    def test_cubic_cone_ideals(self):
        v = spectrum_ordinary_fermat(3, 3, 3)
        m = max_ideal_power(3, 1)
        assert v.hmi(1, F(-1, 3)) == m
        assert v.hmi(1, F(-2, 3)) == m * m
        # (m^3, J_F) with J_F = (x^2, y^2, z^2)
        assert v.hmi(1, -1) == I(3, (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1))

    def test_no_jump_below_n_over_m(self):
        v = spectrum_ordinary_fermat(4, 3, 3)
        assert v.minimal_exponent() == F(4, 3)

    def test_matches_diagonal(self):
        a = spectrum_ordinary_fermat(2, 4, 2)
        b = spectrum_diagonal((4, 4), 2)
        assert a == b

    @pytest.mark.parametrize("step", [F(1, 2), F(1), F(3, 2)])
    def test_sum_oracle(self, step):
        """The diagonal kernel against the sum of ideals J^a * v, at the
        benchmark's cutoffs n/m + step."""
        for n, m in itertools.product(range(2, 5), range(2, 6)):
            cutoff = F(n, m) + step
            assert spectrum_ordinary_fermat(n, m, cutoff) == sum_fermat_cone(n, m, cutoff)

    @pytest.mark.parametrize("kind", list(_FERMAT_CUTOFFS))
    def test_sum_oracle_probe(self, kind):
        """Cutoffs where the kernel's probe (the first weight past the cutoff)
        and the oracle's (the next multiple of 1/m) differ: off the 1/m
        lattice, below the first jump, and on a jump."""
        for n, m in _FERMAT_GRID:
            cutoff = _FERMAT_CUTOFFS[kind](n, m)
            assert spectrum_ordinary_fermat(n, m, cutoff) == sum_fermat_cone(n, m, cutoff)

    def test_four_quartics_to_five(self):
        """A cone with hundreds of minimal generators at its last jumps,
        against the Thom-Sebastiani chain of its factors."""
        v = spectrum_ordinary_fermat(4, 4, 5)
        assert v == spectrum_diagonal((4,) * 4, 5)
        assert v == _chain(spectrum_thom_sebastiani, (4,) * 4, 5)


class TestThomSebastiani:
    def test_cusp_from_factors(self):
        v1 = spectrum_one_var(2, F(10, 3))
        v2 = spectrum_one_var(3, F(10, 3))
        ts = spectrum_thom_sebastiani(v1, v2, F(13, 6))
        assert ts == spectrum_diagonal((2, 3), F(13, 6))

    def test_associated_three_factors(self):
        f = [spectrum_one_var(m, 5) for m in (2, 2, 3)]
        left = spectrum_thom_sebastiani(
            spectrum_thom_sebastiani(f[0], f[1], 4), f[2], 3
        )
        right = spectrum_thom_sebastiani(
            f[0], spectrum_thom_sebastiani(f[1], f[2], 4), 3
        )
        assert left == right == spectrum_diagonal((2, 2, 3), 3)

    def test_cutoff_cannot_exceed_factors(self):
        v = spectrum_one_var(2, 2)
        with pytest.raises(ValueError):
            spectrum_thom_sebastiani(v, v, 3)


def _chain(ts, m_vec, cutoff):
    """TS sum of one-variable powers, each factor guaranteed to cutoff + 1."""
    factors = [spectrum_one_var(m, cutoff + 1) for m in m_vec]
    spect = factors[0]
    for f in factors[1:-1]:
        spect = ts(spect, f, cutoff + 1)
    return ts(spect, factors[-1], cutoff)


def test_builds_leave_no_cyclic_garbage():
    """A build frees everything it made by reference counting, so the cyclic
    collector finds nothing: a staircase walk that refers to itself would
    leave a cycle per level."""
    gc.collect()
    gc.disable()
    try:
        spectrum_diagonal((2, 3, 5), F(91, 30))
        assert gc.collect() == 0
        _chain(spectrum_thom_sebastiani, (6, 5, 5), F(9, 10))
        assert gc.collect() == 0
    finally:
        gc.enable()


@st.composite
def _ts_factors(draw):
    """(v1, v2, cutoff): a two-variable diagonal spectrum (many pieces) and a
    power (few), in either order, with unequal cutoffs; the TS cutoff is the
    smaller one or a drawn value below it."""
    many = (draw(st.integers(2, 5)), draw(st.integers(2, 5)))
    few = draw(st.integers(1, 4))
    c_many = draw(st.fractions(F(1, 2), 3, max_denominator=6))
    c_few = draw(st.fractions(F(1, 2), 3, max_denominator=6).filter(lambda c: c != c_many))
    factors = [spectrum_diagonal(many, c_many), spectrum_one_var(few, c_few)]
    v1, v2 = draw(st.permutations(factors))
    low = min(c_many, c_few)
    cutoff = draw(st.just(low) | st.fractions(F(1, 12), low, max_denominator=12))
    return v1, v2, cutoff


class TestThomSebastianiOracle:
    """The interval-pair rule against the split-point sampling it replaced."""

    @pytest.mark.parametrize("kind", list(_CUTOFFS))
    def test_two_factors(self, kind):
        for m_vec in itertools.product(range(1, 6), repeat=2):
            cutoff = _CUTOFFS[kind](_first_jump(m_vec))
            assert (_chain(spectrum_thom_sebastiani, m_vec, cutoff)
                    == _chain(split_thom_sebastiani, m_vec, cutoff))

    def test_three_factors(self):
        m_vecs = itertools.product(range(1, 5), repeat=3)
        for i, m_vec in enumerate(m_vecs):
            cutoff = _CUTOFFS[_CUTOFFS_3[i % len(_CUTOFFS_3)]](_first_jump(m_vec))
            assert (_chain(spectrum_thom_sebastiani, m_vec, cutoff)
                    == _chain(split_thom_sebastiani, m_vec, cutoff))

    @pytest.mark.parametrize("f1, args1, f2, args2, cutoff", [
        (spectrum_ordinary_fermat, (3, 3, 3), spectrum_one_var, (4, 3), F(5, 2)),
        (spectrum_diagonal, ((2, 3), 3), spectrum_one_var, (3, F(5, 2)), F(5, 2)),
        (spectrum_diagonal, ((2, 3), 3), spectrum_diagonal, ((2, 2), F(7, 3)), 2),
        # the next sum 4/3 lies past both factors' 13/10: the probe is 13/10
        (spectrum_one_var, (2, F(13, 10)), spectrum_one_var, (3, F(13, 10)), F(6, 5)),
    ], ids=["fermat-power", "diagonal-power", "diagonal-diagonal", "factor-cutoff-probe"])
    def test_mixed(self, f1, args1, f2, args2, cutoff):
        v1, v2 = f1(*args1), f2(*args2)
        assert (spectrum_thom_sebastiani(v1, v2, cutoff)
                == split_thom_sebastiani(v1, v2, cutoff))

    @settings(max_examples=60, deadline=None)
    @given(_ts_factors())
    def test_many_pieces_either_side(self, drawn):
        """A factor with many pieces before or after one with few, at unequal
        factor cutoffs: a piece of the first factor takes its partner by
        bisection, the pieces past beta are skipped, and at the smaller
        factor cutoff the probe is that cutoff."""
        v1, v2, cutoff = drawn
        assert (spectrum_thom_sebastiani(v1, v2, cutoff)
                == split_thom_sebastiani(v1, v2, cutoff))

    @pytest.mark.parametrize("cutoff", [1, 10])
    def test_factors_far_past_the_cutoff(self, cutoff):
        """Candidate jumps come from the factors' starts up to the cutoff and
        the first sum past it, however far the factors run.  Split sampling
        at cutoff 10 takes seconds, so there the diagonal builder checks."""
        v1, v2 = spectrum_one_var(7, 60), spectrum_one_var(11, 60)
        got = spectrum_thom_sebastiani(v1, v2, cutoff)
        assert got == spectrum_diagonal((7, 11), cutoff)
        if cutoff == 1:
            assert got == split_thom_sebastiani(v1, v2, cutoff)


# A factor: (m_vec, cutoff, ts).  One or two variables with m in 1..5,
# built to its own cutoff, drawn about its first jump, so that about one
# factor in four has no jump at or below its cutoff; with ts and two
# variables, the Thom-Sebastiani sum of its two powers.
_factor_specs = st.tuples(
    st.lists(st.integers(1, 5), min_size=1, max_size=2).map(tuple),
    st.fractions(F(-1, 2), F(3, 2), max_denominator=6),
    st.booleans(),
).map(lambda spec: (spec[0], max(F(1, 6), _first_jump(spec[0]) + spec[1]),
                    spec[2] and len(spec[0]) == 2))
# The TS cutoff: the smaller factor cutoff, a jump of the sum (drawn by
# index, below the smaller factor cutoff where one is, so that the probe
# can certify it), or a fraction of the smaller factor cutoff.
_ts_cutoff_specs = (st.just(("factor",))
                    | st.tuples(st.just("jump"), st.integers(0, 30))
                    | st.tuples(st.just("part"), st.fractions(F(1, 12), 1, max_denominator=12)))


def _factor(m_vec, cutoff, ts):
    if not ts:
        return spectrum_diagonal(m_vec, cutoff)
    a, b = (spectrum_one_var(m, cutoff + F(1, 2)) for m in m_vec)
    return spectrum_thom_sebastiani(a, b, cutoff)


def _ts_cutoff(choice, m_vec, low):
    if choice[0] == "factor":
        return low
    if choice[0] == "part":
        return low * choice[1]
    jumps = spectrum_diagonal(m_vec, low).jumping_numbers()
    jumps = [beta for beta in jumps if beta < low] or jumps or [low]
    return jumps[choice[1] % len(jumps)]


class TestThomSebastianiCandidates:
    """Candidate jumps are the sums of one jump of each factor: a sum with a
    factor start of 0 never changes the value."""

    @settings(max_examples=120, deadline=None)
    @given(_factor_specs, _factor_specs, _ts_cutoff_specs)
    # a jump at the TS cutoff, certified by the factors' jumps past it
    @example(((2,), F(2), False), ((2,), F(2), False), ("jump", 0))
    # a jump at the TS cutoff, which is a factor cutoff
    @example(((2,), F(1), False), ((3,), F(2), False), ("factor",))
    # a factor with no jump at or below its cutoff
    @example(((1,), F(1, 2), False), ((2, 3), F(2), False), ("factor",))
    @example(((2, 3), F(2), False), ((1, 1), F(3, 2), False), ("part", F(1)))
    # Thom-Sebastiani sums as both factors, a jump at the TS cutoff
    @example(((2, 3), F(2), True), ((1, 5), F(3, 2), True), ("jump", 30))
    def test_against_split_sampling(self, spec1, spec2, choice):
        v1, v2 = _factor(*spec1), _factor(*spec2)
        cutoff = _ts_cutoff(choice, spec1[0] + spec2[0], min(v1.cutoff, v2.cutoff))
        assert (spectrum_thom_sebastiani(v1, v2, cutoff)
                == split_thom_sebastiani(v1, v2, cutoff))


class TestNormalCrossing:
    def test_reduced_divisor(self):
        assert nc_ideal((1, 1), 1, F(-1, 2)).ideal == I(2, (1, 0), (0, 1))
        # at alpha = 0 the epsilon convention returns the strict ideal
        assert nc_ideal((1, 1), 1, 0).ideal == I(2, (1, 0), (0, 1))

    def test_multiplicities(self):
        h = nc_ideal((2, 3), 1, F(-1, 2))
        assert h.f_power == 0
        assert h.ideal == I(2, (2, 3), (1, 4))

    def test_level_zero_is_howald(self):
        for m_vec in [(1,), (2, 3), (3, 1, 2)]:
            for alpha in [F(-1), F(-1, 2), F(-5, 6), F(-1, 3), 0]:
                got = nc_ideal(m_vec, 0, alpha).ideal
                assert got == howald_multiplier(m_vec, -alpha)

    def test_positive_alpha_rejected(self):
        with pytest.raises(ValueError):
            nc_ideal((1, 1), 1, F(1, 2))

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(ValueError, match="multiplicities must be >= 0"):
            nc_ideal((2, -1), 1, F(-1, 2))


class TestPowerScale:
    def test_examples(self):
        for m_base, p, k, alpha in [
            ((1,), 2, 1, -1),
            ((2, 3), 2, 1, F(-1, 2)),
            ((1, 1, 1), 3, 2, F(-1, 3)),
        ]:
            lhs, rhs = power_scale_check(m_base, p, k, alpha)
            assert lhs == rhs


class TestQDivisor:
    def test_integer_coefficients_pass_through(self):
        assert qdivisor_ideal((1, 1), 1, -1) == nc_ideal((1, 1), 1, -1).ideal

    def test_halves(self):
        assert qdivisor_ideal((F(1, 2), F(1, 2)), 1, -1) == I(2, (1, 0), (0, 1))

    def test_output_has_trivial_divisorial_part(self):
        for coeffs in [(F(3, 2),), (F(5, 3), F(1, 2)), (F(7, 4), 2)]:
            out = qdivisor_ideal(coeffs, 1, F(-1, 2))
            assert out.divisorial_part() == (0,) * len(coeffs)
