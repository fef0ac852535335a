"""Randomized invariants, via hypothesis.

These mirror the deterministic bulk randomized run in the acceptance module
but explore the input space adaptively and shrink counterexamples.
"""

import json
from fractions import Fraction as F

from hypothesis import example, given, settings, strategies as st

from hmideals import (
    INFINITE,
    MonIdeal,
    VSpectrum,
    nc_ideal,
    parse_rat,
    power_scale_check,
    qdivisor_ideal,
    spectrum_diagonal,
    spectrum_one_var,
    spectrum_thom_sebastiani,
    unit_ideal,
)

from oracles import box_colength, howald_multiplier, permute_ideal

m_vecs = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)
small_m_vecs = st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple)
neg_alphas = st.fractions(min_value=F(-1), max_value=0, max_denominator=6)

exps = st.tuples(st.integers(0, 5), st.integers(0, 5))
ideals2 = st.lists(exps, min_size=1, max_size=5).map(lambda g: MonIdeal(2, tuple(g)))


@st.composite
def small_ideals(draw, n, top=4):
    """Up to four drawn generators in n variables, plus a pure power of each
    variable that the draw keeps, so finite and infinite colengths occur."""
    gens = draw(st.lists(st.tuples(*[st.integers(0, top)] * n), max_size=4))
    for i in range(n):
        power = draw(st.none() | st.integers(1, top))
        if power is not None:
            gens.append(tuple(power if j == i else 0 for j in range(n)))
    return MonIdeal(n, tuple(gens))


def ideal_pairs(dims):
    return st.sampled_from(dims).flatmap(
        lambda n: st.tuples(small_ideals(n), small_ideals(n)))


import functools


@functools.lru_cache(maxsize=None)
def diag(m_vec, slack=F(3, 2)):
    cutoff = sum(F(1, m) for m in m_vec) + slack
    return spectrum_diagonal(m_vec, cutoff)


@st.composite
def spectrum_and_betas(draw):
    v = diag(draw(m_vecs))
    beta = draw(st.fractions(min_value=F(1, 24), max_value=v.cutoff, max_denominator=24))
    gamma = draw(st.fractions(min_value=beta, max_value=v.cutoff, max_denominator=24))
    return v, beta, gamma


class TestIdealAlgebra:
    @given(ideals2)
    def test_normalization_idempotent(self, a):
        assert MonIdeal(2, a.gens) == a

    @given(ideals2, ideals2)
    def test_sum_is_union_of_members(self, a, b):
        s = a + b
        for g in a.gens + b.gens:
            assert s.contains(g)
        for g in s.gens:
            assert a.contains(g) or b.contains(g)

    @given(ideals2, ideals2)
    def test_product_subset_intersection(self, a, b):
        p = a * b
        assert p.subset(a) and p.subset(b)

    @given(ideal_pairs((2, 3)))
    def test_count_outside_matches_colengths(self, pair):
        a, b = pair
        outer, inner = a + b, a * b
        co_out, co_in = box_colength(outer), box_colength(inner)
        diff = outer.count_outside(inner)
        if co_out is not INFINITE and co_in is not INFINITE:
            assert diff == co_in - co_out
        elif co_out is not INFINITE:
            assert diff is INFINITE

    @given(ideal_pairs((1, 2, 3)))
    def test_count_outside_matches_truncations(self, pair):
        """outer / inner against the colengths of both plus (x_i^t): their
        difference counts the monomials of outer / inner below t in every
        variable, which stops growing past the largest exponent iff the
        difference is finite."""
        a, b = pair
        outer, inner = a + b, b
        n = outer.n
        top = max((e for g in outer.gens + inner.gens for e in g), default=0) + 1

        def below(t):
            cap = MonIdeal(n, tuple(tuple(t * (i == j) for j in range(n)) for i in range(n)))
            return box_colength(inner + cap) - box_colength(outer + cap)

        count = below(top)
        assert outer.count_outside(inner) == (count if below(top + 1) == count else INFINITE)

    @example(MonIdeal(2, ((1, 1),)))
    @example(MonIdeal(3, ()))
    @example(MonIdeal(0, ()))
    @given(st.integers(0, 3).flatmap(small_ideals))
    def test_colength_matches_box_colength(self, a):
        assert a.colength() == box_colength(a)


class TestFiltration:
    @settings(deadline=None)
    @given(spectrum_and_betas())
    def test_monotone_in_beta(self, data):
        v, beta, gamma = data
        assert v.value_at(gamma).subset(v.value_at(beta))

    @settings(deadline=None)
    @given(m_vecs, st.integers(0, 2), neg_alphas)
    def test_hmi_monotone_in_k(self, m_vec, k, alpha):
        v = diag(m_vec, slack=F(7, 2))
        if k + 1 - alpha <= v.cutoff:
            assert v.hmi(k + 1, alpha).subset(v.hmi(k, alpha))

    @settings(deadline=None)
    @given(m_vecs, st.integers(0, 2), neg_alphas)
    def test_transversality_shift(self, m_vec, k, alpha):
        v = diag(m_vec, slack=F(5, 2))
        if k - alpha <= v.cutoff:
            assert v.hmi(k + 1, alpha + 1) == v.hmi(k, alpha)

    # The spectrum is built in the strategy, so the deadline times only the
    # round trip and not an uncached spectrum_diagonal call.
    @given(m_vecs.map(diag))
    def test_json_round_trip(self, v):
        data = json.loads(json.dumps(v.to_json()))

        def ideal(d):
            return MonIdeal(d["n"], tuple(map(tuple, d["gens"])))

        jumps = tuple((parse_rat(j["beta"]), ideal(j["ideal"])) for j in data["jumps"])
        assert VSpectrum(data["n"], parse_rat(data["cutoff"]), jumps) == v


class TestClosedForms:
    @given(small_m_vecs, neg_alphas)
    def test_howald_at_level_zero(self, m_vec, alpha):
        assert nc_ideal(m_vec, 0, alpha).ideal == howald_multiplier(m_vec, -alpha)

    @given(small_m_vecs, st.integers(1, 3), st.integers(0, 2), neg_alphas)
    def test_power_scaling(self, m_vec, p, k, alpha):
        lhs, rhs = power_scale_check(m_vec, p, k, alpha)
        assert lhs == rhs

    @given(st.lists(st.fractions(min_value=F(1, 3), max_value=2, max_denominator=4),
                    min_size=1, max_size=2),
           st.integers(0, 1), neg_alphas)
    def test_qdivisor_primitive(self, coeffs, k, alpha):
        out = qdivisor_ideal(tuple(coeffs), k, alpha)
        assert out.divisorial_part() == (0,) * len(coeffs)


class TestThomSebastiani:
    @settings(deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4))
    def test_two_one_var_factors_match_diagonal(self, m1, m2):
        cutoff = F(1, m1) + F(1, m2) + 1
        a = spectrum_one_var(m1, cutoff + 1)
        b = spectrum_one_var(m2, cutoff + 1)
        assert spectrum_thom_sebastiani(a, b, cutoff) == spectrum_diagonal((m1, m2), cutoff)

    @settings(deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3))
    def test_commutative_up_to_swap(self, m1, m2):
        cutoff = F(1, m1) + F(1, m2) + 1
        a = spectrum_one_var(m1, cutoff + 1)
        b = spectrum_one_var(m2, cutoff + 1)
        ab = spectrum_thom_sebastiani(a, b, cutoff)
        ba = spectrum_thom_sebastiani(b, a, cutoff)
        assert ab.jumping_numbers() == ba.jumping_numbers()
        swapped = [(beta, permute_ideal(i, (1, 0))) for beta, i in ba.jumps]
        assert list(ab.jumps) == swapped

    @settings(deadline=None)
    @given(st.integers(1, 3))
    def test_smooth_factor_no_jump_below_one(self, m):
        a = spectrum_one_var(m, 4)
        b = spectrum_one_var(1, 4)
        cutoff = F(1, m) + F(3, 2)
        ts = spectrum_thom_sebastiani(a, b, cutoff)
        assert ts.minimal_exponent() == F(1, m) + 1
        assert ts.value_at(F(1, m) + F(1, 2)) == unit_ideal(2)
