"""Graded dimensions, Milnor algebra Hilbert functions, Hodge numbers and the
numerical nontriviality criteria."""

from fractions import Fraction as F

import pytest

from hmideals import (
    StrataData,
    containment_threshold,
    gdim_ordinary,
    hodge_cyclic_eigenspace,
    hodge_prim_hypersurface,
    independent_conditions_degree,
    milnor_hilbert,
    min_exponent_upper,
    nontriviality_data,
    symbolic_power_exponent,
)

from hmideals.graded import hilbert_coeff as kernel_coeff
from oracles import hilbert_coeff


class TestMilnorHilbert:
    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 3), (4, 3), (3, 4), (5, 2)])
    def test_matches_series_expansion(self, n, m):
        h = milnor_hilbert(n, m)
        assert len(h) == n * (m - 2) + 1
        assert list(h) == [hilbert_coeff(n, m, d) for d in range(len(h))]
        assert hilbert_coeff(n, m, len(h)) == 0

    def test_symmetry(self):
        h = milnor_hilbert(4, 4)
        assert h == h[::-1]

    def test_total_dimension(self):
        # Milnor number of the Fermat singularity
        assert sum(milnor_hilbert(3, 3)) == 2 ** 3
        assert sum(milnor_hilbert(2, 5)) == 4 ** 2

    def test_large_matches_series_expansion(self):
        h = milnor_hilbert(30, 30)
        assert len(h) == 30 * 28 + 1
        assert list(h) == [hilbert_coeff(30, 30, d) for d in range(len(h))]


class TestHilbertCoeff:
    """graded.hilbert_coeff, which gdim and hodge read, against the whole
    series (milnor_hilbert) as the second route."""

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("m", range(2, 8))
    def test_matches_milnor_hilbert(self, n, m):
        h = milnor_hilbert(n, m)
        got = [kernel_coeff(n, m, d) for d in range(-2, len(h) + 2)]
        assert got == [0, 0, *h, 0, 0]

    def test_large(self):
        h = milnor_hilbert(30, 30)
        assert [kernel_coeff(30, 30, d) for d in range(len(h) + 1)] == [*h, 0]
        # single coefficients of a series of 600 * 598 + 1 terms: its ends,
        # its first step (n monomials of degree 1) and its symmetry
        top = 600 * 598
        assert kernel_coeff(600, 600, 0) == kernel_coeff(600, 600, top) == 1
        assert kernel_coeff(600, 600, top + 1) == 0
        assert kernel_coeff(600, 600, 1) == kernel_coeff(600, 600, top - 1) == 600
        assert kernel_coeff(600, 600, 1000) == kernel_coeff(600, 600, top - 1000)
        assert hodge_prim_hypersurface(600, 600, 1) == 1
        assert gdim_ordinary(600, 600, 1, 0) == 1

    @pytest.mark.parametrize("n, m", [(0, 3), (3, 1)])
    def test_rejects_bad_input(self, n, m):
        with pytest.raises(ValueError, match="need n >= 1 and m >= 2"):
            kernel_coeff(n, m, 0)
        with pytest.raises(ValueError, match="need n >= 1 and m >= 2"):
            milnor_hilbert(n, m)


class TestGdimOrdinary:
    def test_fermat_cubic_surface_cone(self):
        assert gdim_ordinary(3, 3, 1, 0) == 1
        assert gdim_ordinary(3, 3, 2, -1) == 9

    def test_zero_off_lattice(self):
        assert gdim_ordinary(3, 3, 1, F(-1, 2)) == 0

    @pytest.mark.parametrize("alpha", [F(-1), F(0), F(2)])
    def test_negative_level_rejected(self, alpha):
        # checked before alpha > 0 shifts the level down
        with pytest.raises(ValueError, match="k must be >= 0"):
            gdim_ordinary(3, 3, -1, alpha)

    def test_vanishes_below_threshold(self):
        # G_{k,alpha} = 0 when k - alpha < n/m
        assert gdim_ordinary(4, 3, 1, 0) == 0
        assert gdim_ordinary(5, 2, 2, 0) == 0

    def test_shift_below_level_zero(self):
        # alpha = 1 shifts (0, 1) to (-2, -1): no level below 0
        assert gdim_ordinary(3, 3, 0, 1) == 0
        assert gdim_ordinary(3, 3, 1, F(4, 3)) == 0


class TestHodge:
    def test_elliptic_curve(self):
        assert hodge_prim_hypersurface(3, 3, 1) == 1

    def test_k3_primitive(self):
        assert hodge_prim_hypersurface(4, 4, 2) == 19

    def test_quintic_threefold(self):
        assert hodge_prim_hypersurface(5, 5, 2) == 101

    def test_matches_series(self):
        for n, m, k in [(3, 3, 1), (4, 4, 2), (5, 5, 2), (4, 2, 1)]:
            assert hodge_prim_hypersurface(n, m, k) == hilbert_coeff(n, m, m * k - n)

    def test_cyclic_eigenspace(self):
        # p = m falls back to the invariant part
        for n, m, k in [(3, 3, 1), (4, 4, 1)]:
            assert hodge_cyclic_eigenspace(n, m, k, m) == 0
        assert hodge_cyclic_eigenspace(3, 3, 0, 1) == hilbert_coeff(3, 3, 3 * 1 - 1 - 3)


class TestCriteria:
    def test_nontriviality_division(self):
        out = nontriviality_data(7, 1, 4)
        assert (out["k"], out["r"]) == divmod(6, 4)
        assert out["alpha"] == F(-2, 4)

    def test_theta_specialization(self):
        for m in (2, 3, 4, 5):
            g = 4 * m
            out = nontriviality_data(g, g - 2 * m + 1, m)
            assert (out["k"], out["r"], out["alpha"]) == (1, m - 1, F(-(m - 1), m))

    def test_symbolic_power(self):
        # x = m(ell - alpha) - codim, exponent x - floor(x/m)
        assert symbolic_power_exponent(3, 3, 1, 0) == 0
        assert symbolic_power_exponent(3, 3, 2, 0) == 2
        assert symbolic_power_exponent(2, 2, 3, -1) == 3

    def test_symbolic_power_negative_is_zero(self):
        assert symbolic_power_exponent(5, 2, 1, 0) == 0

    @pytest.mark.parametrize("codim, m", [(-1, 0), (0, 2), (3, 1), (3, 0), (3, -2)])
    def test_symbolic_power_rejects_bad_stratum(self, codim, m):
        with pytest.raises(ValueError, match="need codim >= 1 and m >= 2"):
            symbolic_power_exponent(codim, m, 0, 0)

    @pytest.mark.parametrize("level", [-1, -3])
    def test_symbolic_power_rejects_negative_level(self, level):
        with pytest.raises(ValueError, match="level must be >= 0"):
            symbolic_power_exponent(3, 2, level, 0)

    @pytest.mark.parametrize("r, m", [(0, 2), (-3, 2), (2, 1)])
    def test_containment_threshold_rejects_bad_stratum(self, r, m):
        with pytest.raises(ValueError, match="need codim >= 1 and m >= 2"):
            containment_threshold(r, m)

    @pytest.mark.parametrize("n, m, d", [(4, 3, 0), (4, 3, -2), (2, 3, 5), (4, 1, 5)])
    def test_independent_conditions_rejects_bad_input(self, n, m, d):
        with pytest.raises(ValueError, match="need n >= 3, m >= 2 and d >= 1"):
            independent_conditions_degree(n, m, d)

    def test_containment_threshold(self):
        assert containment_threshold(2, 2) == 1
        assert containment_threshold(3, 2) == 1
        assert containment_threshold(4, 3) == F(1, 2)

    def test_independent_conditions(self):
        for d in (3, 4, 5, 10):
            assert independent_conditions_degree(3, 2, d) == 2 * d - 4

    def test_min_exponent_upper(self):
        strata = StrataData(((2, 3), (3, 5)))
        assert min_exponent_upper(strata) == F(3, 2)

    def test_min_exponent_upper_rejects_empty_strata(self):
        with pytest.raises(ValueError, match="empty strata"):
            min_exponent_upper(StrataData(()))


class TestStrataValidation:
    def test_duplicate_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            StrataData(((2, 3), (2, 4)))

    def test_small_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            StrataData(((1, 3),))
