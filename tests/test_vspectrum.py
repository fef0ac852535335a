"""Step-function semantics of the microlocal filtration container."""

import math
from fractions import Fraction as F

import pytest

from hmideals import (
    INFINITE,
    CutoffExceededError,
    MonIdeal,
    VSpectrum,
    spectrum_diagonal,
    spectrum_from_step,
    spectrum_one_var,
    spectrum_ordinary_fermat,
    spectrum_thom_sebastiani,
    unit_ideal,
)

from oracles import scan_value


def I(n, *gens):
    return MonIdeal(n, tuple(gens))


@pytest.fixture(scope="module")
def cusp():
    # x^2 + y^3, tracked up to 13/6
    return spectrum_diagonal((2, 3), F(13, 6))


@pytest.fixture(scope="module")
def node():
    return spectrum_diagonal((2, 2), 4)


class TestInvariants:
    def test_jumps_sorted_strict(self, cusp):
        js = cusp.jumping_numbers()
        assert js == sorted(js)
        assert len(js) == len(set(js))

    def test_strict_descent(self, cusp):
        ideals = [unit_ideal(2)] + [i for _, i in cusp.jumps]
        for big, small in zip(ideals, ideals[1:]):
            assert small.subset(big) and small != big

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            VSpectrum(1, 3, ((2, I(1, (1,))), (1, I(1, (2,)))))

    def test_non_descending_rejected(self):
        with pytest.raises(ValueError):
            VSpectrum(1, 3, ((1, I(1, (2,))), (2, I(1, (1,)))))

    def test_equal_jumps_rejected(self):
        with pytest.raises(ValueError, match="out of order"):
            VSpectrum(1, 3, ((1, I(1, (1,))), (1, I(1, (2,)))))

    def test_repeated_value_rejected(self):
        with pytest.raises(ValueError, match="strictly descend"):
            VSpectrum(1, 3, ((1, I(1, (1,))), (2, I(1, (1,)))))
        with pytest.raises(ValueError, match="strictly descend"):
            VSpectrum(1, 3, ((1, unit_ideal(1)),))

    def test_cutoff_must_be_positive(self):
        with pytest.raises(ValueError, match="cutoff must be positive"):
            VSpectrum(1, F(0))

    def test_jump_beyond_cutoff_rejected(self):
        with pytest.raises(ValueError):
            VSpectrum(1, 1, ((2, I(1, (1,))),))
        with pytest.raises(ValueError, match="beyond cutoff"):  # only the last is past it
            VSpectrum(1, F(3, 2), ((1, I(1, (1,))), (2, I(1, (2,)))))


class TestValueAt:
    def test_below_first_jump_is_unit(self, cusp):
        assert cusp.value_at(F(1, 2)) == unit_ideal(2)

    def test_at_jump_takes_larger_ideal(self, cusp):
        # intervals are left-open right-closed
        assert cusp.value_at(F(5, 6)) == unit_ideal(2)

    def test_inside_interval(self, cusp):
        assert cusp.value_at(1) == I(2, (1, 0), (0, 1))

    def test_at_cutoff(self, cusp):
        assert cusp.value_at(F(13, 6)) == I(2, (2, 0), (1, 1), (0, 3))

    def test_out_of_range(self, cusp):
        with pytest.raises(CutoffExceededError):
            cusp.value_at(F(7, 3))
        with pytest.raises(CutoffExceededError):
            cusp.value_at(0)


class TestValueAfter:
    def test_just_after_jump(self, cusp):
        assert cusp.value_after(F(5, 6)) == I(2, (1, 0), (0, 1))

    def test_inside_interval_same_as_value_at(self, cusp):
        assert cusp.value_after(1) == cusp.value_at(1)

    def test_node_after_one(self, node):
        assert node.value_after(1) == I(2, (1, 0), (0, 1))

    def test_cutoff_excluded(self, cusp):
        with pytest.raises(CutoffExceededError):
            cusp.value_after(F(13, 6))


@pytest.mark.parametrize("query, beta, message, needed", [
    ("value_at", F(7, 3), "beta=7/3 outside (0, 13/6]", F(7, 3)),
    ("value_after", F(13, 6), "beta=13/6 outside (0, 13/6)", None),
    ("value_at", F(0), "beta=0 outside (0, 13/6]", None),
])
def test_cutoff_error_names_needed_cutoff(cusp, query, beta, message, needed):
    """The least cutoff that answers the query; none for a value just above
    beta, or for beta below the range."""
    with pytest.raises(CutoffExceededError) as info:
        getattr(cusp, query)(beta)
    assert str(info.value) == message
    assert info.value.needed == needed


class TestHmi:
    def test_nonpositive_index_is_unit(self, cusp):
        assert cusp.hmi(0, 0) == unit_ideal(2)
        assert cusp.hmi(1, 1) == unit_ideal(2)

    def test_cusp_level_one(self, cusp):
        assert cusp.hmi(1, -1) == I(2, (2, 0), (1, 1), (0, 3))
        assert cusp.hmi(1, 0) == I(2, (1, 0), (0, 1))

    def test_node_level_one_trivial(self, node):
        assert node.hmi(1, 0) == unit_ideal(2)

    def test_alpha_below_minus_one_rejected(self, cusp):
        with pytest.raises(ValueError):
            cusp.hmi(1, F(-3, 2))

    def test_cutoff_error_never_truncates(self, cusp):
        with pytest.raises(CutoffExceededError):
            cusp.hmi(3, 0)

    @pytest.mark.parametrize("query", ["hmi", "hmi_lt", "hmi_twisted", "graded_dim"])
    def test_negative_level_rejected(self, cusp, query):
        # beta = k - alpha <= 0 would otherwise read as the unit ideal
        with pytest.raises(ValueError, match="k must be >= 0"):
            getattr(cusp, query)(-5, 0)


class TestHmiLt:
    def test_below_first_jump_unit(self, cusp):
        assert cusp.hmi_lt(0, F(-5, 6) + F(1, 100)) == unit_ideal(2)

    def test_cusp_strict(self, cusp):
        assert cusp.hmi_lt(0, F(-5, 6)) == I(2, (1, 0), (0, 1))

    def test_matches_value_after(self, cusp):
        assert cusp.hmi_lt(1, 0) == cusp.value_after(1)


LOOKUP_SPECTRA = {
    "cusp": lambda: spectrum_diagonal((2, 3), F(13, 6)),
    "node": lambda: spectrum_diagonal((2, 2), 4),
    "2,3,5": lambda: spectrum_diagonal((2, 3, 5), F(61, 30)),
    "fermat(3,3)": lambda: spectrum_ordinary_fermat(3, 3, 3),
    "ts(3,4)": lambda: spectrum_thom_sebastiani(
        spectrum_one_var(3, 4), spectrum_one_var(4, 4), F(19, 6)),
}
STEP = F(1, 24)


@pytest.fixture(scope="module", params=sorted(LOOKUP_SPECTRA))
def lookup_spectrum(request):
    return LOOKUP_SPECTRA[request.param]()


def outcome(fn, *args):
    try:
        return fn(*args)
    except CutoffExceededError:
        return CutoffExceededError


def probes(v):
    """Each jump, the cutoff and 0, and each of them shifted by +-STEP."""
    centres = v.jumping_numbers() + [v.cutoff, F(0)]
    return sorted({c + d for c in centres for d in (-STEP, 0, STEP)})


class TestLookupOracle:
    """The bisection lookups against the linear jump scan in tests/oracles.py."""

    def test_value_lookups(self, lookup_spectrum):
        v = lookup_spectrum
        assert len(v.jumps) >= 2
        for beta in probes(v):
            assert outcome(v.value_at, beta) == outcome(scan_value, v, beta)
            assert outcome(v.value_after, beta) == outcome(scan_value, v, beta, True)

    def test_index_lookups(self, lookup_spectrum):
        v = lookup_spectrum
        unit = unit_ideal(v.n)
        for beta in probes(v):
            for k in range(4):
                alpha = k - beta
                if alpha < -1:
                    continue
                for strict, lookup in ((False, v.hmi), (True, v.hmi_lt)):
                    want = unit if beta <= 0 else outcome(scan_value, v, beta, strict)
                    assert outcome(lookup, k, alpha) == want

    def test_edges_raise(self, lookup_spectrum):
        v = lookup_spectrum
        c = v.cutoff
        k = math.ceil(c)  # so that alpha = k - beta >= -1 near the cutoff
        edges = [
            (v.value_at, F(0)), (v.value_at, c + STEP),
            (v.value_after, F(0)), (v.value_after, c),
            (v.hmi, k, k - c - STEP), (v.hmi_lt, k, k - c),
        ]
        for fn, *args in edges:
            assert outcome(fn, *args) is CutoffExceededError


class TestTwisted:
    def test_plain_at_minus_one(self, cusp):
        t = cusp.hmi_twisted(1, -1)
        assert t.f_power == 0 and t.ideal == cusp.hmi(1, -1)

    def test_smooth_divisor_power(self):
        v = spectrum_one_var(1, 4)
        t = v.hmi_twisted(0, -2)
        assert t.f_power == 1 and t.ideal == unit_ideal(1)
        folded = v.hmi_twisted(0, -2, f_exps=(1,))
        assert folded.f_power == 0 and folded.ideal == I(1, (1,))

    def test_node_half_step(self, node):
        t = node.hmi_twisted(1, F(-3, 2))
        assert t.f_power == 1
        assert t.ideal == I(2, (1, 0), (0, 1))


class TestDerived:
    def test_minimal_exponent(self, cusp):
        assert cusp.minimal_exponent() == F(5, 6)

    def test_minimal_exponent_needs_a_jump(self):
        with pytest.raises(ValueError, match="no jump up to cutoff 1/2"):
            spectrum_diagonal((2, 3), F(1, 2)).minimal_exponent()

    def test_graded_dim_cusp(self, cusp):
        assert cusp.graded_dim(1, F(-1, 6)) == 1
        assert cusp.graded_dim(1, F(-1, 2)) == 0

    def test_graded_dim_node(self, node):
        assert node.graded_dim(1, 0) == 1

    def test_graded_dim_not_m_primary(self):
        # (x) on (1, 2], (x^2, x*y) on (2, 3]: every value but the unit ideal
        # has infinite colength
        v = VSpectrum(2, F(3), ((F(1), I(2, (1, 0))), (F(2), I(2, (2, 0), (1, 1)))))
        assert v.graded_dim(2, 0) == 1  # x
        assert v.graded_dim(1, 0) is INFINITE  # y^b, b >= 0

    def test_bs_root_classes(self, cusp, node):
        assert cusp.bs_root_classes() == {F(-1), F(-5, 6), F(-1, 6)}
        assert node.bs_root_classes() == {F(-1)}


class TestStepBuilder:
    def test_jump_detection(self):
        pts = [1, 2, 3, 4]  # 1/2, 1, 3/2, 2
        vals = [unit_ideal(1), unit_ideal(1), I(1, (1,)), I(1, (2,))]
        v = spectrum_from_step(1, F(3, 2), pts, vals, 2)
        assert v.jumping_numbers() == [1, F(3, 2)]
        assert v.value_at(F(5, 4)) == I(1, (1,))

    def test_terminal_jump_needs_probe(self):
        # the point beyond the cutoff certifies (or refutes) a jump at it
        pts = [1, 2]
        vals = [unit_ideal(1), unit_ideal(1)]
        v = spectrum_from_step(1, 1, pts, vals, 1)
        assert v.jumping_numbers() == []

    @pytest.mark.parametrize("cutoff", [F(2), F(13, 6), F(11, 6), F(7, 4)])
    def test_scaled_points(self, cutoff):
        """Int points in units of 1/scale give the spectrum that the same
        points in units of 1/(2 scale) give, with a candidate exactly at
        cutoff * scale (13 at 13/6) and the certification point 17 past it;
        at 7/4 (10.5 in units of 1/6) the jump 11/6 is past the cutoff, and
        13 and 17 are past it too."""
        cusp = spectrum_diagonal((2, 3), 3)
        ints = [5, 6, 7, 9, 11, 13, 17]  # the cusp's jumps to 17/6 and two non-jumps
        values = [cusp.value_at(F(p, 6)) for p in ints]
        got = spectrum_from_step(2, cutoff, ints, values, 6)
        assert got == spectrum_from_step(2, cutoff, [2 * p for p in ints], values, 12)
        assert got == spectrum_diagonal((2, 3), cutoff)
        assert all(type(beta) is F for beta in got.jumping_numbers())

    def test_first_value_must_be_unit(self):
        with pytest.raises(ValueError):
            spectrum_from_step(1, 1, [1, 2], [I(1, (1,)), I(1, (2,))], 1)


class TestSerializationV:
    def test_round_trip(self, cusp):
        # the cutoff and every jump, with its ideal just past it
        assert cusp.to_json() == {"n": 2, "cutoff": "13/6", "jumps": [
            {"beta": "5/6", "ideal": {"n": 2, "gens": [[0, 1], [1, 0]]}},
            {"beta": "7/6", "ideal": {"n": 2, "gens": [[0, 2], [1, 0]]}},
            {"beta": "11/6", "ideal": {"n": 2, "gens": [[0, 3], [1, 1], [2, 0]]}},
            {"beta": "13/6", "ideal": {"n": 2, "gens": [[0, 4], [1, 2], [2, 0]]}},
        ]}

    def test_rationals_as_strings(self, cusp):
        data = cusp.to_json()
        assert data["cutoff"] == "13/6"
        assert data["jumps"][0]["beta"] == "5/6"
