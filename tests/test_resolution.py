"""Log-resolution combinatorics: thresholds, weight levels, lc centers and
the built-in divisor families."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from hmideals import (
    Component,
    HypothesisError,
    MonIdeal,
    ResolutionData,
    StrataData,
    builtin_family,
    integral_components,
    lct,
    max_weight_level,
    min_exponent_bounds,
    min_exponent_stratified,
    minimal_lc_center,
    nc_ideal,
    weighted_nc_local,
)
from oracles import (
    chain_builtin_family,
    closure_lc_center,
    closure_weight_level,
    downward_close,
)


def I(n, *gens):
    return MonIdeal(n, tuple(gens))


@pytest.fixture()
def cusp_res():
    # standard resolution of the cuspidal plane curve: three blowups
    return ResolutionData.build(
        [
            Component("C", 1, 0, exceptional=False),
            Component("E1", 2, 1),
            Component("E2", 3, 2),
            Component("E3", 6, 4),
        ],
        maximal_intersections=[[0, 3], [1, 3], [2, 3]],
    )


class TestLct:
    def test_cusp(self, cusp_res):
        assert lct(cusp_res) == F(5, 6)

    def test_reduced_component_caps_at_one(self):
        res = ResolutionData.build([Component("D", 1, 0, exceptional=False)])
        assert lct(res) == 1


class TestBounds:
    def test_sandwich(self, cusp_res):
        strata = StrataData(((2, 2),))
        out = min_exponent_bounds(cusp_res, strata)
        assert out["lower"] == F(5, 6)
        assert out["upper"] == 1

    def test_stratified_value(self):
        assert min_exponent_stratified(StrataData(((2, 3), (3, 5)))) == F(3, 2)

    def test_no_exceptional_rejected(self):
        res = ResolutionData.build([Component("D", 1, 0, exceptional=False)])
        with pytest.raises(ValueError):
            min_exponent_bounds(res, StrataData(((2, 2),)))


class TestWeightLevel:
    def test_integral_components(self, cusp_res):
        assert integral_components(cusp_res, -1) == {0, 1, 2, 3}
        assert integral_components(cusp_res, F(-5, 6)) == {3}
        assert integral_components(cusp_res, F(-1, 2)) == {1, 3}

    def test_max_weight_level(self, cusp_res):
        assert max_weight_level(cusp_res, -1) == 1  # pairwise crossings only
        assert max_weight_level(cusp_res, F(-5, 6)) == 0
        assert max_weight_level(cusp_res, F(-1, 7)) == -1

    def test_lattice_downward_closed(self, cusp_res):
        closure = downward_close(cusp_res.lattice, len(cusp_res.components))
        for j in closure:
            for i in j:
                assert frozenset([i]) in closure

    def test_lattice_pinned(self, cusp_res):
        assert downward_close(cusp_res.lattice, 4) == frozenset(
            frozenset(j) for j in [[0], [1], [2], [3], [0, 3], [1, 3], [2, 3]]
        )
        # 11 mutually intersecting components: every nonempty subset
        res = builtin_family("hyperelliptic_theta", 21)["resolution"]
        closure = downward_close(res.lattice, 11)
        assert len(closure) == 2047 and frozenset(range(11)) in closure

    def test_stored_sets_pinned(self, cusp_res):
        assert cusp_res.lattice == frozenset(
            frozenset(j) for j in [[0, 3], [1, 3], [2, 3]]
        )
        res = builtin_family("hyperelliptic_theta", 21)["resolution"]
        assert res.lattice == frozenset([frozenset(range(11))])


class TestLcCenter:
    def test_cusp_center(self, cusp_res):
        centers = minimal_lc_center(cusp_res)
        assert centers == {frozenset([3])}

    def test_error_when_ratios_mixed(self):
        res = ResolutionData.build(
            [Component("E1", 2, 1), Component("E2", 2, 2)],
            maximal_intersections=[[0, 1]],
        )
        # lct = 1 from E1, but E2 also has integral index at alpha = -1
        with pytest.raises(HypothesisError):
            minimal_lc_center(res)

    def test_deepest_intersection_wins(self):
        res = ResolutionData.build(
            [Component(f"E{i}", 2, 1) for i in range(3)],
            maximal_intersections=[[0, 1, 2]],
        )
        assert minimal_lc_center(res) == {frozenset([0, 1, 2])}


def _outcome(query, *args):
    """The query's value, or the HypothesisError it raises, by message."""
    try:
        return query(*args)
    except HypothesisError as exc:
        return ("HypothesisError", str(exc))


def _assert_matches_closure(res, listed, alphas):
    closure = downward_close(listed, len(res.components))
    assert downward_close(res.lattice, len(res.components)) == closure
    for alpha in alphas:
        assert max_weight_level(res, alpha) == closure_weight_level(res, closure, alpha)
    assert _outcome(minimal_lc_center, res) == _outcome(closure_lc_center, res, closure)


class TestMaximalSetsOracle:
    """The lattice stored by its maximal sets against the downward closure
    and the scans over it that the library used before."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        comps=st.lists(st.tuples(st.integers(1, 6), st.integers(0, 6)),
                       min_size=1, max_size=7),
        data=st.data(),
        alpha=st.fractions(min_value=-2, max_value=1, max_denominator=6),
    )
    def test_random_lattices(self, comps, data, alpha):
        n = len(comps)
        listed = data.draw(st.lists(st.lists(st.integers(0, n - 1), max_size=n),
                                    max_size=4))
        res = ResolutionData.build(
            [Component(f"E{i}", e, k) for i, (e, k) in enumerate(comps)], listed
        )
        stored = res.lattice
        assert all(stored) and not any(a < b for a in stored for b in stored)
        _assert_matches_closure(res, listed, [alpha, -lct(res)])
        from_closure = ResolutionData(res.components, downward_close(listed, n))
        assert from_closure == res and hash(from_closure) == hash(res)
        assert ResolutionData.build(res.components, stored) == res

    def test_builtins(self):
        families = (
            [("hyperelliptic_theta", g) for g in range(3, 25)]
            + [("bn_general_theta", g) for g in range(4, 25)]
            + [("determinantal", n) for n in range(2, 9)]
            + [("secant", n) for n in range(1, 11)]
            + [("cubic_threefold",)]
        )
        for name, *params in families:
            res = builtin_family(name, *params)["resolution"]
            listed = [range(len(res.components))]
            _assert_matches_closure(res, listed, [-1, F(-1, 2), F(-1, 3), F(-2, 3)])


class TestWeightedNcLocal:
    def test_two_reduced_branches(self):
        # local model x*y at alpha = -1
        assert weighted_nc_local((1, 1), -1, -1) == I(2, (1, 1))
        assert weighted_nc_local((1, 1), -1, 0) == I(2, (1, 0), (0, 1))
        assert weighted_nc_local((1, 1), -1, 1) == I(2, (0, 0))

    def test_non_integral_indices_drop_out(self):
        # x^2 y^3 at alpha = -1/2: only the first component has integral index
        out = weighted_nc_local((2, 3), F(-1, 2), -1)
        assert out == nc_ideal((2, 3), 0, F(-1, 2)).ideal.scale((1, 0))

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            weighted_nc_local((1, 1), F(1, 2), 0)

    def test_ell_range_enforced(self):
        with pytest.raises(ValueError, match="ell must be >= -1"):
            weighted_nc_local((1, 1), -1, -2)


class TestSerialization:
    def test_round_trip(self, cusp_res, tmp_path):
        blob = {
            "components": [
                {"label": c.label, "e": c.e, "k": c.k, "exceptional": c.exceptional}
                for c in cusp_res.components
            ],
            "maximal_intersections": [[0, 3], [1, 3], [2, 3]],
        }
        p = tmp_path / "res.json"
        p.write_text(json.dumps(blob))
        assert ResolutionData.load(p) == cusp_res

    # the only JSON reader left: each malformed field is named in the message
    @pytest.mark.parametrize("change, message", [
        (None, "resolution data must be a JSON object"),
        ({"components": 5}, "'components' must be a list of JSON objects"),
        ({"components": [1]}, "'components' must be a list of JSON objects"),
        ({"label": 1}, "component 'label' must be a string"),
        ({"exceptional": "false"}, "component 'exceptional' must be true or false"),
        ({"e": 1.9}, "component 'e' must be an integer, got 1.9"),
        ({"e": True}, "component 'e' must be an integer, got True"),
        ({"e": None}, "component 'e' must be an integer, got None"),
        ({"k": 2.7}, "component 'k' must be an integer, got 2.7"),
        ({"k": "1"}, "component 'k' must be an integer, got '1'"),
        ({"maximal_intersections": [[0.0]]},
         "'maximal_intersections' must be a list of lists of indices"),
        ({"maximal_intersections": [0]},
         "'maximal_intersections' must be a list of lists of indices"),
    ], ids=["top-level-list", "components-not-list", "component-not-object",
            "label-not-string", "exceptional-string", "float-e", "bool-e", "null-e",
            "float-k", "string-k", "float-index", "index-not-list"])
    def test_malformed_field_rejected(self, change, message):
        comp = {"label": "E", "e": 2, "k": 1}
        if change is None:
            data = [comp]
        elif "components" in change or "maximal_intersections" in change:
            data = {"components": [comp], **change}
        else:
            data = {"components": [{**comp, **change}]}
        with pytest.raises(ValueError) as exc:
            ResolutionData.from_json(data)
        assert str(exc.value) == message

    def test_bad_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            Component("E", 0, 0)


def _family_outcome(route, call):
    """The route's dict, or the ValueError it raises, by message."""
    try:
        return route(*call)
    except ValueError as exc:
        return ("ValueError", str(exc))


class TestBuiltinFamilies:
    def test_hyperelliptic(self):
        for g in range(3, 10):
            fam = builtin_family("hyperelliptic_theta", g)
            assert fam["expected_min_exponent"] == F(3, 2)
            b = min_exponent_bounds(fam["resolution"], fam["strata"])
            assert b["lower"] == b["upper"] == F(3, 2)

    def test_brill_noether_general(self):
        for g in (4, 5, 9):
            fam = builtin_family("bn_general_theta", g)
            assert fam["expected_min_exponent"] == 2

    def test_determinantal_and_secant(self):
        assert builtin_family("determinantal", 3)["expected_min_exponent"] == 2
        assert builtin_family("secant", 2)["expected_min_exponent"] == F(3, 2)

    def test_cubic_threefold(self):
        fam = builtin_family("cubic_threefold")
        assert fam["expected_min_exponent"] == F(5, 3)
        assert lct(fam["resolution"]) == 1

    def test_unknown_family(self):
        known = ("bn_general_theta(g), cubic_threefold, determinantal(n), "
                 "hyperelliptic_theta(g), secant(n)")
        with pytest.raises(ValueError) as info:
            builtin_family("elliptic_fibration")
        assert str(info.value) == f"unknown family 'elliptic_fibration'; known: {known}"

    @pytest.mark.parametrize("name, param, strata", [
        ("hyperelliptic_theta", 9, ((2, 3), (3, 5), (4, 7), (5, 9))),
        ("bn_general_theta", 16, ((2, 4), (3, 9), (4, 16))),
        ("bn_general_theta", 17, ((2, 4), (3, 9), (4, 16))),
    ])
    def test_strata_pinned(self, name, param, strata):
        assert builtin_family(name, param)["strata"] == StrataData(strata)

    def test_strata_follow_the_answer(self):
        # 9,999 strata, m = 2..10^4, drawn without a scan up to g
        strata = builtin_family("bn_general_theta", 10**8)["strata"].strata
        assert strata[0] == (2, 4) and strata[-1] == (10**4, 10**8) and len(strata) == 9999

    def test_table_matches_chain_oracle(self):
        calls = [(name, p) for name in ("hyperelliptic_theta", "bn_general_theta",
                                        "determinantal", "secant") for p in range(-2, 301)]
        calls += [(name,) for name in ("hyperelliptic_theta", "secant", "cubic_threefold")]
        calls += [("cubic_threefold", 3), ("determinantal", 3, 3)]
        for call in calls:
            assert _family_outcome(builtin_family, call) == \
                _family_outcome(chain_builtin_family, call), call
        # the one intended difference: the unknown-family text lists the table
        new, old = (_family_outcome(route, ("nosuch", 3))
                    for route in (builtin_family, chain_builtin_family))
        assert new[1].startswith(old[1] + "; known: ")

    def test_small_genus_rejected(self):
        with pytest.raises(ValueError):
            builtin_family("hyperelliptic_theta", 2)
