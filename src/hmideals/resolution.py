"""Combinatorial calculator over log-resolution and multiplicity-stratum data.

ResolutionData carries, for each divisor component on the resolution, its
multiplicity e in the pulled-back divisor and its discrepancy k in the
relative canonical divisor, plus the intersection lattice (which subsets of
components meet), stored by its maximal sets.  Built-in families package the
stratum/resolution data of the theta-divisor, determinantal and secant
examples.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .errors import HypothesisError
from .frozen import Frozen
from .graded import StrataData, min_exponent_upper
from .rat import is_int, json_int


class Component(Frozen):
    # e: multiplicity in the pullback of the divisor; k: discrepancy
    __slots__ = _fields = ("label", "e", "k", "exceptional")

    def __init__(self, label: str, e: int, k: int, exceptional: bool = True):
        if e < 1 or k < 0:
            raise ValueError(f"invalid component ({label}: e={e}, k={k})")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "exceptional", exceptional)


class ResolutionData(Frozen):
    # a tuple of Component; the maximal sets of component indices that meet
    __slots__ = _fields = ("components", "lattice")

    def __init__(self, components: tuple, lattice: frozenset = None):
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "lattice", lattice)
        self.__post_init__()

    def __post_init__(self):
        if not self.components:
            raise ValueError("no components")
        n = len(self.components)
        if len({c.label for c in self.components}) != n:
            raise ValueError("component labels must be distinct")
        if any(not 0 <= i < n for j in self.lattice or () for i in j):
            raise ValueError(f"intersection index out of range 0..{n - 1}")
        # keep the listed sets no other contains, plus {i} for i in none
        listed = {frozenset(j) for j in self.lattice or () if j}
        covered = frozenset().union(*listed)
        maximal = {j for j in listed if not any(j < other for other in listed)}
        maximal |= {frozenset([i]) for i in range(n) if i not in covered}
        object.__setattr__(self, "lattice", frozenset(maximal))

    @classmethod
    def build(cls, components, maximal_intersections=None):
        comps = tuple(components)
        if maximal_intersections is None:
            maximal_intersections = [tuple(range(len(comps)))]
        lattice = frozenset(frozenset(j) for j in maximal_intersections)
        return cls(comps, lattice)

    @classmethod
    def from_json(cls, data: dict) -> "ResolutionData":
        if not isinstance(data, dict):
            raise ValueError("resolution data must be a JSON object")
        components = data["components"]
        if not isinstance(components, list) or not all(isinstance(c, dict) for c in components):
            raise ValueError("'components' must be a list of JSON objects")
        if not all(isinstance(c["label"], str) for c in components):
            raise ValueError("component 'label' must be a string")
        if not all(isinstance(c.get("exceptional", True), bool) for c in components):
            raise ValueError("component 'exceptional' must be true or false")
        comps = tuple(
            Component(c["label"], json_int(c["e"], "component 'e'"),
                      json_int(c["k"], "component 'k'"), c.get("exceptional", True))
            for c in components
        )
        maxints = data.get("maximal_intersections", [])
        if not isinstance(maxints, list) or not all(
            isinstance(j, list) and all(map(is_int, j)) for j in maxints
        ):
            raise ValueError("'maximal_intersections' must be a list of lists of indices")
        return cls.build(comps, [tuple(j) for j in maxints] or None)

    @classmethod
    def load(cls, path) -> "ResolutionData":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def lct(res: ResolutionData) -> Fraction:
    """Log canonical threshold: min (k_i + 1)/e_i over all components."""
    return min(Fraction(c.k + 1, c.e) for c in res.components)


def min_exponent_bounds(res: ResolutionData, strata: StrataData) -> dict:
    """Sandwich for the minimal exponent: the discrepancy ratio over
    exceptional components from below, codim/m over strata from above."""
    exceptional = [c for c in res.components if c.exceptional]
    if not exceptional:
        raise ValueError("no exceptional components")
    return {
        "lower": min(Fraction(c.k + 1, c.e) for c in exceptional),
        "upper": min_exponent_upper(strata),
    }


def min_exponent_stratified(strata: StrataData) -> Fraction:
    """Exact minimal exponent min codim/m, valid when a log resolution exists
    that only blows up smooth multiplicity-stratum centers."""
    return min_exponent_upper(strata)


def integral_components(res: ResolutionData, alpha) -> set:
    """Indices i with e_i * alpha integral."""
    alpha = Fraction(alpha)
    return {i for i, c in enumerate(res.components) if (c.e * alpha).denominator == 1}


def max_weight_level(res: ResolutionData, alpha) -> int:
    """Largest ell such that some (ell+1)-fold intersection of integral-index
    components is nonempty; -1 when there is none."""
    idx = integral_components(res, alpha)
    return max(len(m & idx) for m in res.lattice) - 1


def minimal_lc_center(res: ResolutionData) -> set:
    """Deepest intersections of components computing the log canonical
    threshold; their images are the minimal log canonical centers.

    Requires that every component with e_i * lct integral computes the
    threshold; otherwise the combinatorics alone does not determine the
    center and an error names the offending component.
    """
    threshold = lct(res)
    idx = integral_components(res, -threshold)
    for i in sorted(idx):
        c = res.components[i]
        if Fraction(c.k + 1, c.e) != threshold:
            raise HypothesisError(
                f"component {c.label!r} has integral index but ratio "
                f"{Fraction(c.k + 1, c.e)} != lct {threshold}"
            )
    # every intersection inside idx lies in some maximal set's part in idx
    cuts = [m & idx for m in res.lattice]
    depth = max(map(len, cuts))
    return {c for c in cuts if len(c) == depth} if depth else set()


def weighted_nc_local(m_vec, alpha, ell: int):
    """Weight-ell piece of the level-0 ideal in the local monomial model.

    Multiplies the level-0 normal-crossing ideal by the ideal of the
    (ell+2)-fold intersections of the components with integral index:
    squarefree monomials of degree s - ell - 1 in those variables (unit when
    the intersections are empty, the full product when ell = -1).
    """
    # imported here, the one user, so that resolution commands do not load
    # the spectrum modules
    from .constructors import nc_ideal
    from .monomial import squarefree_ideal

    m_vec = tuple(int(m) for m in m_vec)
    alpha = Fraction(alpha)
    if not -1 <= alpha < 0:
        raise ValueError("alpha must lie in [-1, 0)")
    if ell < -1:
        raise ValueError("ell must be >= -1")
    base = nc_ideal(m_vec, 0, alpha).ideal
    integral = [i for i, m in enumerate(m_vec) if m > 0 and (alpha * m).denominator == 1]
    return base * squarefree_ideal(len(m_vec), integral, max(0, len(integral) - ell - 1))


# -- built-in families ------------------------------------------------------


def _chain_resolution(strata: StrataData):
    """Proper transform plus one exceptional component E{m} per stratum, with
    multiplicity m and discrepancy codim - 1, all mutually intersecting
    (iterated blow-up chain)."""
    comps = [Component("proper-transform", 1, 0, exceptional=False)]
    comps += [Component(f"E{m}", m, codim - 1) for m, codim in strata.strata]
    return ResolutionData.build(comps)


# name: (written form, parameter wording, least parameter, strata rule
# parameter -> [(m, codim), ...] over the qualifying m, expected exponent)
_FAMILIES = {
    "hyperelliptic_theta": ("hyperelliptic_theta(g)", "genus g", 3,
                            lambda g: [(m, 2 * m - 1) for m in range(2, (g + 3) // 2)],
                            Fraction(3, 2)),
    "bn_general_theta": ("bn_general_theta(g)", "genus g", 4,
                         lambda g: [(m, m * m) for m in range(2, math.isqrt(g) + 1)],
                         Fraction(2)),
    "determinantal": ("determinantal(n)", "matrix size n", 2,
                      lambda n: [(m, m * m) for m in range(2, n + 1)], Fraction(2)),
    "secant": ("secant(n)", "n", 1,
               lambda n: [(m, 2 * m - 1) for m in range(2, n + 2)], Fraction(3, 2)),
    "cubic_threefold": ("cubic_threefold", None, None, lambda: [(3, 5)], Fraction(5, 3)),
}


def builtin_family(name: str, *params) -> dict:
    """Stratum and resolution data for the named divisor family, written as
    in _FAMILIES: one integer parameter or none."""
    if name not in _FAMILIES:
        known = ", ".join(sorted(row[0] for row in _FAMILIES.values()))
        raise ValueError(f"unknown family {name!r}; known: {known}")
    form, wording, least, rule, expected = _FAMILIES[name]
    if len(params) != ("(" in form):
        raise ValueError(f"family {name!r} is written {form}")
    if params and params[0] < least:
        raise ValueError(f"need {wording} >= {least}")
    strata = StrataData(tuple(rule(*params)))
    return {"strata": strata, "resolution": _chain_resolution(strata),
            "expected_min_exponent": expected}
