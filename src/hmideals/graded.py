"""Dimension-level invariants of ordinary singularities and smooth hypersurfaces.

Everything here reduces to the Hilbert function of the Jacobian ring of a
smooth degree-m hypersurface in n variables, which is a complete
intersection of n forms of degree m-1 and so depends only on (n, m):
the coefficients of ((1 - t^{m-1})/(1 - t))^n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from .frozen import Frozen


class StrataData(Frozen):
    """Multiplicity strata: pairs (m, codim of the locus of points of mult m)."""

    __slots__ = _fields = ("strata",)  # of (m, codim)

    def __init__(self, strata: tuple):
        object.__setattr__(self, "strata", strata)
        self.__post_init__()

    def __post_init__(self):
        ms = [m for m, _ in self.strata]
        if len(ms) != len(set(ms)):
            raise ValueError("multiplicities must be distinct")
        for m, codim in self.strata:
            if m < 2 or codim < 1:
                raise ValueError(f"invalid stratum ({m}, {codim})")


def milnor_hilbert(n: int, m: int) -> tuple:
    """Hilbert function of the Jacobian ring for degree m in n variables:
    its coefficients in degrees 0 to n(m-2)."""
    if n < 1 or m < 2:
        raise ValueError("need n >= 1 and m >= 2")
    coeffs = [1]
    for _ in range(n):
        # times (1 - t^{m-1}) / (1 - t): a difference, then prefix sums
        shifted = [0] * (m - 1) + coeffs
        coeffs = list(accumulate(a - b for a, b in zip(coeffs + [0] * (m - 2), shifted)))
    return tuple(coeffs)


def hilbert_coeff(n: int, m: int, d: int) -> int:
    """Coefficient of t^d in milnor_hilbert(n, m), in O(n) steps: expand the
    numerator (1 - t^{m-1})^n against 1/(1 - t)^n."""
    if n < 1 or m < 2:
        raise ValueError("need n >= 1 and m >= 2")
    ells = range(min(n, d // (m - 1)) + 1) if d >= 0 else ()
    return sum((-1) ** ell * math.comb(n, ell) * math.comb(d - ell * (m - 1) + n - 1, n - 1)
               for ell in ells)


def gdim_ordinary(n: int, m: int, k: int, alpha) -> int:
    """Dimension of the graded piece at (k, alpha) for an ordinary m-fold point.

    Zero unless m*alpha is an integer.  Indices alpha > 0 are shifted down
    to (-1, 0] along the level direction first (the graded pieces are
    isomorphic under the simultaneous shift of k and alpha).  The
    nonvanishing equivalence (positive iff k - alpha >= n/m and m*alpha
    integral) holds for n >= 3 only.
    """
    if n < 1 or m < 2:
        raise ValueError("need n >= 1 and m >= 2")
    if k < 0:
        raise ValueError("k must be >= 0")
    alpha = Fraction(alpha)
    if (m * alpha).denominator != 1:
        return 0
    if alpha > 0:
        t = math.floor(alpha) + 1
        k, alpha = k - t, alpha - t
        if k < 0:
            return 0
    target = int(m * (k - alpha)) - n  # integral since m*alpha is
    lo = max(0, k - n - 1)
    hi = min(k, target // m) if target >= 0 else -1
    return sum(math.comb(n + ell - 1, ell) * hilbert_coeff(n, m, target - m * ell)
               for ell in range(lo, hi + 1))


def hodge_prim_hypersurface(n: int, m: int, k: int) -> int:
    """Primitive Hodge number h^{n-1-k, k-1} of a smooth degree-m hypersurface
    in projective (n-1)-space, via the Griffiths residue grading."""
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    return hilbert_coeff(n, m, m * k - n)


def hodge_cyclic_eigenspace(n: int, m: int, k: int, p: int) -> int:
    """Eigenvalue-p/m piece of the primitive (n-1-k, k)-cohomology of the
    degree-m cyclic cover branched along the hypersurface; zero at p = m."""
    if not 1 <= p <= m:
        raise ValueError("need 1 <= p <= m")
    if p == m:
        return 0
    return hilbert_coeff(n, m, m * (k + 1) - p - n)


def nontriviality_data(n: int, d: int, m: int):
    """Division data n - d = k*m + r certifying nontriviality at level k.

    A d-dimensional component of the multiplicity-m locus forces the
    strict-index ideal at level k to be proper for some index >= -r/m.
    """
    if not (n > d >= 0):
        raise ValueError("need n > d >= 0")
    if m < 2:
        raise ValueError("need m >= 2")
    k, r = divmod(n - d, m)
    return {"k": k, "r": r, "alpha": Fraction(-r, m)}


def symbolic_power_exponent(codim: int, m: int, ell: int, alpha) -> int:
    """Order of vanishing forced along a multiplicity-m stratum of the given
    codimension: the level-ell ideal at index alpha sits inside the symbolic
    power of that order."""
    if codim < 1 or m < 2:
        raise ValueError("need codim >= 1 and m >= 2")
    if ell < 0:
        raise ValueError("level must be >= 0")
    alpha = Fraction(alpha)
    x = m * (ell - alpha) - codim
    if x < 0:
        return 0
    p = x - math.floor(Fraction(x) / m)
    if p.denominator != 1:
        raise ValueError(f"m*(ell - alpha) must be an integer, got exponent {p}")
    return int(p)


def containment_threshold(r: int, m: int) -> Fraction:
    """Smallest level from which the index -1 ideals lie inside the ideal of a
    codimension-r multiplicity-m subvariety."""
    if r < 1 or m < 2:
        raise ValueError("need codim >= 1 and m >= 2")
    return Fraction(r + 1 - math.ceil(Fraction(r) / m), m - 1) - 1


def independent_conditions_degree(n: int, m: int, d: int) -> int:
    """Degree from which the isolated multiplicity-m points of a degree-d
    hypersurface in projective n-space impose independent conditions."""
    if n < 3 or m < 2 or d < 1:
        raise ValueError("need n >= 3, m >= 2 and d >= 1")
    return math.ceil(Fraction(n + 1 - math.ceil(Fraction(n, m)), m - 1)) * d - n - 1


def min_exponent_upper(strata: StrataData) -> Fraction:
    """Upper bound min codim/m over the multiplicity strata."""
    if not strata.strata:
        raise ValueError("empty strata")
    return min(Fraction(codim, m) for m, codim in strata.strata)
