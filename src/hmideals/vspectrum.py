"""The microlocal filtration spectrum of a singularity germ.

A VSpectrum records, up to an explicit cutoff B, the decreasing family of
monomial ideals indexed by beta > 0: the value is the unit ideal on
(0, beta_1] and drops to ideal_after_i just past each jump beta_i
(left-open right-closed intervals, larger ideal at the jump itself).
Every two-index ideal I_{k,alpha} with alpha >= -1 is read off at
beta = k - alpha; alpha < -1 is reached through the periodicity twist by
a power of the defining equation.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from operator import itemgetter

from .errors import CutoffExceededError
from .frozen import Frozen
from .monomial import MonIdeal, unit_ideal
from .rat import fmt_rat


class VSpectrum(Frozen):
    """Jump list of the filtration of one germ, valid on (0, cutoff]."""

    __slots__ = _fields = ("n", "cutoff", "jumps")  # jumps: ordered (beta, ideal_after) pairs

    def __init__(self, n: int, cutoff: Fraction, jumps: tuple = ()):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "jumps", jumps)
        self.__post_init__()

    def __post_init__(self):
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")
        prev_beta = Fraction(0)
        prev_ideal = unit_ideal(self.n)
        for beta, ideal in self.jumps:
            if not prev_beta < beta:
                raise ValueError(f"jump {beta} out of order")
            if not (ideal.subset(prev_ideal) and ideal != prev_ideal):
                raise ValueError(f"filtration does not strictly descend at beta={beta}")
            prev_beta, prev_ideal = beta, ideal
        if prev_beta > self.cutoff:  # the jumps ascend: the last is the largest
            raise ValueError(f"jump {prev_beta} beyond cutoff {self.cutoff}")

    # -- queries -------------------------------------------------------

    def _lookup(self, beta: Fraction, strict: bool) -> MonIdeal:
        """Value on the interval containing beta (right-closed), or with
        strict the value just above beta; beta must lie in (0, cutoff], and
        below the cutoff when strict."""
        if not 0 < beta <= self.cutoff or (strict and beta == self.cutoff):
            end = ")" if strict else "]"
            # the value just above beta has no least cutoff
            needed = beta if beta > 0 and not strict else None
            raise CutoffExceededError(f"beta={beta} outside (0, {self.cutoff}{end}", needed)
        find = bisect.bisect_right if strict else bisect.bisect_left
        i = find(self.jumps, beta, key=itemgetter(0))
        return self.jumps[i - 1][1] if i else unit_ideal(self.n)

    def _index_lookup(self, k: int, alpha: Fraction, strict: bool) -> MonIdeal:
        """_lookup at beta = k - alpha; the unit ideal when beta <= 0."""
        if k < 0:
            raise ValueError("k must be >= 0")
        alpha = Fraction(alpha)
        if alpha < -1:
            raise ValueError("alpha < -1 requires the twisted form (hmi_twisted)")
        beta = k - alpha
        return self._lookup(beta, strict) if beta > 0 else unit_ideal(self.n)

    def value_at(self, beta: Fraction) -> MonIdeal:
        """Step-function value on the interval containing beta (right-closed)."""
        return self._lookup(beta, strict=False)

    def value_after(self, beta: Fraction) -> MonIdeal:
        """Value just above beta: the next interval's ideal."""
        return self._lookup(beta, strict=True)

    def hmi(self, k: int, alpha: Fraction) -> MonIdeal:
        """The ideal at level k and index alpha >= -1, via beta = k - alpha."""
        return self._index_lookup(k, alpha, strict=False)

    def hmi_lt(self, k: int, alpha: Fraction) -> MonIdeal:
        """The strict-index ideal, the value just above k - alpha."""
        return self._index_lookup(k, alpha, strict=True)

    def hmi_twisted(self, k: int, alpha: Fraction, f_exps=None) -> "HMIdeal":
        """Reduce alpha < -1 by periodicity: a twist by f^t with alpha + t in [-1, 0).

        If the defining equation is the monomial z^f_exps, the twist is folded
        into the ideal and f_power comes back 0.
        """
        alpha = Fraction(alpha)
        t = max(0, math.ceil(-alpha) - 1)  # least t >= 0 with alpha + t >= -1
        ideal = self.hmi(k, alpha + t)
        if f_exps is not None and t > 0:
            folded = ideal.scale(tuple(t * e for e in f_exps))
            return HMIdeal(0, folded)
        return HMIdeal(t, ideal)

    # -- invariants ----------------------------------------------------

    def jumping_numbers(self):
        return [b for b, _ in self.jumps]

    def minimal_exponent(self) -> Fraction:
        """The first jump."""
        if not self.jumps:
            raise ValueError(f"no jump up to cutoff {self.cutoff}")
        return self.jumps[0][0]

    def graded_dim(self, k: int, alpha: Fraction):
        """Monomial count of hmi(k, alpha) modulo hmi_lt(k, alpha)."""
        return self.hmi(k, alpha).count_outside(self.hmi_lt(k, alpha))

    def bs_root_classes(self):
        """Jumping numbers negated and reduced mod Z into [-1, 0), plus -1.

        The class of -1 is always present: the level-0 jump at index -1
        exists for any nonzero divisor and lies outside the beta-range this
        spectrum stores.
        """
        classes = {Fraction(-1)}
        for beta in self.jumping_numbers():
            frac = beta - math.floor(beta)
            classes.add(-frac if frac else Fraction(-1))
        return classes

    # -- presentation --------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "cutoff": fmt_rat(self.cutoff),
            "jumps": [
                {"beta": fmt_rat(b), "ideal": ideal.to_json()} for b, ideal in self.jumps
            ],
        }


class HMIdeal(Frozen):
    """A monomial ideal times a power of the defining equation f."""

    __slots__ = _fields = ("f_power", "ideal")

    def __init__(self, f_power: int, ideal: MonIdeal):
        object.__setattr__(self, "f_power", f_power)
        object.__setattr__(self, "ideal", ideal)

    def to_json(self) -> dict:
        return {"f_power": self.f_power, "ideal": self.ideal.to_json()}


def spectrum_from_step(n: int, cutoff: Fraction, points, values, scale: int) -> VSpectrum:
    """Assemble a spectrum from a sampled step function.

    points are strictly increasing ints, candidate jump locations in units
    of 1/scale, and values[i] is the filtration value on the interval
    ending at points[i] (values[0] on (0, points[0]], which must be the
    unit ideal).  A candidate is a jump iff the next interval's
    value differs; callers certify the last in-range candidate by supplying
    one extra point beyond the cutoff.  Non-jumps are dropped; each kept
    jump is points[i] / scale.
    """
    if values and values[0] != unit_ideal(n):
        raise ValueError("filtration must start at the unit ideal")
    # An int point is <= cutoff * scale iff it is <= the floor.
    top = cutoff.numerator * scale // cutoff.denominator
    end = min(bisect.bisect_right(points, top), len(points) - 1)
    return VSpectrum(n, cutoff, tuple([
        (Fraction(points[i], scale), values[i + 1])
        for i in range(end) if values[i + 1] != values[i]
    ]))
