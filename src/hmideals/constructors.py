"""Closed-form spectrum and ideal constructors for the divisor classes in scope.

One spectrum builder for every sum of powers (the diagonal staircase; the
power and the Fermat cone are special cases), the Thom-Sebastiani rule, and
the normal-crossing, power-scaling and Q-divisor ideal formulas.  All
enumeration is exact; cutoffs are explicit and never extrapolated.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from operator import itemgetter

from .errors import CutoffExceededError
from .monomial import MonIdeal, squarefree_ideal, unit_ideal
from .rat import floor_minus_eps
from .vspectrum import HMIdeal, VSpectrum, spectrum_from_step


def spectrum_diagonal(m_vec, cutoff) -> VSpectrum:
    """Spectrum of the divisor z_1^{m_1} + ... + z_n^{m_n} up to the cutoff.

    A monomial z^mu has weight sum_j (mu_j + 1 + mu_j // (m_j - 1)) / m_j,
    where a coordinate with m_j = 1 contributes mu_j + 1 (smooth factor: the
    staircase term degenerates to zero), so that the one-variable m = 1
    filtration jumps at 1, 2, ... with ideals (x), (x^2), ....  The value
    just past beta is generated by the monomials of weight >= the next
    achieved weight; every achieved weight <= cutoff is a genuine jump
    because the weight is strictly increasing coordinatewise.  Weights are
    scaled to integers by lcm(m_j), and the cost grows with the number of
    jumps and minimal generators, not with a bounding box.
    """
    m_vec = tuple(int(m) for m in m_vec)
    if not m_vec or any(m < 1 for m in m_vec):
        raise ValueError("m_vec must be a nonempty list of naturals >= 1")
    cutoff = Fraction(cutoff)
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    n = len(m_vec)
    scale = math.lcm(*m_vec)
    p, q = cutoff.numerator, cutoff.denominator
    top = p * scale // q  # weights are ints, so compare with floor(cutoff * scale)
    # Scaled weights of each coordinate at mu = 0, 1, ...: strictly
    # increasing, >= scale * (mu + 1) / m, so they end past top.
    tables = [
        [scale * (mu + 1) if m == 1 else scale // m * (mu + 1 + mu // (m - 1))
         for mu in range(p * m // q + 1)]
        for m in m_vec
    ]
    # The last level is the first achieved weight past the cutoff: it
    # certifies a jump sitting exactly at the cutoff.
    levels, staircases = _staircases(tables, top)
    values = [MonIdeal._of_antichain(n, gens) for gens in staircases]
    return spectrum_from_step(n, cutoff, levels, values, scale)


def _staircases(tables, top) -> tuple:
    """(levels, staircases): the achieved weights <= top in ascending order,
    then the least achieved weight past top; and for each level the minimal
    exponent vectors of scaled weight >= it, as a tuple in lex order.

    A walk at level L lists those vectors.  For each prefix the last
    coordinate is the least that reaches L; a coordinate stops growing once
    the prefix with zeros after it reaches L (any larger value is divisible
    by that point).  A candidate is kept iff lowering any nonzero coordinate
    by one drops it below L; the last coordinate is least by construction.
    The weight grows with divisibility, so the least weight L + slack of a
    kept vector is the least achieved weight >= L: the walk finds the next
    level, and its vectors are that level's value.  The first walk is at 0
    (the unit ideal), each later one at one past the level before, until a
    level passes top.  No walk is above top + 1, which each table reaches.

    The suffix minima and the walk are set up once per build; the walk's
    reference to itself is dropped at the end, so a build leaves no cycle
    for the collector.
    """
    n = len(tables)
    last = tables[-1]
    if n == 1:  # every weight is achieved, by a single power
        k = bisect.bisect_right(last, top)
        return last[:k + 1], [((y,),) for y in range(k + 1)]
    rest = [0] * n  # least weight of the coordinates after j
    for j in range(n - 2, -1, -1):
        rest[j] = rest[j + 1] + tables[j + 1][0]
    mu = [0] * n
    levels, out = [], []

    def walk(j, partial):
        nonlocal least
        table = tables[j]
        for x, v in enumerate(table):
            mu[j] = x
            total = partial + v
            if j < n - 2:
                walk(j + 1, total)
            else:  # the last coordinate is the least that reaches the level
                y = bisect.bisect_left(last, level - total)
                slack = total + last[y] - level
                for i in range(n - 1):
                    a = mu[i]
                    if a and tables[i][a] - tables[i][a - 1] <= slack:
                        break
                else:
                    mu[-1] = y
                    gens.append(tuple(mu))
                    if slack < least:
                        least = slack
            if total + rest[j] >= level:
                break

    level = 0
    while not levels or levels[-1] <= top:
        gens, least = [], math.inf
        walk(0, 0)
        levels.append(level + least)
        out.append(tuple(gens))
        level = levels[-1] + 1
    del walk
    return levels, out


def spectrum_one_var(m: int, cutoff) -> VSpectrum:
    """Spectrum of x^m in one variable."""
    return spectrum_diagonal((m,), cutoff)


def spectrum_ordinary_fermat(n: int, m: int, cutoff) -> VSpectrum:
    """Spectrum of the Fermat cone z_1^m + ... + z_n^m: diagonal, all m_j = m."""
    if n < 2 or m < 2:
        raise ValueError("need n >= 2 and m >= 2")
    return spectrum_diagonal((m,) * n, cutoff)


def spectrum_thom_sebastiani(v1: VSpectrum, v2: VSpectrum, cutoff) -> VSpectrum:
    """Spectrum of f(x) + g(y) from the spectra of the two summands.

    The value at beta is the ideal sum over splittings beta_1 + beta_2 = beta
    of the box products of the factor values.  Each factor is constant on
    pieces (lo, hi], so a pair of pieces contributes its product exactly when
    some split lands in both: lo_1 + lo_2 < beta <= hi_1 + hi_2.

    For a piece of f the qualifying pieces of g are consecutive and g's
    values descend, so only the first counts: the first piece of g with
    hi_2 >= beta - hi_1, found by bisection.  It always qualifies once
    lo_1 < beta: its lo_2 is 0 or the end of the piece before it, which is
    below beta - hi_1, so lo_2 < beta - lo_1 either way.  Pieces of f with
    lo_1 >= beta have no partner.

    Candidate jumps are the sums of one jump of each factor.  A pair of
    pieces leaves at such a sum (or past the cutoff); a pair with f's unit
    piece enters at a jump lo_2 of g, but its product lies in that of the
    pair with g's piece before, active until s_1 + lo_2 for f's first jump
    s_1 (likewise with f and g swapped).  So each factor is read up to its
    first jump past the cutoff.
    """
    cutoff = Fraction(cutoff)
    if cutoff > v1.cutoff or cutoff > v2.cutoff:
        raise CutoffExceededError("cutoff exceeds a factor's guaranteed range")
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    n = v1.n + v2.n
    read1, read2 = _piece_ends(v1, cutoff), _piece_ends(v2, cutoff)
    # Every piece end read and both factor cutoffs are multiples of 1/scale,
    # so bounds, candidates and the probe compare as ints.
    scale = math.lcm(v1.cutoff.denominator, v2.cutoff.denominator,
                     *(end.denominator for end in read1 + read2))
    pieces1, pieces2 = _pieces(v1, read1, scale), _pieces(v2, read2, scale)
    ends2 = [hi for _, hi, _ in pieces2]

    def value(beta: int) -> MonIdeal:  # beta in units of 1/scale
        gens = []
        for lo1, hi1, a in pieces1:
            if lo1 >= beta:
                break
            # beta - hi1 never passes the last end of g's pieces: that end
            # is g's cutoff, or follows g's first jump past the cutoff, and
            # the probe is at most f's first jump plus that jump.
            _, _, b = pieces2[bisect.bisect_left(ends2, beta - hi1)]
            gens += [g + h for g in a.gens for h in b.gens]
        return MonIdeal(n, tuple(gens))

    # The sums of jumps up to the cutoff, then the first sum past it, which
    # certifies a terminal jump within the range both factors guarantee.
    last = cutoff.numerator * scale // cutoff.denominator
    starts2 = [lo for lo, _, _ in pieces2[1:]] + [math.inf]
    points, past = set(), math.inf
    for lo1, _, _ in pieces1[1:]:
        k = bisect.bisect_right(starts2, last - lo1)
        points.update(lo1 + lo2 for lo2 in starts2[:k])
        past = min(past, lo1 + starts2[k])
        if not k:  # this sum and every later one is past the cutoff
            break
    points = sorted(points)
    if past < math.inf:
        probe = min(past, *(_scaled(v.cutoff, scale) for v in (v1, v2)))
        if probe > (points[-1] if points else 0):
            points.append(probe)
    return spectrum_from_step(n, cutoff, points, [value(p) for p in points], scale)


def _piece_ends(spect: VSpectrum, cutoff: Fraction) -> list:
    """The ends of the pieces a Thom-Sebastiani build to cutoff reads: the
    jumps up to the cutoff and the first jump past it, then the end of that
    last piece (the next jump, or the spectrum's cutoff)."""
    k = bisect.bisect_right(spect.jumps, cutoff, key=itemgetter(0))
    ends = [beta for beta, _ in spect.jumps[:k + 2]]
    if len(ends) < k + 2:
        ends.append(spect.cutoff)
    return ends


def _pieces(spect: VSpectrum, ends: list, scale: int) -> list:
    """(lo, hi, ideal) for the intervals (lo, hi] that end at ends, on which
    the spectrum is constant, the ends in units of 1/scale: the unit ideal,
    then the value after each jump."""
    ends = [0, *(_scaled(end, scale) for end in ends)]
    ideals = [unit_ideal(spect.n), *(ideal for _, ideal in spect.jumps[:len(ends) - 2])]
    return list(zip(ends, ends[1:], ideals))


def _scaled(x: Fraction, scale: int) -> int:
    """x * scale for a scale that x's denominator divides."""
    return x.numerator * (scale // x.denominator)


def nc_ideal(m_vec, k: int, alpha) -> HMIdeal:
    """Two-index ideal of the normal-crossing divisor sum m_i * (x_i = 0).

    Valid for alpha < 0.  At alpha = 0 the same epsilon-adjusted exponent
    formula is applied, which yields the strict (left-limit) ideal rather
    than the value at 0; this keeps the power-scaling identity exact on the
    closed range alpha <= 0.
    The result is the principal monomial prod x_i^{a_i} times the k-th power
    of the ideal of pairwise intersections of the reduced components.
    """
    m_vec = tuple(int(m) for m in m_vec)
    alpha = Fraction(alpha)
    if any(m < 0 for m in m_vec):
        raise ValueError("multiplicities must be >= 0")
    if not any(m > 0 for m in m_vec):
        raise ValueError("some multiplicity must be positive")
    if alpha > 0:
        raise ValueError("alpha must be <= 0")
    if k < 0:
        raise ValueError("k must be a natural number")
    return HMIdeal(0, _nc_formula(m_vec, k, alpha))


def power_scale_check(m_base, p: int, k: int, alpha):
    """Both routes of the power-scaling identity for a monomial divisor.

    Returns (ideal of p*D at (k, alpha), ideal of D at (k, p*alpha) twisted
    by f^{(p-1)k}); the contract is that the two are equal.

    The twist is folded in before exponents are clamped at zero: a clamped
    base exponent followed by scaling would overshoot whenever the unclamped
    formula dips below zero (only possible at alpha = 0 on reduced
    components).
    """
    m_base = tuple(int(m) for m in m_base)
    alpha = Fraction(alpha)
    if p < 1:
        raise ValueError("p must be >= 1")
    lhs = nc_ideal(tuple(p * m for m in m_base), k, alpha).ideal
    rhs = _nc_formula(m_base, k, p * alpha, twist=(p - 1) * k)
    return lhs, rhs


def _nc_formula(m_vec, k: int, alpha: Fraction, twist: int = 0) -> MonIdeal:
    """The nc_ideal formula times f^twist, the twist folded into the
    exponents k*m - k + floor(-alpha*m - eps) before they are clamped at 0."""
    exps = tuple(
        max(0, k * m - k + floor_minus_eps(-alpha * m) + twist * m) if m else 0
        for m in m_vec
    )
    support = [i for i, m in enumerate(m_vec) if m > 0]
    sing = squarefree_ideal(len(m_vec), support, len(support) - 1)
    return (sing ** k).scale(exps)


def qdivisor_ideal(coeffs, k: int, alpha) -> MonIdeal:
    """Ideal part of the two-index family for a Q-divisor sum c_i * (x_i = 0).

    Clears denominators with the minimal N, evaluates the normal-crossing
    formula at index alpha/N, and strips the principal (divisorial) factor,
    leaving cosupport of codimension >= 2.
    """
    coeffs = tuple(Fraction(c) for c in coeffs)
    if any(c < 0 for c in coeffs):
        raise ValueError("coefficients must be >= 0")
    if not any(c > 0 for c in coeffs):
        raise ValueError("some coefficient must be positive")
    alpha = Fraction(alpha)
    if alpha > 0:
        raise ValueError("alpha must be <= 0")
    scale = math.lcm(*(c.denominator for c in coeffs))
    m_vec = tuple(int(c * scale) for c in coeffs)
    ideal = nc_ideal(m_vec, k, alpha / scale).ideal
    return ideal.strip_divisorial()
