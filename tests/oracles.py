"""Independent cross-check routines used by the test-suite.

Everything here is computed by a different route than the library itself:
lattice-point enumeration against Newton polyhedra, classical one-variable
b-function products, and Hilbert series coefficients by inclusion-exclusion.
These were written (and their frozen values recorded) before the library
code they check.  The constructions the library replaced stay here too, as
second routes for their fast paths.
"""

import bisect
import itertools
import math
from fractions import Fraction

from hmideals.errors import CutoffExceededError, HypothesisError
from hmideals.graded import StrataData
from hmideals.monomial import INFINITE, MonIdeal, divides, unit_ideal
from hmideals.resolution import _chain_resolution, integral_components, lct
from hmideals.vspectrum import spectrum_from_step


def howald_multiplier(m_vec, c):
    """Multiplier ideal of c * div(x1^m1 * ... * xn^mn), epsilon-adjusted.

    The left-continuous convention used throughout: the returned ideal is
    J((c - epsilon) D), i.e. monomials x^u with u_i + 1 >= c*m_i for all i.
    Enumerated directly from lattice points rather than by a closed formula.
    """
    c = Fraction(c)
    n = len(m_vec)
    box = [int(c * m) + 2 for m in m_vec]
    gens = []
    for u in itertools.product(*[range(b) for b in box]):
        if all(u[i] + 1 >= c * m_vec[i] for i in range(n)):
            gens.append(u)
    return MonIdeal(n, tuple(gens))


def bfunction_classes(m):
    """Residue classes mod Z (representatives in [-1, 0)) of the roots of the
    classical one-variable b-function b_{x^m}(s) = prod_{j=1}^m (s + j/m)."""
    out = set()
    for j in range(1, m + 1):
        rep = Fraction(-j, m)
        while rep < -1:
            rep += 1
        while rep >= 0:
            rep -= 1
        out.add(rep)
    return out


def hilbert_coeff(n, m, d):
    """Coefficient of t^d in ((1 - t^(m-1)) / (1 - t))^n, by
    inclusion-exclusion on the numerator: sum_l (-1)^l C(n,l) C(d-l(m-1)+n-1, n-1)."""
    if d < 0:
        return 0
    total = 0
    for ell in range(n + 1):
        rem = d - ell * (m - 1)
        if rem < 0:
            break
        total += (-1) ** ell * math.comb(n, ell) * math.comb(rem + n - 1, n - 1)
    return total


def permute_ideal(ideal, perm):
    """Image of a monomial ideal under a coordinate permutation (tests of
    symmetry statements)."""
    gens = tuple(tuple(g[perm[i]] for i in range(ideal.n)) for g in ideal.gens)
    return MonIdeal(ideal.n, gens)


def scan_value(spect, beta, strict=False):
    """Filtration value at beta, or just above beta when strict, by a linear
    scan of the jump list (the lookup the library used before bisection).

    Raises CutoffExceededError unless 0 < beta <= cutoff, or beta < cutoff
    when strict.
    """
    below_end = beta < spect.cutoff if strict else beta <= spect.cutoff
    if not (0 < beta and below_end):
        raise CutoffExceededError(f"beta={beta} outside the spectrum's range")
    current = unit_ideal(spect.n)
    for b, ideal in spect.jumps:
        if beta > b or (strict and beta == b):
            current = ideal
        else:
            break
    return current


def box_spectrum_diagonal(m_vec, cutoff):
    """Spectrum of z_1^{m_1} + ... + z_n^{m_n} up to the cutoff, by
    enumerating every exponent vector of a bounding box with its Fraction
    weight (the construction the library used before its staircase walk).

    The weight of mu is sum_j (mu_j + 1 + mu_j // (m_j - 1)) / m_j, or
    mu_j + 1 for m_j = 1.  Since it is >= (mu_j + 1)/m_j coordinatewise, the
    box side m_j * (cutoff + 1) + 1 holds every minimal generator needed
    through the first achieved weight past the cutoff.
    """
    m_vec = tuple(int(m) for m in m_vec)
    cutoff = Fraction(cutoff)
    n = len(m_vec)
    box = [int(m * (cutoff + 1)) + 1 for m in m_vec]
    coordinate = [
        [Fraction(a + 1) if m == 1 else Fraction(a + 1 + a // (m - 1), m) for a in range(b + 1)]
        for m, b in zip(m_vec, box)
    ]
    weighted = [
        (sum(w[a] for w, a in zip(coordinate, mu)), mu)
        for mu in itertools.product(*(range(b + 1) for b in box))
    ]
    achieved = sorted({w for w, _ in weighted})
    points = [w for w in achieved if w <= cutoff]
    points.append(min(w for w in achieved if w > cutoff))
    values = [MonIdeal(n, tuple(mu for w, mu in weighted if w >= beta)) for beta in points]
    scale = math.lcm(*m_vec)  # every weight is a multiple of 1/scale
    return spectrum_from_step(n, cutoff, [int(w * scale) for w in points], values, scale)


def truncated_sumset(tables, top) -> list:
    """The achieved weights <= top in ascending order, then the least achieved
    weight past top.

    A partial sum is kept while it plus the least weights of the coordinates
    still to come stays <= top; the first value that crosses gives a sum past
    top with those coordinates at zero.  Each table ends past top, so every
    scan crosses.
    """
    sums = {0}
    rest = sum(table[0] for table in tables)
    past = math.inf
    for table in tables:
        rest -= table[0]
        grown = set()
        for s in sums:
            for v in table:
                total = s + v + rest
                if total > top:
                    past = min(past, total)
                    break
                grown.add(s + v)
        sums = grown
    return sorted(sums) + [past]


def split_thom_sebastiani(v1, v2, cutoff):
    """Spectrum of f(x) + g(y) from the spectra of the two summands, by
    sampling split points (the construction the library used before its
    interval-pair rule).

    The value at beta is the ideal sum over splittings beta_1 + beta_2 = beta
    of the box products of the factor values; finitely many split points
    (factor jumps and their reflections, plus interval midpoints) exhaust all
    values because both factors are step functions.
    """
    cutoff = Fraction(cutoff)
    if cutoff > v1.cutoff or cutoff > v2.cutoff:
        raise CutoffExceededError("cutoff exceeds a factor's guaranteed range")
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    n = v1.n + v2.n

    def box_product(a, b):
        return MonIdeal(n, tuple(g + h for g in a.gens for h in b.gens))

    def value(beta):
        splits = {b for b in v1.jumping_numbers() if 0 < b < beta}
        splits |= {beta - c for c in v2.jumping_numbers() if 0 < beta - c < beta}
        pts = sorted(splits)
        cuts = [Fraction(0)] + pts + [beta]
        for lo, hi in zip(cuts, cuts[1:]):
            if hi > lo:
                splits.add((lo + hi) / 2)
        total = MonIdeal(n, ())
        for b1 in splits or {beta / 2}:
            total = total + box_product(v1.value_at(b1), v2.value_at(beta - b1))
        return total

    sums = sorted({
        s1 + s2
        for s1 in [Fraction(0)] + v1.jumping_numbers()
        for s2 in [Fraction(0)] + v2.jumping_numbers()
        if 0 < s1 + s2
    })
    points = [s for s in sums if s <= cutoff]
    # One evaluation past the cutoff certifies a terminal jump, but only
    # within the range both factors guarantee.
    after = [s for s in sums if s > cutoff]
    if after:
        probe = min(after[0], v1.cutoff, v2.cutoff)
        if probe > (points[-1] if points else 0):
            points.append(probe)
    values = [value(p) for p in points]
    scale = math.lcm(*(p.denominator for p in points))
    return spectrum_from_step(n, cutoff, [int(p * scale) for p in points], values, scale)


def pairwise_minimalize(gens):
    """Minimal antichain generating the same ideal, sorted lexicographically,
    by a componentwise comparison of every pair (the minimalization the
    library used before its packed divisibility test, packed_minimalize)."""
    gens = sorted(set(tuple(int(x) for x in g) for g in gens))
    keep = []
    for g in gens:
        for h in keep:
            for a, b in zip(h, g):
                if a > b:
                    break
            else:  # h divides g
                break
        else:
            keep.append(g)
    # A later generator never divides an earlier one in lex order unless
    # equal, so one pass suffices.
    return tuple(keep)


def pairwise_subset(inner, outer):
    """True iff inner is contained in outer: some generator of outer divides
    each generator of inner (the containment test the library used before
    its packed divisibility test, packed_subset)."""
    return all(any(divides(h, g) for h in outer.gens) for g in inner.gens)


def _pack(vec, width):
    """One int with a width-bit field per coordinate, the first highest."""
    packed = 0
    for x in vec:
        packed = packed << width | x
    return packed


def packed_minimalize(gens, n):
    """Minimal antichain generating the same ideal, sorted lexicographically,
    by the packed divisibility test (the minimalization the library used
    for n >= 4 before its dominance sweep in every dimension).

    A vector becomes one int of n fields, the first coordinate in the
    highest field, so packed order is lex order.  A field is
    w = top.bit_length() + 1 bits wide for the largest exponent top, so its
    top bit (the guard) is clear in every packed vector.  With G the guard
    bits of all fields, h divides g iff ((pack(g) | G) - pack(h)) & G == G:
    each field computes 2^(w-1) + g_i - h_i, which keeps its guard bit iff
    h_i <= g_i and never borrows from the next field.  Each vector is tried
    against the kept ones, nearest first.
    """
    vecs = sorted(set(tuple(int(x) for x in g) for g in gens))
    width = max(itertools.chain((0,), *vecs)).bit_length() + 1
    guard = _pack((1 << width - 1,) * n, width)
    keep, packed = [], []
    for g in vecs:
        p = _pack(g, width)
        if not any(((p | guard) - q) & guard == guard for q in reversed(packed)):
            keep.append(g)
            packed.append(p)
    return tuple(keep)


def packed_subset(inner, outer):
    """True iff inner is contained in outer, by the packed divisibility test
    of packed_minimalize (the containment test the library used before its
    dominance sweep).  Inner's vectors are clamped to outer's largest
    exponent, which keeps divisibility by outer's generators and fits
    outer's fields; a divisor precedes a vector in packed order."""
    top = max(itertools.chain((0,), *outer.gens))
    width = top.bit_length() + 1
    guard = _pack((1 << width - 1,) * outer.n, width)
    theirs = [_pack(h, width) for h in outer.gens]
    for g in inner.gens:
        p = _pack([min(x, top) for x in g], width)
        end = bisect.bisect_right(theirs, p)
        if not any(((p | guard) - q) & guard == guard for q in theirs[:end]):
            return False
    return True


def box_colength(ideal):
    """Number of monomials outside the ideal, or INFINITE, by a count over
    the box of the least pure power of each variable (the colength the
    library used before it became a count_outside call).

    Finite iff the ideal is unit or every variable has a pure-power
    generator.
    """
    if ideal.is_unit():
        return 0
    box = []
    for i in range(ideal.n):
        pure = [g[i] for g in ideal.gens if all(g[j] == 0 for j in range(ideal.n) if j != i)]
        if not pure:
            return INFINITE
        box.append(min(pure))
    count = 0
    for nu in itertools.product(*(range(b) for b in box)):
        if not ideal.contains(nu):
            count += 1
    return count


def sum_fermat_cone(n, m, cutoff):
    """Spectrum of the cone over the Fermat hypersurface of degree m in n
    variables, each value a sum of ideals J^a * V_d with J^a recomputed at
    every level (the construction the library used before it built each
    level in one pass).

    The value at beta is generated by products J^a * v with
    m*a + deg(v) >= ceil(m*beta) - n, where J is the Jacobian ideal
    (pure (m-1)-th powers) and v runs over monomials with all exponents
    <= m-2.  Jumps occur only at multiples of 1/m.
    """
    if n < 2 or m < 2:
        raise ValueError("need n >= 2 and m >= 2")
    cutoff = Fraction(cutoff)
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    jacobian = MonIdeal(n, tuple(tuple((m - 1) * (i == j) for i in range(n)) for j in range(n)))
    top = n * (m - 2)

    def value(j: int) -> MonIdeal:
        # value on ((j-1)/m, j/m]: threshold m*a + deg(v) >= j - n
        need = j - n
        if need <= 0:
            return unit_ideal(n)
        total = MonIdeal(n, ())
        for a in range(math.ceil(need / m) + 1):
            d = max(0, need - m * a)
            if d > top:
                continue
            basis = [v for v in itertools.product(range(m - 1), repeat=n) if sum(v) == d]
            total = total + (jacobian ** a) * MonIdeal(n, tuple(basis))
        return total

    points = range(1, math.floor(m * cutoff) + 2)  # j/m, in units of 1/m
    return spectrum_from_step(n, cutoff, points, [value(j) for j in points], m)


def downward_close(maximal, n_comps):
    """Close the listed intersections under subsets and add all singletons
    (the intersection lattice ResolutionData stored before it kept only the
    maximal sets)."""
    listed = [*(maximal or ()), *((i,) for i in range(n_comps))]
    return frozenset(
        frozenset(sub)
        for s in listed for r in range(1, len(s) + 1)
        for sub in itertools.combinations(s, r)
    )


def closure_weight_level(res, closure, alpha):
    """max_weight_level by a scan of the downward-closed lattice."""
    idx = integral_components(res, alpha)
    sizes = [len(j) for j in closure if j <= idx]
    return max(sizes, default=0) - 1


def closure_lc_center(res, closure):
    """minimal_lc_center by a scan of the downward-closed lattice."""
    threshold = lct(res)
    idx = integral_components(res, -threshold)
    for i in sorted(idx):
        c = res.components[i]
        if Fraction(c.k + 1, c.e) != threshold:
            raise HypothesisError(
                f"component {c.label!r} has integral index but ratio "
                f"{Fraction(c.k + 1, c.e)} != lct {threshold}"
            )
    candidates = [j for j in closure if j <= idx]
    if not candidates:
        return set()
    depth = max(len(j) for j in candidates)
    return {frozenset(j) for j in candidates if len(j) == depth}


_CHAIN_FAMILY_FORMS = {
    "hyperelliptic_theta": "hyperelliptic_theta(g)",
    "bn_general_theta": "bn_general_theta(g)",
    "determinantal": "determinantal(n)",
    "secant": "secant(n)",
    "cubic_threefold": "cubic_threefold",
}


def chain_builtin_family(name, *params):
    """builtin_family as one if/elif branch per family, each scanning every
    m up to the parameter (the form the library used before its table)."""
    form = _CHAIN_FAMILY_FORMS.get(name)
    if form is None:
        raise ValueError(f"unknown family {name!r}")
    if len(params) != ("(" in form):
        raise ValueError(f"family {name!r} is written {form}")
    if name == "hyperelliptic_theta":
        (g,) = params
        if g < 3:
            raise ValueError("need genus g >= 3")
        pairs = [(m, 2 * m - 1) for m in range(2, g + 2) if 2 * m - 1 <= g]
        expected = Fraction(3, 2)
    elif name == "bn_general_theta":
        (g,) = params
        if g < 4:
            raise ValueError("need genus g >= 4")
        pairs = [(m, m * m) for m in range(2, g + 2) if m * m <= g]
        expected = Fraction(2)
    elif name == "determinantal":
        (n,) = params
        if n < 2:
            raise ValueError("need matrix size n >= 2")
        pairs = [(m, m * m) for m in range(2, n + 1)]
        expected = Fraction(2)
    elif name == "secant":
        (n,) = params
        if n < 1:
            raise ValueError("need n >= 1")
        pairs = [(m, 2 * m - 1) for m in range(2, n + 2)]
        expected = Fraction(3, 2)
    else:  # cubic_threefold
        pairs = [(3, 5)]
        expected = Fraction(5, 3)
    strata = StrataData(tuple(pairs))
    return {"strata": strata, "resolution": _chain_resolution(strata),
            "expected_min_exponent": expected}
