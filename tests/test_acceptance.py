"""Acceptance gate: one test per release criterion, one printed line each.

Every expected value here is frozen — either a published table value, a hand
derivation recorded in the project notes, or the output of one of the
independent oracles in oracles.py.  All comparisons are exact; there are no
tolerances anywhere.
"""

import random
from fractions import Fraction as F
from functools import lru_cache

from hmideals import (
    MonIdeal,
    StrataData,
    builtin_family,
    gdim_ordinary,
    hodge_prim_hypersurface,
    independent_conditions_degree,
    lct,
    max_ideal_power,
    min_exponent_bounds,
    min_exponent_stratified,
    nc_ideal,
    nontriviality_data,
    power_scale_check,
    qdivisor_ideal,
    spectrum_diagonal,
    spectrum_one_var,
    spectrum_ordinary_fermat,
    spectrum_thom_sebastiani,
    unit_ideal,
)

from conftest import CRITERION_LINES
from oracles import (
    bfunction_classes,
    hilbert_coeff,
    howald_multiplier,
    permute_ideal,
    sum_fermat_cone,
)


def I(n, *gens):
    return MonIdeal(n, tuple(gens))


def report(num, desc, failures):
    status = "pass" if not failures else "FAIL"
    line = f"criterion {num:2d} [{status}]: {desc}"
    print(line)
    CRITERION_LINES.append(line)
    assert not failures, f"criterion {num}: {failures[:5]}"


def check(failures, cond, label):
    if not cond:
        failures.append(label)


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_cusp_golden_table():
    failures = []
    v = spectrum_diagonal((2, 3), F(13, 6))
    check(failures, v.jumping_numbers() == [F(5, 6), F(7, 6), F(11, 6), F(13, 6)],
          "jump positions")
    expected_values = [
        I(2, (1, 0), (0, 1)),
        I(2, (1, 0), (0, 2)),
        I(2, (2, 0), (1, 1), (0, 3)),
        I(2, (2, 0), (1, 2), (0, 4)),
    ]
    check(failures, [i for _, i in v.jumps] == expected_values, "filtration values")

    m = I(2, (1, 0), (0, 1))
    cusp_k1 = I(2, (2, 0), (1, 1), (0, 3))
    # level-0 table: O down to -5/6, then m
    check(failures, v.hmi(0, 0) == unit_ideal(2), "I_{0,0}")
    check(failures, v.hmi(0, F(-5, 6)) == unit_ideal(2), "I_{0,-5/6}")
    check(failures, v.hmi_lt(0, F(-5, 6)) == m, "I_{0,<-5/6}")
    check(failures, v.hmi(0, -1) == m, "I_{0,-1}")
    # level-1 table
    check(failures, v.hmi(1, 0) == m, "I_{1,0}")
    check(failures, v.hmi(1, F(-1, 6)) == m, "I_{1,-1/6}")
    check(failures, v.hmi_lt(1, F(-1, 6)) == I(2, (1, 0), (0, 2)), "I_{1,<-1/6}")
    check(failures, v.hmi(1, F(-5, 6)) == I(2, (1, 0), (0, 2)), "I_{1,-5/6}")
    check(failures, v.hmi(1, -1) == cusp_k1, "I_{1,-1}")
    # level-2 table (up to the cutoff)
    check(failures, v.hmi(2, 0) == cusp_k1, "I_{2,0}")
    check(failures, v.hmi(2, F(-1, 6)) == cusp_k1, "I_{2,-1/6}")
    # the strict ideal at the cutoff needs the next interval: re-derive wider
    wide = spectrum_diagonal((2, 3), F(7, 3))
    check(failures, wide.hmi_lt(2, F(-1, 6)) == I(2, (2, 0), (1, 2), (0, 4)),
          "I_{2,<-1/6}")
    report(1, "cusp golden table (jumps, filtration values, level tables)", failures)


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_node_law():
    failures = []
    v = spectrum_diagonal((2, 2), F(9, 2))
    import math
    for k in range(4):
        for alpha in [F(-1), F(-3, 4), F(-1, 2), F(-1, 4), F(0)]:
            e = max(0, math.ceil(k - alpha - 1))
            expect = max_ideal_power(2, e) if e else unit_ideal(2)
            check(failures, v.hmi(k, alpha) == expect, f"(k,alpha)=({k},{alpha})")
    report(2, "node law hmi(k,a) = m^ceil(k-a-1) on the sample grid", failures)


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_minimal_exponents():
    failures = []
    rng = random.Random(20260826)
    for _ in range(10):
        n = rng.randint(1, 4)
        m_vec = tuple(rng.randint(1, 6) for _ in range(n))
        expected = sum(F(1, m) for m in m_vec)
        v = spectrum_diagonal(m_vec, expected + F(1, 7))
        check(failures, v.minimal_exponent() == expected, f"diagonal {m_vec}")
    for n in (3, 4, 5):
        for m in (2, 3, 4):
            v = spectrum_ordinary_fermat(n, m, F(n, m) + F(1, 5))
            check(failures, v.minimal_exponent() == F(n, m), f"fermat ({n},{m})")
    report(3, "minimal exponents: diagonal sums and cone n/m", failures)


# ---------------------------------------------------------------- criterion 4

def _fermat_grid():
    return [(n, m) for n in (2, 3, 4) for m in (2, 3, 4)]


@lru_cache(maxsize=None)
def _fermat_pair(n, m):
    """The cone's spectrum from the rho criterion (the library) and from the
    graded generators J^a * v (the sum-of-ideals oracle)."""
    cutoff = F(n, m) + 2
    return (spectrum_diagonal((m,) * n, cutoff),
            sum_fermat_cone(n, m, cutoff))


def test_criterion_04_fermat_double_derivation():
    failures = []
    for n, m in _fermat_grid():
        diag, fermat = _fermat_pair(n, m)
        check(failures, diag == fermat, f"(n,m)=({n},{m})")
    report(4, "Fermat cones agree between rho-criterion and graded generators",
           failures)


# ---------------------------------------------------------------- criterion 5

def test_criterion_05_ordinary_tables():
    failures = []
    for n in range(2, 6):
        for m in range(2, 5):
            k, r = divmod(n, m)
            v = spectrum_ordinary_fermat(n, m, k + 1)
            jacobian = I(n, *[
                tuple((m - 1) if j == i else 0 for j in range(n)) for i in range(n)
            ])
            for p in range(m + 1):
                alpha = F(-p, m)
                if p <= r:
                    expect = unit_ideal(n)
                elif p <= min(m, m + r - 1):
                    expect = max_ideal_power(n, p - r)
                else:  # p = m, r = 0
                    expect = max_ideal_power(n, m) + jacobian
                check(failures, v.hmi(k, alpha) == expect,
                      f"(n,m,p)=({n},{m},{p})")
    report(5, "ordinary tables: O / m^(p-r) / (m^m, J_F) at (k, -p/m)", failures)


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_hodge_numbers():
    failures = []
    # frozen from the series oracle: elliptic curve, K3 primitive, quintic 3-fold
    for n, m, k, frozen in [(3, 3, 1, 1), (4, 4, 2, 19), (5, 5, 2, 101)]:
        got = hodge_prim_hypersurface(n, m, k)
        check(failures, got == frozen, f"({n},{m},{k}) -> {got} != {frozen}")
        check(failures, got == hilbert_coeff(n, m, m * k - n), f"oracle ({n},{m},{k})")
    report(6, "Hodge numbers 1 / 19 / 101 against the series oracle", failures)


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_gdim_cross_check():
    failures = []
    for n, m in _fermat_grid():
        v, _ = _fermat_pair(n, m)
        alphas = [F(-p, m) for p in range(m)] + [F(-1)]
        for k in range(0, int(v.cutoff) + 2):
            for alpha in alphas:
                if not (k - alpha < v.cutoff):
                    continue
                got = v.graded_dim(k, alpha)
                want = gdim_ordinary(n, m, k, alpha)
                check(failures, got == want,
                      f"(n,m,k,alpha)=({n},{m},{k},{alpha}): {got} != {want}")
    check(failures, gdim_ordinary(3, 3, 2, -1) == 9, "gdim(3,3,2,-1)")
    report(7, "graded dimensions match the Milnor-algebra count on the grid",
           failures)


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_theta_families():
    failures = []
    cases = ([("hyperelliptic_theta", (g,), F(3, 2)) for g in range(3, 10)]
             + [("bn_general_theta", (g,), F(2)) for g in (4, 6, 9)]
             + [("determinantal", (n,), F(2)) for n in (2, 3, 4)]
             + [("secant", (n,), F(3, 2)) for n in (1, 2, 3)]
             + [("cubic_threefold", (), F(5, 3))])
    for name, params, expected in cases:
        fam = builtin_family(name, *params)
        check(failures, fam["expected_min_exponent"] == expected, f"{name}{params}")
        bounds = min_exponent_bounds(fam["resolution"], fam["strata"])
        check(failures, bounds["lower"] == bounds["upper"] == expected,
              f"{name}{params} bounds {bounds}")
        check(failures, min_exponent_stratified(fam["strata"]) == expected,
              f"{name}{params} stratified")
    report(8, "theta-divisor families: 3/2, 2, 2, 3/2, 5/3 with tight bounds",
           failures)


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_randomized_properties():
    failures = []
    rng = random.Random(731)

    @lru_cache(maxsize=None)
    def diag(m_vec):
        cutoff = sum(F(1, m) for m in m_vec) + 2
        return spectrum_diagonal(m_vec, cutoff)

    @lru_cache(maxsize=None)
    def one_var(m, cutoff):
        return spectrum_one_var(m, cutoff)

    @lru_cache(maxsize=None)
    def ts_pair(m1, m2):
        cutoff = F(1, m1) + F(1, m2) + 1
        ts = spectrum_thom_sebastiani(
            one_var(m1, cutoff + 1), one_var(m2, cutoff + 1), cutoff)
        return ts, spectrum_diagonal((m1, m2), cutoff)

    @lru_cache(maxsize=None)
    def ts_swap(m1, m2):
        cutoff = F(1, m1) + F(1, m2) + 1
        return spectrum_thom_sebastiani(
            one_var(m2, cutoff + 1), one_var(m1, cutoff + 1), cutoff)

    @lru_cache(maxsize=None)
    def ts_triple(m1, m2, m3):
        cutoff = F(1, m1) + F(1, m2) + F(1, m3) + F(1, 2)
        a = one_var(m1, cutoff + 2)
        b = one_var(m2, cutoff + 2)
        c = one_var(m3, cutoff + 2)
        left = spectrum_thom_sebastiani(
            spectrum_thom_sebastiani(a, b, cutoff + 1), c, cutoff)
        right = spectrum_thom_sebastiani(
            a, spectrum_thom_sebastiani(b, c, cutoff + 1), cutoff)
        return left, right

    def rand_mvec(max_n=3, max_m=4):
        return tuple(rng.randint(1, max_m) for _ in range(rng.randint(1, max_n)))

    def rand_beta(v):
        num = rng.randint(1, 24 * int(v.cutoff + 1))
        beta = F(num, 24)
        return min(beta, v.cutoff)

    def rand_alpha(denom_max=6):
        q = rng.randint(1, denom_max)
        return F(-rng.randint(0, q), q)

    cases = 0
    for _ in range(2000):  # filtration monotone in beta
        v = diag(rand_mvec())
        b1, b2 = sorted([rand_beta(v), rand_beta(v)])
        if not v.value_at(b2).subset(v.value_at(b1)):
            failures.append(f"beta-monotone {v.n}")
        cases += 1
    for _ in range(1500):  # hmi monotone in k
        v = diag(rand_mvec())
        alpha = rand_alpha()
        k = rng.randint(0, 1)
        if k + 1 - alpha <= v.cutoff:
            if not v.hmi(k + 1, alpha).subset(v.hmi(k, alpha)):
                failures.append(f"k-monotone {alpha}")
        cases += 1
    for _ in range(1500):  # index shift hmi(k+1, a+1) = hmi(k, a)
        v = diag(rand_mvec())
        alpha = rand_alpha()
        k = rng.randint(0, 1)
        if k - alpha <= v.cutoff:
            if v.hmi(k + 1, alpha + 1) != v.hmi(k, alpha):
                failures.append(f"shift {alpha}")
        cases += 1
    for _ in range(1500):  # level 0 = classical monomial multiplier ideal
        m_vec = rand_mvec()
        alpha = rand_alpha(denom_max=8)
        if nc_ideal(m_vec, 0, alpha).ideal != howald_multiplier(m_vec, -alpha):
            failures.append(f"howald {m_vec} {alpha}")
        cases += 1
    for _ in range(1000):  # power scaling identity
        m_vec = rand_mvec()
        lhs, rhs = power_scale_check(m_vec, rng.randint(1, 3), rng.randint(0, 2),
                                     rand_alpha())
        if lhs != rhs:
            failures.append(f"power-scale {m_vec}")
        cases += 1
    for _ in range(1000):  # TS of one-variable factors = diagonal
        m1, m2 = rng.randint(1, 4), rng.randint(1, 4)
        ts, dg = ts_pair(m1, m2)
        if ts != dg:
            failures.append(f"ts-diagonal ({m1},{m2})")
        beta = rand_beta(ts)
        if ts.value_at(beta) != dg.value_at(beta):
            failures.append(f"ts-diagonal value ({m1},{m2},{beta})")
        cases += 1
    for _ in range(500):  # TS commutativity (up to the coordinate swap)
        m1, m2 = rng.randint(1, 4), rng.randint(1, 4)
        ts, _ = ts_pair(m1, m2)
        sw = ts_swap(m1, m2)
        beta = rand_beta(ts)
        if permute_ideal(sw.value_at(beta), (1, 0)) != ts.value_at(beta):
            failures.append(f"ts-commute ({m1},{m2},{beta})")
        cases += 1
    for _ in range(500):  # TS associativity
        ms = tuple(rng.randint(1, 3) for _ in range(3))
        left, right = ts_triple(*ms)
        if left != right:
            failures.append(f"ts-assoc {ms}")
        beta = rand_beta(left)
        if left.value_at(beta) != right.value_at(beta):
            failures.append(f"ts-assoc value {ms} {beta}")
        cases += 1
    for _ in range(500):  # Q-divisor outputs are primitive
        n = rng.randint(1, 3)
        coeffs = tuple(F(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(n))
        out = qdivisor_ideal(coeffs, rng.randint(0, 1), rand_alpha())
        if out.divisorial_part() != (0,) * n:
            failures.append(f"qdivisor {coeffs}")
        cases += 1

    assert cases == 10000
    report(9, f"randomized property suite ({cases} cases)", failures)


# --------------------------------------------------------------- criterion 10

def test_criterion_10_bs_root_classes():
    failures = []
    cusp = spectrum_diagonal((2, 3), F(13, 6))
    check(failures, cusp.bs_root_classes() == {F(-1), F(-5, 6), F(-1, 6)}, "cusp")
    node = spectrum_diagonal((2, 2), 3)
    check(failures, node.bs_root_classes() == {F(-1)}, "node")
    for m in range(1, 9):
        v = spectrum_one_var(m, F(3, 2))
        check(failures, v.bs_root_classes() == bfunction_classes(m),
              f"div(x^{m}) vs b-function roots")
    report(10, "Bernstein-Sato root classes against classical b-functions",
           failures)


# --------------------------------------------------------------- criterion 11

def test_criterion_11_criteria_arithmetic():
    failures = []
    for d in range(2, 12):
        check(failures, independent_conditions_degree(3, 2, d) == 2 * d - 4,
              f"degree bound d={d}")
    for m in range(2, 7):
        for g in (4 * m, 4 * m + 3):
            out = nontriviality_data(g, g - 2 * m + 1, m)
            check(failures,
                  (out["k"], out["r"], out["alpha"]) == (1, m - 1, F(-(m - 1), m)),
                  f"nontriviality (g,m)=({g},{m})")
    report(11, "criteria arithmetic: 2d-4 and (1, m-1, -(m-1)/m)", failures)
