"""The three benchmark workloads and the second routes that check them.

Each workload's `setup(seed, ctx)` returns a `Session` whose `ops` are one
complete pass: the same mix of operations in every run, with contents drawn
from the seed.  An op's `run` is what is timed; its `check` runs outside the
timed span and returns None when the result is right, else a message.

The library is always reached through module attributes at call time
(`hm.constructors.spectrum_diagonal`, ...), so that the traced run's
wrappers see every top-level call.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path
from typing import Any, Callable

import hmideals as hm
import hmideals.cli
import hmideals.constructors
import hmideals.graded
import hmideals.resolution

BENCH_DIR = Path(__file__).resolve().parent
CLI_EXPECTED = BENCH_DIR / "cli_expected.json"


class SetupCheckError(Exception):
    """A check made while setting up a session failed."""


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]


@dataclass
class Session:
    ops: list
    # cli-session only: in-process twins of ops and the defect probes
    inprocess_ops: list = field(default_factory=list)
    probes: list = field(default_factory=list)


def load_oracles(root: Path):
    """tests/oracles.py, imported read-only by path."""
    spec = importlib.util.spec_from_file_location("bench_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _unit(n):
    return hm.MonIdeal(n, ((0,) * n,))


def _ts_chain(m_vec, cutoff):
    """Thom-Sebastiani sum of one-variable powers (criterion 9's route)."""
    cutoff = F(cutoff)
    ov = hm.constructors.spectrum_one_var
    ts = hm.constructors.spectrum_thom_sebastiani
    spect = ov(m_vec[0], cutoff + 1)
    for m in m_vec[1:-1]:
        spect = ts(spect, ov(m, cutoff + 1), cutoff + 1)
    return ts(spect, ov(m_vec[-1], cutoff + 1), cutoff)


def _diagonal_weights(m_vec, cutoff):
    """Achieved weights <= cutoff of z1^m1 + ... + zn^mn, from the weight
    formula (mu + 1 + floor(mu/(m-1)))/m per coordinate, as a sumset."""
    sums = {F(0)}
    for m in m_vec:
        coord = []
        mu = 0
        while True:
            w = F(mu + 1) if m == 1 else F(mu + 1 + mu // (m - 1), m)
            if w > cutoff:
                break
            coord.append(w)
            mu += 1
        sums = {s + w for s in sums for w in coord if s + w <= cutoff}
    return sorted(sums)


def _bs_classes(jumps):
    out = {F(-1)}
    for b in jumps:
        frac = b - math.floor(b)
        out.add(-frac if frac else F(-1))
    return out


def pure_power_sides(ideal):
    """Least pure power of each variable: the box colength() enumerates.
    None when some variable has no pure power (infinite colength)."""
    n, gens = ideal.n, ideal.gens
    sides = []
    for i in range(n):
        pure = [g[i] for g in gens if all(g[j] == 0 for j in range(n) if j != i)]
        if not pure:
            return None
        sides.append(min(pure))
    return sides


def diagonal_box_points(m_vec, cutoff):
    """Lattice points spectrum_diagonal enumerates: prod(m*(cutoff+1)+2)."""
    return math.prod(int(m * (F(cutoff) + 1)) + 2 for m in m_vec)


def _colength(ideal):
    """Monomials outside an m-primary monomial ideal, by lattice count;
    None when the colength is infinite."""
    gens = ideal.gens
    if gens == ((0,) * ideal.n,):
        return 0
    sides = pure_power_sides(ideal)
    if sides is None:
        return None
    return sum(
        1
        for nu in itertools.product(*(range(s) for s in sides))
        if not any(all(a <= b for a, b in zip(g, nu)) for g in gens)
    )


def _expect_equal(want):
    def check(got):
        return None if got == want else f"got {got!r}, want {want!r}"

    return check


# ---------------------------------------------------------------- spectra-build

SPECTRA_ANCHORS = (
    ("diagonal", (2, 3), F(13, 6)),
    ("diagonal", (2, 3, 5), F(91, 30)),
    ("diagonal", (4, 4, 4), F(11, 4)),
    ("diagonal", (3, 3, 3, 3), F(10, 3)),
    ("fermat", (4, 4), F(3)),
)
# One pass holds fixed strata so that every seed gives the same mix and
# about the same cost: the two-variable grid at three steps, and seeded
# three-variable jobs, Fermat cones and TS chains.  Each seeded kind is drawn
# one per band of its candidates ranked by lattice box, so that every seed
# draws the same spread of costs.  The four-variable jobs are seeded orders
# of two fixed exponent sets: a box of about 12.6k lattice points costs the
# same in any order, while boxes of that size in other shapes cost from
# 0.35 s to 0.65 s.  Each costs more than the anchors (4,4,4) and (2,3,5),
# so the tail percentile lands on the same anchor samples for every seed.
DIAG_STEPS = (F(1, 6), F(1, 4), F(1, 3))
FERMAT_STEPS = (F(1, 2), F(1), F(3, 2))
DIAG3_JOBS = 16
DIAG4_SHAPES = ((3, 4, 4, 5), (2, 4, 5, 5))
FERMAT_JOBS = 12
TS_JOBS = 6


def _first_jump(m_vec):
    return sum(F(1, m) for m in m_vec)


def _banded(rng, candidates, count):
    """One seeded pick from each of `count` equal bands of (job, diagonal
    twin) candidates ranked by the twin's lattice box."""
    ranked = sorted(candidates, key=lambda c: diagonal_box_points(c[1], c[0][2]))
    edges = [len(ranked) * i // count for i in range(count + 1)]
    return [ranked[rng.randrange(lo, hi)][0] for lo, hi in zip(edges, edges[1:])]


def _spectra_jobs(rng):
    jobs = list(SPECTRA_ANCHORS)
    for m_vec in itertools.product(range(2, 7), repeat=2):
        jobs += [("diagonal", m_vec, _first_jump(m_vec) + step) for step in DIAG_STEPS]
    triples = [(("diagonal", m_vec, _first_jump(m_vec) + step), m_vec)
               for m_vec in itertools.product(range(2, 7), repeat=3) for step in DIAG_STEPS]
    jobs += _banded(rng, triples, DIAG3_JOBS)
    for shape in DIAG4_SHAPES:
        m_vec = tuple(rng.sample(shape, len(shape)))
        jobs.append(("diagonal", m_vec, _first_jump(m_vec) + F(1, 4)))
    cones = [(("fermat", (n, m), F(n, m) + step), (m,) * n)
             for n, m in itertools.product(range(2, 5), range(2, 6)) for step in FERMAT_STEPS]
    jobs += _banded(rng, cones, FERMAT_JOBS)
    chains = [(("ts", m_vec, _first_jump(m_vec) + step), m_vec)
              for k in (2, 3) for m_vec in itertools.product(range(2, 7), repeat=k)
              for step in DIAG_STEPS]
    jobs += _banded(rng, chains, TS_JOBS)
    rng.shuffle(jobs)
    return jobs


def _build(kind, params, cutoff):
    if kind == "diagonal":
        return hm.constructors.spectrum_diagonal(params, cutoff)
    if kind == "fermat":
        return hm.constructors.spectrum_ordinary_fermat(params[0], params[1], cutoff)
    return _ts_chain(params, cutoff)


def _second_route(kind, params, cutoff):
    """Fermat cone = diagonal (m,...,m) = TS chain; TS chain = diagonal."""
    if kind == "diagonal":
        return _ts_chain(params, cutoff)
    if kind == "fermat":
        n, m = params
        return _ts_chain((m,) * n, cutoff)
    return hm.constructors.spectrum_diagonal(params, cutoff)


def setup_spectra_build(seed, ctx):
    rng = random.Random(seed)
    verified = {}  # job -> result checked by the second route

    def make_op(job):
        def check(got):
            want = verified.get(job)
            if want is None:
                want = verified[job] = _second_route(*job)
            return None if got == want else f"{job}: spectrum differs from second route"

        return Op(job[0], lambda: _build(*job), check)

    return Session([make_op(job) for job in _spectra_jobs(rng)])


# ---------------------------------------------------------------- query-mix

# Pool of spectra the queries read: (label, kind, params, cutoff, diagonal twin)
POOL = (
    ("cusp", "diagonal", (2, 3), F(4), (2, 3)),
    ("node", "diagonal", (2, 2), F(9, 2), (2, 2)),
    ("e8", "diagonal", (2, 3, 5), F(91, 30), (2, 3, 5)),
    ("d333", "diagonal", (3, 3, 3), F(3), (3, 3, 3)),
    ("fermat33", "fermat", (3, 3), F(3), (3, 3, 3)),
    ("ts23", "ts", (2, 3), F(4), (2, 3)),
)
# One pass holds fixed strata so that every seed gives the same mix and
# the same cost: per (pool spectrum, level k) stratum, this many of each
# lookup, with the index alpha drawn from the seed ...
STRATUM_QUERIES = {"hmi": 5, "hmi_lt": 2, "hmi_twisted": 2}
LEVELS = range(4)
# ... one graded_dim and one count_outside at every jump in [k, k + 1]
# (their cost follows the ideals at the jump, so no seed draws them) ...
# ... per pool spectrum, this many of each invariant ...
ENTRY_QUERIES = {"jumping_numbers": 3, "minimal_exponent": 3, "bs_classes": 3}
# ... and this many seeded queries of each other kind.
OTHER_QUERIES = {
    "nc_ideal": 30,
    "qdivisor_ideal": 15,
    "power_scale_check": 20,
    "gdim_ordinary": 30,
    "hodge": 20,
    "criteria": 20,
    "resolution_json": 20,
}
# Every builtin family instance once per pass (genus <= 21), with the
# action fixed by its position; the lattice has 2^components - 1 sets.
BUILTIN_ACTIONS = ("bounds", "lct", "weight-level", "lc-center")
BUILTINS = (
    ("hyperelliptic_theta", 5), ("hyperelliptic_theta", 9), ("hyperelliptic_theta", 13),
    ("hyperelliptic_theta", 17), ("hyperelliptic_theta", 21),
    ("bn_general_theta", 4), ("bn_general_theta", 9), ("bn_general_theta", 16),
    ("determinantal", 2), ("determinantal", 4), ("determinantal", 6),
    ("secant", 1), ("secant", 4), ("secant", 7), ("secant", 10),
    ("cubic_threefold",),
)


@dataclass
class PoolEntry:
    label: str
    m_vec: tuple  # diagonal twin
    spect: Any
    positions: list
    jumps: list  # expected jumping numbers, from the weight formula
    cache: dict = field(default_factory=dict)

    def value_at(self, beta):
        i = bisect.bisect_left(self.positions, beta)
        return _unit(self.spect.n) if i == 0 else self.spect.jumps[i - 1][1]

    def value_after(self, beta):
        i = bisect.bisect_right(self.positions, beta)
        return _unit(self.spect.n) if i == 0 else self.spect.jumps[i - 1][1]

    def hmi(self, k, alpha):
        beta = k - alpha
        return _unit(self.spect.n) if beta <= 0 else self.value_at(beta)

    def hmi_lt(self, k, alpha):
        beta = k - alpha
        if beta <= 0 or beta < self.positions[0]:
            return _unit(self.spect.n)
        return self.value_after(beta)

    def colength(self, ideal):
        key = ideal.gens
        if key not in self.cache:
            self.cache[key] = _colength(ideal)
        return self.cache[key]


def _build_pool():
    pool = []
    twins = {}
    for label, kind, params, cutoff, twin in POOL:
        spect = _build(kind, params, cutoff)
        key = (twin, cutoff)
        if key in twins and twins[key] != spect:
            raise SetupCheckError(f"pool {label} differs from its diagonal twin")
        twins.setdefault(key, spect)
        jumps = _diagonal_weights(twin, cutoff)
        if spect.jumping_numbers() != jumps:
            raise SetupCheckError(f"pool {label}: jumps differ from the weight formula")
        pool.append(PoolEntry(label, twin, spect, [b for b, _ in spect.jumps], jumps))
    return pool


def _rand_alpha(rng):
    """A rational index in [-1, 0] with denominator at most 6."""
    q = rng.randint(1, 6)
    return F(-rng.randint(0, q), q)


def _stratum_op(kind, rng, entry, k):
    """A lookup on one pool spectrum at level k."""
    spect = entry.spect
    # hmi reads k - alpha <= cutoff; hmi_lt needs k - alpha < cutoff;
    # hmi_twisted reads k - (alpha + t) in [k, k + 1] after a twist by f^t.
    # Where level k leaves no such alpha, drop a level.
    if kind == "hmi_twisted":
        k = min(k, math.floor(spect.cutoff) - 1)
    elif kind == "hmi_lt" and k >= spect.cutoff:
        k = math.ceil(spect.cutoff) - 1
    while True:
        alpha = _rand_alpha(rng)
        if kind == "hmi_twisted":
            alpha -= rng.randint(1, 2)
            t = max(0, math.ceil(-alpha) - 1)
            if k - (alpha + t) <= spect.cutoff:
                break
        elif kind == "hmi":
            if k - alpha <= spect.cutoff:
                break
        elif 0 < k - alpha < spect.cutoff:
            break
    if kind == "hmi":
        return Op(kind, lambda: spect.hmi(k, alpha), _expect_equal(entry.hmi(k, alpha)))
    if kind == "hmi_lt":
        return Op(kind, lambda: spect.hmi_lt(k, alpha), _expect_equal(entry.hmi_lt(k, alpha)))
    want = (t, entry.hmi(k, alpha + t))
    return Op(kind, lambda: spect.hmi_twisted(k, alpha),
              lambda got: None if (got.f_power, got.ideal) == want
              else f"hmi_twisted({k},{alpha}) on {entry.label}")


def _jump_ops(entry, k):
    """graded_dim and count_outside at every jump b in [k, k + 1] below the
    cutoff, read at alpha = k - b, where the graded piece is nonzero."""
    spect = entry.spect
    ops = []
    for b in entry.jumps:
        if not k <= b <= k + 1 or b >= spect.cutoff:
            continue
        alpha = k - b
        outer, inner = entry.hmi(k, alpha), entry.hmi_lt(k, alpha)
        want = entry.colength(inner) - entry.colength(outer)
        ops.append(Op("graded_dim", lambda alpha=alpha: spect.graded_dim(k, alpha),
                      _expect_equal(want)))
        ops.append(Op("count_outside", lambda outer=outer, inner=inner:
                      outer.count_outside(inner), _expect_equal(want)))
    return ops


def _entry_op(kind, entry):
    """An invariant read off one pool spectrum."""
    spect = entry.spect
    if kind == "jumping_numbers":
        return Op(kind, lambda: spect.jumping_numbers(), _expect_equal(entry.jumps))
    if kind == "minimal_exponent":
        want = sum(F(1, m) for m in entry.m_vec)
        return Op(kind, lambda: spect.minimal_exponent(), _expect_equal(want))
    return Op(kind, lambda: spect.bs_root_classes(), _expect_equal(_bs_classes(entry.jumps)))


def _other_op(kind, rng, oracles):
    if kind in ("nc_ideal", "qdivisor_ideal", "power_scale_check"):
        return _nc_op(kind, rng, oracles)
    if kind in ("gdim_ordinary", "hodge", "criteria"):
        return _graded_op(kind, rng, oracles)
    return _resolution_op(kind, rng)


def _nc_op(kind, rng, oracles):
    m_vec = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
    alpha = _rand_alpha(rng)
    if kind == "nc_ideal":
        # level 0 is the classical monomial multiplier ideal (Howald)
        want = oracles.howald_multiplier(m_vec, -alpha)
        return Op(kind, lambda: hm.constructors.nc_ideal(m_vec, 0, alpha).ideal,
                  _expect_equal(want))
    if kind == "power_scale_check":
        p, k = rng.randint(1, 3), rng.randint(0, 2)
        return Op(kind, lambda: hm.constructors.power_scale_check(m_vec, p, k, alpha),
                  lambda got: None if got[0] == got[1]
                  else f"power scaling {m_vec} p={p} k={k} alpha={alpha}")
    coeffs = tuple(F(rng.randint(1, 4), rng.randint(1, 4)) for _ in m_vec)
    scale = math.lcm(*(c.denominator for c in coeffs))
    full = oracles.howald_multiplier(tuple(int(c * scale) for c in coeffs), -alpha / scale)
    gcd = tuple(min(g[i] for g in full.gens) for i in range(full.n))
    want = hm.MonIdeal(full.n, tuple(tuple(a - b for a, b in zip(g, gcd)) for g in full.gens))
    return Op(kind, lambda: hm.constructors.qdivisor_ideal(coeffs, 0, alpha),
              _expect_equal(want))


def _graded_op(kind, rng, oracles):
    g = hm.graded
    if kind == "gdim_ordinary":
        n, m, k = rng.randint(2, 5), rng.randint(2, 5), rng.randint(0, 3)
        alpha = F(-rng.randint(0, 2 * m), 2 * m)
        want = 0
        if (m * alpha).denominator == 1:
            target = int(m * (k - alpha)) - n
            hi = min(k, target // m) if target >= 0 else -1
            want = sum(
                math.comb(n + ell - 1, ell) * oracles.hilbert_coeff(n, m, target - m * ell)
                for ell in range(max(0, k - n - 1), hi + 1)
            )
        return Op(kind, lambda: g.gdim_ordinary(n, m, k, alpha), _expect_equal(want))
    if kind == "hodge":
        n, m = rng.randint(3, 6), rng.randint(2, 6)
        k = rng.randint(1, n - 1)
        if rng.random() < 0.5:
            want = oracles.hilbert_coeff(n, m, m * k - n)
            return Op(kind, lambda: g.hodge_prim_hypersurface(n, m, k), _expect_equal(want))
        p = rng.randint(1, m)
        want = 0 if p == m else oracles.hilbert_coeff(n, m, m * (k + 1) - p - n)
        return Op(kind, lambda: g.hodge_cyclic_eigenspace(n, m, k, p), _expect_equal(want))
    which = rng.randrange(4)
    if which == 0:
        n = rng.randint(2, 12)
        d, m = rng.randint(0, n - 1), rng.randint(2, 5)

        def check(rec):
            k, r, a = rec["k"], rec["r"], rec["alpha"]
            ok = k * m + r == n - d and 0 <= r < m and a == F(-r, m)
            return None if ok else f"nontriviality({n},{d},{m}) = {rec}"

        return Op(kind, lambda: g.nontriviality_data(n, d, m), check)
    if which == 1:
        r, m = rng.randint(1, 8), rng.randint(2, 5)
        want = F(r + 1 - math.ceil(F(r, m)), m - 1) - 1
        return Op(kind, lambda: g.containment_threshold(r, m), _expect_equal(want))
    if which == 2:
        n, m, d = rng.randint(3, 8), rng.randint(2, 5), rng.randint(1, 6)
        want = math.ceil(F(n + 1 - math.ceil(F(n, m)), m - 1)) * d - n - 1
        return Op(kind, lambda: g.independent_conditions_degree(n, m, d), _expect_equal(want))
    codim, m, ell = rng.randint(1, 6), rng.randint(2, 5), rng.randint(0, 3)
    alpha = F(-rng.randint(0, m), m)
    x = m * (ell - alpha) - codim
    want = 0 if x < 0 else int(x - math.floor(F(x) / m))
    return Op(kind, lambda: g.symbolic_power_exponent(codim, m, ell, alpha), _expect_equal(want))


def _weight_level(comps, maximal, alpha):
    """max |S| - 1 over intersections S of integral-index components."""
    idx = {i for i, (_, e, _k) in enumerate(comps) if (e * alpha).denominator == 1}
    sizes = [len(set(s) & idx) for s in maximal] + [1 if idx else 0]
    return max(sizes) - 1


def _lc_centers(comps, maximal):
    """Minimal lc centers from the maximal intersections, or the label of
    the component that breaks the hypothesis."""
    ratios = [F(k + 1, e) for _, e, k in comps]
    threshold = min(ratios)
    idx = {i for i, (_, e, _k) in enumerate(comps) if (e * threshold).denominator == 1}
    for i in sorted(idx):
        if ratios[i] != threshold:
            return comps[i][0]
    cuts = {frozenset(set(s) & idx) for s in maximal} | {frozenset([i]) for i in idx}
    cuts.discard(frozenset())
    if not cuts:
        return set()
    depth = max(len(c) for c in cuts)
    return {c for c in cuts if len(c) == depth}


def _resolution_op(kind, rng, builtin=None, action=None):
    r = hm.resolution
    hyp = hm.HypothesisError
    if kind == "resolution_builtin":
        name, args = builtin[0], builtin[1:]
        fam = r.builtin_family(name, *args)  # second-route data, untimed
        comps = [(c.label, c.e, c.k) for c in fam["resolution"].components]
        maximal = [tuple(range(len(comps)))]
        expected = fam["expected_min_exponent"]
    else:
        n = rng.randint(3, 8)
        comps = [(f"E{i}", rng.randint(1, 6), rng.randint(0, 8)) for i in range(n)]
        maximal = [tuple(sorted(rng.sample(range(n), rng.randint(2, min(4, n)))))
                   for _ in range(rng.randint(1, 3))]
        data = {
            "components": [{"label": l, "e": e, "k": k} for l, e, k in comps],
            "maximal_intersections": [list(s) for s in maximal],
        }
        action = rng.choice(("lct", "weight-level", "lc-center"))
    alpha = F(rng.randint(1, 6), rng.randint(1, 6))

    def load():
        if kind == "resolution_builtin":
            f = r.builtin_family(name, *args)
            return f["resolution"], f["strata"]
        return r.ResolutionData.from_json(data), None

    def run():
        res, strata = load()
        if action == "bounds":
            return r.min_exponent_bounds(res, strata)
        if action == "lct":
            return r.lct(res)
        if action == "weight-level":
            return r.max_weight_level(res, alpha)
        try:
            return r.minimal_lc_center(res)
        except hyp as exc:
            return exc

    if action == "bounds":
        return Op(kind, run, lambda got: None if got["lower"] == got["upper"] == expected
                  else f"{name}{args} bounds {got} != {expected}")
    if action == "lct":
        return Op(kind, run, _expect_equal(min(F(k + 1, e) for _, e, k in comps)))
    if action == "weight-level":
        return Op(kind, run, _expect_equal(_weight_level(comps, maximal, alpha)))
    want = _lc_centers(comps, maximal)

    def check(got):
        if isinstance(want, str):
            ok = isinstance(got, hyp) and repr(want) in str(got)
            return None if ok else f"lc-center: want HypothesisError on {want}, got {got!r}"
        return _expect_equal(want)(got)

    return Op(kind, run, check)


def setup_query_mix(seed, ctx):
    rng = random.Random(seed)
    pool = _build_pool()
    ops = []
    for entry in pool:
        for k in LEVELS:
            for kind, count in STRATUM_QUERIES.items():
                ops += [_stratum_op(kind, rng, entry, k) for _ in range(count)]
            ops += _jump_ops(entry, k)
        for kind, count in ENTRY_QUERIES.items():
            ops += [_entry_op(kind, entry) for _ in range(count)]
    for kind, count in OTHER_QUERIES.items():
        ops += [_other_op(kind, rng, ctx.oracles) for _ in range(count)]
    ops += [_resolution_op("resolution_builtin", rng, b, BUILTIN_ACTIONS[i % len(BUILTIN_ACTIONS)])
            for i, b in enumerate(BUILTINS)]
    rng.shuffle(ops)
    return Session(ops)


# ---------------------------------------------------------------- cli-session

README_COMMANDS = (
    "spectrum --class diagonal --params 2,3 --cutoff 13/6",
    "ideal --class diagonal --params 2,3 --k 1 --alpha -1",
    "gdim --n 3 --m 3 --k 1 --alpha 0",
    "hodge --ambient-dim 4 --degree 5 --level 2",
    "resolution --builtin hyperelliptic_theta(5) bounds",
    "bs-classes --class diagonal --params 2,3 --cutoff 13/6",
)
CLI_COMMANDS = README_COMMANDS + (
    "spectrum --class diagonal --params 2,3 --cutoff 13/6 --json",
    "ideal --class diagonal --params 2,3 --k 1 --alpha -1 --json",
    "resolution --builtin hyperelliptic_theta(5) bounds --json",
    "bs-classes --class diagonal --params 2,3 --cutoff 13/6 --json",
    "criteria nontriviality --n 5 --d 1 --m 2",
    "criteria symbolic-power --codim 3 --m 2 --level 2 --alpha=-1/2 --json",
    "criteria threshold --codim 3 --m 2",
    "criteria indep-conditions --n 4 --m 3 --d 5 --json",
    "hodge --ambient-dim 3 --degree 4 --level 2",
    "hodge --ambient-dim 4 --degree 5 --level 2 --eigen 2/5",
    "ideal --class diagonal --params 2,3 --k 1 --alpha=-3/2",
    "ideal --class power --params 3 --k 0 --alpha=-5/2 --json",
    "spectrum --class power --params 5 --json",
    "spectrum --class fermat-cone --params 3,3",
    "spectrum --class ts --params 2,3 --cutoff 13/6",
    "resolution --builtin bn_general_theta(9) bounds",
    "resolution --builtin determinantal(3) lct --json",
    "resolution --builtin hyperelliptic_theta(7) weight-level --alpha 1/2",
    "resolution --builtin cubic_threefold bounds --json",
    "resolution --file .bench_build/cli/chain.json lc-center --json",
)
# Malformed inputs: each must exit 2 or 3 with one line on stderr.
CLI_MALFORMED = (
    "spectrum --class diagonal --params 2,x",
    "spectrum --class power --params 2,3",
    "ideal --class diagonal --params 2,3 --k 1 --alpha 1/0",
    "ideal --class diagonal --params 2,3 --cutoff 1 --k 3 --alpha 0",
    "hodge --ambient-dim 4 --degree 5 --level 9",
    "gdim --n 0 --m 3 --k 1 --alpha 0",
    "resolution --builtin nosuch(3) lct",
    "resolution --builtin secant(3) lc-center",
    "resolution --file .bench_build/cli/missing.json lct",
    "criteria nontriviality --n 2 --d 5 --m 3",
)
# Inputs that today end in a traceback (exit 1) and should exit 2.  They are
# run outside the timed loop and reported as cli.exit_unexpected.
CLI_DEFECT_PROBES = (
    "resolution --file .bench_build/cli/e_null.json lct",
    "resolution --file .bench_build/cli/top_list.json lct",
    "resolution --builtin secant(2) weight-level",
)
CLI_FILES = {
    "chain.json": {
        "components": [
            {"label": "D", "e": 1, "k": 0, "exceptional": False},
            {"label": "E1", "e": 2, "k": 1},
            {"label": "E2", "e": 3, "k": 2},
        ],
        "maximal_intersections": [[0, 1], [1, 2]],
    },
    "e_null.json": {"components": [{"label": "E", "e": None, "k": 1}]},
    "top_list.json": [{"label": "E", "e": 2, "k": 1}],
}
CHILD_TIMEOUT_S = 30.0


def write_cli_files(root):
    out = root / ".bench_build" / "cli"
    out.mkdir(parents=True, exist_ok=True)
    for name, data in CLI_FILES.items():
        (out / name).write_text(json.dumps(data))


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(root, argv, timeout=CHILD_TIMEOUT_S):
    """One `python -m hmideals.cli` process; (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "hmideals.cli", *argv],
        cwd=root, env=child_env(root), capture_output=True, text=True, timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_inprocess(argv):
    """cli.run(argv, out) in this process; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = hm.cli.run(list(argv), out)
    return code, out.getvalue(), err.getvalue()


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check_cli(expected, line):
    """Check (code, stdout, stderr) against the record made at this commit."""
    want = expected[line]

    def check(got):
        code, stdout, stderr = got
        if code != want["exit"]:
            return f"{line!r}: exit {code}, want {want['exit']}"
        if code == 0:
            return None if digest(stdout) == want["stdout_sha256"] else f"{line!r}: stdout differs"
        lines = stderr.strip().splitlines()
        if stdout or len(lines) != 1 or not lines[0].startswith("error: "):
            return f"{line!r}: want one 'error:' line on stderr, got {stderr!r}"
        return None

    return check


def check_probe(line):
    def check(got):
        code, _stdout, stderr = got
        lines = stderr.strip().splitlines()
        if code == 2 and len(lines) == 1:
            return None
        return f"{line!r}: exit {code} with {len(lines)} stderr lines, want exit 2 and one line"

    return check


def setup_cli_session(seed, ctx):
    rng = random.Random(seed)
    root = ctx.root
    write_cli_files(root)
    expected = json.loads(CLI_EXPECTED.read_text())
    lines = list(CLI_COMMANDS + CLI_MALFORMED)
    rng.shuffle(lines)
    ops, inproc = [], []
    for line in lines:
        argv = tuple(line.split())
        check = check_cli(expected, line)
        ops.append(Op("cli", lambda argv=argv: run_child(root, argv), check))
        inproc.append(Op("cli", lambda argv=argv: run_inprocess(argv), check))
    probes = [Op("probe", lambda argv=tuple(l.split()): run_child(root, argv), check_probe(l))
              for l in CLI_DEFECT_PROBES]
    # warm-up child: the first interpreter start may compile bytecode
    warm = run_child(root, README_COMMANDS[0].split())
    if warm[0] != 0:
        raise SetupCheckError(f"warm-up child failed: {warm[2].strip()}")
    return Session(ops, inproc, probes)


WORKLOADS = {
    "spectra-build": setup_spectra_build,
    "query-mix": setup_query_mix,
    "cli-session": setup_cli_session,
}
