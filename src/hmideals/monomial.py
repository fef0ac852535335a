"""Monomial ideals as minimal generator antichains (staircases).

An exponent vector is a tuple of naturals; componentwise order is
divisibility of monomials.  A MonIdeal stores the minimal antichain of
generators in lexicographic order, so equal ideals compare equal.  The
unit ideal is generated by the zero vector; the zero ideal has no
generators.  Minimalization and containment share one lex-order sweep
for the minima of a point set (Kung, Luccio and Preparata, JACM 1975);
in one or two variables minimalization keeps the running minima of the
last coordinate instead.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from operator import add, itemgetter, le

from .errors import DimensionError
from .frozen import Frozen

ExpVec = tuple


class _Infinite:
    """Explicit infinite-colength result (not an error)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()


def divides(a: ExpVec, b: ExpVec) -> bool:
    """True iff the monomial z^a divides z^b."""
    return all(x <= y for x, y in zip(a, b))


def _check_len(vecs, n):
    for v in vecs:
        if len(v) != n:
            raise DimensionError(f"exponent vector {v} has length {len(v)}, expected {n}")


class MonIdeal(Frozen):
    """A monomial ideal in n variables, stored in canonical minimal form."""

    _fields = ("n", "gens")
    __slots__ = _fields

    def __init__(self, n: int, gens: tuple = ()):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gens", gens)
        self.__post_init__()

    def __post_init__(self):
        object.__setattr__(self, "gens", _minimalize(self.gens, self.n))

    @classmethod
    def _of_antichain(cls, n: int, gens: tuple) -> "MonIdeal":
        """The ideal of a minimal antichain in lex order, taken as it is."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gens", gens)
        return self

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.n == other.n and self.gens == other.gens
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.gens))

    # -- predicates ----------------------------------------------------

    def is_unit(self) -> bool:
        return self.gens == ((0,) * self.n,)

    def is_zero(self) -> bool:
        return self.gens == ()

    def contains(self, nu: ExpVec) -> bool:
        """True iff z^nu lies in the ideal (some generator divides nu)."""
        if len(nu) != self.n:
            raise DimensionError(f"vector length {len(nu)} != {self.n}")
        return any(divides(g, nu) for g in self.gens)

    def subset(self, other: "MonIdeal") -> bool:
        """True iff self is contained in other (every generator of self is
        divisible by one of other).

        A divisor precedes a vector in lex order; the lex-nearest generator
        of other divides most often (for n <= 2 it is the only candidate).
        The vectors it misses lie in other iff a sweep that files other's
        possible divisors untested keeps none of them."""
        self._same_n(other)
        theirs = other.gens
        missed = [g for g in self.gens
                  if not (i := bisect_right(theirs, g)) or not all(map(le, theirs[i - 1], g))]
        if not missed:
            return True
        head = theirs[:bisect_right(theirs, missed[-1])]  # the possible divisors
        return not _sweep(sorted(head + tuple(missed)), self.n, head)

    # -- arithmetic ----------------------------------------------------

    def _same_n(self, other):
        if self.n != other.n:
            raise DimensionError(f"variable counts differ: {self.n} != {other.n}")

    def __add__(self, other: "MonIdeal") -> "MonIdeal":
        self._same_n(other)
        return MonIdeal(self.n, self.gens + other.gens)

    def __mul__(self, other: "MonIdeal") -> "MonIdeal":
        self._same_n(other)
        prods = tuple(tuple(map(add, g, h)) for g in self.gens for h in other.gens)
        return MonIdeal(self.n, prods)

    def __pow__(self, e: int) -> "MonIdeal":
        if e < 0:
            raise ValueError("negative ideal power")
        result = unit_ideal(self.n)
        for _ in range(e):
            result = result * self
        return result

    def scale(self, mono: ExpVec) -> "MonIdeal":
        """Multiply by the principal ideal (z^mono)."""
        _check_len([mono], self.n)
        return MonIdeal(self.n, tuple(tuple(a + b for a, b in zip(g, mono)) for g in self.gens))

    # -- staircase invariants ------------------------------------------

    def divisorial_part(self) -> ExpVec:
        """Componentwise min of the generators: the principal (gcd) factor."""
        if self.is_zero():
            raise ValueError("zero ideal has no divisorial part")
        return tuple(min(g[i] for g in self.gens) for i in range(self.n))

    def strip_divisorial(self) -> "MonIdeal":
        """Divide out the gcd monomial, leaving cosupport of codim >= 2."""
        d = self.divisorial_part()
        return MonIdeal(self.n, tuple(tuple(a - b for a, b in zip(g, d)) for g in self.gens))

    def colength(self):
        """Number of monomials outside the ideal, or INFINITE.

        Finite iff the ideal is unit or every variable has a pure-power
        generator.
        """
        return unit_ideal(self.n).count_outside(self)

    def count_outside(self, inner: "MonIdeal"):
        """Count monomials in self but not in inner (inner must be a subideal).

        Every generator of either ideal lies in the box of their largest
        exponents, so raising a coordinate past the box's far face never
        changes membership.  The difference is therefore INFINITE iff one of
        its monomials lies on a far face (it spawns a ray), and otherwise it
        is counted inside the box.
        """
        self._same_n(inner)
        if not inner.subset(self):
            raise ValueError("count_outside expects a subideal")
        box = tuple(map(max, zip((0,) * self.n, *self.gens, *inner.gens)))
        count = 0
        for nu in itertools.product(*(range(b + 1) for b in box)):
            if not inner.contains(nu) and self.contains(nu):
                if any(nu[j] == box[j] for j in range(self.n)):
                    return INFINITE
                count += 1
        return count

    # -- presentation --------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self.n, "gens": [list(g) for g in self.gens]}

    def __str__(self):
        """Generators x-first (descending lex; storage stays ascending) in
        x, y, z for n <= 3 and z1..zn otherwise; the unit ideal shows (1)."""
        if self.is_zero():
            return "(0)"
        names = "xyz"[:self.n] if self.n <= 3 else [f"z{i + 1}" for i in range(self.n)]
        powers = [{1: name} for name in names]  # per variable, each name^e made once
        return "(" + ", ".join([
            "*".join([p.get(e) or p.setdefault(e, f"{p[1]}^{e}") for p, e in zip(powers, g) if e])
            or "1" for g in reversed(self.gens)]) + ")"


def _minimalize(gens, n: int) -> tuple:
    """Minimal antichain generating the same ideal, sorted lexicographically."""
    vecs = sorted(set(map(tuple, gens)))
    _check_len(vecs, n)
    if min(itertools.chain((0,), *vecs)) < 0:
        raise ValueError("exponents must be >= 0")
    if n in (1, 2):
        # Every earlier vector is no larger in the first coordinate, so one
        # divides g iff its last coordinate is <= g's: keep the running minima.
        keep, low = [], math.inf
        for g in vecs:
            if g[-1] < low:
                keep.append(g)
                low = g[-1]
        return tuple(keep)
    return tuple(_sweep(vecs, n))


_SPLIT = itemgetter(slice(1, -2), -2, -1)  # (x..., b, c) of (a, x..., b, c), n >= 2


def _sweep(vecs, n: int, stored=()) -> list:
    """The vectors of the lex-sorted, duplicate-free list vecs that no
    earlier one divides, those of stored left out.  The vectors of stored
    (a lex-sorted antichain of vectors in vecs, as the same objects) are
    filed untested.  The filed vectors stay an antichain only until a
    tested one is kept, so with stored the sweep returns that one alone.

    A vector (a, x..., b, c) (n < 3 padded with leading zeros) is divisible
    only by earlier ones, which are no larger in a.  The kept ones are
    filed in a tree with one level per middle coordinate x, down to a
    staircase of their last two (b, c).  Each node is a pair of parallel
    sorted lists: keys and children, or b ascending and c descending.  A
    test takes the children at or below its own x at every level and
    bisects each staircase (one for n <= 3).  A point dominated in (b, c)
    within its staircase leaves it: the dominating vector divides every
    later vector that the point divides.
    """
    pad, root = (0,) * (2 - n), ([], [])
    top, keep, pending = (root,), [], iter(stored)
    due = next(pending, None)
    for g in vecs:
        mid, b, c = _SPLIT(pad + g)
        cells = top if g is not due else ()  # no cell to visit for stored
        for x in mid:
            below = []
            for keys, subs in cells:
                below += subs[:bisect_right(keys, x)]
            cells = below
        for bs, cs in cells:
            i = bisect_right(bs, b)  # the points [0, i) have b' <= b
            if i and cs[i - 1] <= c:  # the least c' among them divides g
                break
        else:
            if g is due:
                due = next(pending, None)
            elif stored:
                return [g]
            else:
                keep.append(g)
            if mid or not cells:  # else g's own staircase is the one just bisected
                cell = root
                for x in mid:
                    keys, subs = cell
                    i = bisect_left(keys, x)
                    if i == len(keys) or keys[i] != x:
                        keys.insert(i, x)
                        subs.insert(i, ([], []))
                    cell = subs[i]
                bs, cs = cell
                i = bisect_right(bs, b)
            # g's point replaces those it dominates: b' = b before i, c' >= c from i.
            lo = i - 1 if i and bs[i - 1] == b else i
            hi = i
            while hi < len(cs) and cs[hi] >= c:
                hi += 1
            if lo == hi:
                bs.insert(lo, b)
                cs.insert(lo, c)
            else:
                bs[lo:hi], cs[lo:hi] = (b,), (c,)
    return keep


def unit_ideal(n: int) -> MonIdeal:
    if 0 <= n < len(_UNITS):
        return _UNITS[n]
    return MonIdeal(n, ((0,) * n,))


# Unit ideals in up to 8 variables, built once at import rather than on
# first use, so that every later call does the same (no) work.
_UNITS = tuple(MonIdeal(n, ((0,) * n,)) for n in range(9))


def max_ideal_power(n: int, q: int) -> MonIdeal:
    """The q-th power of the maximal ideal: all degree-q exponent vectors."""
    if q < 0:
        raise ValueError("negative power of the maximal ideal")
    if q == 0:
        return unit_ideal(n)
    return MonIdeal(n, tuple(compositions(q, n)))


def squarefree_ideal(n: int, support, degree: int) -> MonIdeal:
    """Ideal of the squarefree monomials of the given degree in the support
    variables.  It cuts out the (s - degree + 1)-fold intersections of the s
    support hyperplanes; degree 0 gives the unit ideal."""
    return MonIdeal(n, tuple(
        tuple(int(i in chosen) for i in range(n))
        for chosen in itertools.combinations(support, degree)
    ))


def compositions(total: int, parts: int):
    """All tuples of naturals of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest

