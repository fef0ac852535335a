"""Monomial ideals as minimal generator antichains (staircases).

An exponent vector is a tuple of naturals; componentwise order is
divisibility of monomials.  A MonIdeal stores the minimal antichain of
generators in lexicographic order, so equal ideals compare equal.  The
unit ideal is generated by the zero vector; the zero ideal has no
generators.  Minimalization is one pass in lex order: a staircase sweep
for n <= 3, the packed test below for n >= 4.

Each ideal also packs its generators once, at construction: a vector
becomes one int of n fields, the first coordinate in the highest field.
A field is w = top.bit_length() + 1 bits wide for the largest exponent
top, so its top bit (the guard) is clear in every packed vector.  With G
the guard bits of all fields, h divides g iff
((pack(g) | G) - pack(h)) & G == G: each field computes
2^(w-1) + g_i - h_i, which keeps its guard bit iff h_i <= g_i and never
borrows from the next field.  Packed order is lexicographic order.
"""

from __future__ import annotations

import bisect
import itertools
from operator import add, lshift

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
    # _packing is (top, width, guard, packed gens): a slot, not a field, so
    # ==, hash and repr see n and gens only.
    __slots__ = _fields + ("_packing",)

    def __init__(self, n: int, gens: tuple = ()):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gens", gens)
        self.__post_init__()

    def __post_init__(self):
        gens, packing = _minimalize(self.gens, self.n)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "_packing", packing)

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

        A tested vector is clamped to other's largest exponent, which keeps
        divisibility by other's generators and fits other's fields; with
        equal field widths self's own packing already fits.
        """
        self._same_n(other)
        top, width, guard, theirs = other._packing
        if self._packing[1] == width:
            mine = self._packing[3]
        else:
            shifts = _shifts(self.n, width)
            mine = [sum(map(lshift, map(min, g, itertools.repeat(top)), shifts))
                    for g in self.gens]
        for p in mine:
            # A divisor precedes p in packed (lex) order; the nearest divide
            # most often, so scan back from p.
            end = bisect.bisect_right(theirs, p)
            p |= guard
            for q in reversed(theirs[:end]):
                if (p - q) & guard == guard:
                    break
            else:
                return False
        return True

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

    @classmethod
    def from_json(cls, data: dict) -> "MonIdeal":
        return cls(int(data["n"]), tuple(tuple(int(x) for x in g) for g in data["gens"]))

    def __str__(self):
        if self.is_zero():
            return "(0)"
        # display x-first (descending lex); storage stays ascending
        return "(" + ", ".join(format_monomial(g) for g in reversed(self.gens)) + ")"


def _shifts(n: int, width: int) -> range:
    """Bit offset of each coordinate's field, the first coordinate highest."""
    return range((n - 1) * width, -1, -width)


def _minimalize(gens, n: int):
    """Minimal antichain generating the same ideal, sorted lexicographically,
    and its packing (top, width, guard, packed generators).

    In lex order a vector is divisible only by earlier ones or itself, so
    each is tested against those kept before it.  For n <= 3 (n = 1, 2
    padded with leading zeros) these are no larger in the first coordinate,
    and the test bisects the staircase of the kept points' last two
    coordinates (b, c): b ascending, c descending, the first point with
    c' <= c the one with the least b'.  For n >= 4 the packed test is tried
    against the kept vectors, nearest first.  Only kept vectors are packed.
    """
    vecs = sorted(set(map(tuple, gens)))
    _check_len(vecs, n)
    if min(itertools.chain((0,), *vecs)) < 0:
        raise ValueError("exponents must be >= 0")
    top = max(itertools.chain((0,), *vecs))
    width = top.bit_length() + 1
    # One guard bit at the top of each of the n fields.
    guard = ((1 << n * width) - 1) // ((1 << width) - 1) << (width - 1)
    keep, packed = [], []
    if n > 3:
        shifts = _shifts(n, width)
        for g in vecs:
            p = sum(map(lshift, g, shifts))
            q = p | guard
            for h in reversed(packed):  # the lex-nearest divide most often
                if (q - h) & guard == guard:  # h divides g
                    break
            else:
                keep.append(g)
                packed.append(p)
        return tuple(keep), (top, width, guard, packed)
    bs, cs, pad = [], [], (0,) * (3 - n)  # the staircase: bs and cs = -c ascending
    for g in vecs:
        a, b, c = pad + g
        j = bisect.bisect_left(cs, -c)  # the first point with c' <= c
        if j < len(bs) and bs[j] <= b:  # it divides g
            continue
        # g's point replaces those it dominates: c' > c (before j), b' >= b.
        i = bisect.bisect_left(bs, b, 0, j)
        bs[i:j], cs[i:j] = (b,), (-c,)
        keep.append(g)
        packed.append(a << 2 * width | b << width | c)  # padding packs to 0
    return tuple(keep), (top, width, guard, packed)


def mi_normalize(gens, n: int) -> MonIdeal:
    """Canonical minimal form of the ideal generated by gens."""
    return MonIdeal(n, tuple(gens))


def unit_ideal(n: int) -> MonIdeal:
    if 0 <= n < len(_UNITS):
        return _UNITS[n]
    return MonIdeal(n, ((0,) * n,))


# Unit ideals in up to 8 variables, built once at import rather than on
# first use, so that every later call does the same (no) work.
_UNITS = tuple(MonIdeal(n, ((0,) * n,)) for n in range(9))


def zero_ideal(n: int) -> MonIdeal:
    return MonIdeal(n, ())


def principal_ideal(mono: ExpVec) -> MonIdeal:
    return MonIdeal(len(mono), (tuple(mono),))


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


def var_names(n: int):
    """x, y, z for n <= 3; z1..zn otherwise."""
    if n <= 3:
        return ["x", "y", "z"][:n]
    return [f"z{i + 1}" for i in range(n)]


def format_monomial(exp: ExpVec, names=None) -> str:
    names = names or var_names(len(exp))
    parts = []
    for name, e in zip(names, exp):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"
