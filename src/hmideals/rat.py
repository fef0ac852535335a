"""Exact rational helpers on top of fractions.Fraction.

All indices, weights and thresholds in this package are Fractions; no
floating point appears anywhere.  The epsilon-free rounding helper
encodes "round after nudging by an infinitesimal" by exact case analysis
on integrality.
"""

from __future__ import annotations

import math
from fractions import Fraction


def parse_int(text: str) -> int:
    """int(text) for an optional sign and ASCII digits; int() also takes other digits and "_"."""
    digits = text.strip(" \t\n\r\f\v")  # what int() strips; str.strip() also drops \x1c-\x1f
    if digits[:1] in ("+", "-"):
        digits = digits[1:]
    if not (text.isascii() and digits.isdigit()):
        raise ValueError(f"want an integer, got {text!r}")
    return int(text)


def is_int(value) -> bool:
    """True for an int that is not a bool: what a JSON integer loads as."""
    return isinstance(value, int) and not isinstance(value, bool)


def json_int(value, field: str) -> int:
    """value when it is an integer; otherwise a ValueError naming field."""
    if not is_int(value):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def parse_rat(text: str) -> Fraction:
    """Parse "p/q" with q > 0, or an integer "p"."""
    num, slash, den = text.partition("/")
    try:
        p, q = parse_int(num), parse_int(den) if slash else 1
    except ValueError:
        raise ValueError(f"want p/q or an integer, got {text!r}") from None
    if q <= 0:
        raise ValueError(f"denominator must be positive in {text!r}")
    return Fraction(p, q)


def fmt_rat(x: Fraction) -> str:
    """Render as "p/q", or "p" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def floor_minus_eps(x: Fraction) -> int:
    """floor(x - eps) for infinitesimal eps > 0: x-1 at integers, floor(x) else."""
    n = math.floor(x)
    return n - 1 if x == n else n
