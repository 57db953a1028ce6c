"""Exact integer arithmetic for the floor sequence floor(n^(p/q)) and its inversion.

Every boundary decision is made in arbitrary-precision integers: no value of
floor(n^c) is ever derived from a floating-point power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ExponentTooSmall, FloorInversionFailed, IntegerExponent


@dataclass(frozen=True)
class RationalExponent:
    """Exponent c = p/q in lowest terms with q >= 2 and c > 1."""

    p: int
    q: int

    def __post_init__(self):
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"{self.p}/{self.q} is not in lowest terms")
        if self.q < 2:
            raise IntegerExponent(f"exponent {self.p}/{self.q} is an integer")
        if self.p <= self.q:
            raise ExponentTooSmall(f"exponent {self.p}/{self.q} is <= 1")

    @classmethod
    def from_fraction(cls, c: Fraction) -> "RationalExponent":
        return cls(c.numerator, c.denominator)

    @classmethod
    def parse(cls, text: str) -> "RationalExponent":
        return cls.from_fraction(parse_rational(text))

    def as_fraction(self) -> Fraction:
        return Fraction(self.p, self.q)

    def __float__(self) -> float:
        return self.p / self.q

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"

    @property
    def floor(self) -> int:
        return self.p // self.q

    def dist_to_nearest_int(self) -> Fraction:
        """Distance from p/q to the nearest integer, exact."""
        r = Fraction(self.p % self.q, self.q)
        return min(r, 1 - r)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a bare integer string into an exact Fraction."""
    s = text.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def integer_root(x: int, q: int) -> int:
    """Floor q-th root of a non-negative integer, by Newton iteration.

    The result k satisfies k^q <= x < (k+1)^q; both inequalities are
    re-verified after the iteration.
    """
    if x < 0:
        raise ValueError("integer_root requires x >= 0")
    if q < 1:
        raise ValueError("integer_root requires q >= 1")
    if q == 1 or x in (0, 1):
        return x
    if q == 2:
        return math.isqrt(x)
    # Float seed, nudged up so the decreasing Newton iteration starts above
    # the root even when pow() rounds low.
    try:
        k = int(x ** (1.0 / q)) + 2
    except OverflowError:
        k = 1 << (x.bit_length() // q + 2)
    while True:
        t = ((q - 1) * k + x // k ** (q - 1)) // q
        if t >= k:
            break
        k = t
    while k ** q > x:
        k -= 1
    while (k + 1) ** q <= x:
        k += 1
    return k


def floor_pow(n: int, c: RationalExponent) -> int:
    """floor(n^c) for c = p/q, computed as the integer q-th root of n^p."""
    if n < 1:
        raise ValueError("floor_pow requires n >= 1")
    return integer_root(n ** c.p, c.q)


def invert_floor_range(L: int, R: int, c: RationalExponent):
    """Smallest and largest n >= 1 with L <= floor_pow(n, c) <= R.

    floor_pow is nondecreasing in n, so the admissible set is an integer
    interval; it is located by binary search and the endpoints are verified
    by direct evaluation.  Returns None when no n qualifies.
    """
    if L > R:
        raise ValueError("invert_floor_range requires L <= R")
    if R < 1:
        return None
    L = max(L, 1)

    # Bracket: floor_pow(hi) > R guaranteed since hi^p > (R+1)^q - 1.
    hi = integer_root((R + 1) ** c.q, c.p) + 1

    def bisect_first(target: int) -> int:
        # first n in [1, hi] with floor_pow(n) >= target
        lo_n, hi_n = 1, hi
        while lo_n < hi_n:
            mid = (lo_n + hi_n) // 2
            if floor_pow(mid, c) >= target:
                hi_n = mid
            else:
                lo_n = mid + 1
        return lo_n

    n_lo = bisect_first(L)
    if floor_pow(n_lo, c) > R:
        return None
    n_hi = bisect_first(R + 1) - 1

    # Endpoint verification by direct evaluation.
    if not (
        L <= floor_pow(n_lo, c) <= R
        and L <= floor_pow(n_hi, c) <= R
        and (n_lo == 1 or floor_pow(n_lo - 1, c) < L)
        and floor_pow(n_hi + 1, c) > R
    ):
        raise FloorInversionFailed(
            f"endpoints ({n_lo}, {n_hi}) of [{L}, {R}] under c = {c} failed verification"
        )
    return (n_lo, n_hi)
