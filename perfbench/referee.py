"""Independent referees for the benchmark's outputs.

Nothing here imports the package under test.  Primes come from a
bytearray sieve, window edges from exact Fraction arithmetic, and
floor(n^(p/q)) is never computed: a claimed value v is checked through the
integer inequalities v^q <= n^p < (v+1)^q.  The checks run after the timed
region and feed no metric; a mismatch counts as a failed instance.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress


def parse_fraction(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def window(N: int, mu: Fraction, H: int) -> tuple[int, int]:
    """Inclusive integer interval [mu*N - H, mu*N + H]."""
    lo = mu * N - H
    hi = mu * N + H
    return -((-lo.numerator) // lo.denominator), hi.numerator // hi.denominator


def primes_between(a: int, b: int) -> list[int]:
    """Ascending primes in [a, b] by a segmented Eratosthenes on bytearrays."""
    a = max(a, 2)
    if a > b:
        return []
    root = math.isqrt(b)
    small = bytearray([1]) * (root + 1)
    small[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(root) + 1):
        if small[p]:
            small[p * p :: p] = bytes(len(range(p * p, root + 1, p)))
    seg = bytearray([1]) * (b - a + 1)
    for p in compress(range(root + 1), small):
        start = max(p * p, -(-a // p) * p)
        if start <= b:
            seg[start - a :: p] = bytes(len(range(start, b + 1, p)))
    return list(compress(range(a, b + 1), seg))


def is_floor_power(n: int, v: int, p: int, q: int) -> bool:
    """True when v == floor(n^(p/q)), i.e. v^q <= n^p < (v+1)^q."""
    x = n ** p
    return v >= 0 and v ** q <= x < (v + 1) ** q


def floor_power_below(n: int, bound: int, p: int, q: int) -> bool:
    """True when floor(n^(p/q)) < bound, i.e. n^p < bound^q."""
    return n ** p < bound ** q


def pair_count(target: int, p1: list[int], p2: set[int]) -> int:
    """Ordered pairs (x, y) with x in p1, y in p2 and x + y == target."""
    return sum(1 for x in p1 if target - x in p2)


def check_count_output(doc: dict, N: int, c: str, mu: tuple[str, str, str], H: int,
                       samples: list[int]) -> str | None:
    """Spot-check a `count` JSON document; returns None or the first mismatch.

    The total must equal the sum of r over per_n, and the n's must be
    consecutive with both neighbours of the range outside window 3.  For the
    rows at the given indices, v must be floor(n^c) inside window 3 and r is
    recounted independently.
    """
    per_n = doc["per_n"]
    if doc["total"] != sum(row[2] for row in per_n):
        return f"total {doc['total']} != sum of r {sum(row[2] for row in per_n)}"
    cp = parse_fraction(c)
    p, q = cp.numerator, cp.denominator
    mus = [parse_fraction(m) for m in mu]
    w1, w2, w3 = (window(N, m, H) for m in mus)
    if not per_n:
        return "no admissible n"
    n_lo, n_hi = per_n[0][0], per_n[-1][0]
    if [row[0] for row in per_n] != list(range(n_lo, n_hi + 1)):
        return "per_n rows are not consecutive in n"
    if n_lo > 1 and not floor_power_below(n_lo - 1, w3[0], p, q):
        return f"n={n_lo - 1} is admissible but missing"
    if floor_power_below(n_hi + 1, w3[1] + 1, p, q):
        return f"n={n_hi + 1} is admissible but missing"
    p1 = primes_between(*w1)
    p2 = set(p1) if w2 == w1 else set(primes_between(*w2))
    for i in samples:
        n, v, r = per_n[i]
        if not is_floor_power(n, v, p, q):
            return f"v={v} is not floor({n}^{c})"
        if not w3[0] <= v <= w3[1]:
            return f"v={v} lies outside window 3 {w3}"
        want = pair_count(N - v, p1, p2)
        if r != want:
            return f"n={n}: r={r}, recount gives {want}"
    return None
