"""Segmented sieve: primes, interval prime counts, von Mangoldt data, psi.

Windows of width 2H near mu_k*N are the only intervals this package ever
sieves, so the sieve works on [a, b] segments directly rather than from 2.
Base primes up to sqrt(b) are cached process-wide and reused across segments.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .arith import integer_root
from .errors import MemoryBudgetExceeded

DEFAULT_SEGMENT_ENTRIES = 1 << 22
MIN_SEGMENT_ENTRIES = 1 << 10

_base_lock = threading.Lock()
_base_primes: np.ndarray = np.array([2, 3, 5, 7, 11, 13], dtype=np.int64)
_base_limit: int = 13


def _simple_sieve(limit: int) -> np.ndarray:
    if limit < 2:
        return np.array([], dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def base_primes(limit: int) -> np.ndarray:
    """All primes <= limit; grown once, then served from the cache."""
    global _base_primes, _base_limit
    if limit <= _base_limit:
        return _base_primes[: np.searchsorted(_base_primes, limit, side="right")]
    with _base_lock:
        if limit > _base_limit:
            _base_primes = _simple_sieve(max(limit, 2 * _base_limit))
            _base_limit = int(max(limit, 2 * _base_limit))
    return base_primes(limit)


def _sieve_flags(a: int, b: int) -> np.ndarray:
    """Boolean primality flags for [a, b] (a >= 1)."""
    n = b - a + 1
    flags = np.ones(n, dtype=bool)
    if a <= 1:
        flags[: min(2 - a, n)] = False
    for p in base_primes(math.isqrt(b)):
        p = int(p)
        start = max(p * p, ((a + p - 1) // p) * p)
        if start > b:
            continue
        flags[start - a :: p] = False
    return flags


def _segments(a: int, b: int, segment_entries: int):
    if segment_entries < MIN_SEGMENT_ENTRIES:
        raise MemoryBudgetExceeded(
            f"segment budget {segment_entries} entries is below the "
            f"minimum {MIN_SEGMENT_ENTRIES}"
        )
    lo = a
    while lo <= b:
        hi = min(lo + segment_entries - 1, b)
        yield lo, hi
        lo = hi + 1


def primes_in(a: int, b: int, *, segment_entries: int = DEFAULT_SEGMENT_ENTRIES) -> np.ndarray:
    """Ascending primes in [a, b]; large requests are sieved in segments."""
    if not (1 <= a <= b):
        if a > b:
            return np.array([], dtype=np.int64)
        raise ValueError("primes_in requires 1 <= a <= b")
    parts = []
    for lo, hi in _segments(a, b, segment_entries):
        flags = _sieve_flags(lo, hi)
        parts.append(np.flatnonzero(flags).astype(np.int64) + lo)
    return np.concatenate(parts) if parts else np.array([], dtype=np.int64)


def pi_interval(x: int, y: int) -> int:
    """pi(x) - pi(x - y): the number of primes in (x - y, x]."""
    if not (0 < y <= x):
        raise ValueError("pi_interval requires 0 < y <= x")
    return int(len(primes_in(x - y + 1, x)))


def prime_power_triples(a: int, b: int) -> list[tuple[int, int, int]]:
    """All (n, k, p) with n = p^k in [a, b], k >= 1, ascending in n.

    Primes come from the segmented sieve; higher powers are enumerated per
    exponent k from exact integer k-th roots, so detection never rounds.
    """
    if not (1 <= a <= b):
        raise ValueError("prime_power_triples requires 1 <= a <= b")
    triples = [(int(p), 1, int(p)) for p in primes_in(max(a, 2), b)]
    k = 2
    while (1 << k) <= b:
        p_lo = integer_root(a - 1, k) + 1 if a > 1 else 2
        p_hi = integer_root(b, k)
        if p_lo <= p_hi:
            for p in primes_in(p_lo, p_hi):
                triples.append((int(p) ** k, k, int(p)))
        k += 1
    triples.sort()
    return triples


def lambda_segment(a: int, b: int) -> list[tuple[int, float]]:
    """(n, Lambda(n)) for n in [a, b] with Lambda(n) != 0, ascending."""
    return [(n, math.log(p)) for n, _k, p in prime_power_triples(a, b)]


def psi(x: int, *, segment_entries: int = DEFAULT_SEGMENT_ENTRIES) -> float:
    """Chebyshev psi(x) = sum of Lambda(n) for n <= x, compensated.

    Accumulated with math.fsum so the ~x/ln x terms of size ~ln x do not
    drift; the prime-power structure itself is exact.
    """
    if x < 1:
        raise ValueError("psi requires x >= 1")
    if x == 1:
        return 0.0
    parts = []
    for lo, hi in _segments(2, x, segment_entries):
        flags = _sieve_flags(lo, hi)
        p = np.flatnonzero(flags).astype(np.int64) + lo
        parts.append(math.fsum(np.log(p.astype(np.float64))))
    # Higher prime powers p^k <= x contribute ln p once per power.
    k = 2
    while (1 << k) <= x:
        for p in primes_in(2, integer_root(x, k)):
            parts.append(math.log(int(p)))
        k += 1
    return math.fsum(parts)
