"""Exact representation counts J_c(N, H) = #{p1 + p2 + floor(n^c) = N}.

Pairs (p1, p2) are ordered: (2, 5) and (5, 2) are distinct solutions.  Two
independent paths compute the same CountBreakdown: a brute-force pair
enumeration (the oracle) and a bitset-indexed fast path.
"""

from __future__ import annotations

import io
import json
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .arith import floor_pow_values, invert_floor_range
from .errors import MemoryBudgetExceeded, OracleLimitExceeded
from .instance import ProblemInstance
from .sieve import primes_in

ORACLE_LIMIT_DEFAULT = 10 ** 5
DEFAULT_MEM_ENTRIES = 1 << 28


@dataclass(frozen=True)
class CountBreakdown:
    """Total count plus the ordered-pair count r for every admissible n."""

    total: int
    per_n: tuple[tuple[int, int, int], ...]  # (n, v = floor(n^c), r)
    n_range: Optional[tuple[int, int]]

    def to_json(self) -> str:
        n_lo, n_hi = self.n_range if self.n_range else (None, None)
        return json.dumps(
            {
                "total": self.total,
                "n_lo": n_lo,
                "n_hi": n_hi,
                "per_n": [list(row) for row in self.per_n],
            }
        )

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("n,v,r\n")
        for n, v, r in self.per_n:
            out.write(f"{n},{v},{r}\n")
        return out.getvalue()


def window_primes(inst: ProblemInstance, k: int) -> np.ndarray:
    """Primes p with |p - mu_k*N| <= H, from the segmented sieve."""
    lo, hi = inst.window(k)
    lo = max(lo, 2)
    if lo > hi:
        return np.array([], dtype=np.int64)
    return primes_in(lo, hi)


def admissible_floor_values(inst: ProblemInstance):
    """(n_range, v-array) for n with |floor(n^c) - mu3*N| <= H."""
    lo, hi = inst.window(3)
    if lo > hi:
        return None, np.array([], dtype=np.int64)
    rng = invert_floor_range(lo, hi, inst.c)
    if rng is None:
        return None, np.array([], dtype=np.int64)
    return rng, floor_pow_values(*rng, inst.c)


def _breakdown(n_range, values, r_of_v) -> CountBreakdown:
    per_n = []
    total = 0
    n_lo = n_range[0] if n_range else 0
    for i, v in enumerate(values):
        r = int(r_of_v(int(v)))
        per_n.append((n_lo + i, int(v), r))
        total += r
    return CountBreakdown(total=total, per_n=tuple(per_n), n_range=n_range)


def brute_force_count(
    inst: ProblemInstance, *, oracle_limit: int = ORACLE_LIMIT_DEFAULT
) -> CountBreakdown:
    """Oracle count by plain pair enumeration over both prime windows.

    Every p1, p2 comes from the sieve and passes the exact rational window
    test; every v comes from floor_pow.  Intentionally has no shortcuts.
    """
    if inst.N > oracle_limit:
        raise OracleLimitExceeded(f"N={inst.N} exceeds oracle limit {oracle_limit}")
    p1s = [int(p) for p in window_primes(inst, 1) if inst.in_window(1, int(p))]
    p2s = [int(p) for p in window_primes(inst, 2) if inst.in_window(2, int(p))]
    n_range, values = admissible_floor_values(inst)
    pair_sums = Counter()
    for p1 in p1s:
        for p2 in p2s:
            pair_sums[p1 + p2] += 1
    return _breakdown(n_range, values, lambda v: pair_sums[inst.N - v])


def fast_count(
    inst: ProblemInstance, *, mem_entries: int = DEFAULT_MEM_ENTRIES
) -> CountBreakdown:
    """Same contract as brute_force_count via a window-2 primality bitset."""
    lo2, hi2 = inst.window(2)
    span = max(hi2 - lo2 + 1, 0)
    if span > mem_entries:
        raise MemoryBudgetExceeded(f"window span {span} exceeds budget {mem_entries}")
    p1 = window_primes(inst, 1)
    n_range, values = admissible_floor_values(inst)
    if span == 0 or len(p1) == 0 or len(values) == 0:
        return _breakdown(n_range, values, lambda v: 0)
    is_p2 = np.zeros(span, dtype=bool)
    p2 = window_primes(inst, 2)
    is_p2[p2 - lo2] = True

    def pairs_for(v: int) -> int:
        targets = inst.N - v - p1
        ok = (targets >= lo2) & (targets <= hi2)
        if not ok.any():
            return 0
        return int(np.count_nonzero(is_p2[targets[ok] - lo2]))

    return _breakdown(n_range, values, pairs_for)
