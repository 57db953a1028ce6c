"""Exact representation counts J_c(N, H) = #{p1 + p2 + floor(n^c) = N}.

Pairs (p1, p2) are ordered: (2, 5) and (5, 2) are distinct solutions.  Two
independent paths compute the same CountBreakdown: a brute-force pair
enumeration (the oracle) and a fast path that, for each floor value v, takes
the slice of sorted window-1 primes whose partner N - v - p1 can lie in
window 2 and counts the partners that are prime with one gather.

An instance's three windows (the primes P1, P2 and the floor values V) are
built once, by build_windows, into one Windows value that the fast path,
the exact integrand and the convolution count all read.  The oracle builds
its own.
"""

from __future__ import annotations

import io
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

    def to_dict(self) -> dict:
        """The JSON document of the count: total, n_lo, n_hi and per_n rows."""
        n_lo, n_hi = self.n_range if self.n_range else (None, None)
        return {
            "total": self.total,
            "n_lo": n_lo,
            "n_hi": n_hi,
            "per_n": [list(row) for row in self.per_n],
        }

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


@dataclass(frozen=True, eq=False)  # eq=False: arrays have no one truth value
class Windows:
    """The three windows of one instance: P1, P2 and V = {floor(n^c)}.

    p1 and p2 are the ascending primes within H of mu1*N and mu2*N; values
    are floor(n^c) for n in n_range, the n with floor(n^c) within H of
    mu3*N (n_range is None when there is no such n).
    """

    inst: ProblemInstance
    p1: np.ndarray
    p2: np.ndarray
    n_range: Optional[tuple[int, int]]
    values: np.ndarray

    @property
    def empty(self) -> bool:
        """True when some window is empty, so no triple sums to N."""
        return len(self.p1) == 0 or len(self.p2) == 0 or len(self.values) == 0


def _check_budget(nbytes: int, mem_entries: int, what: str) -> None:
    """Raise MemoryBudgetExceeded when nbytes exceed mem_entries 8-byte entries."""
    if nbytes > 8 * mem_entries:
        raise MemoryBudgetExceeded(
            f"{what} needs {nbytes} bytes, exceeds budget {8 * mem_entries} bytes"
        )


def build_windows(inst: ProblemInstance) -> Windows:
    """Sieve windows 1 and 2, then invert the floor range of window 3."""
    p1 = window_primes(inst, 1)
    p2 = window_primes(inst, 2)
    n_range, values = admissible_floor_values(inst)
    return Windows(inst, p1, p2, n_range, values)


def _breakdown(n_range, values, r_values) -> CountBreakdown:
    """Rows (n, v, r) from the floor values and their counts, in order."""
    n_lo = n_range[0] if n_range else 0
    per_n = tuple(
        (n_lo + i, int(v), int(r)) for i, (v, r) in enumerate(zip(values, r_values))
    )
    return CountBreakdown(total=sum(r for _, _, r in per_n), per_n=per_n, n_range=n_range)


def brute_force_count(inst: ProblemInstance) -> CountBreakdown:
    """Oracle count by plain pair enumeration over both prime windows.

    Every p1, p2 comes from the sieve and passes the exact rational window
    test; every v comes from floor_pow.  Intentionally has no shortcuts.
    Refuses N above ORACLE_LIMIT_DEFAULT, read at call time.
    """
    if inst.N > ORACLE_LIMIT_DEFAULT:
        raise OracleLimitExceeded(f"N={inst.N} exceeds oracle limit {ORACLE_LIMIT_DEFAULT}")
    p1s = [p for p in window_primes(inst, 1).tolist() if inst.in_window(1, p)]
    p2s = np.array(
        [p for p in window_primes(inst, 2).tolist() if inst.in_window(2, p)], dtype=np.int64
    )
    n_range, values = admissible_floor_values(inst)
    (lo1, hi1), (lo2, hi2) = inst.window(1), inst.window(2)
    # pair_sums[s - base] counts the ordered pairs with p1 + p2 = s
    base = lo1 + lo2
    pair_sums = np.zeros(max(hi1 + hi2 - base + 1, 0), dtype=np.int64)
    for p1 in p1s:
        # one row of pairs at once: p2s is strictly increasing, so the row's
        # indices are distinct and += adds one for each pair
        pair_sums[p1 + p2s - base] += 1
    r_values = []
    for v in values.tolist():
        k = inst.N - v - base
        r_values.append(int(pair_sums[k]) if 0 <= k < len(pair_sums) else 0)
    return _breakdown(n_range, values, r_values)


def fast_count(
    inst: ProblemInstance, *, mem_entries: int = DEFAULT_MEM_ENTRIES
) -> CountBreakdown:
    """Same contract as brute_force_count, by one slice gather per floor value.

    With t = N - v, the partner t - p of p lies in window 2 = [lo2, hi2]
    exactly when p lies in [t - hi2, t - lo2]: a contiguous slice of the
    sorted window-1 primes, whose ends come from searchsorted.  Window 2's
    primes are flagged in reverse, rev[hi2 - p2] = True, so the partner of p
    sits at rev[p + hi2 - t] and r(v) is the number of flags that the slice,
    shifted by hi2 - t, gathers.  The flag array takes one byte per integer
    of window 2, charged against mem_entries 8-byte entries before anything
    is sieved.
    """
    lo2, hi2 = inst.window(2)
    span = max(hi2 - lo2 + 1, 0)
    _check_budget(span, mem_entries, f"fast count of window span {span}")
    w = build_windows(inst)
    p1, n_range, values = w.p1, w.n_range, w.values
    if w.empty:
        return _breakdown(n_range, values, [0] * len(values))
    rev = np.zeros(span, dtype=bool)
    rev[hi2 - w.p2] = True
    t = inst.N - values
    starts = np.searchsorted(p1, t - hi2, side="left").tolist()
    stops = np.searchsorted(p1, t - lo2, side="right").tolist()
    r_values = [
        np.count_nonzero(rev[p1[i:j] + (hi2 - tv)])
        for tv, i, j in zip(t.tolist(), starts, stops)
    ]
    return _breakdown(n_range, values, r_values)
