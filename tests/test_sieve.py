import math
import random

import numpy as np
import pytest

from estermann import sieve
from estermann.sieve import (
    lambda_segment,
    pi_interval,
    prime_power_triples,
    primes_in,
    psi,
    segmented_primes,
)

PSI_10 = 3 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7)


def trial_division_primes(a, b):
    out = []
    for n in range(max(a, 2), b + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def test_primes_in_examples():
    assert list(primes_in(10, 20)) == [11, 13, 17, 19]
    assert list(primes_in(1, 1)) == []
    assert list(primes_in(2, 2)) == [2]


def test_primes_in_vs_trial_division():
    # primes_in reads these from the table; segmented_primes sieves them
    for fn in (primes_in, segmented_primes):
        assert list(fn(1, 10 ** 4)) == trial_division_primes(1, 10 ** 4)
        assert list(fn(9000, 9999)) == trial_division_primes(9000, 9999)


def test_segment_split_union():
    rng = random.Random(2)
    for _ in range(10):
        a = rng.randint(1, 10 ** 6)
        c = a + rng.randint(10, 10 ** 5)
        b = rng.randint(a, c - 1)
        for fn in (primes_in, segmented_primes):
            joined = np.concatenate([fn(a, b), fn(b + 1, c)])
            assert np.array_equal(joined, fn(a, c))


def test_forced_segmentation_consistent(monkeypatch):
    # the window straddles _TABLE_LIMIT, so primes_in sieves it in segments
    a, b = sieve._TABLE_LIMIT - 20000, sieve._TABLE_LIMIT + 20000
    whole = primes_in(a, b)
    monkeypatch.setattr(sieve, "_SEGMENT_ENTRIES", 2048)
    assert np.array_equal(primes_in(a, b), whole)


def test_table_matches_segmented_sieve():
    # windows ending at or below _TABLE_LIMIT are read-only slices of the
    # base-prime table, the rest are sieved; both paths give the same arrays
    limit = sieve._TABLE_LIMIT
    rng = random.Random(32)
    windows = [(1, 1), (1, 2), (2, 2), (1, 3), (2, 1000), (limit, limit),
               (limit - 3000, limit), (limit - 3000, limit + 1), (limit + 1, limit + 1),
               (limit - 1, limit + 3000), (1, limit)]
    for _ in range(30):
        a = rng.randint(1, limit + 50000)
        windows.append((a, a + rng.randint(0, 60000)))
    windows += [(rng.randint(1, 2), rng.randint(2, 20000)) for _ in range(5)]
    for a, b in windows:
        got, want = primes_in(a, b), segmented_primes(a, b)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want), (a, b)
        assert got.flags.writeable == (b > limit), (a, b)
        if a <= limit < b:
            # the table's part and the sieve's part join to the whole
            joined = np.concatenate([primes_in(a, limit), primes_in(limit + 1, b)])
            assert np.array_equal(joined, got)


def test_table_windows_are_read_only():
    # every table window is a view of one shared array: a write must raise
    # rather than change the primes that later windows read
    window = primes_in(1000, 2000)
    with pytest.raises(ValueError):
        window[0] = 4
    with pytest.raises(ValueError):
        window += 1
    with pytest.raises(ValueError):
        sieve.base_primes(100)[0] = 4
    assert list(primes_in(1000, 1013)) == [1009, 1013]


def test_pi_interval():
    assert pi_interval(100, 50) == 10
    assert pi_interval(2, 1) == 1
    with pytest.raises(ValueError):
        pi_interval(10, 0)


def test_pi_interval_additive():
    x, y1, y2 = 10 ** 5, 3333, 7777
    assert pi_interval(x, y1) + pi_interval(x - y1, y2) == pi_interval(x, y1 + y2)


def test_lambda_segment_examples():
    assert lambda_segment(8, 9) == [(8, math.log(2)), (9, math.log(3))]
    assert lambda_segment(14, 16) == [(16, math.log(2))]
    total = math.fsum(w for _, w in lambda_segment(2, 10))
    assert total == pytest.approx(PSI_10, abs=1e-12)


def test_prime_power_triples_structure():
    assert prime_power_triples(10, 9) == []  # like primes_in, a > b is empty
    with pytest.raises(ValueError):
        prime_power_triples(0, 5)
    triples = prime_power_triples(2, 100)
    for n, k, p in triples:
        assert n == p ** k
        assert all(p % d for d in range(2, math.isqrt(p) + 1))
    # 2^6=64, 3^4=81 present with the right exponents
    assert (64, 6, 2) in triples
    assert (81, 4, 3) in triples
    assert all(n != 72 for n, _, _ in triples)


def test_psi_values():
    assert psi(1) == 0.0
    assert psi(10) == pytest.approx(PSI_10, abs=1e-12)
    x = 10 ** 6
    assert abs(psi(x) - x) / x <= 0.002


def test_psi_segment_consistency():
    x, y = 300000, 123457
    lhs = psi(x) - psi(x - y)
    rhs = math.fsum(w for _, w in lambda_segment(x - y + 1, x))
    assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


def test_interval_density_band_small():
    # the 1e6..1e8 band is exercised by the acceptance suite; keep 1e6 here
    x = 10 ** 6
    y = math.ceil(x ** 0.6)
    ratio = pi_interval(x, y) * math.log(x) / y
    assert 0.8 <= ratio <= 1.25
