import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from estermann import counting
from estermann.arith import floor_pow
from estermann.circle import exact_convolution_count
from estermann.counting import (
    CountBreakdown,
    admissible_floor_values,
    brute_force_count,
    fast_count,
    window_primes,
)
from estermann.errors import MemoryBudgetExceeded, OracleLimitExceeded
from estermann.instance import build_instance
from estermann.verify import random_instances

# First-oracle-run value for N=1e4, c=3/2, mu=(1/3,1/3,1/3), H=500.
GOLDEN_N4_H500 = 564


def test_hand_example_n12():
    inst = build_instance(12, "3/2", ("1/4", "1/4", "1/2"), 3)
    b = brute_force_count(inst)
    # windows [0,6]: primes {2,3,5}; v in [3,9]: floor(3^1.5)=5, floor(4^1.5)=8
    assert b.total == 3
    assert b.n_range == (3, 4)
    assert b.per_n == ((3, 5, 2), (4, 8, 1))  # (2,5),(5,2) then (2,2)


def test_mu_swap_symmetry_small():
    inst = build_instance(12, "3/2", ("1/6", "1/3", "1/2"), 2)
    swapped = build_instance(12, "3/2", ("1/3", "1/6", "1/2"), 2)
    assert brute_force_count(inst).total == brute_force_count(swapped).total


def test_h_zero_total_zero():
    inst = build_instance(10 ** 4, "3/2", ("1/3", "1/3", "1/3"), 0)
    assert brute_force_count(inst).total == 0
    assert fast_count(inst).total == 0


def test_oracle_limit():
    inst = build_instance(10 ** 6, "3/2", ("1/3", "1/3", "1/3"), 100)
    with pytest.raises(OracleLimitExceeded):
        brute_force_count(inst)


def test_memory_budget():
    inst = build_instance(10 ** 4, "3/2", ("1/3", "1/3", "1/3"), 2000)
    with pytest.raises(MemoryBudgetExceeded):
        fast_count(inst, mem_entries=100)


def test_golden_fast_equals_brute():
    inst = build_instance(10 ** 4, "3/2", ("1/3", "1/3", "1/3"), 500)
    b = brute_force_count(inst)
    f = fast_count(inst)
    assert b == f
    assert f.total == GOLDEN_N4_H500


def test_random_oracle_agreement():
    rng = random.Random(101)
    for inst in random_instances(30, rng):
        b = brute_force_count(inst)
        f = fast_count(inst)
        assert b.total == f.total
        assert b.per_n == f.per_n
        assert b.n_range == f.n_range


def _counter_brute_force(inst) -> CountBreakdown:
    """brute_force_count's tally one pair at a time in a Counter: the reference."""
    p1s = [int(p) for p in window_primes(inst, 1) if inst.in_window(1, int(p))]
    p2s = [int(p) for p in window_primes(inst, 2) if inst.in_window(2, int(p))]
    n_range, values = admissible_floor_values(inst)
    pair_sums = Counter()
    for p1 in p1s:
        for p2 in p2s:
            pair_sums[p1 + p2] += 1
    n_lo = n_range[0] if n_range else 0
    per_n = tuple((n_lo + i, int(v), pair_sums[inst.N - int(v)]) for i, v in enumerate(values))
    return CountBreakdown(total=sum(r for _, _, r in per_n), per_n=per_n, n_range=n_range)


def test_brute_force_rows_match_counter_reference():
    rng = random.Random(12)
    instances = list(random_instances(30, rng, n_max=4000))
    instances += [
        build_instance(10 ** 4, "3/2", ("1/3", "1/3", "1/3"), 0),  # H = 0: empty windows
        build_instance(9000, "5/3", ("1/3", "1/3", "1/3"), 0),  # H = 0: one integer each
        build_instance(100, "3/2", ("1/4", "3/10", "9/20"), 1),  # window 1 holds no prime
        build_instance(1000, "13/7", ("1/4", "1/4", "1/2"), 3),  # window 3 holds no v
    ]
    for inst in instances:
        assert brute_force_count(inst) == _counter_brute_force(inst)


def test_oracles_build_their_own_windows(monkeypatch):
    # fast_count reads the windows from counting.build_windows; the oracle
    # and the Counter reference must not, or they would share what they check
    instances = [
        build_instance(10 ** 4, "3/2", ("1/3", "1/3", "1/3"), 500),
        build_instance(3000, "5/3", ("1/4", "1/4", "1/2"), 200),
        build_instance(12, "3/2", ("1/4", "1/4", "1/2"), 3),
    ]
    want = [fast_count(inst).total for inst in instances]

    def refuse(inst):
        raise AssertionError("build_windows called")

    monkeypatch.setattr(counting, "build_windows", refuse)
    with pytest.raises(AssertionError, match="build_windows"):
        fast_count(instances[0])
    for inst, total in zip(instances, want):
        assert brute_force_count(inst).total == total
        assert _counter_brute_force(inst).total == total


def test_total_monotone_in_H():
    rng = random.Random(55)
    for _ in range(10):
        N = rng.randint(200, 1500)
        H = rng.randint(2, N // 5)
        base = build_instance(N, "5/3", ("1/3", "1/3", "1/3"), H)
        wider = build_instance(N, "5/3", ("1/3", "1/3", "1/3"), H + rng.randint(1, 20))
        assert fast_count(wider).total >= fast_count(base).total


def test_mu_swap_symmetry_random():
    rng = random.Random(77)
    for inst in random_instances(10, rng, n_max=1200):
        swapped = build_instance(inst.N, inst.c, (inst.mu[1], inst.mu[0], inst.mu[2]), inst.H)
        assert fast_count(inst).total == fast_count(swapped).total


def test_per_n_membership_exact():
    inst = build_instance(2000, "7/4", ("1/4", "1/4", "1/2"), 300)
    f = fast_count(inst)
    mu3 = inst.mu[2]
    for _n, v, _r in f.per_n:
        assert abs(mu3.denominator * v - mu3.numerator * inst.N) <= mu3.denominator * inst.H
    assert f.total == sum(r for _, _, r in f.per_n)


def test_json_csv_serialization():
    inst = build_instance(12, "3/2", ("1/4", "1/4", "1/2"), 3)
    b = brute_force_count(inst)
    assert b.to_dict() == {
        "total": b.total, "n_lo": 3, "n_hi": 4, "per_n": [list(row) for row in b.per_n]
    }
    csv = b.to_csv()
    assert csv.splitlines()[0] == "n,v,r"
    assert csv.splitlines()[1] == "3,5,2"
    empty = build_instance(10 ** 4, "3/2", ("1/3", "1/3", "1/3"), 0)
    eb = fast_count(empty)
    assert eb.to_dict() == {"total": 0, "n_lo": None, "n_hi": None, "per_n": []}


@st.composite
def small_instances(draw):
    """N <= 3000, mu drawn as verify.random_instances draws it, any valid H."""
    N = draw(st.integers(1, 3000))
    c = draw(st.sampled_from(("3/2", "5/3", "7/4", "5/2", "13/7", "13/9", "17/12")))
    d1, d2 = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    mu1 = Fraction(draw(st.integers(1, d1 - 1)), 2 * d1)
    mu2 = Fraction(draw(st.integers(1, d2 - 1)), 2 * d2)
    mu = (mu1, mu2, 1 - mu1 - mu2)
    H = draw(st.integers(0, math.floor(min(mu) * N)))
    return build_instance(N, c, mu, H)


@settings(max_examples=200, deadline=None)
@given(small_instances())
# H = floor(min_k mu_k N): the widest valid window, an exact and a rounded edge
@example(build_instance(3000, "5/2", ("1/4", "1/4", "1/2"), 750))
@example(build_instance(2999, "13/7", ("1/6", "1/3", "1/2"), 499))
# window 1 = [24, 26] holds no prime; windows 2 and 3 are not empty
@example(build_instance(100, "3/2", ("1/4", "3/10", "9/20"), 1))
# window 3 = [497, 503] holds no floor(n^(13/7))
@example(build_instance(1000, "13/7", ("1/4", "1/4", "1/2"), 3))
# a window-3 edge at an exact power (m^q)^(p/q) = m^p: upper edges
# 144^(3/2) = 1728, 64^(5/3) = 1024 and 512^(13/9) = 8192, lower edges
# 121^(3/2) = 1331 and 81^(7/4) = 2187
@example(build_instance(3000, "3/2", ("1/4", "1/4", "1/2"), 228))
@example(build_instance(2000, "5/3", ("1/4", "1/4", "1/2"), 24))
@example(build_instance(16000, "13/9", ("1/4", "1/4", "1/2"), 192))
@example(build_instance(3000, "3/2", ("1/4", "1/4", "1/2"), 169))
@example(build_instance(4800, "7/4", ("1/4", "1/4", "1/2"), 213))
def test_three_counting_paths_agree(inst):
    b = brute_force_count(inst)
    f = fast_count(inst)
    assert b.total == f.total
    assert b.per_n == f.per_n
    assert exact_convolution_count(inst) == f.total
    # the n of window 3 by plain enumeration, not by inverting floor_pow
    lo, hi = inst.window(3)
    want, n = [], 1
    while (v := floor_pow(n, inst.c)) <= hi:
        if v >= lo:
            want.append((n, v))
        n += 1
    assert [(n, v) for n, v, _ in f.per_n] == want


# fast_count counts, for each floor value v, the window-1 primes p whose
# partner N - v - p lies in window 2: a slice of the sorted primes.  These
# instances put a prime partner exactly on an edge of window 2, and a v whose
# slice is empty next to a v whose slice is not.  (An empty slice cannot sit
# between two non-empty ones: the slice ends move one way as v grows, and
# window 2 holds at most one integer fewer than window 1.)  All three have
# mu1 != mu2 with windows 1 and 2 of different integer spans.
@pytest.mark.parametrize(
    "inst, edges, empty_next_to_full",
    [
        (build_instance(64, "7/4", ("1/3", "1/4", "5/12"), 13), {"lo2", "hi2"}, False),
        (build_instance(987, "17/12", ("1/3", "1/4", "5/12"), 8), {"lo2"}, True),
        (build_instance(2668, "17/12", ("1/3", "1/4", "5/12"), 16), {"hi2"}, True),
    ],
)
def test_fast_count_slice_ends(inst, edges, empty_next_to_full):
    lo1, hi1 = inst.window(1)
    lo2, hi2 = inst.window(2)
    assert hi1 - lo1 != hi2 - lo2
    p1 = [int(p) for p in window_primes(inst, 1)]
    p2 = {int(p) for p in window_primes(inst, 2)}
    _, values = admissible_floor_values(inst)
    # the slices by trial, one window test per prime
    slices = [[p for p in p1 if inst.in_window(2, inst.N - int(v) - p)] for v in values]
    partners = {inst.N - int(v) - p for v, s in zip(values, slices) for p in s} & p2
    assert {name for name, m in (("lo2", lo2), ("hi2", hi2)) if m in partners} == edges
    empty = [not s for s in slices]
    assert any(a != b for a, b in zip(empty, empty[1:])) == empty_next_to_full
    assert fast_count(inst).per_n == brute_force_count(inst).per_n


def test_convolution_matches_fast_count_on_threaded_dots():
    # prime spans of ~6e4, so each AND and popcount runs over ~7500 bytes
    inst = build_instance(2 * 10 ** 6, "3/2", ("1/3", "1/3", "1/3"), 3 * 10 ** 4)
    assert exact_convolution_count(inst) == fast_count(inst).total
