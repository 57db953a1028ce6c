import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import estermann
from estermann.arith import (
    RationalExponent,
    floor_pow,
    format_rational,
    integer_root,
    invert_floor_range,
    parse_rational,
    pow_range,
)
from estermann.errors import ExponentTooSmall, IntegerExponent
from estermann.verify import scan_floor_range

SCAN_EXPONENTS = ("3/2", "5/2", "7/4", "5/3", "13/7")


def test_rational_exponent_validation():
    c = RationalExponent(3, 2)
    assert float(c) == 1.5
    assert c.floor == 1
    assert c.dist_to_nearest_int() == Fraction(1, 2)
    with pytest.raises(IntegerExponent):
        RationalExponent(2, 1)
    with pytest.raises(ExponentTooSmall):
        RationalExponent(2, 3)
    with pytest.raises(ValueError):
        RationalExponent(6, 4)  # not lowest terms


def test_parse_format_rational():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational(" 7 ") == Fraction(7)
    assert format_rational(Fraction(1, 3)) == "1/3"
    assert format_rational(Fraction(4)) == "4"


def test_integer_root_small():
    assert integer_root(0, 3) == 0
    assert integer_root(1, 5) == 1
    assert integer_root(26, 3) == 2
    assert integer_root(27, 3) == 3
    assert integer_root(28, 3) == 3


def test_integer_root_random_postcondition():
    rng = random.Random(3)
    for _ in range(300):
        q = rng.randint(2, 7)
        x = rng.randrange(0, 10 ** rng.randint(1, 30))
        k = integer_root(x, q)
        assert k ** q <= x < (k + 1) ** q


def test_floor_pow_examples():
    c32 = RationalExponent(3, 2)
    assert floor_pow(1, c32) == 1
    assert floor_pow(1, RationalExponent(7, 4)) == 1
    assert floor_pow(4, c32) == 8  # 4^3 = 64 = 8^2 exactly
    assert floor_pow(5, c32) == 11  # isqrt(125) = 11
    assert floor_pow(8, RationalExponent(5, 3)) == 32  # exact power boundary


def test_floor_pow_monotone_sweep():
    c = RationalExponent(3, 2)
    prev = 0
    for n in range(1, 10 ** 6 + 1):
        cur = floor_pow(n, c)
        assert cur >= prev
        prev = cur
    for ctext in ("5/2", "7/4", "5/3"):
        ce = RationalExponent.parse(ctext)
        last = 0
        for n in range(1, 20001):
            cur = floor_pow(n, ce)
            assert cur >= last
            last = cur


def test_invert_floor_range_examples():
    c = RationalExponent(3, 2)
    assert invert_floor_range(8, 11, c) == (4, 5)
    assert invert_floor_range(0, 0, c) is None
    for m in (1, 2, 7, 1000, 31337):
        v = floor_pow(m, c)
        n_lo, n_hi = invert_floor_range(v, v, c)
        assert n_lo <= m <= n_hi


def test_invert_floor_range_roundtrip_random():
    rng = random.Random(9)
    for _ in range(500):
        c = RationalExponent.parse(rng.choice(("3/2", "5/2", "7/4", "5/3")))
        L = rng.randint(0, 10 ** 7)
        R = L + rng.randint(0, 10 ** 5)
        res = invert_floor_range(L, R, c)
        if res is None:
            continue
        n_lo, n_hi = res
        assert L <= floor_pow(n_lo, c) <= R
        assert L <= floor_pow(n_hi, c) <= R
        assert n_lo == 1 or floor_pow(n_lo - 1, c) < L
        assert floor_pow(n_hi + 1, c) > R


def test_invert_floor_range_matches_oracle_scan():
    # Referee: a walk over n with the 256-bit float oracle, no integer roots.
    # k^p = (k^q)^c is an exact power; a floor value at L or at R + 1 then
    # sits exactly on the window edge.
    rng = random.Random(23)
    cases = [(0, 0, "3/2"), (1, 1, "3/2"), (2, 4, "3/2"), (6, 7, "3/2")]
    for i in range(1200):
        ctext = rng.choice(SCAN_EXPONENTS)
        c = RationalExponent.parse(ctext)
        top = int((10 ** 7) ** (1 / c.p))
        kind = i % 4
        if kind == 0:
            L = rng.randint(0, 10 ** 7)
            R = L + rng.randint(0, 10 ** rng.randint(0, 4))
        elif kind == 1:
            L = rng.randint(1, top) ** c.p
            R = L + rng.randint(0, 10 ** rng.randint(0, 4))
        elif kind == 2:
            R = rng.randint(2, top) ** c.p - 1
            L = max(0, R - rng.randint(0, 10 ** rng.randint(0, 4)))
        else:  # strictly between two consecutive floor values: empty
            n = rng.randint(2, 10 ** 4)
            L, R = floor_pow(n, c) + 1, floor_pow(n + 1, c) - 1
        cases.append((L, R, ctext))
    empty = 0
    for L, R, ctext in cases:
        c = RationalExponent.parse(ctext)
        want = scan_floor_range(L, R, c)
        assert invert_floor_range(L, R, c) == want, (L, R, ctext)
        empty += want is None
    assert empty >= 300


def _pow_above(n: int, x: Fraction, c: RationalExponent) -> bool:
    """x < n^c, decided as x < 0 or x^q < n^p in Fractions."""
    return x < 0 or x ** c.q < Fraction(n) ** c.p


def _edge(data, c: RationalExponent) -> Fraction:
    """A random rational, an exact power k^p = (k^q)^c, or a rational next to k^c."""
    kind = data.draw(st.sampled_from(("random", "power", "near")))
    den = data.draw(st.integers(1, 7))
    if kind == "random":
        return Fraction(data.draw(st.integers(-10, 10 ** 6)), den)
    k = data.draw(st.integers(1, 3000))
    if kind == "power":
        return Fraction(k ** c.p)
    # floor(k^c * den) = floor((k^p * den^q)^(1/q)), nudged by a few 1/den
    return Fraction(integer_root(k ** c.p * den ** c.q, c.q) + data.draw(st.integers(-1, 2)), den)


@settings(max_examples=400, deadline=None)
@given(ctext=st.sampled_from(SCAN_EXPONENTS), data=st.data())
def test_pow_range_matches_definition(ctext, data):
    # lo < n^c <= hi, decided for each candidate n in Fractions
    c = RationalExponent.parse(ctext)
    lo, hi = _edge(data, c), _edge(data, c)
    first, last = pow_range(lo, hi, c)
    assert first >= 1 and last >= 0
    assert _pow_above(first, lo, c)
    assert first == 1 or not _pow_above(first - 1, lo, c)
    assert last == 0 or not _pow_above(last, hi, c)
    assert _pow_above(last + 1, hi, c)


def test_pow_range_exact_power_lower_edge():
    # 27 = 9^(3/2) is excluded, 211 < 36^(3/2) = 216
    assert pow_range(Fraction(27), Fraction(211), RationalExponent(3, 2)) == (10, 35)
    assert pow_range(Fraction(-3), Fraction(-1), RationalExponent(3, 2)) == (1, 0)


# A floor_pow that answers honestly except on the last call invert_floor_range
# makes, which checks floor(n_hi + 1) > R: there it reports R, as a floor_pow
# that is not monotone would.  Run as a script so it can also run under -O.
_LYING_FLOOR_POW = """
from estermann import arith
from estermann.errors import FloorInversionFailed

c, L, R = arith.RationalExponent(3, 2), 1000, 1100
honest = arith.floor_pow
calls = []
arith.floor_pow = lambda n, c: calls.append(n) or honest(n, c)
n_lo, n_hi = arith.invert_floor_range(L, R, c)
assert calls[-1] == n_hi + 1
seen = []
arith.floor_pow = lambda n, c: R if len(seen) == len(calls) - 1 else seen.append(n) or honest(n, c)
try:
    arith.invert_floor_range(L, R, c)
except FloorInversionFailed:
    print("raised")
"""


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_invert_floor_range_rejects_bad_endpoint(flags):
    src = os.path.dirname(os.path.dirname(estermann.__file__))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _LYING_FLOOR_POW],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"
