"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

The asymptotic regime itself is out of reach at desk scale (its conditions
need c above ~14 before the window threshold even applies), so these checks
are oracle- and property-based, with the trend against the main term pinned
to first-run golden values rather than proved limits.
"""

import math
import random
import time

import numpy as np

from estermann.arith import (
    RationalExponent,
    floor_pow,
    floor_pow_values,
    invert_floor_range,
    pow_range,
)
from estermann.circle import (
    exact_convolution_count,
    integrate_arcs,
    sin3_integral,
    singular_integral_J,
)
from estermann.counting import brute_force_count, fast_count
from estermann.expsums import approx_S1, approx_S_c, char_sum, eval_S1
from estermann.instance import build_instance, derive_params
from estermann.sieve import lambda_segment, pi_interval, psi
from estermann.verify import floor_pow_float_oracle, random_instances

from conftest import record_acceptance

THIRD = ("1/3", "1/3", "1/3")
EXPONENTS = ("3/2", "5/2", "7/4", "5/3")

# --- golden values pinned from the first oracle run (deterministic code
# paths; the 1% band covers platform libm variation) ---
GOLDEN_SWEEP_RATIOS = {
    10 ** 4: 1.48347682645847,
    10 ** 5: 1.23413958985923,
    10 ** 6: 1.17998187785489,
}
GOLDEN_FLOOR_SUM_MAX_DEV = 0.004563


def test_criterion_1_oracle_equivalence():
    rng = random.Random(12345)
    t0 = time.time()
    checked = 0
    for inst in random_instances(200, rng):
        b = brute_force_count(inst)
        f = fast_count(inst)
        k = exact_convolution_count(inst)
        assert b.total == f.total == k, (
            f"N={inst.N} c={inst.c} mu={inst.mu} H={inst.H}: "
            f"brute={b.total} fast={f.total} conv={k}"
        )
        assert b.per_n == f.per_n
        checked += 1
    elapsed = time.time() - t0
    ok = checked == 200 and elapsed < 60
    record_acceptance(
        "1 oracle equivalence",
        ok,
        f"{checked} instances, fast=brute=convolution, {elapsed:.1f}s (< 60s)",
    )
    assert ok


# 20 instances with N <= 1e4: sizes, exponents and proportions mixed, one
# with kappa >= 1/2 (no arc separation, full-interval integral).
_ARC_CASES = [
    (500, "3/2", THIRD, 100),
    (700, "5/3", THIRD, 90),
    (900, "3/2", ("1/4", "1/4", "1/2"), 150),
    (1200, "7/4", THIRD, 200),
    (1500, "5/2", THIRD, 250),
    (1800, "3/2", ("1/6", "1/3", "1/2"), 220),
    (2000, "3/2", THIRD, 35),  # kappa >= 1/2: degenerate split
    (2500, "5/3", THIRD, 400),
    (3000, "3/2", THIRD, 500),
    (3500, "7/4", ("1/4", "1/4", "1/2"), 450),
    (4000, "3/2", THIRD, 600),
    (4500, "5/2", THIRD, 700),
    (5000, "3/2", ("2/5", "2/5", "1/5"), 600),
    (6000, "5/3", THIRD, 800),
    (7000, "3/2", THIRD, 900),
    (8000, "7/4", THIRD, 1000),
    (9000, "3/2", ("1/6", "1/3", "1/2"), 1100),
    (10 ** 4, "3/2", THIRD, 1200),
    (10 ** 4, "5/2", THIRD, 1500),
    (10 ** 4, "3/2", ("1/4", "1/4", "1/2"), 800),
]


def test_criterion_2_arc_additivity():
    t0 = time.time()
    worst = 0.0
    for N, c, mu, H in _ARC_CASES:
        inst = build_instance(N, c, mu, H)
        rep = integrate_arcs(inst, mode="exact", tol=1e-6)
        err = abs(rep.arc_sum.real - rep.exact_total)
        worst = max(worst, err)
        assert err < 0.5, f"N={N} H={H}: arc sum misses count by {err:.3g}"
    elapsed = time.time() - t0
    ok = elapsed < 600
    record_acceptance(
        "2 orthogonality/arc additivity",
        ok,
        f"{len(_ARC_CASES)} instances, worst |error| = {worst:.2e} (< 0.5), "
        f"{elapsed:.0f}s (< 600s)",
    )
    assert ok


def test_criterion_3_singular_integral():
    T = 2000.0
    finite = sin3_integral(T)
    watson = 3 * math.pi / 8
    dev = abs(finite - watson)
    tail = 0.5 / (T * T)
    ok_watson = dev <= 1e-6 and dev <= tail + 1e-9

    L = math.log(10 ** 6)
    H = 10 ** 4
    J = singular_integral_J(H, L * L / (2 * 1.5 * H))
    rel = abs(J.value - J.reference) / J.reference
    ok_j = rel <= 0.05

    record_acceptance(
        "3 singular integral",
        ok_watson and ok_j,
        f"|quad - 3pi/8| = {dev:.2e} (tail bound {tail:.2e}); "
        f"|J - 3H^2|/3H^2 = {rel:.4f} (<= 0.05)",
    )
    assert ok_watson and ok_j


def test_criterion_4_lambda_sum_closed_form():
    t0 = time.time()
    x = 10 ** 7
    y = math.ceil(x ** 0.7)
    lam = lambda_segment(x - y + 1, x)
    a_max = x / (2 * math.pi * y * y)
    worst = 0.0
    for alpha in np.linspace(-a_max, a_max, 21):
        d = abs(
            eval_S1(float(alpha), lam)
            - approx_S1(float(alpha), float(x), float(y))
        )
        worst = max(worst, d / y)
    psi_dev = abs((psi(x) - psi(x - y)) - y) / y
    elapsed = time.time() - t0
    ok = worst <= 0.1 and psi_dev <= 0.05 and elapsed < 120
    record_acceptance(
        "4 short Lambda-sum closed form",
        ok,
        f"x=1e7 y={y}: max|eval-approx|/y = {worst:.4f} (<= 0.1), "
        f"psi-interval dev = {psi_dev:.4f} (<= 0.05), {elapsed:.0f}s (< 120s)",
    )
    assert ok


def test_criterion_5_floor_sum_closed_form():
    inst = build_instance(10 ** 6, "3/2", THIRD, 10 ** 4)
    dp = derive_params(inst)
    kappa = float(dp.kappa)
    h3 = float(dp.h3)
    center = inst.mu_N(3)
    values = floor_pow_values(*pow_range(center - inst.H, center + inst.H, inst.c), inst.c)
    worst = 0.0
    for alpha in np.linspace(-kappa, kappa, 21):
        d = abs(
            char_sum(float(alpha), values)
            - approx_S_c(float(alpha), dp, "sinc")
        )
        worst = max(worst, d / h3)
    ok = worst <= 0.15 and abs(worst - GOLDEN_FLOOR_SUM_MAX_DEV) <= 0.01 * GOLDEN_FLOOR_SUM_MAX_DEV
    record_acceptance(
        "5 floor-power sum closed form",
        ok,
        f"max|eval-sinc|/H3 = {worst:.6f} (<= 0.15, golden {GOLDEN_FLOOR_SUM_MAX_DEV} +-1%)",
    )
    assert ok


def test_criterion_6_prime_density_band():
    details = []
    ok = True
    for x in (10 ** 6, 10 ** 7, 10 ** 8):
        y = math.ceil(x ** 0.6)
        t0 = time.time()
        ratio = pi_interval(x, y) * math.log(x) / y
        elapsed = time.time() - t0
        details.append(f"x=1e{int(math.log10(x))}: ratio={ratio:.4f} ({elapsed:.1f}s)")
        ok &= 0.8 <= ratio <= 1.25
        if x == 10 ** 8:
            ok &= elapsed < 30
    record_acceptance("6 interval prime-count band", ok, "; ".join(details) + " in [0.8, 1.25]")
    assert ok


def test_criterion_7_floor_arithmetic_exactness():
    # k = floor(n^(p/q)) exactly when k^q <= n^p < (k+1)^q, in Python integers
    for ctext in EXPONENTS:
        c = RationalExponent.parse(ctext)
        for n in range(1, 10 ** 5 + 1):
            k = floor_pow(n, c)
            assert k ** c.q <= n ** c.p < (k + 1) ** c.q, f"n={n} c={ctext}"
    # the 256-bit oracle on a seeded sample per exponent
    sample_rng = random.Random(7)
    for ctext in EXPONENTS:
        c = RationalExponent.parse(ctext)
        for n in sample_rng.sample(range(1, 10 ** 5 + 1), 2000):
            assert floor_pow(n, c) == floor_pow_float_oracle(n, c), f"n={n} c={ctext}"
    rng = random.Random(777)
    trips = 0
    for _ in range(10 ** 4):
        c = RationalExponent.parse(rng.choice(EXPONENTS))
        L = rng.randint(0, 10 ** 7)
        R = L + rng.randint(0, 10 ** 5)
        res = invert_floor_range(L, R, c)
        if res is None:
            continue
        n_lo, n_hi = res
        assert L <= floor_pow(n_lo, c) <= R and L <= floor_pow(n_hi, c) <= R
        assert n_lo == 1 or floor_pow(n_lo - 1, c) < L
        assert floor_pow(n_hi + 1, c) > R
        trips += 1
    record_acceptance(
        "7 floor arithmetic exactness",
        True,
        f"floor_pow meets k^q <= n^p < (k+1)^q for n <= 1e5 x {len(EXPONENTS)} exponents "
        f"and the 256-bit oracle on 2000 of them each; "
        f"{trips} inversion round-trips",
    )


def test_criterion_8_trend_regression(tmp_path):
    from estermann.cli import main as cli_main

    out = tmp_path / "sweep.csv"
    status = cli_main(
        ["sweep", "--N-list", "10000,100000,1000000", "--c", "3/2",
         "--mu", "1/3,1/3,1/3", "--H-exponent", "0.8", "--out", str(out)]
    )
    assert status == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("N,c,H,kappa,exact_total,main_term,ratio")
    ok = True
    details = []
    for line in lines[1:]:
        parts = line.split(",")
        N, ratio = int(parts[0]), float(parts[6])
        golden = GOLDEN_SWEEP_RATIOS[N]
        ok &= math.isfinite(ratio) and ratio > 0
        ok &= abs(ratio - golden) <= 0.01 * golden
        details.append(f"N=1e{int(math.log10(N))}: ratio={ratio:.6f} (golden {golden:.6f})")
    record_acceptance("8 end-to-end trend regression", ok, "; ".join(details))
    assert ok
