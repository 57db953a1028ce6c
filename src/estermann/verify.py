"""Self-contained property suite behind the `verify` CLI command.

Each check returns (name, passed, detail).  The checks mirror the package's
cross-module contracts: oracle equivalences, the orthogonality identity,
closed-form limits, and quadrature self-tests.  They are sized to run in
well under a minute (a few seconds with --quick).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable

import mpmath as mp
import numpy as np

from .arith import RationalExponent, floor_pow, floor_pow_values, invert_floor_range
from .circle import (
    exact_convolution_count,
    integrate_arcs,
    main_term_value,
    sin3_integral,
    sine_power_integral,
    singular_integral_J,
)
from .counting import brute_force_count, fast_count
from .expsums import (
    PhaseReducer,
    approx_prime_sum,
    approx_S1,
    approx_S_c,
    char_sum,
    eval_S1,
    exp_integral,
)
from .instance import build_instance, derive_params
from .sieve import lambda_segment, primes_in, psi

Check = tuple[str, bool, str]

_EXPONENTS = ("3/2", "5/2", "7/4", "5/3")


def random_instances(count: int, rng: random.Random, n_max: int = 2000):
    """Valid random instances with N in [50, n_max], rational mu, H <= N/4."""
    made = 0
    while made < count:
        N = rng.randint(50, n_max)
        c = rng.choice(_EXPONENTS)
        d1, d2 = rng.randint(2, 9), rng.randint(2, 9)
        mu1 = Fraction(rng.randint(1, d1 - 1), 2 * d1)
        mu2 = Fraction(rng.randint(1, d2 - 1), 2 * d2)
        mu3 = 1 - mu1 - mu2
        if mu3 <= 0:
            continue
        H = rng.randint(1, max(N // 4, 1))
        try:
            inst = build_instance(N, c, (mu1, mu2, mu3), H)
        except Exception:
            continue
        made += 1
        yield inst


def floor_pow_float_oracle(n: int, c: RationalExponent) -> int:
    """floor(n^c) via 256-bit floats, with the exact-power boundary nudged.

    When n^c is exactly an integer (n a perfect q-th power), the 256-bit
    value can round just below it; a nudge of 2^-200 is far above the power
    error and far below the closest a non-integer n^c can sit to an integer.
    """
    with mp.workprec(256):
        x = mp.exp(mp.mpf(c.p) / mp.mpf(c.q) * mp.log(n))
        return int(mp.floor(x + mp.mpf(2) ** -200))


def scan_floor_range(L: int, R: int, c: RationalExponent):
    """invert_floor_range's answer by walking n with floor_pow_float_oracle.

    The walk starts a little below the float estimate of L^(1/c), steps down
    until floor(n^c) < L holds just before it, then steps up through the
    range.  It shares no integer root with the code it checks.
    """
    oracle = floor_pow_float_oracle
    n = max(1, int(max(L, 1) ** (c.q / c.p)) - 2)
    while n > 1 and oracle(n - 1, c) >= L:
        n -= 1
    while oracle(n, c) < L:
        n += 1
    first = n
    while oracle(n, c) <= R:
        n += 1
    return (first, n - 1) if n > first else None


def check_floor_pow_oracle(quick: bool) -> Check:
    limit = 2000 if quick else 20000
    for ctext in _EXPONENTS:
        c = RationalExponent.parse(ctext)
        for n in range(1, limit + 1):
            want = floor_pow_float_oracle(n, c)
            got = floor_pow(n, c)
            if got != want:
                return ("floor_pow_oracle", False, f"n={n} c={ctext}: {got} != {want}")
    return ("floor_pow_oracle", True, f"matches 256-bit floors for n <= {limit}")


def check_floor_inversion(quick: bool) -> Check:
    rng = random.Random(7)
    trials = 200 if quick else 2000
    for _ in range(trials):
        c = RationalExponent.parse(rng.choice(_EXPONENTS))
        L = rng.randint(0, 10 ** 6)
        R = L + rng.randint(0, 10 ** 4)
        res = invert_floor_range(L, R, c)
        want = scan_floor_range(L, R, c)
        if res != want:
            return ("floor_inversion", False, f"L={L} R={R} c={c}: {res} != scan {want}")
    return ("floor_inversion", True, f"{trials} random ranges round-trip")


def check_sieve_oracle(quick: bool) -> Check:
    limit = 2000 if quick else 10000

    def trial_division(n: int) -> bool:
        if n < 2:
            return False
        for d in range(2, math.isqrt(n) + 1):
            if n % d == 0:
                return False
        return True

    got = set(int(p) for p in primes_in(1, limit))
    want = {n for n in range(1, limit + 1) if trial_division(n)}
    if got != want:
        return ("sieve_oracle", False, f"mismatch vs trial division below {limit}")
    a, b, cpt = 100, 10 ** 4, 4321
    joined = np.concatenate([primes_in(a, cpt), primes_in(cpt + 1, b)])
    if not np.array_equal(joined, primes_in(a, b)):
        return ("sieve_oracle", False, "segment split changed the prime set")
    return ("sieve_oracle", True, f"trial division agrees below {limit}; splits merge")


def check_psi_identity(quick: bool) -> Check:
    x, y = (5000, 1500) if quick else (200000, 60000)
    lhs = psi(x) - psi(x - y)
    rhs = math.fsum(w for _, w in lambda_segment(x - y + 1, x))
    rel = abs(lhs - rhs) / max(abs(rhs), 1.0)
    return ("psi_identity", rel <= 1e-9, f"psi({x})-psi({x-y}) vs segment sum: rel={rel:.2e}")


def check_counting_oracle(quick: bool) -> Check:
    rng = random.Random(11)
    count = 8 if quick else 40
    for inst in random_instances(count, rng):
        b = brute_force_count(inst)
        f = fast_count(inst)
        k = exact_convolution_count(inst)
        if not (b.total == f.total == k and b.per_n == f.per_n):
            return (
                "counting_oracle",
                False,
                f"N={inst.N} c={inst.c} H={inst.H}: brute={b.total} fast={f.total} conv={k}",
            )
    return ("counting_oracle", True, f"{count} random instances agree across all three paths")


def check_count_symmetry(quick: bool) -> Check:
    rng = random.Random(13)
    count = 5 if quick else 20
    for inst in random_instances(count, rng, n_max=1200):
        swapped = build_instance(inst.N, inst.c, (inst.mu[1], inst.mu[0], inst.mu[2]), inst.H)
        if fast_count(inst).total != fast_count(swapped).total:
            return ("count_symmetry", False, f"mu swap changed total at N={inst.N}")
    return ("count_symmetry", True, "mu1<->mu2 swap leaves totals unchanged")


def check_orthogonality(quick: bool) -> Check:
    cases = [(500, 100)] if quick else [(500, 100), (2000, 300), (4000, 500)]
    for N, H in cases:
        inst = build_instance(N, "3/2", ("1/3", "1/3", "1/3"), H)
        rep = integrate_arcs(inst, mode="exact", tol=1e-6)
        if rep.additivity_error >= 0.5:
            return (
                "orthogonality",
                False,
                f"N={N} H={H}: arc sum off by {rep.additivity_error:.3g}",
            )
    return ("orthogonality", True, f"{len(cases)} exact-mode arc sums round to the count")


def check_sinc_limits(quick: bool) -> Check:
    inst = build_instance(10 ** 6, "3/2", ("1/3", "1/3", "1/3"), 10 ** 4)
    dp = derive_params(inst)
    h3 = float(dp.h3)
    z0 = approx_S_c(0.0, dp, inst.c, form="sinc")
    zi = approx_S_c(0.0, dp, inst.c, form="integral")
    first_zero = approx_S_c(1.0 / (2 * inst.H), dp, inst.c, form="sinc")
    s1_zero = approx_S1(1.0 / 1000.0, 10 ** 6, 1000.0)
    p0 = approx_prime_sum(0.0, float(dp.n1), inst.H, inst.mu[0], inst.N)
    ok = (
        abs(z0 - h3) <= 1e-12 * h3
        and abs(zi - h3) <= 1e-12 * h3
        and abs(first_zero.real) <= 1e-12 * h3
        and abs(s1_zero) <= 1e-9 * 1000.0
        and abs(p0 - 2 * inst.H / math.log(inst.mu_N(1))) <= 1e-12 * inst.H
    )
    return ("sinc_limits", ok, "closed forms hit their alpha=0 and first-zero values")


def check_quadrature_selftest(quick: bool) -> Check:
    alpha, a, b = 0.0321, 2.0, 17.0
    closed = (np.exp(2j * np.pi * alpha * b) - np.exp(2j * np.pi * alpha * a)) / (
        2j * np.pi * alpha
    )
    got = exp_integral(alpha, a, b, 0.0)
    if abs(got - closed) > 1e-10 * (b - a):
        return ("quadrature_selftest", False, f"linear kernel off by {abs(got - closed):.2e}")
    watson = sine_power_integral(3)
    finite = sin3_integral(2000.0)
    if abs(finite - watson) > 1e-6:
        return ("quadrature_selftest", False, f"sin^3 integral off by {abs(finite - watson):.2e}")
    L = math.log(10 ** 6)
    J = singular_integral_J(10 ** 4, L * L / (3.0 * 10 ** 4))
    if abs(J.value - J.reference) > 0.05 * J.reference:
        return ("quadrature_selftest", False, f"J(H) off: {J.value:.6g} vs {J.reference:.6g}")
    return ("quadrature_selftest", True, "linear kernel, sin^3 tail, and J(H) within bands")


def check_symmetry_periodicity(quick: bool) -> Check:
    values = floor_pow_values(3101, 4000, RationalExponent(3, 2))
    for j in (3, 17, 101):
        M = 1024
        plus = char_sum(j / M, values, reducer=PhaseReducer(0, (j, M)))
        minus = char_sum(-j / M, values, reducer=PhaseReducer(0, (-j, M)))
        per = char_sum((j + M) / M, values, reducer=PhaseReducer(0, (j + M, M)))
        if abs(minus - plus.conjugate()) > 1e-12 * max(abs(plus), 1.0):
            return ("symmetry_periodicity", False, f"conjugate symmetry broken at j={j}")
        if abs(per - plus) > 1e-12 * max(abs(plus), 1.0):
            return ("symmetry_periodicity", False, f"periodicity broken at j={j}")
    return ("symmetry_periodicity", True, "conjugation and period-1 hold on the rational grid")


def check_phase_reducer(quick: bool) -> Check:
    # Desk-scale v: for non-dyadic M the float path reduces the nearest
    # double to j/M, so agreement degrades like v * ulp(alpha) beyond ~1e7.
    rng = random.Random(17)
    v = np.array([rng.randrange(1, 10 ** 7) for _ in range(500)], dtype=np.int64)
    v_huge = np.array([rng.randrange(1, 10 ** 12) for _ in range(500)], dtype=np.int64)
    for M in (1 << 20, 1 << 30, 10 ** 6 + 3):
        j = rng.randrange(1, M)
        dyadic = M & (M - 1) == 0
        vs = v_huge if dyadic else v  # dyadic alphas are exact floats
        exact = PhaseReducer(0, (j, M)).frac(vs)
        floated = PhaseReducer(j / M).frac(vs)
        diff = np.abs(exact - floated)
        diff = np.minimum(diff, 1.0 - diff)  # mod-1 distance
        if diff.max() > 1e-9:
            return ("phase_reducer", False, f"M={M}: paths differ by {diff.max():.2e}")
    return ("phase_reducer", True, "rational and float paths agree to 1e-9 mod 1")


def check_main_term(quick: bool) -> Check:
    inst = build_instance(10 ** 6, "3/2", ("1/3", "1/3", "1/3"), 10 ** 4)
    got = main_term_value(inst)
    with mp.workprec(200):
        L = mp.log(10 ** 6)
        want = 3 * mp.mpf(10 ** 4) ** 2 / (mp.mpf(1.5) * (mp.mpf(10 ** 6) / 3) ** mp.mpf(1 / 3) * L * L)
        rel = abs(got - float(want)) / float(want)
    return ("main_term", rel <= 1e-12, f"vs 200-bit oracle: rel={rel:.2e}")


def check_prime_sum_vs_eval(quick: bool) -> Check:
    # eval vs closed form inside the near-zero range where the form is valid
    N, H = 10 ** 6, 10 ** 4
    inst = build_instance(N, "3/2", ("1/3", "1/3", "1/3"), H)
    dp = derive_params(inst)
    top1 = math.floor(inst.mu_N(1) + H)
    prim = primes_in(top1 - 2 * H + 1, top1)
    alpha = float(dp.kappa) / 3.0
    direct = char_sum(alpha, prim)
    model = approx_prime_sum(alpha, float(dp.n1), H, inst.mu[0], N)
    bound = 0.5 * 2 * H / math.log(N)
    return (
        "prime_sum_vs_eval",
        abs(direct - model) <= bound,
        f"|direct-model|={abs(direct - model):.1f} bound={bound:.1f}",
    )


def check_s1_vs_closed_form(quick: bool) -> Check:
    x = 10 ** 5 if quick else 10 ** 6
    y = math.ceil(x ** 0.7)
    lam = lambda_segment(x - y + 1, x)
    alpha = x / (4 * math.pi * y * y)
    direct = eval_S1(alpha, lam)
    model = approx_S1(alpha, float(x), float(y))
    rel = abs(direct - model) / y
    return ("s1_vs_closed_form", rel <= 0.1, f"|eval-approx|/y = {rel:.3f} at x={x}")


ALL_CHECKS: list[Callable[[bool], Check]] = [
    check_floor_pow_oracle,
    check_floor_inversion,
    check_sieve_oracle,
    check_psi_identity,
    check_counting_oracle,
    check_count_symmetry,
    check_orthogonality,
    check_sinc_limits,
    check_quadrature_selftest,
    check_symmetry_periodicity,
    check_phase_reducer,
    check_main_term,
    check_prime_sum_vs_eval,
    check_s1_vs_closed_form,
]


def run_verify(quick: bool = False, printer=print) -> bool:
    """Run the property suite; prints one PASS/FAIL line per check."""
    all_ok = True
    for fn in ALL_CHECKS:
        name, ok, detail = fn(quick)
        all_ok &= ok
        printer(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    printer(f"verify: {'all checks passed' if all_ok else 'FAILURES PRESENT'}")
    return all_ok
