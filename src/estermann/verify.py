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
    sine_integral,
    sine_power_integral,
    singular_integral_J,
)
from .counting import brute_force_count, fast_count
from .errors import EstermannError
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
from .quadrature import (
    _BAND_RULES, adaptive_complex, gauss_error_bound, leggauss, panel_edges,
)
from .sieve import lambda_segment, primes_in, psi, segmented_primes

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
        except (EstermannError, ValueError):  # a draw that is no valid instance
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
    # primes_in read everything above from the prime table; the segmented
    # sieve, which serves larger windows, must agree with it
    a, b = 10 ** 6, 10 ** 6 + (5000 if quick else 40000)
    if not np.array_equal(segmented_primes(a, b), primes_in(a, b)):
        return ("sieve_oracle", False, f"segmented sieve differs from the table on [{a}, {b}]")
    return (
        "sieve_oracle",
        True,
        f"trial division agrees below {limit}; splits merge; "
        f"segmented sieve equals the table on [{a}, {b}]",
    )


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
    # mu1 = mu2 sums the shared prime window once; mu1 != mu2 sums all three
    third, apart = ("1/3", "1/3", "1/3"), ("2/5", "1/5", "2/5")
    cases = [(500, third, 100), (1000, apart, 150)]
    if not quick:
        cases += [(2000, third, 300), (4000, third, 500)]
    for N, mu, H in cases:
        inst = build_instance(N, "3/2", mu, H)
        rep = integrate_arcs(inst, mode="exact", tol=1e-6)
        if rep.additivity_error >= 0.5:
            return (
                "orthogonality",
                False,
                f"N={N} mu={','.join(mu)} H={H}: arc sum off by {rep.additivity_error:.3g}",
            )
    return ("orthogonality", True, f"{len(cases)} exact-mode arc sums round to the count")


def check_sinc_limits(quick: bool) -> Check:
    inst = build_instance(10 ** 6, "3/2", ("1/3", "1/3", "1/3"), 10 ** 4)
    dp = derive_params(inst)
    h3 = dp.h3
    z0 = approx_S_c(0.0, dp, "sinc")
    zi = approx_S_c(0.0, dp, "integral")
    first_zero = approx_S_c(1.0 / (2 * inst.H), dp, "sinc")
    s1_zero = approx_S1(1.0 / 1000.0, 10 ** 6, 1000)
    p0 = approx_prime_sum(0.0, inst.H, inst.mu[0], inst.N)
    ok = (
        abs(z0 - h3) <= 1e-12 * h3
        and abs(zi - h3) <= 1e-12 * h3
        and abs(first_zero.real) <= 1e-12 * h3
        and abs(s1_zero) <= 1e-9 * 1000.0
        and abs(p0 - 2 * inst.H / math.log(inst.mu_N(1))) <= 1e-12 * inst.H
    )
    return ("sinc_limits", ok, "closed forms hit their alpha=0 and first-zero values")


def _exp_segment(k: np.ndarray, a: float, b: float) -> np.ndarray:
    """The integral of e(k t) dt over [a, b] for each frequency k, in closed form."""
    turns = np.where(k == 0, 1, k)
    ends = np.exp(2j * np.pi * k * b) - np.exp(2j * np.pi * k * a)
    return np.where(k == 0, b - a, ends / (2j * np.pi * turns))


def check_quadrature_selftest(quick: bool) -> Check:
    alpha, a, b = 0.0321, 2.0, 17.0
    closed = _exp_segment(np.array(alpha), a, b)
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
    # Each band rule row's proven Gauss bound against the closed form of a
    # seeded non-negative trigonometric polynomial weighted to its top
    # frequency F, on panels 8 and 10 periods past the row's own, where the
    # rule's error is far above rounding (the allowance is 1e-14 of
    # sup * width); then the band rule as integrate_arcs runs it, one rule
    # per panel of the row's length over a run of six panels, within its
    # proven bound plus the same allowance.  Exact-mode additivity, the check
    # that covers the integrand's rounding, is the orthogonality check.
    rng = random.Random(19)
    F = 40
    ks = np.arange(-F, F + 1)
    coeffs = np.array([rng.random() * (1.0 if abs(k) >= F - 2 else 0.01) for k in ks.tolist()])
    sup = float(coeffs.sum())
    f = lambda t: np.exp(2j * np.pi * np.multiply.outer(t, ks)) @ coeffs
    for order, periods in _BAND_RULES:
        x, w = leggauss(order)
        for past in (8, 10):
            width = (periods + past) / F
            a = rng.random()
            rule = 0.5 * width * np.sum(w * f(a + 0.5 * width * (x + 1.0)))
            closed = _exp_segment(ks, a, a + width) @ coeffs
            err, bound = abs(rule - closed), float(gauss_error_bound(width, F, sup, order))
            if not err <= bound + 1e-14 * sup * width:
                return ("quadrature_selftest", False,
                        f"order-{order} Gauss error {err:.3g} above its proven bound "
                        f"{bound:.3g} at {periods + past} periods")
        a = rng.random() - 0.5
        b = a + 6 * periods / F
        value, achieved, _ = adaptive_complex(
            f, panel_edges(a, b, F, periods), 1e-10 * sup * (b - a), order=order,
            band=(F, sup),
        )
        err = abs(value - _exp_segment(ks, a, b) @ coeffs)
        if not err <= achieved + 1e-14 * sup * (b - a):
            return ("quadrature_selftest", False,
                    f"order-{order} band rule on {periods}-period panels off by {err:.3g}, "
                    f"above its bound {achieved:.3g}")
    rows = ", ".join(f"{order}/{periods}" for order, periods in _BAND_RULES)
    return ("quadrature_selftest", True,
            f"linear kernel, sin^3 tail, J(H) within bands; each band rule (order/periods "
            f"{rows}) within its proven bound 8 and 10 periods past its panels and on them")


def check_si_oracle(quick: bool) -> Check:
    # sine_integral against mpmath's Si at 30 digits on 21 points from 1e-4
    # to 1e6: Si to 4 ulp, and Si - pi/2 to 1e-16 beyond the series range
    eps = np.finfo(float).eps
    with mp.workdps(30):
        for x in np.geomspace(1e-4, 1e6, 21).tolist():
            si, shifted = sine_integral(x)
            want = mp.si(x)
            if abs(si - float(want)) > 4 * eps * float(want):
                return ("si_oracle", False, f"Si({x:.6g}) = {si!r}, mpmath {float(want)!r}")
            if x > 2.0 and abs(shifted - float(want - mp.pi / 2)) > 1e-16:
                return ("si_oracle", False, f"Si({x:.6g}) - pi/2 off by more than 1e-16")
    return ("si_oracle", True, "Si within 4 ulp and Si - pi/2 within 1e-16 of mpmath")


def check_symmetry_periodicity(quick: bool) -> Check:
    values = floor_pow_values(3101, 4000, RationalExponent(3, 2))
    for j in (3, 17, 101):
        # j/1024 is an exact double, so alpha and alpha + 1 reduce alike
        plus = char_sum(j / 1024, values)
        minus = char_sum(-j / 1024, values)
        per = char_sum((j + 1024) / 1024, values)
        if abs(minus - plus.conjugate()) > 1e-12 * max(abs(plus), 1.0):
            return ("symmetry_periodicity", False, f"conjugate symmetry broken at j={j}")
        if abs(per - plus) > 1e-12 * max(abs(plus), 1.0):
            return ("symmetry_periodicity", False, f"periodicity broken at j={j}")
    return ("symmetry_periodicity", True, "conjugation and period-1 hold on the dyadic grid")


def check_phase_reducer(quick: bool) -> Check:
    # The oracle reduces the double alpha = num/den in Python integers and
    # measures the distance in Fractions; it shares no code with the uint64
    # wraparound it checks.  1.5 * 2^-52 is PhaseReducer's stated bound.
    rng = random.Random(17)
    worst = Fraction(0)
    for _ in range(20):
        alpha = rng.uniform(-2.0, 2.0) * 2.0 ** -rng.randrange(60)
        v = [rng.randrange(1 << rng.randrange(1, 63)) for _ in range(50)]
        got = PhaseReducer(alpha).frac(np.array(v, dtype=np.int64))
        if not np.all((got >= 0) & (got < 1)):
            return ("phase_reducer", False, f"alpha={alpha!r}: result outside [0, 1)")
        num, den = alpha.as_integer_ratio()
        for g, x in zip(got.tolist(), v):
            d = Fraction(g) - Fraction(num * x % den, den)
            worst = max(worst, abs(d - round(d)))
    worst_ulps = float(worst * 2 ** 52)
    return (
        "phase_reducer",
        worst_ulps < 1.5,
        f"within {worst_ulps:.2f} * 2^-52 turn of the exact reduction",
    )


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
    alpha = dp.kappa / 3.0
    direct = char_sum(alpha, prim)
    model = approx_prime_sum(alpha, H, inst.mu[0], N)
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
    model = approx_S1(alpha, x, y)
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
    check_si_oracle,
    check_symmetry_periodicity,
    check_phase_reducer,
    check_main_term,
    check_prime_sum_vs_eval,
    check_s1_vs_closed_form,
]


def run_verify(quick: bool = False) -> bool:
    """Run the property suite; prints one PASS/FAIL line per check."""
    all_ok = True
    for fn in ALL_CHECKS:
        name, ok, detail = fn(quick)
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    print(f"verify: {'all checks passed' if all_ok else 'FAILURES PRESENT'}")
    return all_ok
