import math
import random
from fractions import Fraction

import io
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from estermann.arith import RationalExponent, floor_pow_values, pow_range
from estermann.errors import ToleranceNotMet
from estermann.expsums import (
    PhaseReducer,
    approx_prime_sum,
    approx_S1,
    approx_S_c,
    char_sum,
    eval_S1,
    exp_integral,
    oscillatory_integral,
    sinc,
)
from estermann.cli import main
from estermann.instance import build_instance, derive_params
from estermann.sieve import lambda_segment, primes_in

C32 = RationalExponent(3, 2)


# ---------------------------------------------------------------- reducer


def test_phase_reducer_rational_exact():
    r = PhaseReducer(0, (3, 8))
    v = np.array([1, 2, 3, 4, 8, 10 ** 12], dtype=np.int64)
    got = r.frac(v)
    want = [(3 * int(x) % 8) / 8 for x in v]
    assert np.allclose(got, want, atol=0)


def test_phase_reducer_float_matches_bigint():
    rng = random.Random(4)
    for _ in range(50):
        alpha = rng.uniform(1e-6, 0.5)
        r = PhaseReducer(alpha)
        v = np.array([rng.randrange(1, 10 ** 14) for _ in range(40)], dtype=np.int64)
        got = r.frac(v)
        num, den = alpha.as_integer_ratio()
        want = np.array([((num * int(x)) % den) / den for x in v])
        diff = np.abs(got - want)
        assert np.minimum(diff, 1 - diff).max() <= 1e-12


def test_phase_reducer_fraction():
    r = PhaseReducer(0.25)
    assert r.frac_fraction(Fraction(10, 3)) == pytest.approx((0.25 * 10 / 3) % 1.0, abs=1e-15)
    rr = PhaseReducer(0, (1, 3))
    assert rr.frac_fraction(Fraction(9, 2)) == pytest.approx(0.5, abs=1e-15)


def test_sinc_series_branch():
    assert sinc(0.0) == 1.0
    z = 1e-5
    assert sinc(z) == pytest.approx(math.sin(z) / z, abs=5e-16)
    assert sinc(math.pi) == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------- direct sums


def test_eval_S_c_hand_values():
    values = floor_pow_values(3, 5, C32)
    assert char_sum(0.0, values) == pytest.approx(3 + 0j)
    assert char_sum(1.0, values) == pytest.approx(3 + 0j, abs=1e-12)
    # n = 3,4,5 -> v = 5,8,11: e(5/2)+e(4)+e(11/2) = -1
    assert char_sum(0.5, values) == pytest.approx(-1 + 0j, abs=1e-12)


def test_eval_S1_hand_values():
    assert eval_S1(0.0, lambda_segment(3, 4)) == pytest.approx(
        math.log(2) + math.log(3), abs=1e-12
    )
    got = eval_S1(0.5, lambda_segment(3, 4))
    assert got == pytest.approx(math.log(2) - math.log(3), abs=1e-12)
    assert eval_S1(0.0, lambda_segment(2, 10)).real == pytest.approx(
        3 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7), abs=1e-12
    )


def test_eval_prime_sum_hand_values():
    assert char_sum(0.0, primes_in(3, 6)) == pytest.approx(2 + 0j)
    assert char_sum(0.5, primes_in(3, 6)) == pytest.approx(-2 + 0j, abs=1e-12)


def test_magnitude_bounds():
    values = floor_pow_values(3101, 4000, C32)
    lam = lambda_segment(3101, 4000)
    primes = primes_in(3101, 4000)
    psi_mass = math.fsum(w for _, w in lam)
    for alpha in (0.01, 0.1, 0.37, 0.499):
        assert abs(char_sum(alpha, values)) <= len(values) + 1e-9
        assert abs(eval_S1(alpha, lam)) <= psi_mass + 1e-9
        assert abs(char_sum(alpha, primes)) <= len(primes) + 1e-9


def test_conjugate_symmetry_float_path():
    values = floor_pow_values(3101, 4000, C32)
    for alpha in (0.013, 0.21, 0.49):
        plus = char_sum(alpha, values)
        minus = char_sum(-alpha, values)
        assert abs(minus - plus.conjugate()) <= 1e-12 * max(abs(plus), 1.0)


def test_periodicity_rational_grid_exact():
    values = floor_pow_values(3101, 4000, C32)
    M = 2048
    for j in (5, 333, 1023):
        a = char_sum(0, values, reducer=PhaseReducer(0, (j, M)))
        b = char_sum(0, values, reducer=PhaseReducer(0, (j + M, M)))
        assert a == b  # bit-identical: reduction is exact integer arithmetic


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(1, 60),
    H=st.integers(1, 5000),
    mu=st.sampled_from(("1/3,1/3,1/3", "1/4,1/4,1/2", "1/6,1/2,1/3")),
)
@example(k=3, H=92, mu="1/3,1/3,1/3")  # mu3*N - H = 27 = 9^(3/2)
def test_sc_range_at_perfect_cube_lower_edge(k, H, mu):
    # mu3*N - H = k^3 = (k^2)^(3/2): the S_c points are n = k^2 + 1, ...,
    # up to the largest n with n^3 <= (mu3*N + H)^2, so at alpha = 0 the
    # sum is that n minus k^2
    mu3 = Fraction(mu.rsplit(",", 1)[1])
    center = k ** 3 + H
    N = center / mu3
    if N.denominator != 1 or H > min(Fraction(m) for m in mu.split(",")) * N:
        return
    top = (center + H) ** 2
    last = int(round(top ** (1 / 3)))
    while last ** 3 > top:
        last -= 1
    while (last + 1) ** 3 <= top:
        last += 1
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = main(["expsum", "--N", str(N.numerator), "--c", "3/2", "--mu", mu,
                       "--H", str(H), "--kind", "Sc", "--alpha-grid", "0:0:1"])
    assert status == 0
    assert buf.getvalue().splitlines()[1] == f"0,{last - k * k},0,{last - k * k}"


# ---------------------------------------------------------------- quadrature


def test_exp_integral_linear_closed_form():
    for alpha in (1e-4, 0.02, 0.9, 7.3):
        a, b = 1.0, 23.0
        closed = (np.exp(2j * np.pi * alpha * b) - np.exp(2j * np.pi * alpha * a)) / (
            2j * np.pi * alpha
        )
        assert abs(exp_integral(alpha, a, b, 0.0) - closed) <= 1e-10 * (b - a)


def test_oscillatory_integral_alpha0():
    assert oscillatory_integral(0.0, 100.0, 200.0, C32) == 100.0


def test_oscillatory_integral_vs_rectangle_oracle():
    alpha, a, b = 1e-3, 100.0, 200.0
    t = np.linspace(a, b, 10 ** 7 + 1)
    mid = 0.5 * (t[1:] + t[:-1])
    oracle = np.sum(np.exp(2j * np.pi * alpha * mid ** 1.5)) * (b - a) / 10 ** 7
    got = oscillatory_integral(alpha, a, b, C32)
    assert abs(got - oracle) <= 1e-8
    # frozen from the rectangle oracle's first run
    assert got.real == pytest.approx(-6.1384905508, abs=1e-6)
    assert got.imag == pytest.approx(7.0855427991, abs=1e-6)


def test_oscillatory_integral_rejects_bad_interval():
    with pytest.raises(ValueError):
        oscillatory_integral(0.1, 0.0, 5.0, C32)


def test_tolerance_not_met_carries_achieved():
    from estermann.quadrature import adaptive_complex, uniform_edges

    f = lambda x: np.exp(2j * np.pi * 50.0 * x)
    with pytest.raises(ToleranceNotMet) as info:
        adaptive_complex(f, uniform_edges(0.0, 1.0, 4), 1e-300, order=8, max_depth=3)
    assert info.value.achieved > 0
    with pytest.raises(ToleranceNotMet) as info2:
        adaptive_complex(f, uniform_edges(0.0, 1.0, 4), 1e-300, order=8, eval_budget=50)
    assert info2.value.achieved == float("inf")


# ---------------------------------------------------------------- closed forms

DESK = build_instance(10 ** 6, "3/2", ("1/3", "1/3", "1/3"), 10 ** 4)
DESK_DP = derive_params(DESK)


def test_approx_S_c_alpha0_both_forms():
    h3 = float(DESK_DP.h3)
    assert approx_S_c(0.0, DESK_DP, DESK.c, "sinc") == complex(h3)
    assert approx_S_c(0.0, DESK_DP, DESK.c, "integral") == complex(h3)


def test_approx_S_c_first_sinc_zero():
    h3 = float(DESK_DP.h3)
    z = approx_S_c(1.0 / (2 * DESK.H), DESK_DP, DESK.c, "sinc")
    assert abs(z.real) <= 1e-12 * h3
    assert abs(z) <= 1e-12 * h3


def test_approx_S_c_integral_vs_sinc_form():
    alpha = float(DESK_DP.kappa) / 2
    a = approx_S_c(alpha, DESK_DP, DESK.c, "integral")
    b = approx_S_c(alpha, DESK_DP, DESK.c, "sinc")
    assert abs(a - b) <= 0.05 * float(DESK_DP.h3)


def test_approx_S_c_unknown_form():
    with pytest.raises(ValueError):
        approx_S_c(0.1, DESK_DP, DESK.c, "nope")


def test_approx_S1_limits_and_zero():
    assert approx_S1(0.0, 100.0, 7.0) == complex(7.0)
    assert abs(approx_S1(1.0 / 7.0, 100.0, 7.0)) <= 1e-12 * 7.0


def test_approx_S1_vs_eval_inside_range():
    x = 10 ** 7
    y = math.ceil(x ** 0.7)
    lam = lambda_segment(x - y + 1, x)
    alpha = x / (4 * math.pi * y * y)
    direct = eval_S1(alpha, lam)
    model = approx_S1(alpha, float(x), float(y))
    assert abs(direct - model) / y <= 0.1


def test_approx_prime_sum_limit_and_bound():
    mu = Fraction(1, 3)
    n1 = float(DESK_DP.n1)
    limit = approx_prime_sum(0.0, n1, DESK.H, mu, DESK.N)
    assert limit == complex(2 * DESK.H / math.log(mu * DESK.N))
    for alpha in np.linspace(-0.5, 0.5, 41):
        z = approx_prime_sum(float(alpha), n1, DESK.H, mu, DESK.N)
        assert abs(z) <= abs(limit) + 1e-9


def test_approx_prime_sum_vs_eval_large_window():
    # window near 1e8/3 with H=1e6, alpha = kappa/3: closed form tracks the
    # sieved sum within a tenth of the trivial 2H/ln N scale
    N, H = 10 ** 8, 10 ** 6
    inst = build_instance(N, "3/2", ("1/3", "1/3", "1/3"), H)
    dp = derive_params(inst)
    n1 = float(dp.n1)
    prim = primes_in(int(n1) - 2 * H + 1, int(n1))
    alpha = float(dp.kappa) / 3.0
    direct = char_sum(alpha, prim)
    model = approx_prime_sum(alpha, n1, H, Fraction(1, 3), N)
    assert abs(direct - model) <= 0.1 * 2 * H / math.log(N)


def test_eval_S_c_matches_sinc_on_major_arc():
    # 21-point scan of the desk instance; bound mirrors the acceptance band
    kappa = float(DESK_DP.kappa)
    h3 = float(DESK_DP.h3)
    center = DESK.mu_N(3)
    values = floor_pow_values(*pow_range(center - DESK.H, center + DESK.H, DESK.c), DESK.c)
    worst = 0.0
    for alpha in np.linspace(-kappa, kappa, 21):
        d = abs(
            char_sum(float(alpha), values)
            - approx_S_c(float(alpha), DESK_DP, DESK.c, "sinc")
        )
        worst = max(worst, d / h3)
    assert worst <= 0.15
