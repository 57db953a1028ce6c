import cmath
import math
import random
from fractions import Fraction

import io
from contextlib import redirect_stdout

import mpmath as mp
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
    sinc,
)
from estermann.cli import main
from estermann.instance import build_instance, derive_params
from estermann import quadrature
from estermann.quadrature import adaptive_complex
from estermann.sieve import lambda_segment, primes_in

C32 = RationalExponent(3, 2)


# ---------------------------------------------------------------- reducer


def test_phase_reducer_rational_exact():
    r = PhaseReducer(3 / 8)
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


def _assert_within_2_52(alpha: float, v: list[int], ulps: Fraction = Fraction(1)) -> None:
    # distance mod 1, in exact rationals, from frac of the double alpha times v
    got = PhaseReducer(alpha).frac(np.array(v, dtype=np.int64))
    assert np.all((got >= 0) & (got < 1))
    num, den = alpha.as_integer_ratio()
    for g, x in zip(got.tolist(), v):
        d = Fraction(g) - Fraction(num * x % den, den)
        assert abs(d - round(d)) <= ulps / 2 ** 52, (alpha, x, g)


def test_phase_reducer_within_2_52_of_exact():
    rng = random.Random(52)
    # alpha * max(v) just under 2^20: a plain double product is off by ~2^-33
    for alpha in (0.3, 0.123456789, 1 / 3, 0.4999):
        top = int(2 ** 20 / alpha)
        _assert_within_2_52(alpha, [top - rng.randrange(1000) for _ in range(500)])
    # a small alpha whose rest term reaches 1/4 turn near v = 2^62
    _assert_within_2_52(1e-12, [2 ** 62 - rng.randrange(2 ** 40) for _ in range(500)])
    # negative alpha and alpha > 1
    for alpha in (-0.3, -1e-7, 7.3, 1.0 + 2 ** -40):
        _assert_within_2_52(alpha, [rng.randrange(2 ** 62) for _ in range(500)])
    # (m*v) mod 2^64 = 2^64 - 1 rounds to 2^64 as a double; the result stays below 1
    _assert_within_2_52((2 ** 53 - 1) / 2 ** 64, [2 ** 53 + 1])


def test_phase_reducer_negative_integers():
    # v is read as its two's complement v + 2^64, a whole number of turns of
    # the m/2^64 part away, and rest*v is negative: still frac(alpha v)
    rng = random.Random(7)
    for alpha in (0.3, 1 / 3, 0.4999, -0.123456789, 1e-12):
        v = [-rng.randrange(1, 2 ** 62) for _ in range(200)] + [-1, -(2 ** 53) - 1]
        _assert_within_2_52(alpha, v)
        got = PhaseReducer(alpha).frac(np.array(v, dtype=np.int64))
        want = [float(Fraction(alpha) * x % 1) for x in v]
        diff = np.abs(got - np.array(want))
        assert np.minimum(diff, 1 - diff).max() <= 2.0 ** -51


def test_phase_reducer_fraction():
    r = PhaseReducer(0.25)
    assert r.frac_fraction(Fraction(10, 3)) == pytest.approx((0.25 * 10 / 3) % 1.0, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(-0.5, 0.5) | st.floats(-1e-15, 1e-15),
    num=st.integers(-10 ** 12, 10 ** 12),
    den=st.integers(1, 10 ** 6),
)
@example(alpha=-1e-17, num=1, den=2)  # alpha * x in (-2^-54, 0) rounded up to 1.0
@example(alpha=0.5 - 2.0 ** -54, num=-1, den=1)
def test_phase_reducer_fraction_in_unit_interval(alpha, num, den):
    x = Fraction(num, den)
    got = PhaseReducer(alpha).frac_fraction(x)
    assert 0.0 <= got < 1.0
    want = Fraction(alpha) * x % 1
    diff = abs(Fraction(got) - want)
    assert min(diff, 1 - diff) <= 2.0 ** -54


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(-0.5, 0.5) | st.floats(-1e-15, 1e-15),
    v=st.lists(st.integers(-(2 ** 62), 2 ** 62) | st.integers(-1000, 1000),
               min_size=1, max_size=20),
)
@example(alpha=1e-20, v=[-1, -3])  # alpha * v in (-2^-54, 0) rounded up to 1.0
@example(alpha=-1e-17, v=[1, 2 ** 20])
def test_phase_reducer_frac_in_unit_interval(alpha, v):
    # in [0, 1), and within the stated 1.5 * 2^-52 turn for every |v| < 2^63
    _assert_within_2_52(alpha, v, ulps=Fraction(3, 2))


def test_char_sum_phase_just_below_a_whole_turn():
    # alpha * v = -1e-20 turn: e() of it has imaginary part -6.3e-20, which a
    # phase rounded up to 1.0 turns into sin(2 pi) in double, -2.4e-16
    got = char_sum(1e-20, [-1])
    assert abs(got - cmath.exp(-2j * math.pi * 1e-20)) <= 1e-18


def test_approx_S1_phase_just_below_a_whole_turn():
    # the centre phase alpha * (x - y/2) = -5e-18 turn: e() of it has
    # imaginary part -3.1e-17, which a phase rounded up to 1.0 turns into
    # sin(2 pi) in double, -2.4e-16
    alpha, x, y = -1e-17, 1, 1
    with mp.workdps(40):
        a = mp.mpf(alpha)
        want = y * mp.sinc(mp.pi * a * y) * mp.expjpi(2 * a * (x - mp.mpf(y) / 2))
    got = approx_S1(alpha, x, y)
    assert abs(got - complex(want)) <= 2.0 ** -53 * y


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
    for j in (5, 333, 1023):
        a = char_sum(j / 2048, values)
        b = char_sum((j + 2048) / 2048, values)
        assert a == b  # bit-identical: both are exact doubles with the same m mod 2^64


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


def _substituted(alpha: float, a: int, b: int) -> complex:
    # integral of e(alpha*t^(3/2)) dt over [a, b] after u = t^(3/2): the ends
    # are squares, so u runs between the exact integers a^(3/2) and b^(3/2)
    return (2 / 3) * exp_integral(alpha, math.isqrt(a) ** 3, math.isqrt(b) ** 3, -1 / 3)


def test_exp_integral_substituted_alpha0():
    assert _substituted(0.0, 100, 196) == pytest.approx(96.0, abs=1e-12)


def test_exp_integral_substituted_vs_rectangle_oracle():
    alpha, a, b = 1e-3, 100.0, 196.0
    t = np.linspace(a, b, 10 ** 7 + 1)
    mid = 0.5 * (t[1:] + t[:-1])
    oracle = np.sum(np.exp(2j * np.pi * alpha * mid ** 1.5)) * (b - a) / 10 ** 7
    got = _substituted(alpha, 100, 196)
    assert abs(got - oracle) <= 1e-8
    # frozen from the rectangle oracle's first run on [100, 196]
    assert got.real == pytest.approx(-7.0285329949, abs=1e-6)
    assert got.imag == pytest.approx(10.9373118243, abs=1e-6)


def test_exp_integral_rejects_nonpositive_start():
    with pytest.raises(ValueError):
        exp_integral(0.1, 0, 125, -1 / 3)
    # a constant amplitude needs no positive start
    assert exp_integral(0.0, -3, 5, 0.0) == pytest.approx(8.0, abs=1e-12)


def _mp_e(x) -> complex:
    """e(x) for an mpmath real x, rounded to a double at the end."""
    return complex(mp.expjpi(2 * x))


@settings(max_examples=60, deadline=None)
@given(
    M=st.fractions(min_value=1, max_value=10 ** 12, max_denominator=1000),
    w=st.integers(1, 4000),
    alpha=st.floats(1e-4, 0.5),
)
@example(M=Fraction(10 ** 12), w=4000, alpha=0.4)
def test_exp_integral_at_large_centre(M, w, alpha):
    # amp_power 0 over [M - w, M + w] is e(alpha*M) * sin(2 pi alpha w)/(pi alpha);
    # the reference phase is reduced by mpmath at 200 bits
    got = exp_integral(alpha, M - w, M + w, 0.0)
    with mp.workprec(200):
        phase = mp.mpf(alpha) * M.numerator / M.denominator
        want = _mp_e(phase - mp.floor(phase)) * math.sin(2 * math.pi * alpha * w) / (math.pi * alpha)
    assert abs(got - want) <= 1e-9 * w


def test_tolerance_not_met_carries_achieved(monkeypatch):
    f = lambda x: np.exp(2j * np.pi * 50.0 * x)
    edges = np.linspace(0.0, 1.0, 5)
    with monkeypatch.context() as patch, pytest.raises(ToleranceNotMet) as info:
        patch.setattr(quadrature, "_MAX_DEPTH", 3)
        adaptive_complex(f, edges, 1e-300, order=8)
    assert info.value.achieved > 0
    monkeypatch.setattr(quadrature, "_EVAL_BUDGET", 50)
    with pytest.raises(ToleranceNotMet) as info2:
        adaptive_complex(f, edges, 1e-300, order=8)
    assert info2.value.achieved == float("inf")


def test_exp_integral_splits_no_panel_at_large_alpha_width(monkeypatch):
    # N = 3e10, c = 7/4, alpha = 1/2, H = 1.5e6: 150000 ten-period panels.
    # With the phase formed as the double product alpha*v, its rounding split
    # panels on noise (99.4 evaluations per panel); reduced at the integer
    # nearest each node, every panel is accepted at 3 * 32 evaluations.
    from estermann import expsums

    calls = []

    def counted(f, edges, abs_tol, **kwargs):
        result = adaptive_complex(f, edges, abs_tol, **kwargs)
        calls.append((len(edges) - 1, result[2]))
        return result

    monkeypatch.setattr(expsums, "adaptive_complex", counted)
    inst = build_instance(3 * 10 ** 10, "7/4", ("1/3", "1/3", "1/3"), 1_500_000)
    approx_S_c(0.5, derive_params(inst), "integral")
    assert calls == [(150_000, 96 * 150_000)]


# ---------------------------------------------------------------- closed forms

DESK = build_instance(10 ** 6, "3/2", ("1/3", "1/3", "1/3"), 10 ** 4)
DESK_DP = derive_params(DESK)


def test_approx_S_c_alpha0_both_forms():
    h3 = float(DESK_DP.h3)
    assert approx_S_c(0.0, DESK_DP, "sinc") == complex(h3)
    assert approx_S_c(0.0, DESK_DP, "integral") == complex(h3)


def test_approx_S_c_first_sinc_zero():
    h3 = float(DESK_DP.h3)
    z = approx_S_c(1.0 / (2 * DESK.H), DESK_DP, "sinc")
    assert abs(z.real) <= 1e-12 * h3
    assert abs(z) <= 1e-12 * h3


def test_approx_S_c_integral_vs_sinc_form():
    alpha = float(DESK_DP.kappa) / 2
    a = approx_S_c(alpha, DESK_DP, "integral")
    b = approx_S_c(alpha, DESK_DP, "sinc")
    assert abs(a - b) <= 0.05 * float(DESK_DP.h3)


def test_approx_S_c_unknown_form():
    # checked before the alpha = 0 shortcut, which would return H3
    for alpha in (0.0, 0.1):
        with pytest.raises(ValueError, match="unknown form 'nope'"):
            approx_S_c(alpha, DESK_DP, "nope")


def test_approx_S_c_integral_needs_a_window_above_zero():
    # H = mu3*N is a valid instance; the integral form refuses it for
    # alpha != 0, before exp_integral, and still gives H3 at alpha = 0
    dp = derive_params(build_instance(99, "3/2", ("1/3", "1/3", "1/3"), 33))
    assert approx_S_c(0.0, dp, "integral") == complex(dp.h3)
    with pytest.raises(ValueError, match=r"mu3\*N - H must be > 0"):
        approx_S_c(0.1, dp, "integral")


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
    limit = approx_prime_sum(0.0, DESK.H, mu, DESK.N)
    assert limit == complex(2 * DESK.H / math.log(mu * DESK.N))
    for alpha in np.linspace(-0.5, 0.5, 41):
        z = approx_prime_sum(float(alpha), DESK.H, mu, DESK.N)
        assert abs(z) <= abs(limit) + 1e-9


@pytest.mark.parametrize("mu, N", [(Fraction(1, 3), 3), (Fraction(1, 4), 2), (Fraction(1, 5), 1)])
def test_approx_prime_sum_needs_centre_above_one(mu, N):
    # ln(mu N) would be 0 or negative
    with pytest.raises(ValueError, match="mu_k N > 1"):
        approx_prime_sum(0.0, 0, mu, N)
    with pytest.raises(ValueError, match="mu_k N > 1"):
        approx_prime_sum(0.25, 0, mu, N)


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
    model = approx_prime_sum(alpha, H, Fraction(1, 3), N)
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
            - approx_S_c(float(alpha), DESK_DP, "sinc")
        )
        worst = max(worst, d / h3)
    assert worst <= 0.15


# ---------------------------------------------------------------- large centres

BIG = build_instance(3 * 10 ** 10, "7/4", ("1/3", "1/3", "1/3"), 200_000)
BIG_DP = derive_params(BIG)


@pytest.mark.parametrize("alpha", [2e-6, 0.1234567, 0.3001, 0.4501])
def test_approx_S1_phase_at_large_centre(alpha):
    # x = mu1*N + H = 1e10 + 2e5 and y = 2H: the phase alpha*(x - y/2) reaches
    # 4.5e9 turns, so it is reduced by mpmath at 200 bits for the reference
    x, y = BIG.mu_N(1) + BIG.H, 2 * BIG.H
    amp = y * sinc(math.pi * alpha * y)
    centre = x - Fraction(y, 2)
    with mp.workprec(200):
        phase = mp.mpf(alpha) * centre.numerator / centre.denominator
        want = amp * _mp_e(phase - mp.floor(phase))
    assert abs(approx_S1(alpha, x, y) - want) <= 1e-12 * abs(amp)


def test_approx_S_c_integral_at_large_centre():
    # one alpha of the grid "expsum --N 30000000000 --c 7/4 --mu 1/3,1/3,1/3
    # --H 200000 --kind Sc_integral", against an mpmath quadrature in t over
    # (N3 - H3, N3] at 32 digits, ~400 oscillations on 100 Gauss-Legendre panels
    alpha = 0.00100125  # alpha*H = 200.25, so the value is near its envelope
    with mp.workdps(32):
        c = mp.mpf(7) / 4
        a, b = (mp.mpf(10) ** 10 - BIG.H) ** (1 / c), (mp.mpf(10) ** 10 + BIG.H) ** (1 / c)
        al = mp.mpf(alpha)
        edges = [a + (b - a) * k / 100 for k in range(101)]
        integral = mp.quad(lambda t: mp.expjpi(2 * al * t ** c), edges, method="gauss-legendre")
        want = complex(mp.sinc(mp.pi * al) * mp.expjpi(-al) * integral)
    h3 = float(BIG_DP.h3)
    assert abs(want) >= 5e-4 * h3  # H3/(2 pi alpha H) is 8e-4 * H3
    assert abs(approx_S_c(alpha, BIG_DP, "integral") - want) <= 1e-10 * h3


def test_sc_integral_cli_at_large_alpha_h(capsys, monkeypatch):
    # alpha H = 4e5: on one-oscillation panels the 50M evaluation budget ran
    # out and the command exited 2.  The referee integrates the same
    # integral in u on one-period panels of an order-16 rule, about its exact
    # centre mu3 N = 1e10, whose phase it reduces in Python integers.
    alpha, H, centre = 0.4, 10 ** 6, 10 ** 10
    argv = ["expsum", "--N", "30000000000", "--c", "7/4", "--mu", "1/3,1/3,1/3",
            "--H", str(H), "--kind", "Sc_integral", "--alpha-grid", "0.4:0.4:1"]
    assert main(argv) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert float(row[0]) == alpha
    got = complex(float(row[1]), float(row[2]))

    inv_c = 4 / 7
    f = lambda v: (centre + v) ** (inv_c - 1.0) * np.exp(2j * np.pi * alpha * v)
    edges = np.linspace(-H, H, round(2 * alpha * H) + 1)
    monkeypatch.setattr(quadrature, "_EVAL_BUDGET", 10 ** 8)
    integral = adaptive_complex(f, edges, 1e-12 * H, order=16)[0]
    num, den = alpha.as_integer_ratio()
    phase = (num * centre % den) / den - 0.5 * alpha
    want = math.sin(math.pi * alpha) / (math.pi * alpha) * inv_c * integral * cmath.exp(
        2j * math.pi * phase)
    h3 = derive_params(build_instance(3 * 10 ** 10, "7/4", ("1/3", "1/3", "1/3"), H)).h3
    assert abs(got - want) <= 1e-10 * h3
