"""Short exponential sums over primes and floor(n^c), and their closed forms.

e(z) denotes exp(2*pi*i*z) throughout.  All sum phases alpha*v with integer v
pass through PhaseReducer, which reduces mod 1 exactly; the closed-form
approximants are the sinc-shaped main terms those sums develop for alpha near
zero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .arith import RationalExponent
from .instance import DerivedParams
from .quadrature import adaptive_complex, uniform_edges

_DIRECT_PRODUCT_LIMIT = float(1 << 20)
_TWO_PI = 2.0 * math.pi


class PhaseReducer:
    """Computes frac(alpha * v) for integer v without catastrophic rounding.

    With alpha_rational = (j, M) the reduction is the exact integer identity
    (j*v mod M)/M.  A free-form float alpha is itself an exact dyadic
    rational num/2^e, and the same identity is applied to that rational
    (vectorized in 64-bit arithmetic when it fits, big-int otherwise).
    Products small enough that a plain double multiply keeps 1e-10 absolute
    mod-1 accuracy skip the integer path entirely.
    """

    __slots__ = ("alpha", "alpha_rational")

    def __init__(self, alpha: float, alpha_rational: Optional[tuple[int, int]] = None):
        if alpha_rational is not None:
            j, M = alpha_rational
            if M <= 0:
                raise ValueError("rational denominator must be positive")
            self.alpha_rational = (j, M)
            self.alpha = j / M
        else:
            self.alpha_rational = None
            self.alpha = float(alpha)

    def frac(self, v) -> np.ndarray:
        """frac(alpha*v) in [0, 1) for an array of non-negative integers."""
        v = np.asarray(v, dtype=np.int64)
        if v.size == 0:
            return np.zeros(0)
        vmax = int(v.max())
        if self.alpha_rational is not None:
            j, M = self.alpha_rational
            if j.bit_length() + vmax.bit_length() <= 62:
                return ((v * j) % M) / M
            return np.array([((j * int(x)) % M) / M for x in v], dtype=np.float64)
        a = self.alpha
        if abs(a) * vmax <= _DIRECT_PRODUCT_LIMIT:
            return np.mod(a * v.astype(np.float64), 1.0)
        num, den = a.as_integer_ratio()
        e = den.bit_length() - 1
        if e <= 64:
            m64 = np.uint64(num % (1 << 64))
            mask = np.uint64((1 << e) - 1) if e > 0 else np.uint64(0)
            with np.errstate(over="ignore"):
                prod = (v.astype(np.uint64) * m64) & mask
            return prod.astype(np.float64) / float(den)
        return np.array([((num * int(x)) % den) / den for x in v], dtype=np.float64)

    def frac_int(self, v: int) -> float:
        if self.alpha_rational is not None:
            j, M = self.alpha_rational
            return ((j * v) % M) / M
        a = self.alpha
        if abs(a) * abs(v) <= _DIRECT_PRODUCT_LIMIT:
            return (a * v) % 1.0
        num, den = a.as_integer_ratio()
        return ((num * v) % den) / den

    def frac_fraction(self, x: Fraction) -> float:
        """frac(alpha * x) for an exact rational x."""
        if self.alpha_rational is not None:
            j, M = self.alpha_rational
            num, den = j * x.numerator, M * x.denominator
        else:
            a_num, a_den = self.alpha.as_integer_ratio()
            num, den = a_num * x.numerator, a_den * x.denominator
        return ((num % den) / den) if den else 0.0

    def char(self, v) -> np.ndarray:
        """e(alpha*v) for an array of non-negative integers."""
        return np.exp(2j * np.pi * self.frac(v))


def cis(phase_frac: float) -> complex:
    """e(x) from the fractional part x of the phase."""
    return complex(math.cos(_TWO_PI * phase_frac), math.sin(_TWO_PI * phase_frac))


def sinc(z: float) -> float:
    """sin(z)/z with the removable singularity handled by series."""
    if abs(z) < 1e-4:
        z2 = z * z
        return 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    return math.sin(z) / z


def char_sum(alpha: float, points, *, reducer: Optional[PhaseReducer] = None) -> complex:
    """Sum of e(alpha*v) over the integer points v: floor(n^c) values or primes."""
    if len(points) == 0:
        return 0j
    r = reducer if reducer is not None else PhaseReducer(alpha)
    return complex(np.sum(r.char(points)))


def eval_S1(
    alpha: float,
    lam: Sequence[tuple[int, float]],
    *,
    reducer: Optional[PhaseReducer] = None,
) -> complex:
    """Sum of Lambda(n) e(alpha*n) over the (n, Lambda(n)) pairs, compensated."""
    if not lam:
        return 0j
    n_arr = np.array([n for n, _ in lam], dtype=np.int64)
    w_arr = np.array([w for _, w in lam], dtype=np.float64)
    r = reducer if reducer is not None else PhaseReducer(alpha)
    theta = _TWO_PI * r.frac(n_arr)
    re = math.fsum(w_arr * np.cos(theta))
    im = math.fsum(w_arr * np.sin(theta))
    return complex(re, im)


def exp_integral(
    alpha: float,
    u0: float,
    u1: float,
    amp_power: float,
    *,
    abs_tol: Optional[float] = None,
    order: int = 24,
) -> complex:
    """integral of u^amp_power * e(alpha*u) du over [u0, u1].

    The phase is linear in u, so panels of at most one oscillation with a
    24-node rule resolve it to roundoff; the amplitude u^amp_power is smooth
    because u0 > 0.
    """
    if u1 <= u0:
        return 0j
    if abs_tol is None:
        abs_tol = 1e-10 * (u1 - u0)
    oscillations = abs(alpha) * (u1 - u0)
    n_panels = max(4, int(math.ceil(oscillations)) + 1)

    def f_batch(u: np.ndarray) -> np.ndarray:
        amp = u ** amp_power if amp_power != 0.0 else 1.0
        return amp * np.exp(2j * np.pi * alpha * u)

    value, _err, _n = adaptive_complex(
        f_batch, uniform_edges(u0, u1, n_panels), abs_tol, order=order
    )
    return value


def oscillatory_integral(
    alpha: float,
    a: float,
    b: float,
    c: RationalExponent,
    *,
    abs_tol: Optional[float] = None,
) -> complex:
    """integral of e(alpha * t^c) dt over [a, b], for 0 < a < b.

    Computed after the monotone substitution u = t^c, which makes the phase
    linear and leaves the smooth amplitude u^(1/c - 1) / c.
    """
    if not (0 < a < b):
        raise ValueError("oscillatory_integral requires 0 < a < b")
    if alpha == 0.0:
        return complex(b - a)
    if abs_tol is None:
        abs_tol = 1e-10 * (b - a)
    inv_c = c.q / c.p
    u0, u1 = a ** float(c), b ** float(c)
    return inv_c * exp_integral(alpha, u0, u1, inv_c - 1.0, abs_tol=abs_tol / inv_c)


def approx_S_c(
    alpha: float,
    dp: DerivedParams,
    c: RationalExponent,
    form: str = "sinc",
) -> complex:
    """Main-term approximants of S_c = char_sum over floor(n^c), N3 - H3 < n <= N3.

    Valid for |alpha| <= 1/2.

    "integral": sinc(pi*alpha) * e(-alpha/2) * integral of e(alpha*t^c).
    "sinc":     H3 * sinc(2*pi*alpha*H) * e(alpha*mu3*N).
    Both reduce to H3 at alpha = 0.
    """
    h3 = float(dp.h3)
    if alpha == 0.0:
        return complex(h3)
    if form == "sinc":
        r = PhaseReducer(alpha)
        phase = r.frac_fraction(dp.mu3_N)
        return h3 * sinc(_TWO_PI * alpha * dp.H) * cis(phase)
    if form == "integral":
        n3 = float(dp.n3)
        integral = oscillatory_integral(alpha, n3 - h3, n3, c)
        return sinc(math.pi * alpha) * cis((-0.5 * alpha) % 1.0) * integral
    raise ValueError(f"unknown form {form!r}")


def approx_S1(alpha: float, x: float, y: float) -> complex:
    """Closed form y * sinc(pi*alpha*y) * e(alpha*(x - y/2)); y at alpha = 0."""
    if alpha == 0.0:
        return complex(y)
    amp = y * sinc(math.pi * alpha * y)
    return amp * cis((alpha * (x - 0.5 * y)) % 1.0)


def approx_prime_sum(alpha: float, N_k: float, H: float, mu_k: Fraction, N: int) -> complex:
    """Closed form of the prime-window sum: 2H*sinc(2*pi*alpha*H)*e(alpha*mu_k*N)/ln(mu_k*N)."""
    log_muN = math.log(mu_k * N)
    if alpha == 0.0:
        return complex(2.0 * H / log_muN)
    r = PhaseReducer(alpha)
    phase = r.frac_fraction(mu_k * N)
    return (2.0 * H / log_muN) * sinc(_TWO_PI * alpha * H) * cis(phase)
