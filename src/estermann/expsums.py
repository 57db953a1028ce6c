"""Short exponential sums over primes and floor(n^c), and their closed forms.

e(z) denotes exp(2*pi*i*z) throughout.  One rule decides every phase: a phase
alpha*x whose argument x can be large is reduced mod 1 by PhaseReducer, from
the double alpha and an exact integer or rational x.  The direct sums reduce
each integer point in uint64 wraparound, to within about 2^-52 turn; the
closed-form approximants are the sinc-shaped main terms those sums develop
for alpha near zero, and each reduces its phase at the exact rational centre
of its window in Python integers, so only the offset from that centre,
bounded by the window half-width, is multiplied in double.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .instance import DerivedParams, log_centre
from .quadrature import adaptive_complex, panel_edges

_TWO_PI = 2.0 * math.pi
_TURN_PER_WRAP = 2.0 ** -64


class PhaseReducer:
    """Computes frac(alpha * v) for a double alpha and integer v, to about 2^-52.

    The double alpha is split exactly as m/2^64 + rest with m an integer and
    0 <= rest < 2^-64.  frac(m*v/2^64) is ((m*v) mod 2^64)/2^64, exact in
    uint64 wraparound, which holds for negative v too: v is read as its two's
    complement v + 2^64, and 2^64 m is a whole number of turns.  rest*v adds
    less than 1/2 turn either way.  Rounding the wrapped product, the sum and
    rest*v to doubles puts the result within 2^-54 + 2^-53 + 3*2^-53*rest*|v|
    of the exact reduction, which is under 0.76 * 2^-52 turn for |v| < 2^53
    and under 1.5 * 2^-52 for every |v| < 2^63.
    """

    __slots__ = ("alpha", "_m", "_rest")

    def __init__(self, alpha: float):
        self.alpha = float(alpha)
        num, den = self.alpha.as_integer_ratio()
        m, r = divmod(num << 64, den)
        self._m = np.uint64(m % (1 << 64))
        self._rest = r / (den << 64)

    def frac(self, v) -> np.ndarray:
        """frac(alpha*v) in [0, 1) for an array of integers of either sign.

        A reduced phase in (-2^-54, 0) has floor -1, so x - floor(x) rounds
        up to 1.0; that is 0.0 in turns, and is returned as such.
        """
        v = np.asarray(v, dtype=np.int64)
        x = np.multiply(v.view(np.uint64) * self._m, _TURN_PER_WRAP)
        x += self._rest * v
        x -= np.floor(x)
        return np.where(x < 1.0, x, 0.0)

    def frac_fraction(self, x: Fraction) -> float:
        """frac(alpha * x) in [0, 1) for an exact rational x.

        The exact fraction is correctly rounded, so one within 2^-54 of 1
        rounds up to 1.0; that is 0.0 in turns, and is returned as such.
        """
        a_num, a_den = self.alpha.as_integer_ratio()
        den = a_den * x.denominator
        turns = (a_num * x.numerator % den) / den
        return turns if turns < 1.0 else 0.0

    def char(self, v) -> np.ndarray:
        """e(alpha*v) for an array of integers."""
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


def char_sum(alpha: float, points) -> complex:
    """Sum of e(alpha*v) over the integer points v: floor(n^c) values or primes."""
    if len(points) == 0:
        return 0j
    return complex(np.sum(PhaseReducer(alpha).char(points)))


def eval_S1(alpha: float, lam: Sequence[tuple[int, float]]) -> complex:
    """Sum of Lambda(n) e(alpha*n) over the (n, Lambda(n)) pairs, compensated."""
    if not lam:
        return 0j
    n_arr = np.array([n for n, _ in lam], dtype=np.int64)
    w_arr = np.array([w for _, w in lam], dtype=np.float64)
    theta = _TWO_PI * PhaseReducer(alpha).frac(n_arr)
    re = math.fsum(w_arr * np.cos(theta))
    im = math.fsum(w_arr * np.sin(theta))
    return complex(re, im)


def exp_integral(
    alpha: float,
    u0: Fraction,
    u1: Fraction,
    amp_power: float,
    *,
    abs_tol: Optional[float] = None,
) -> complex:
    """integral of u^amp_power * e(alpha*u) du over [u0, u1], for exact rational ends.

    With m the exact midpoint and w the half-width, this is e(alpha*m) times
    the integral of (m + v)^amp_power * e(alpha*v) over |v| <= w: the phase
    at m is reduced exactly, and so is alpha*j for the integer j nearest each
    node v, by PhaseReducer; only alpha*(v - j), at most |alpha|/2, is formed
    in double.  The phase is linear in v, so the package's panel rule
    (quadrature.panel_edges) with top frequency |alpha| resolves it to
    roundoff; the amplitude is smooth because u0 > 0 whenever amp_power is
    non-zero.  At 9.6 evaluations per period the quadrature's budget of 50M
    would last to |alpha| (u1 - u0) = 5.2e6.  The nodes themselves are
    doubles, though, so each is rounded by up to 2^-53 |v|; from about
    |alpha| (u1 - u0) = 2.1e6 on that makes the whole-vs-halves estimate
    split panels, and the budget runs out between 3.0e6 and 3.2e6.
    """
    u0, u1 = Fraction(u0), Fraction(u1)
    if amp_power != 0.0 and u0 <= 0:
        raise ValueError("exp_integral requires u0 > 0 for a non-zero amp_power")
    if u1 <= u0:
        return 0j
    width = float(u1 - u0)
    if abs_tol is None:
        abs_tol = 1e-10 * width
    m = (u0 + u1) / 2
    mf = float(m)
    reducer = PhaseReducer(alpha)

    def f_batch(v: np.ndarray) -> np.ndarray:
        amp = (mf + v) ** amp_power if amp_power != 0.0 else 1.0
        j = np.rint(v)
        phase = reducer.frac(j.astype(np.int64)) + alpha * (v - j)
        return amp * np.exp(2j * np.pi * phase)

    edges = panel_edges(-0.5 * width, 0.5 * width, abs(alpha))
    value, _err, _n = adaptive_complex(f_batch, edges, abs_tol)
    return cis(reducer.frac_fraction(m)) * value


def _sinc_window(alpha: float, amp: float, half_width: float, centre: Fraction) -> complex:
    """amp * sinc(2*pi*alpha*half_width) * e(alpha*centre), complex(amp) at alpha = 0.

    The main term of a sum of e(alpha*t) over a window of the given mass amp
    and half-width about an exact rational centre, at which the phase is
    reduced.
    """
    if alpha == 0.0:
        return complex(amp)
    phase = PhaseReducer(alpha).frac_fraction(centre)
    return amp * sinc(_TWO_PI * alpha * half_width) * cis(phase)


def approx_S_c(alpha: float, dp: DerivedParams, form: str) -> complex:
    """Main-term approximants of S_c = char_sum over floor(n^c), N3 - H3 < n <= N3.

    Valid for |alpha| <= 1/2; c, mu3*N and H come from dp.inst.

    "integral": sinc(pi*alpha) * e(-alpha/2) * integral of e(alpha*t^c) dt
                over (N3 - H3, N3], taken as (1/c) * integral of
                u^(1/c - 1) e(alpha*u) du over mu3*N - H < u <= mu3*N + H.
                The amplitude is singular at u = 0, so for alpha != 0 this
                form needs mu3*N - H > 0.
    "sinc":     H3 * sinc(2*pi*alpha*H) * e(alpha*mu3*N).
    Both reduce to H3 at alpha = 0.  Raises ValueError for any other form.
    """
    if form not in ("sinc", "integral"):
        raise ValueError(f"unknown form {form!r}")
    h3 = dp.h3
    if alpha == 0.0:
        return complex(h3)
    if form == "sinc":
        return _sinc_window(alpha, h3, dp.H, dp.mu3_N)
    lo = dp.mu3_N - dp.H
    if lo <= 0:
        raise ValueError(f"mu3*N - H must be > 0 for the integral form of S_c, got {lo}")
    c = dp.inst.c
    inv_c = c.q / c.p
    # the tolerance is 1e-10 * H3 on the integral in t
    integral = inv_c * exp_integral(
        alpha, lo, dp.mu3_N + dp.H, inv_c - 1.0, abs_tol=1e-10 * h3 / inv_c
    )
    return _sinc_window(alpha, 1.0, 0.5, Fraction(-1, 2)) * integral


def approx_S1(alpha: float, x: Fraction, y: Fraction) -> complex:
    """Closed form y * sinc(pi*alpha*y) * e(alpha*(x - y/2)) for exact x, y; y at alpha = 0."""
    x, y = Fraction(x), Fraction(y)
    return _sinc_window(alpha, float(y), float(y / 2), x - y / 2)


def approx_prime_sum(alpha: float, H: float, mu_k: Fraction, N: int) -> complex:
    """Closed form of the prime-window sum: 2H*sinc(2*pi*alpha*H)*e(alpha*mu_k*N)/ln(mu_k*N).

    Raises ValueError unless mu_k N > 1.
    """
    return _sinc_window(alpha, 2.0 * H / log_centre(mu_k * N), H, mu_k * N)
