"""Problem instances, derived window parameters, and regime diagnostics.

An instance fixes (N, c, mu, H) for the equation p1 + p2 + floor(n^c) = N
with |p_k - mu_k*N| <= H and |floor(n^c) - mu_3*N| <= H.  The proportions mu
and the exponent c are exact rationals, so window membership of an integer m
is the exact integer test |q_mu*m - p_mu*N| <= q_mu*H and never depends on
floating point.

The derived window parameters (N1, N2, N3, H3, kappa) are plain doubles, each
the double nearest its exact definition: N1 and N2 are exact rationals, N3
and H3 come from integer p-th roots scaled by 2^128, and kappa from a
24-digit decimal logarithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Union

from .arith import RationalExponent, integer_root, parse_rational
from .errors import MuSumNotOne, WindowTooWide

# N3 and H3 are taken from floor(x^(1/c) * 2^_ROOT_BITS); H3 is a difference
# of two such roots, so it stays exact to 2^-_ROOT_BITS however much it cancels.
_ROOT_BITS = 128

RationalLike = Union[Fraction, str, int]


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return parse_rational(x)
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected rational, got {type(x).__name__}")


@dataclass(frozen=True)
class ProblemInstance:
    """Validated parameter bundle (N, c, mu1..mu3, H)."""

    N: int
    c: RationalExponent
    mu: tuple[Fraction, Fraction, Fraction]
    H: int

    def mu_N(self, k: int) -> Fraction:
        """Exact window center mu_k * N, k in {1,2,3}."""
        return self.mu[k - 1] * self.N

    def window(self, k: int) -> tuple[int, int]:
        """Inclusive integer interval [mu_k*N - H, mu_k*N + H], k in {1,2,3}.

        With mu_k = p/q the edges ceil(mu_k*N - H) and floor(mu_k*N + H) are
        -((q*H - p*N) // q) and (p*N + q*H) // q, in integers.
        """
        mu = self.mu[k - 1]
        p, q = mu.numerator, mu.denominator
        return -((q * self.H - p * self.N) // q), (p * self.N + q * self.H) // q

    def in_window(self, k: int, m: int) -> bool:
        """Exact membership test |m - mu_k*N| <= H."""
        mu = self.mu[k - 1]
        return abs(mu.denominator * m - mu.numerator * self.N) <= mu.denominator * self.H


def build_instance(N: int, c, mu, H: int) -> ProblemInstance:
    """Validate and construct an instance; mu is never silently normalized."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    if H < 0:
        raise ValueError("H must be a non-negative integer")
    if not isinstance(c, RationalExponent):
        c = RationalExponent.from_fraction(_as_fraction(c))
    mu_t = tuple(_as_fraction(m) for m in mu)
    if len(mu_t) != 3 or any(m <= 0 for m in mu_t):
        raise ValueError("mu must be three positive rationals")
    if sum(mu_t) != 1:
        raise MuSumNotOne(f"mu sums to {sum(mu_t)}, not 1")
    # H may equal min_k mu_k*N (window lower edge exactly 0): 0 and 1 are
    # neither prime nor a floor-power value, so counts are unaffected.
    min_center = min(m * N for m in mu_t)
    if H > min_center:
        raise WindowTooWide(f"H={H} > min_k mu_k*N = {min_center}")
    return ProblemInstance(N=N, c=c, mu=mu_t, H=H)


@dataclass(frozen=True)
class DerivedParams:
    """Derived window parameters, each the double nearest its exact value.

    n1 = mu1*N + H and n2 = mu2*N + H; n3 satisfies n3^c = mu3*N + H and
    h3 = n3 - (mu3*N - H)^(1/c), so n runs over (n3 - h3, n3]; and
    kappa = (ln N)^2 / (2cH), infinite when H = 0.  The value carries the
    instance it was derived from as inst, so a consumer of both takes the
    DerivedParams alone and cannot be handed two that disagree.
    """

    inst: ProblemInstance
    n1: float
    n2: float
    n3: float
    h3: float
    kappa: float

    @property
    def H(self) -> int:
        return self.inst.H

    @property
    def mu3_N(self) -> Fraction:
        return self.inst.mu_N(3)


def _scaled_root(x: Fraction, c: RationalExponent) -> int:
    """floor(x^(1/c) * 2^_ROOT_BITS) for exact rational x >= 0, c = p/q.

    x^(1/c) * 2^b is the p-th root of x^q * 2^(b p), and the floor of the
    p-th root of a real y >= 0 is the integer p-th root of floor(y).
    """
    y = x ** c.q * (1 << (_ROOT_BITS * c.p))
    return integer_root(y.numerator // y.denominator, c.p)


def derive_params(inst: ProblemInstance) -> DerivedParams:
    """Compute N1, N2, N3, H3 and kappa."""
    N, H, c = inst.N, inst.H, inst.c
    top = _scaled_root(inst.mu_N(3) + H, c)
    bottom = _scaled_root(inst.mu_N(3) - H, c)  # mu3*N - H >= 0 by construction
    scale = 1 << _ROOT_BITS
    if H > 0:
        # ln N correctly rounded to 24 digits; with the three roundings after
        # it the quotient is within 2^-75 of kappa relatively, so float()
        # gives the double nearest kappa unless kappa lies that close to a
        # midpoint between two doubles.
        with localcontext() as ctx:
            ctx.prec = 24
            L = Decimal(N).ln()
            kappa = float(L * L * c.q / (2 * c.p * H))
    else:
        kappa = math.inf
    return DerivedParams(
        inst=inst,
        n1=float(inst.mu_N(1) + H),
        n2=float(inst.mu_N(2) + H),
        n3=float(Fraction(top, scale)),
        h3=float(Fraction(top - bottom, scale)),
        kappa=kappa,
    )


def log_centre(centre: Fraction) -> float:
    """ln(mu_k N) for a window centre mu_k N, which a main term divides by.

    Raises ValueError unless mu_k N > 1, where the logarithm is positive.
    """
    if not centre > 1:
        raise ValueError(f"the main terms need mu_k N > 1, k = 1, 2; got mu_k N = {centre}")
    return math.log(centre)


def log_centres(inst: ProblemInstance) -> tuple[float, float]:
    """ln(mu1 N) and ln(mu2 N), each checked by log_centre.

    Since mu1 + mu2 < 1, mu_k N > 1 for k = 1, 2 also gives N >= 3, so
    ln N > 0 and ln ln N > 0.
    """
    return log_centre(inst.mu_N(1)), log_centre(inst.mu_N(2))


@dataclass(frozen=True)
class Condition:
    holds: bool
    lhs: float
    rhs: float


@dataclass(frozen=True)
class HypothesisReport:
    """Which asymptotic-regime conditions hold for this instance.

    Advisory only: nothing downstream refuses to run when a condition fails.
    """

    conditions: dict[str, Condition]
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        doc = {
            name: {"holds": c.holds, "lhs": c.lhs, "rhs": c.rhs}
            for name, c in self.conditions.items()
        }
        doc["notes"] = list(self.notes)
        return doc


# The lower bound on c is evaluated strictly (c > rhs).  One statement of the
# regime uses >= for the same bound; the report notes that reading.
_C_LOWER_NOTE = (
    "cond_c_lower uses the strict inequality c > (4/3)(1 + 52 ln ln N / ln N); "
    "a non-strict >= variant of the same bound exists and would flip only the "
    "exact-equality case"
)


def hypothesis_report(dp: DerivedParams) -> HypothesisReport:
    """Evaluate every named regime condition of dp.inst, both sides reported.

    Takes the DerivedParams alone, which carries its instance.  Raises
    ValueError unless mu_k N > 1 for k = 1, 2.
    """
    inst = dp.inst
    log_centres(inst)  # the logarithms below need N >= 3 and mu_k N > 1
    N, H, c = inst.N, inst.H, inst.c
    L = math.log(N)
    lnL = math.log(L)
    cf = float(c)

    n3, h3 = dp.n3, dp.h3
    n_k_max = max(dp.n1, dp.n2)

    # (lhs, rhs) of each condition; the integers H and 2H are compared exactly
    sides = {
        "cond_c_fractional": (
            float(c.dist_to_nearest_int()), 3 * cf * (2 ** (c.floor + 1) - 1) * lnL / L
        ),
        "cond_c_lower": (cf, (4 / 3) * (1 + 52 * lnL / L)),
        "cond_H": (H, N ** (1 - 1 / (2 * cf)) * L * L),
        "cond_lemma4": (2 * H, n_k_max ** 0.534),
        "cond_lemma56_y": (h3, math.sqrt(2 * cf * n3) * math.log(n3) ** 2),
        "cond_lemma8_y": (2 * H, n_k_max ** 0.625 * math.log(n_k_max) ** 19.5),
    }
    conds = {
        name: Condition(
            holds=lhs > rhs if name == "cond_c_lower" else lhs >= rhs,
            lhs=float(lhs),
            rhs=rhs,
        )
        for name, (lhs, rhs) in sides.items()
    }
    return HypothesisReport(conditions=conds, notes=(_C_LOWER_NOTE,))
