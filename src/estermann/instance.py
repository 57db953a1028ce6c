"""Problem instances, derived window parameters, and regime diagnostics.

An instance fixes (N, c, mu, H) for the equation p1 + p2 + floor(n^c) = N
with |p_k - mu_k*N| <= H and |floor(n^c) - mu_3*N| <= H.  The proportions mu
and the exponent c are exact rationals, so window membership of an integer m
is the exact integer test |q_mu*m - p_mu*N| <= q_mu*H and never depends on
floating point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import mpmath as mp

from .arith import RationalExponent, format_rational, parse_rational
from .errors import MuSumNotOne, WindowTooWide

# Significand bits for derived reals.  Phase products alpha*floor(n^c) reach
# ~1e12 and still need ~1e-8 absolute accuracy mod 1, which a 53-bit double
# cannot carry through the N3/H3 chain.
WORKING_PRECISION = 96

RationalLike = Union[Fraction, str, int]


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return parse_rational(x)
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected rational, got {type(x).__name__}")


def _interval_floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _interval_ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


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
        """Inclusive integer interval [mu_k*N - H, mu_k*N + H], k in {1,2,3}."""
        center = self.mu_N(k)
        return (_interval_ceil(center - self.H), _interval_floor(center + self.H))

    def in_window(self, k: int, m: int) -> bool:
        """Exact membership test |m - mu_k*N| <= H."""
        mu = self.mu[k - 1]
        return abs(mu.denominator * m - mu.numerator * self.N) <= mu.denominator * self.H

    def to_json(self) -> str:
        doc = {
            "N": self.N,
            "c": str(self.c),
            "mu": [format_rational(m) for m in self.mu],
            "H": self.H,
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "ProblemInstance":
        doc = json.loads(text)
        return build_instance(doc["N"], doc["c"], tuple(doc["mu"]), doc["H"])


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
    """Derived window parameters at >= 64-bit-significand precision.

    n3 satisfies n3^c = mu3*N + H and h3 = n3 - (mu3*N - H)^(1/c), so n runs
    over (n3 - h3, n3].  h3_leading is the leading-order expansion
    2H/(c*(mu3*N)^(1-1/c)).
    """

    inst: ProblemInstance
    n1: mp.mpf
    n2: mp.mpf
    n3: mp.mpf
    h3: mp.mpf
    kappa: mp.mpf
    windows: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]
    h3_leading: mp.mpf

    @property
    def H(self) -> int:
        return self.inst.H

    @property
    def mu3_N(self) -> Fraction:
        return self.inst.mu_N(3)


def _root_c(x: Fraction, c: RationalExponent) -> mp.mpf:
    """x^(1/c) = (x^q)^(1/p) for exact rational x > 0, at working precision."""
    xq = x ** c.q
    return mp.root(mp.mpf(xq.numerator) / mp.mpf(xq.denominator), c.p)


def derive_params(inst: ProblemInstance) -> DerivedParams:
    """Compute N1, N2, N3, H3, kappa and the three integer windows."""
    with mp.workprec(WORKING_PRECISION):
        N, H, c = inst.N, inst.H, inst.c
        n1 = mp.mpf((inst.mu_N(1) + H).numerator) / mp.mpf((inst.mu_N(1) + H).denominator)
        n2 = mp.mpf((inst.mu_N(2) + H).numerator) / mp.mpf((inst.mu_N(2) + H).denominator)
        n3 = _root_c(inst.mu_N(3) + H, c)
        h3 = n3 - _root_c(inst.mu_N(3) - H, c)  # mu3*N - H > 0 by construction
        L = mp.log(N)
        kappa = L * L * c.q / (2 * c.p * H) if H > 0 else mp.inf

        mu3N = inst.mu_N(3)
        mu3N_mp = mp.mpf(mu3N.numerator) / mp.mpf(mu3N.denominator)
        cf = mp.mpf(c.p) / mp.mpf(c.q)
        h3_leading = 2 * H / (cf * mu3N_mp ** (1 - 1 / cf))

        windows = (inst.window(1), inst.window(2), inst.window(3))
        return DerivedParams(
            inst=inst,
            n1=n1,
            n2=n2,
            n3=n3,
            h3=h3,
            kappa=kappa,
            windows=windows,
            h3_leading=h3_leading,
        )


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

    def to_json(self) -> str:
        doc = {
            name: {"holds": c.holds, "lhs": c.lhs, "rhs": c.rhs}
            for name, c in self.conditions.items()
        }
        doc["notes"] = list(self.notes)
        return json.dumps(doc, indent=2)


# The lower bound on c is evaluated strictly (c > rhs).  One statement of the
# regime uses >= for the same bound; the report notes that reading.
_C_LOWER_NOTE = (
    "cond_c_lower uses the strict inequality c > (4/3)(1 + 52 ln ln N / ln N); "
    "a non-strict >= variant of the same bound exists and would flip only the "
    "exact-equality case"
)


def hypothesis_report(
    inst: ProblemInstance, dp: Optional[DerivedParams] = None
) -> HypothesisReport:
    """Evaluate every named regime condition with both sides reported."""
    N, H, c = inst.N, inst.H, inst.c
    L = math.log(N)
    lnL = math.log(L)
    cf = float(c)

    if dp is None:
        dp = derive_params(inst)
    n3 = float(dp.n3)
    h3 = float(dp.h3)
    n_k_max = float(max(dp.n1, dp.n2))

    c_frac = float(c.dist_to_nearest_int())
    conds = {
        "cond_c_fractional": Condition(
            holds=c_frac >= 3 * cf * (2 ** (c.floor + 1) - 1) * lnL / L,
            lhs=c_frac,
            rhs=3 * cf * (2 ** (c.floor + 1) - 1) * lnL / L,
        ),
        "cond_c_lower": Condition(
            holds=cf > (4 / 3) * (1 + 52 * lnL / L),
            lhs=cf,
            rhs=(4 / 3) * (1 + 52 * lnL / L),
        ),
        "cond_H": Condition(
            holds=H >= N ** (1 - 1 / (2 * cf)) * L * L,
            lhs=float(H),
            rhs=N ** (1 - 1 / (2 * cf)) * L * L,
        ),
        "cond_lemma4": Condition(
            holds=2 * H >= n_k_max ** 0.534,
            lhs=2.0 * H,
            rhs=n_k_max ** 0.534,
        ),
        "cond_lemma56_y": Condition(
            holds=h3 >= math.sqrt(2 * cf * n3) * math.log(n3) ** 2,
            lhs=h3,
            rhs=math.sqrt(2 * cf * n3) * math.log(n3) ** 2,
        ),
        "cond_lemma8_y": Condition(
            holds=2 * H >= n_k_max ** 0.625 * math.log(n_k_max) ** 19.5,
            lhs=2.0 * H,
            rhs=n_k_max ** 0.625 * math.log(n_k_max) ** 19.5,
        ),
    }
    return HypothesisReport(conditions=conds, notes=(_C_LOWER_NOTE,))
