"""Arc decomposition of the counting integral and its main-term models.

The count J_c(N, H) equals the integral over [-1/2, 1/2] of
F(alpha) * e(-alpha*N), where F is the product of the two prime-window sums
and the floor-power window sum.  The interval splits at kappa = (ln N)^2/(2cH)
into a major arc [-kappa, kappa] and two minor arcs.  F has non-negative
integer coefficients (and the model integrand is real and even), so the
integrand at -alpha is the complex conjugate of the integrand at alpha: only
[0, 1/2] is integrated, and the negative half is its mirror image.  In exact
mode F is the product of the boundary-inclusive window sums, so the three arc
integrals must add up to the integer count; exact_convolution_count provides
that integer without any quadrature as the cross-check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import mpmath as mp
import numpy as np

from .counting import (
    DEFAULT_MEM_ENTRIES,
    admissible_floor_values,
    fast_count,
    window_primes,
)
from .errors import ConvolutionCheckFailed, MemoryBudgetExceeded
from .instance import DerivedParams, ProblemInstance, derive_params
from .quadrature import adaptive_complex, uniform_edges

# A panel spans this many periods of the top frequency.  numpy's order-32
# Gauss-Legendre rule integrates e(k*alpha) over a panel of up to P periods
# with an error, relative to the panel width, of at most 1.7e-15 at P = 8,
# 9.2e-15 at P = 10 and 1.8e-10 at P = 12.  At 10 the whole-vs-halves
# estimate splits no panel for tol >= 1e-12, and the accepted value comes
# from the two 5-period halves, which stay at machine precision.
_PERIODS_PER_PANEL = 10.0
# Model-mode minor-arc panels start at this many periods and then widen with
# the decay of the sinc envelope, past what the rule resolves, where only the
# whole-vs-halves estimate guards the value.  On 150 random instances at
# tol = 1e-10, a 10-period start missed the tolerance on 8 of the 300 arcs
# and a 4-period start on 3.
_GRADED_BASE_PERIODS = 4.0
_PANEL_ORDER = 32


class ExactIntegrand:
    """F(alpha) * e(-alpha*N) with F the product of the three window sums.

    The windows are centred, so each is stored as integer offsets k = x - b
    from a base b near its centre: b1 = round(mu1*N), b2 = round(mu2*N) and
    b3 = N - b1 - b2.  The bases sum to N, so e(-alpha*N) cancels exactly and
    the integrand is the product of the three sums of e(alpha*k), with every
    |k| <= H + 1 (|b3 - mu3*N| <= 1).  A batch of alphas is evaluated in row
    chunks of at most _CHUNK_ELEMENTS phases (one row per alpha, one column
    per window element), so memory stays flat however many nodes arrive.

    No exact phase reduction is needed.  For |alpha| <= 1/2 the double product
    alpha*k is off by at most 2^-54 * (H + 1) turns.  Rounding the node alpha
    to a double already moves the true integrand's phases, which reach about
    3H, by the same order, so reducing the rounded node exactly buys nothing.
    """

    # 128 KiB per temporary: a chunk's arrays stay in L2 and peak RSS stays flat
    _CHUNK_ELEMENTS = 1 << 14

    def __init__(self, inst: ProblemInstance):
        self.inst = inst
        self.p1 = window_primes(inst, 1)
        self.p2 = window_primes(inst, 2)
        _, self.values = admissible_floor_values(inst)
        windows = (self.p1, self.p2, self.values)
        b1, b2 = round(inst.mu_N(1)), round(inst.mu_N(2))
        bases = (b1, b2, inst.N - b1 - b2)
        self._offsets = np.concatenate(
            [np.asarray(w, dtype=np.int64) - b for w, b in zip(windows, bases)]
        ).astype(np.float64)
        self._bounds = np.cumsum([0] + [len(w) for w in windows])

    def is_empty(self) -> bool:
        return any(len(w) == 0 for w in (self.p1, self.p2, self.values))

    def max_frequency(self) -> float:
        """Largest |p1 + p2 + v - N| over the attainable support."""
        if self.is_empty():
            return 1.0
        smin = int(self.p1[0] + self.p2[0] + self.values.min())
        smax = int(self.p1[-1] + self.p2[-1] + self.values.max())
        return float(max(abs(smin - self.inst.N), abs(smax - self.inst.N), 1))

    def _chunk(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Real and imaginary parts of the integrand at a chunk of alphas."""
        x = a[:, None] * self._offsets
        x -= np.rint(x)
        # e(x) = (1 - t^2 + 2it) / (1 + t^2) with t = tan(pi*x), |x| <= 1/2:
        # one tangent per phase instead of a cosine and a sine.  Computed in
        # place, so a chunk never holds more than three arrays.
        t = np.tan(np.multiply(x, np.pi, out=x), out=x)
        t2 = t * t
        w = np.reciprocal(t2 + 1.0)
        cos = np.multiply(np.subtract(1.0, t2, out=t2), w, out=t2)
        sin = np.multiply(np.multiply(t, 2.0, out=t), w, out=t)
        # The product in real arithmetic: numpy's complex multiply rounds
        # differently in its vector and scalar loops, which would make a
        # node's value depend on where it sits in the batch.
        sums = [
            (cos[:, lo:hi].sum(axis=1), sin[:, lo:hi].sum(axis=1))
            for lo, hi in zip(self._bounds[:-1], self._bounds[1:])
        ]
        re, im = sums[0]
        for c, s in sums[1:]:
            re, im = re * c - im * s, re * s + im * c
        return re, im

    def __call__(self, alphas: np.ndarray) -> np.ndarray:
        a = np.asarray(alphas, dtype=np.float64)
        out = np.zeros(a.shape, dtype=complex)
        if self.is_empty():
            return out
        step = max(1, self._CHUNK_ELEMENTS // self._offsets.size)
        for start in range(0, a.size, step):
            part = out[start : start + step]
            part.real, part.imag = self._chunk(a[start : start + step])
        return out


class ModelIntegrand:
    """Product of the three closed-form approximants, times e(-alpha*N).

    The approximants are centred at mu_k*N and the centres sum to N, so their
    phases cancel e(-alpha*N) exactly: what is left is the real, even envelope
    (2H)^2 * H3 * sinc(2 pi alpha H)^3 / (ln(mu1 N) ln(mu2 N)).
    """

    def __init__(self, inst: ProblemInstance, dp: DerivedParams):
        self.H = inst.H
        self.amp = (2.0 * inst.H) ** 2 * float(dp.h3) / (
            math.log(inst.mu_N(1)) * math.log(inst.mu_N(2))
        )

    def __call__(self, alphas: np.ndarray) -> np.ndarray:
        z = 2.0 * np.pi * np.asarray(alphas, dtype=np.float64) * self.H
        small = np.abs(z) < 1e-4
        zsafe = np.where(small, 1.0, z)
        s = np.where(small, 1.0 - z * z / 6.0, np.sin(zsafe) / zsafe)
        return self.amp * s ** 3


def exact_convolution_count(
    inst: ProblemInstance, *, mem_entries: int = DEFAULT_MEM_ENTRIES
) -> int:
    """The count as the N-th coefficient of the indicator-product series.

    The two prime indicators are convolved in float64, where numpy computes
    each output entry as a BLAS dot product; the entries at N - v are then
    gathered for every floor-power value v.  No quadrature.  The float result
    is exact by construction: every product is 0 or 1, so every partial sum of
    an output entry is an integer no larger than min(|P1|, |P2|) < 2^53, and
    float64 adds such integers exactly in any order, including BLAS's blocked
    and threaded order.  The checksum over all entries is exact likewise: its
    partial sums are integers no larger than |P1|*|P2|, which is below 2^53
    for any pair of windows the default budget admits (span1 + span2 <= 2^27).

    Raises ConvolutionCheckFailed when the entries do not sum to |P1|*|P2|.
    """
    p1 = window_primes(inst, 1)
    p2 = window_primes(inst, 2)
    _, values = admissible_floor_values(inst)
    if len(p1) == 0 or len(p2) == 0 or len(values) == 0:
        return 0
    lo1, hi1 = int(p1[0]), int(p1[-1])
    lo2, hi2 = int(p2[0]), int(p2[-1])
    span1, span2 = hi1 - lo1 + 1, hi2 - lo2 + 1
    # the two indicators and their convolution are all held at once
    entries = 2 * (span1 + span2) - 1
    if entries > mem_entries:
        raise MemoryBudgetExceeded(
            f"convolution of spans {span1} and {span2} needs {entries} entries, "
            f"exceeds budget {mem_entries}"
        )
    ind1 = np.zeros(span1)
    ind1[p1 - lo1] = 1.0
    ind2 = np.zeros(span2)
    ind2[p2 - lo2] = 1.0
    pair_counts = np.convolve(ind1, ind2)
    checksum, pairs = pair_counts.sum(), len(p1) * len(p2)
    if checksum != pairs:
        raise ConvolutionCheckFailed(
            f"pair counts sum to {checksum!r}, not |P1|*|P2| = {pairs}"
        )
    idx = inst.N - (lo1 + lo2) - values
    idx = idx[(idx >= 0) & (idx < pair_counts.size)]
    return int(pair_counts[idx].astype(np.int64).sum())


@dataclass(frozen=True)
class ArcReport:
    """Numeric arc integrals alongside the exact count and the main terms."""

    mode: str
    tol: float
    kappa: float
    arc_split: bool  # False: kappa >= 1/2, single full-interval integral
    I_major: complex
    I_minor_plus: complex
    I_minor_minus: complex
    exact_total: int
    model_major: float
    main_term: float
    additivity_error: float
    ratio_exact_to_main: Optional[float]
    ratio_major_to_model: Optional[float]
    achieved_error: float
    n_evals: int

    @property
    def arc_sum(self) -> complex:
        return self.I_major + self.I_minor_plus + self.I_minor_minus

    def to_json(self) -> str:
        def c2l(z: complex):
            return [z.real, z.imag]

        return json.dumps(
            {
                "mode": self.mode,
                "tol": self.tol,
                "kappa": self.kappa,
                "arc_split": self.arc_split,
                "I_major": c2l(self.I_major),
                "I_minor_plus": c2l(self.I_minor_plus),
                "I_minor_minus": c2l(self.I_minor_minus),
                "exact_total": self.exact_total,
                "model_major": self.model_major,
                "main_term": self.main_term,
                "additivity_error": self.additivity_error,
                "ratio_exact_to_main": self.ratio_exact_to_main,
                "ratio_major_to_model": self.ratio_major_to_model,
                "achieved_error": self.achieved_error,
                "n_evals": self.n_evals,
            },
            indent=2,
        )


def model_major_value(inst: ProblemInstance, dp: Optional[DerivedParams] = None) -> float:
    """Closed-form major-arc value 3*H*H3 / (2 ln(mu1 N) ln(mu2 N))."""
    if dp is None:
        dp = derive_params(inst)
    return (
        3.0
        * inst.H
        * float(dp.h3)
        / (2.0 * math.log(inst.mu_N(1)) * math.log(inst.mu_N(2)))
    )


def main_term_value(inst: ProblemInstance) -> float:
    """Asymptotic main term 3*H^2 / (c * (mu3 N)^(1 - 1/c) * (ln N)^2)."""
    L = math.log(inst.N)
    cf = float(inst.c)
    mu3N = float(inst.mu_N(3))
    return 3.0 * inst.H ** 2 / (cf * mu3N ** (1.0 - 1.0 / cf) * L * L)


def _graded_edges(a: float, b: float, base: float, H: int, cap: float = 32.0) -> list[float]:
    """Edges on [a, b] with width growing like 1 + 2H*(x - a) away from a.

    Matches the sinc oscillation scale 1/(2H) near the arc boundary and
    coarsens (capped) where the envelope has decayed; the adaptive pass
    re-splits any panel the grading left too wide.
    """
    edges = [a]
    x = a
    while x < b:
        w = base * min(1.0 + 2.0 * H * (x - a), cap)
        x = min(b, x + w)
        edges.append(x)
    return edges


def integrate_arcs(
    inst: ProblemInstance,
    mode: str = "exact",
    tol: float = 1e-6,
    *,
    threads: int = 1,  # read by nothing; perfbench's crosscheck passes threads=1
    mem_entries: int = DEFAULT_MEM_ENTRIES,
    dp: Optional[DerivedParams] = None,
) -> ArcReport:
    """Quadrature of F(alpha)e(-alpha N) over the major and two minor arcs.

    With k = min(kappa, 1/2), only [0, k] and [k, 1/2] are integrated; the
    integrand's conjugate symmetry gives I_major = 2 Re of the first and
    I_minor_minus = conj(I_minor_plus).  When kappa >= 1/2 the second
    interval is empty: I_major is the full integral and both minor integrals
    are zero.  achieved_error counts each half's error estimate twice, for
    the half it stands for; n_evals counts the quadrature's integrand
    evaluations, which are made once each.  Exact mode also computes the
    convolution count, whose agreement with Re(sum of the three integrals) is
    the additivity cross-check.  dp, when given, must be derive_params(inst).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if dp is None:
        dp = derive_params(inst)
    kappa = float(dp.kappa)

    if mode == "exact":
        integrand = ExactIntegrand(inst)
        fmax = integrand.max_frequency()
        exact_total = exact_convolution_count(inst, mem_entries=mem_entries)
    elif mode == "model":
        integrand = ModelIntegrand(inst, dp)
        fmax = 3.0 * max(inst.H, 1)
        exact_total = fast_count(inst, mem_entries=mem_entries).total
    else:
        raise ValueError(f"unknown mode {mode!r}")

    peak = abs(complex(integrand(np.array([0.0]))[0]))
    scale = max(peak, 1.0)
    k = min(kappa, 0.5)
    width = _PERIODS_PER_PANEL / fmax

    def run(edges) -> tuple[complex, float, int]:
        return adaptive_complex(
            integrand,
            edges,
            abs_tol=tol * scale * (edges[-1] - edges[0]),
            order=_PANEL_ORDER,
        )

    if mode == "model":
        minor_edges = _graded_edges(k, 0.5, _GRADED_BASE_PERIODS / fmax, inst.H)
    else:
        # the exact integrand keeps full bandwidth on the minor arcs
        minor_edges = uniform_edges(k, 0.5, int(math.ceil((0.5 - k) / width)))
    I_half, e_major, n_major = run(uniform_edges(0.0, k, int(math.ceil(k / width))))
    I_plus, e_plus, n_plus = run(minor_edges)
    I_major = complex(2.0 * I_half.real, 0.0)
    I_minus = I_plus.conjugate()

    arc_sum = I_major + I_plus + I_minus
    main_term = main_term_value(inst)
    model_major = model_major_value(inst, dp)
    return ArcReport(
        mode=mode,
        tol=tol,
        kappa=kappa,
        arc_split=kappa < 0.5,
        I_major=I_major,
        I_minor_plus=I_plus,
        I_minor_minus=I_minus,
        exact_total=exact_total,
        model_major=model_major,
        main_term=main_term,
        additivity_error=abs(arc_sum.real - exact_total),
        ratio_exact_to_main=(exact_total / main_term) if main_term > 0 else None,
        ratio_major_to_model=(I_major.real / model_major) if model_major > 0 else None,
        achieved_error=2.0 * (e_major + e_plus),
        n_evals=n_major + n_plus,
    )


def sine_power_integral(n: int, m: int = 1) -> float:
    """Closed form of the improper integral of sin(m u)^n / u^n over [0, inf)."""
    total = 0
    for j in range((n + 1) // 2):
        if n - 2 * j <= 0:
            break
        total += (-1) ** j * math.comb(n, j) * (n - 2 * j) ** (n - 1)
    return math.pi * m ** (n - 1) * total / (2 ** n * math.factorial(n - 1))


def sin3_integral(T: float) -> float:
    """integral of sin(u)^3/u^3 du over [0, T], in closed form.

    I(T) = -sin^3 T/(2T^2) - 3 sin^2 T cos T/(2T) + (9 Si(3T) - 3 Si(T))/8,
    which tends to 3 pi/8.  Below T = 1e-3 the series T - T^3/6 + 13 T^5/600
    is used instead: its first omitted term is below 1e-18 * T there, and it
    stays exact where the powers of T in the closed form underflow.
    """
    if T <= 0:
        return 0.0
    if T < 1e-3:
        T2 = T * T
        return T * (1.0 - T2 / 6.0 + (13.0 / 600.0) * T2 * T2)
    s, c = math.sin(T), math.cos(T)
    si = 9.0 * float(mp.si(3.0 * T)) - 3.0 * float(mp.si(T))
    return -s ** 3 / (2.0 * T * T) - 3.0 * s * s * c / (2.0 * T) + si / 8.0


@dataclass(frozen=True)
class SingularIntegralJ:
    """J(H) over [-kappa, kappa] and its 3H^2 limit."""

    value: float
    reference: float  # 3 H^2, the kappa -> infinity limit


def singular_integral_J(H: float, kappa: float) -> SingularIntegralJ:
    """J(H) = integral over [-kappa, kappa] of sin^3(2 pi alpha H)/(pi alpha)^3.

    Substituting u = 2 pi alpha H gives (8 H^2 / pi) * integral of
    sin^3(u)/u^3 over [0, 2 pi kappa H]; the integrand tends to 1 (so the
    original integrand tends to 8 H^3) at the origin.
    """
    if H <= 0 or kappa <= 0:
        raise ValueError("singular_integral_J requires H > 0 and kappa > 0")
    T = 2.0 * math.pi * kappa * H
    value = (8.0 * H * H / math.pi) * sin3_integral(T)
    return SingularIntegralJ(value=value, reference=3.0 * H * H)
