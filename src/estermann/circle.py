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

import numpy as np

from .counting import (
    DEFAULT_MEM_ENTRIES,
    admissible_floor_values,
    fast_count,
    window_primes,
)
from .errors import ConvolutionCheckFailed, MemoryBudgetExceeded
from .expsums import _DIRECT_PRODUCT_LIMIT, PhaseReducer, cis
from .instance import DerivedParams, ProblemInstance, derive_params
from .quadrature import adaptive_complex, uniform_edges

_TWO_PI = 2.0 * math.pi
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

    Window data is sieved once.  A batch of alphas is evaluated in row chunks
    of at most _CHUNK_ELEMENTS phases (one row per alpha, one column per
    window element), so memory stays flat however many nodes arrive.  Rows
    whose products alpha*v stay below 2^20 keep 1e-10 mod-1 accuracy in a
    plain double product and are reduced mod 1 in place; the rest go through
    PhaseReducer, which reduces exactly for the dyadic rational each float
    node is.
    """

    # 128 KiB per temporary: a chunk's arrays stay in L2 and peak RSS stays flat
    _CHUNK_ELEMENTS = 1 << 14

    def __init__(self, inst: ProblemInstance):
        self.inst = inst
        self.p1 = window_primes(inst, 1)
        self.p2 = window_primes(inst, 2)
        self.n_range, self.values = admissible_floor_values(inst)
        self._arrays = [np.asarray(a, dtype=np.int64) for a in (self.p1, self.p2, self.values)]
        self._support = np.concatenate(self._arrays).astype(np.float64)
        self._bounds = np.cumsum([0] + [a.size for a in self._arrays])
        self._vmax = max((int(a.max()) for a in self._arrays if a.size), default=0)

    def is_empty(self) -> bool:
        return any(a.size == 0 for a in self._arrays)

    def max_frequency(self) -> float:
        """Largest |p1 + p2 + v - N| over the attainable support."""
        if self.is_empty():
            return 1.0
        smin = int(self.p1[0] + self.p2[0] + self.values.min())
        smax = int(self.p1[-1] + self.p2[-1] + self.values.max())
        return float(max(abs(smin - self.inst.N), abs(smax - self.inst.N), 1))

    def _sums(self, a: float) -> tuple[complex, complex, complex, complex]:
        """The three window sums at alpha = a, and e(-a*N), via PhaseReducer."""
        r = PhaseReducer(a)
        sums = []
        for arr in self._arrays:
            theta = _TWO_PI * r.frac(arr)
            sums.append(complex(np.cos(theta).sum(), np.sin(theta).sum()))
        return sums[0], sums[1], sums[2], cis(r.frac_int(self.inst.N)).conjugate()

    def _direct(self, a: np.ndarray) -> np.ndarray:
        """F(alpha)e(-alpha*N) for rows with |alpha|*max(v, N) <= 2^20."""
        x = a[:, None] * self._support
        x -= np.rint(x)
        # e(x) = (1 - t^2 + 2it) / (1 + t^2) with t = tan(pi*x), |x| <= 1/2:
        # one tangent per phase instead of a cosine and a sine.  Computed in
        # place, so a chunk never holds more than three arrays.
        t = np.tan(np.multiply(x, np.pi, out=x), out=x)
        t2 = t * t
        w = np.reciprocal(t2 + 1.0)
        cos = np.multiply(np.subtract(1.0, t2, out=t2), w, out=t2)
        sin = np.multiply(np.multiply(t, 2.0, out=t), w, out=t)
        out = np.ones(a.size, dtype=complex)
        for lo, hi in zip(self._bounds[:-1], self._bounds[1:]):
            out *= cos[:, lo:hi].sum(axis=1) + 1j * sin[:, lo:hi].sum(axis=1)
        phase_N = a * float(self.inst.N)
        phase_N -= np.rint(phase_N)
        return out * np.exp(-2j * np.pi * phase_N)

    def __call__(self, alphas: np.ndarray) -> np.ndarray:
        a = np.asarray(alphas, dtype=np.float64)
        out = np.zeros(a.shape, dtype=complex)
        if self.is_empty():
            return out
        direct = np.abs(a) * max(self._vmax, self.inst.N) <= _DIRECT_PRODUCT_LIMIT
        rows = np.flatnonzero(direct)
        step = max(1, self._CHUNK_ELEMENTS // self._support.size)
        for start in range(0, rows.size, step):
            chunk = rows[start : start + step]
            out[chunk] = self._direct(a[chunk])
        for i in np.flatnonzero(~direct):
            s1, s2, s3, eN = self._sums(float(a[i]))
            out[i] = s1 * s2 * s3 * eN
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
    threads: int = 1,
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
            threads=threads,
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


def _sin3_over_u3(u: np.ndarray) -> np.ndarray:
    """sin(u)^3 / u^3 with the u -> 0 limit handled by series."""
    u = np.asarray(u, dtype=np.float64)
    small = np.abs(u) < 1e-3
    safe = np.where(small, 1.0, u)
    direct = (np.sin(safe) / safe) ** 3
    u2 = u * u
    series = 1.0 - 0.5 * u2 + (13.0 / 120.0) * u2 * u2
    return np.where(small, series, direct)


def sin3_integral(T: float, *, rel_tol: float = 1e-10) -> float:
    """integral of sin(u)^3/u^3 du over [0, T] by adaptive panels."""
    if T <= 0:
        return 0.0
    n_panels = max(4, int(math.ceil(T / math.pi)))
    value, _err, _n = adaptive_complex(
        lambda u: _sin3_over_u3(u).astype(complex),
        uniform_edges(0.0, T, n_panels),
        abs_tol=rel_tol * max(T, 1.0),
        order=16,
    )
    return value.real


@dataclass(frozen=True)
class SingularIntegralJ:
    """J(H) over [-kappa, kappa], its 3H^2 limit, and the cut-off tail bound."""

    value: float
    reference: float  # 3 H^2, the kappa -> infinity limit
    tail_bound: float


# Integrating sin^3(u)/u^3 panel-by-panel past this point is pointless: the
# remaining tail is below 5e-11 of the integral and the analytic bound covers
# it.
_SIN3_CUTOFF = 1.0e5


def singular_integral_J(H: float, kappa: float, *, rel_tol: float = 1e-10) -> SingularIntegralJ:
    """J(H) = integral over [-kappa, kappa] of sin^3(2 pi alpha H)/(pi alpha)^3.

    Substituting u = 2 pi alpha H gives (8 H^2 / pi) * integral of
    sin^3(u)/u^3 over [0, 2 pi kappa H]; the integrand tends to 1 (so the
    original integrand tends to 8 H^3) at the origin.
    """
    if H <= 0 or kappa <= 0:
        raise ValueError("singular_integral_J requires H > 0 and kappa > 0")
    T = 2.0 * math.pi * kappa * H
    T_eff = min(T, _SIN3_CUTOFF)
    core = sin3_integral(T_eff, rel_tol=rel_tol)
    # |integral beyond T_eff| <= integral of u^-3 = 1/(2 T_eff^2), scaled.
    tail = (8.0 * H * H / math.pi) * 0.5 / (T_eff * T_eff) if T > T_eff else 0.0
    value = (8.0 * H * H / math.pi) * core
    return SingularIntegralJ(value=value, reference=3.0 * H * H, tail_bound=tail)
