"""Gauss-Legendre panel integration for complex-valued integrands.

One rule sizes the panels of every oscillating integral in the package:
panel_edges gives equal panels of at most a stated number of periods of a
stated top frequency, and adaptive_complex integrates each with a
Gauss-Legendre rule of the caller's order (_PANEL_ORDER unless it states
one).  The value and the error come from one of two paths:

- the band rule, for an integrand the caller declares band-limited
  (|f(z)| <= sup * e^(2 pi F |Im z|) on the complex plane): a fixed rule,
  refused up front.  The caller's panels are final; a panel's value is its
  one rule, and its error gauss_error_bound, a proven bound that depends
  only on the panel width, so a layout whose bound or evaluation count does
  not fit is refused before anything is evaluated.  band_layout picks the
  order and panels per interval from the rows of _BAND_RULES: the row with
  the fewest evaluations there;
- the whole-vs-halves estimate otherwise: panels refine by bisection, and a
  panel is accepted when its error fits its proportional share of the
  absolute error budget.  A panel's value is the sum of the rules on its two
  halves, the rule on the whole panel is computed as well, and the
  discrepancy stands for the error.  Its panels span _PERIODS_PER_PANEL
  periods.

The rules evaluated together (on the estimate path those of one refinement
level, on the band path all of them) have their Gauss nodes in one flat 1-D
array, the integrand is called once on it (on consecutive slices of it past
_LEVEL_NODES nodes), and the rule sums are array operations.  The
contributions are summed in interval order.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ToleranceNotMet

# The estimate path's panels span at most this many periods of the top
# frequency.  numpy's order-32 Gauss-Legendre rule integrates e(k*alpha) over
# a panel of up to P periods with an error, relative to the panel width, of
# at most 1.7e-15 at P = 8, 9.2e-15 at P = 10 and 1.8e-10 at P = 12, so the
# whole-vs-halves estimate splits no panel for tol >= 1e-12.
_PERIODS_PER_PANEL = 10.0
_PANEL_ORDER = 32
# The band rule's rows, (order, panel periods): each row's panels span the
# largest whole number of periods at which its rule's proven error
# (gauss_error_bound) stays below _BAND_TOL = 2^-53, double rounding, of the
# sup times the width (at order 64, 9.0e-18 at 24 periods against 5.9e-16 at
# 25).  So a band_layout layout meets any tolerance down to that, and a lower
# one would ask for less than the rounding of the values it bounds.
# Per period the rows cost 2.67, 2.34, 2.17, 2.00 and 1.91 evaluations (the
# order-32 rule would need 4.0, on 8-period panels); band_layout picks a row
# per interval, since a short interval rounds up to whole panels, where a
# lower order wastes less.
_BAND_RULES = ((64, 24), (96, 41), (128, 59), (192, 96), (256, 134))
_BAND_TOL = 2.0 ** -53

# Larger batches are evaluated in consecutive slices of whole panels, so the
# node and value arrays stay bounded whatever the panel count.
_LEVEL_NODES = 1 << 17
# the estimate path's bisection depth, and both paths' evaluation limit
_MAX_DEPTH = 16
_EVAL_BUDGET = 50_000_000

_leggauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


def leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on P_n from cos(pi (k - 1/4) / (n + 1/2)) converges in a
    few steps; the weights are 2 / ((1 - x^2) P_n'(x)^2).  Both are then
    made exactly symmetric.  This needs no eigenvalue solve, so neither
    numpy.polynomial nor LAPACK is loaded.
    """
    if n not in _leggauss_cache:
        x = -np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
        for _ in range(10):
            p, dp = _legendre(n, x)
            step = p / dp
            x = x - step
            if np.abs(step).max() <= 2.0 ** -52:
                break
        _, dp = _legendre(n, x)
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        _leggauss_cache[n] = (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0
    return _leggauss_cache[n]


# Multiplies every proven bound, to cover the rounding of its own few
# exponentials and logarithms (relative error below 1e-12).
_BOUND_SAFETY = 1.0 + 2.0 ** -32


def gauss_error_bound(width: float, top_frequency: float, sup: float, order: int) -> float:
    """Proven error of the order-point Gauss-Legendre rule on a panel of width.

    For f with |f(z)| <= sup * e^(2 pi F |Im z|) on the complex plane, where
    F = top_frequency, and n = order >= 2 nodes: on the Bernstein ellipse
    E_rho of the panel, |Im z| <= (width/4)(rho - 1/rho), so |f| <= sup *
    e^(pi P (rho - 1/rho)/2) there, with P = F * width the panel's periods.
    The rule is exact to degree 2n - 1, so (Trefethen, "Is Gauss quadrature
    better than Clenshaw-Curtis?", SIAM Rev. 50 (2008), Thm 4.5, whose I_n
    has n + 1 nodes) its error on [-1, 1] is at most
    (64/15) M rho^(2 - 2n) / (rho^2 - 1) for any rho > 1, with M the sup of
    |f| on E_rho, and the panel scales it by width/2.  The rho used,
    t + sqrt(t^2 - 1) with t = 2n/(pi P), minimizes all but the
    1/(rho^2 - 1) factor; at n = 32 it is within 0.06% of the best rho up to
    P = 12, and at each _BAND_RULES row's panel length within 0.1%.  The
    bound grows with width.  Where t <= 1 (P >= 2n/pi, 20.4 periods at
    n = 32, 40.7 at n = 64 and 163.0 at n = 256, where no rho does better
    than the trivial bound) it is inf.  At n = 32 it is 2.5e-31, 6.4e-19,
    6.1e-16, 2.4e-13 and 4.6e-9 times sup * width at P = 5, 8, 9, 10 and 12;
    at n = 64 it is 9.0e-18 and 5.9e-16 at P = 24 and 25, and at n = 256
    2.1e-17 and 1.8e-16 at P = 134 and 135.
    """
    if sup == 0.0:
        return 0.0
    t = 2.0 * order / (math.pi * top_frequency * width)
    if not t > 1.0:
        return math.inf
    root = math.sqrt(t - 1.0) * math.sqrt(t + 1.0)
    log_rho = math.log(t + root)
    # ln(rho^2 - 1) = 2 ln(rho) + ln(1 - rho^-2), which cannot overflow
    log_bound = (
        math.log(32.0 / 15.0 * sup * width) + math.pi * top_frequency * width * root
        - (2 * order) * log_rho - math.log(-math.expm1(-2.0 * log_rho))
    )
    # floored at the least normal double, below which exp would round down
    return max(math.exp(log_bound), sys.float_info.min) * _BOUND_SAFETY


def _rule_sums(
    f_batch: Callable[[np.ndarray], np.ndarray],
    lo: Sequence[np.ndarray],
    hi: Sequence[np.ndarray],
    x: np.ndarray,
    w: np.ndarray,
) -> np.ndarray:
    """Gauss rule sums over [lo[j], hi[j]], one row per panel, one column per rule j."""
    lo = np.stack(lo, axis=1)[:, :, None]
    half = 0.5 * (np.stack(hi, axis=1)[:, :, None] - lo)
    sums = np.empty(lo.shape[:2], dtype=complex)
    step = max(1, _LEVEL_NODES // (lo.shape[1] * x.size))
    for s in range(0, len(lo), step):
        nodes = lo[s : s + step] + half[s : s + step] * (x + 1.0)
        values = np.asarray(f_batch(nodes.ravel()), dtype=complex).reshape(nodes.shape)
        values *= half[s : s + step] * w
        sums[s : s + step] = values.sum(axis=-1)
    return sums


def _check_budget(n_evals: int) -> None:
    if n_evals > _EVAL_BUDGET:
        raise ToleranceNotMet(f"evaluation budget {_EVAL_BUDGET} exhausted", achieved=math.inf)


def _check_error(achieved: float, abs_tol: float) -> None:
    if achieved > abs_tol:
        raise ToleranceNotMet(
            f"achieved error {achieved:.3g} exceeds tolerance {abs_tol:.3g}",
            achieved=achieved,
        )


def adaptive_complex(
    f_batch: Callable[[np.ndarray], np.ndarray],
    edges: Sequence[float],
    abs_tol: float,
    *,
    order: int = _PANEL_ORDER,
    band: Optional[tuple[float, float]] = None,
) -> tuple[complex, float, int]:
    """Integrate f over the partition given by edges.

    The default order is the panel rule's, for edges from panel_edges;
    band-rule callers take the order and the edges from band_layout.
    Returns (value, error, evaluation_count).

    With band=(top_frequency, sup) the caller promises |f(z)| <= sup *
    e^(2 pi top_frequency |Im z|) on the complex plane (top_frequency > 0),
    and its panels are final: a fixed rule, refused up front.  Each panel's
    value is its one rule, and the error is the sum over the panels of
    gauss_error_bound at the widest panel (on panel_edges layouts every panel
    to within rounding): a proven bound on the rule error, not counting the
    rounding of the integrand's values.  The bound needs no evaluation, so
    when it exceeds abs_tol, or order * panels exceeds _EVAL_BUDGET,
    ToleranceNotMet is raised before the integrand is called; otherwise the
    rules are evaluated in one _rule_sums call, in interval order, at order
    evaluations each.

    Without band the panels refine by bisection: a panel's value is the sum
    of the rules on its two halves, its error the whole-vs-halves estimate,
    and it is accepted when that fits its proportional share of abs_tol, or
    at _MAX_DEPTH whatever its error.  Each refinement level costs
    3 * order evaluations per pending panel, and ToleranceNotMet is raised
    when the pending panels need more than _EVAL_BUDGET has left, or when
    the summed error exceeds abs_tol.
    """
    edges = np.asarray(edges, dtype=np.float64)
    total_width = edges[-1] - edges[0]
    if total_width <= 0:
        return 0.0 + 0.0j, 0.0, 0
    x, w = leggauss(order)
    keep = edges[1:] > edges[:-1]
    a, b = edges[:-1][keep], edges[1:][keep]
    achieved = 0.0
    if band is not None:
        bound = gauss_error_bound(float((b - a).max()), *band, order)
        for _ in range(a.size):  # each panel's bound, added in interval order
            achieved += bound
        _check_budget(order * a.size)
        _check_error(achieved, abs_tol)
        sums = _rule_sums(f_batch, (a,), (b,), x, w)[:, 0]
        return complex(sum(sums.tolist())), achieved, order * a.size

    accepted: list[tuple[np.ndarray, np.ndarray]] = []  # (starts, values)
    n_evals = 0
    depth = 0
    while a.size:
        _check_budget(n_evals + 3 * order * a.size)
        mid = 0.5 * (a + b)
        n_evals += 3 * order * a.size
        sums = _rule_sums(f_batch, (a, a, mid), (b, mid, b), x, w)
        halves = sums[:, 1] + sums[:, 2]
        err = np.abs(sums[:, 0] - halves)
        ok = (err <= abs_tol * (b - a) / total_width) | (depth >= _MAX_DEPTH)
        accepted.append((a[ok], halves[ok]))
        for e in err[ok].tolist():
            achieved += e
        split = ~ok
        a_s, mid_s, b_s = a[split], mid[split], b[split]
        a = np.stack([a_s, mid_s], axis=1).ravel()
        b = np.stack([mid_s, b_s], axis=1).ravel()
        depth += 1

    _check_error(achieved, abs_tol)
    starts = np.concatenate([start for start, _ in accepted])
    values = np.concatenate([value for _, value in accepted])
    contributions = values[np.argsort(starts, kind="stable")]
    return complex(sum(contributions.tolist())), achieved, n_evals


def _panel_count(a: float, b: float, top_frequency: float, periods: float) -> int:
    if top_frequency <= 0:
        return 1
    return max(1, math.ceil((b - a) / (periods / top_frequency)))


def panel_edges(
    a: float, b: float, top_frequency: float, periods: float = _PERIODS_PER_PANEL
) -> np.ndarray:
    """The fewest equal panels on [a, b], each at most periods periods long.

    A period is 1/top_frequency; a top frequency of 0 gives one panel.  The
    default suits the whole-vs-halves estimate; band-rule callers use
    band_layout.
    """
    return np.linspace(a, b, _panel_count(a, b, top_frequency, periods) + 1)


def band_layout(a: float, b: float, top_frequency: float) -> tuple[int, np.ndarray]:
    """The band rule's order and panel edges on [a, b].

    Of the _BAND_RULES rows, the one whose panel_edges layout takes the
    fewest evaluations, order times panels; a tie goes to the lower order.
    """
    order, periods = min(
        _BAND_RULES, key=lambda row: row[0] * _panel_count(a, b, top_frequency, row[1])
    )
    return order, panel_edges(a, b, top_frequency, periods)
