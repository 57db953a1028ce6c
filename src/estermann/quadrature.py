"""Adaptive Gauss-Legendre panel integration for complex-valued integrands.

Panels refine by bisection; a panel is accepted when its whole-vs-halves
discrepancy fits its proportional share of the absolute error budget.  All
pending panels of one refinement level are assessed together: their whole,
left-half and right-half Gauss nodes form one flat 1-D array, the integrand
is called once on it (on consecutive slices of it past _LEVEL_NODES nodes),
and the panel sums, error estimates and accept/split decisions are array
operations.  The accepted contributions are summed in interval order.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ToleranceNotMet

# Larger levels are evaluated in consecutive slices of whole panels, so the
# node and value arrays stay bounded whatever the panel count.
_LEVEL_NODES = 1 << 17

_leggauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _leggauss_cache:
        _leggauss_cache[n] = np.polynomial.legendre.leggauss(n)
    return _leggauss_cache[n]


def adaptive_complex(
    f_batch: Callable[[np.ndarray], np.ndarray],
    edges: Sequence[float],
    abs_tol: float,
    *,
    order: int = 24,
    max_depth: int = 16,
    eval_budget: int = 50_000_000,
) -> tuple[complex, float, int]:
    """Integrate f over the partition given by edges.

    Returns (value, error_estimate, evaluation_count); each refinement level
    costs 3 * order evaluations per pending panel.  Raises ToleranceNotMet
    when the budget runs out before the estimate fits.
    """
    edges = np.asarray(edges, dtype=np.float64)
    total_width = edges[-1] - edges[0]
    if total_width <= 0:
        return 0.0 + 0.0j, 0.0, 0
    x, w = leggauss(order)
    keep = edges[1:] > edges[:-1]
    a, b = edges[:-1][keep], edges[1:][keep]
    accepted_at: list[np.ndarray] = []
    accepted_val: list[np.ndarray] = []
    achieved = 0.0
    n_evals = 0
    depth = 0
    while a.size:
        level_evals = 3 * order * a.size
        if n_evals + level_evals > eval_budget:
            raise ToleranceNotMet(
                f"evaluation budget {eval_budget} exhausted", achieved=float("inf")
            )
        n_evals += level_evals
        mid = 0.5 * (a + b)
        lo = np.stack([a, a, mid], axis=1)[:, :, None]
        half = 0.5 * (np.stack([b, mid, b], axis=1)[:, :, None] - lo)
        sums = np.empty((a.size, 3), dtype=complex)
        step = max(1, _LEVEL_NODES // (3 * order))
        for s in range(0, a.size, step):
            nodes = lo[s : s + step] + half[s : s + step] * (x + 1.0)
            values = np.asarray(f_batch(nodes.ravel()), dtype=complex).reshape(nodes.shape)
            values *= half[s : s + step] * w
            sums[s : s + step] = values.sum(axis=-1)
        whole, halves = sums[:, 0], sums[:, 1] + sums[:, 2]
        err = np.abs(whole - halves)
        if depth >= max_depth:
            ok = np.ones(a.size, dtype=bool)
        else:
            ok = err <= abs_tol * (b - a) / total_width
        accepted_at.append(a[ok])
        accepted_val.append(halves[ok])
        for e in err[ok].tolist():
            achieved += e
        split = ~ok
        a_s, mid_s, b_s = a[split], mid[split], b[split]
        a = np.stack([a_s, mid_s], axis=1).ravel()
        b = np.stack([mid_s, b_s], axis=1).ravel()
        depth += 1

    if achieved > abs_tol:
        raise ToleranceNotMet(
            f"achieved error estimate {achieved:.3g} exceeds tolerance {abs_tol:.3g}",
            achieved=achieved,
        )
    starts = np.concatenate(accepted_at)
    contributions = np.concatenate(accepted_val)[np.argsort(starts, kind="stable")]
    value = complex(sum(contributions.tolist()))
    return value, achieved, n_evals


def uniform_edges(a: float, b: float, n_panels: int) -> np.ndarray:
    return np.linspace(a, b, max(1, n_panels) + 1)
