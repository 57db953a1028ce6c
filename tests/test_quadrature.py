"""Oracles for the level-batched quadrature and the batched exact integrand."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from estermann.circle import _PANEL_ORDER, _PERIODS_PER_PANEL, ExactIntegrand
from estermann.errors import ToleranceNotMet
from estermann.expsums import PhaseReducer, char_sum, cis
from estermann import quadrature
from estermann.instance import build_instance
from estermann.quadrature import adaptive_complex, leggauss, uniform_edges

THIRD = ("1/3", "1/3", "1/3")


def e(x: float) -> complex:
    return cmath.exp(2j * math.pi * x)


def arc_closed_forms(k: int, kappa: float) -> tuple[complex, complex, complex]:
    """The integrals of e(k alpha) over [-kappa, kappa], [kappa, 1/2], [-1/2, -kappa]."""
    if k == 0:
        return complex(2 * kappa), complex(0.5 - kappa), complex(0.5 - kappa)
    major = math.sin(2 * math.pi * kappa * k) / (math.pi * k)
    plus = (e(k / 2) - e(k * kappa)) / (2j * math.pi * k)
    minus = (e(-k * kappa) - e(-k / 2)) / (2j * math.pi * k)
    return complex(major), plus, minus


def per_panel_reference(f, edges, abs_tol, order, max_depth=16):
    """The panel-at-a-time algorithm: one integrand call per Gauss rule."""
    x, w = leggauss(order)

    def rule(a, b):
        half = 0.5 * (b - a)
        return complex(np.sum(half * w * f(a + half * (x + 1.0))))

    total_width = edges[-1] - edges[0]
    panels = [(edges[i], edges[i + 1], 0) for i in range(len(edges) - 1)]
    accepted, achieved, n_evals = [], 0.0, 0
    while panels:
        n_evals += 3 * order * len(panels)
        pending = []
        for a, b, depth in panels:
            mid = 0.5 * (a + b)
            whole, halves = rule(a, b), rule(a, mid) + rule(mid, b)
            err = abs(whole - halves)
            if err <= abs_tol * (b - a) / total_width or depth >= max_depth:
                accepted.append((a, halves))
                achieved += err
            else:
                pending += [(a, mid, depth + 1), (mid, b, depth + 1)]
        panels = pending
    accepted.sort(key=lambda item: item[0])
    return complex(sum(v for _, v in accepted)), achieved, n_evals


@pytest.mark.parametrize("k", [0, 1, 7, -40, 333])
@pytest.mark.parametrize("kappa", [0.013, 0.21])
def test_adaptive_complex_arc_closed_forms(k, kappa):
    f = lambda alpha: np.exp(2j * np.pi * k * alpha)
    arcs = ((-kappa, kappa), (kappa, 0.5), (-0.5, -kappa))
    got = []
    for (a, b), exact in zip(arcs, arc_closed_forms(k, kappa)):
        # one starting panel, so high frequencies need several levels
        value, err, n_evals = adaptive_complex(f, [a, b], 1e-12 * (b - a), order=16)
        assert abs(value - exact) <= 1e-11
        assert err <= 1e-12 * (b - a)
        assert n_evals % (3 * 16) == 0
        got.append(value)
    # the three arcs tile a full period: the integral of e(k alpha) is [k == 0]
    assert abs(sum(got) - (1.0 if k == 0 else 0.0)) <= 1e-11
    if k:
        # one panel as integrate_arcs lays it out, _PERIODS_PER_PANEL periods
        # of the top frequency under a single order-_PANEL_ORDER rule, with no
        # adaptive split to hide an inaccurate rule
        b = _PERIODS_PER_PANEL / abs(k)
        x, w = leggauss(_PANEL_ORDER)
        value = np.sum(0.5 * b * w * f(0.5 * b * (x + 1.0)))
        assert abs(value - (e(k * b) - 1.0) / (2j * math.pi * k)) <= 1e-13 * b


def test_adaptive_complex_matches_per_panel_algorithm():
    rng = random.Random(5)
    ks = [rng.randint(-300, 300) for _ in range(12)]
    f = lambda alpha: sum(np.exp(2j * np.pi * k * alpha) for k in ks) / (1.0 + alpha * alpha)
    edges = list(uniform_edges(-0.5, 0.5, 3))
    batched = adaptive_complex(f, edges, 1e-9, order=12)
    reference = per_panel_reference(f, edges, 1e-9, order=12)
    assert batched[2] == reference[2]
    assert abs(batched[0] - reference[0]) <= 1e-13
    assert batched[1] == pytest.approx(reference[1], rel=1e-9)


def test_adaptive_complex_slices_bit_identical(monkeypatch):
    f = lambda alpha: np.exp(2j * np.pi * 91 * alpha) * np.cos(7 * alpha)
    edges = uniform_edges(-0.5, 0.5, 5)
    one = adaptive_complex(f, edges, 1e-10, order=16)
    # levels cut into slices of 2 and 1 panels
    for nodes in (100, 1):
        monkeypatch.setattr(quadrature, "_LEVEL_NODES", nodes)
        assert adaptive_complex(f, edges, 1e-10, order=16) == one


def test_adaptive_complex_budget_checked_before_evaluating():
    calls = []

    def f(alpha):
        calls.append(len(alpha))
        return np.exp(2j * np.pi * 500 * alpha)

    with pytest.raises(ToleranceNotMet):
        adaptive_complex(f, [0.0, 1.0], 1e-12, order=8, eval_budget=3 * 8 * 7)
    # levels of 1, 2 and 4 panels fit the budget of 7 panels; the fourth never runs
    assert calls == [24, 48, 96]


# N from 5e3 to 1e9: alpha*v reaches 5e8 turns at the largest, while the
# integrand's phases alpha*(v - b) stay within (H + 1)/2 turns at every N.
INTEGRAND_CASES = [(5000, 400), (4_000_000, 1500), (10 ** 9, 3000)]


# Near a/q with small q the prime sums are large (about |P|/phi(q)), so the
# integrand is, and so is any error in its phases.
_RATIONALS = [sign * j / q for q in range(2, 8) for j in range(1, q // 2 + 1) for sign in (1, -1)]


def _alphas(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.uniform(-0.5, 0.5, n), _RATIONALS, [0.0, 1e-9]])


def centred_bound(H: int, sizes) -> float:
    """A-priori error of ExactIntegrand against exactly reduced phases.

    Each phase alpha*k, |k| <= H + 1, is off by at most 2^-54 * (H + 1) turns
    (one more in H + 2 for the rounding of pi*x), so each unit term by 2*pi
    times that; 1e-14 covers the tangent, the coefficient formulas and the
    sums.  Three sums make up the product.
    """
    return (3 * 2 * math.pi * 2.0 ** -54 * (H + 2) + 1e-14) * math.prod(sizes)


def exact_phase_oracle(f: ExactIntegrand, alpha: float) -> complex:
    """F(alpha)e(-alpha N) with every phase reduced mod 1 in exact rationals."""
    a = Fraction(alpha)
    value = e(float(-a * f.inst.N % 1))
    for arr in (f.p1, f.p2, f.values):
        value *= sum(e(float(a * int(v) % 1)) for v in arr)
    return value


@pytest.mark.parametrize("N, H", INTEGRAND_CASES)
def test_batched_integrand_matches_per_node_sums(N, H):
    f = ExactIntegrand(build_instance(N, "3/2", THIRD, H))
    alphas = _alphas(700, N)  # several row chunks
    batched = f(alphas)
    ref = np.array(
        [
            char_sum(a, f.p1)
            * char_sum(a, f.p2)
            * char_sum(a, f.values)
            * cis(PhaseReducer(a).frac_int(N)).conjugate()
            for a in alphas.tolist()
        ]
    )
    # the referee reduces a phase alpha*v <= 2^20 in a double, off by at most
    # 2^-33 turns, so each unit term by 2*pi*2^-33 < 7.4e-10, and the product
    # by 3 * 7.4e-10 * |P1||P2||V| (+ the same for e(-alpha N)); where the sums
    # cancel, |ref| is far below that, so the bound is absolute
    assert np.all(np.abs(batched - ref) <= 3e-9 * len(f.p1) * len(f.p2) * len(f.values))
    # a node's value does not depend on the batch it arrives in
    pieces = np.concatenate([f(part) for part in np.array_split(alphas, 7)])
    assert np.array_equal(pieces, batched)


@pytest.mark.parametrize("N, H", INTEGRAND_CASES)
def test_batched_integrand_matches_exact_phases(N, H):
    f = ExactIntegrand(build_instance(N, "3/2", THIRD, H))
    alphas = _alphas(16, N + 1)
    bound = centred_bound(H, (len(f.p1), len(f.p2), len(f.values)))
    for alpha, value in zip(alphas.tolist(), f(alphas)):
        assert abs(value - exact_phase_oracle(f, alpha)) <= bound, alpha


@settings(max_examples=25, deadline=None)
@given(
    log_N=st.floats(math.log(1e3), math.log(1e9)),
    c=st.sampled_from(["3/2", "5/3", "7/4", "13/9"]),
    mu=st.sampled_from([THIRD, ("1/4", "1/4", "1/2"), ("2/5", "1/5", "2/5")]),
    H=st.integers(1, 60),
    alpha=st.floats(-0.5, 0.5),
)
def test_integrand_within_centred_bound(log_N, c, mu, H, alpha):
    N = round(math.exp(log_N))
    f = ExactIntegrand(build_instance(N, c, mu, H))
    value = f(np.array([alpha]))[0]
    bound = centred_bound(H, (len(f.p1), len(f.p2), len(f.values)))
    assert abs(value - exact_phase_oracle(f, alpha)) <= bound
