"""Oracles for the level-batched quadrature and the batched exact integrand."""

import cmath
import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from estermann.circle import ExactIntegrand
from estermann.counting import build_windows
from estermann.errors import ToleranceNotMet
from estermann.expsums import PhaseReducer, char_sum, cis
from estermann import quadrature
from estermann.instance import build_instance
from estermann.quadrature import (
    _BAND_RULES,
    _PANEL_ORDER,
    _PERIODS_PER_PANEL,
    adaptive_complex,
    band_layout,
    gauss_error_bound,
    leggauss,
    panel_edges,
)

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


@pytest.mark.parametrize("n", [8, 12, 16, 24, 32])
def test_leggauss_matches_numpy(n):
    # numpy's rule comes from an eigenvalue solve and one Newton step, with
    # weights up to ~7 ulp of 1 off the exact ones at these n; the Newton
    # rule's nodes agree to a few ulp and its weights to that error
    import mpmath as mp

    x, w = leggauss(n)
    X, W = np.polynomial.legendre.leggauss(n)
    assert np.all(np.abs(x - X) <= 4 * np.spacing(np.abs(X)))
    assert np.all(np.abs(w - W) <= 8 * np.finfo(float).eps)
    # and the weights are right to an ulp of 1: 2 / ((1 - x^2) P_n'(x)^2)
    # at 40 digits, on the returned nodes
    with mp.workdps(40):
        exact = [2 / ((1 - mp.mpf(t) ** 2) * mp.diff(lambda u: mp.legendre(n, u), mp.mpf(t)) ** 2)
                 for t in x.tolist()]
    assert np.abs(w - np.array([float(v) for v in exact])).max() <= np.finfo(float).eps
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


def band_bound_reference(width, top_frequency, sup, order):
    """Trefethen's Gauss bound at rho = t + sqrt(t^2 - 1), t = 2n/(pi P), in scalar math."""
    t = 2 * order / (math.pi * top_frequency * width)
    if t <= 1:
        return math.inf
    rho = t + math.sqrt(t * t - 1)
    periods = top_frequency * width
    return (width / 2 * 64 / 15 * sup * math.exp(math.pi * periods * (rho - 1 / rho) / 2)
            * rho ** (2 - 2 * order) / (rho * rho - 1))


def per_panel_reference(f, edges, abs_tol, order, max_depth=16, band=None):
    """The panel-at-a-time algorithm: one integrand call per Gauss rule.

    Without band a panel's value is the sum of its two half rules and its
    error the whole-vs-halves discrepancy; with band=(top_frequency, sup) its
    value is its one rule and its error band_bound_reference on the whole
    panel, known before the panel is evaluated, and only accepted panels are.
    """
    x, w = leggauss(order)

    def rule(a, b):
        half = 0.5 * (b - a)
        return complex(np.sum(half * w * f(a + half * (x + 1.0))))

    total_width = edges[-1] - edges[0]
    panels = [(edges[i], edges[i + 1], 0) for i in range(len(edges) - 1)]
    accepted, achieved, n_evals = [], 0.0, 0
    while panels:
        pending = []
        for a, b, depth in panels:
            mid = 0.5 * (a + b)
            if band is None:
                n_evals += 3 * order
                value = rule(a, mid) + rule(mid, b)
                err = abs(rule(a, b) - value)
            else:
                err = band_bound_reference(b - a, *band, order)
            if err <= abs_tol * (b - a) / total_width or depth >= max_depth:
                if band is not None:
                    n_evals += order
                    value = rule(a, b)
                accepted.append((a, value))
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


@pytest.mark.parametrize("a, b, f", [(0.0, 0.5, 3000.0), (0.013, 0.5, 7.0), (-2e5, 2e5, 0.4),
                                     (0.1, 0.1, 50.0), (3.0, 17.0, 0.0)])
def test_panel_edges_fewest_panels_of_at_most_ten_periods(a, b, f):
    edges = panel_edges(a, b, f)
    assert edges[0] == a and edges[-1] == b
    n = len(edges) - 1
    if f == 0 or a == b:
        assert n == 1
    else:
        assert (b - a) / n <= _PERIODS_PER_PANEL / f * (1 + 1e-15)
        assert n == 1 or (b - a) / (n - 1) > _PERIODS_PER_PANEL / f


def test_adaptive_complex_matches_per_panel_algorithm():
    rng = random.Random(5)
    ks = [rng.randint(-300, 300) for _ in range(12)]
    f = lambda alpha: sum(np.exp(2j * np.pi * k * alpha) for k in ks) / (1.0 + alpha * alpha)
    edges = list(np.linspace(-0.5, 0.5, 4))
    batched = adaptive_complex(f, edges, 1e-9, order=12)
    reference = per_panel_reference(f, edges, 1e-9, order=12)
    assert batched[2] == reference[2]
    assert abs(batched[0] - reference[0]) <= 1e-13
    assert batched[1] == pytest.approx(reference[1], rel=1e-9)


def test_adaptive_complex_slices_bit_identical(monkeypatch):
    f = lambda alpha: np.exp(2j * np.pi * 91 * alpha) * np.cos(7 * alpha)
    edges = np.linspace(-0.5, 0.5, 6)
    one = adaptive_complex(f, edges, 1e-10, order=16)
    # levels cut into slices of 2 and 1 panels
    for nodes in (100, 1):
        monkeypatch.setattr(quadrature, "_LEVEL_NODES", nodes)
        assert adaptive_complex(f, edges, 1e-10, order=16) == one


def test_adaptive_complex_budget_checked_before_evaluating(monkeypatch):
    calls = []

    def f(alpha):
        calls.append(len(alpha))
        return np.exp(2j * np.pi * 500 * alpha)

    monkeypatch.setattr(quadrature, "_EVAL_BUDGET", 3 * 8 * 7)
    with pytest.raises(ToleranceNotMet):
        adaptive_complex(f, [0.0, 1.0], 1e-12, order=8)
    # levels of 1, 2 and 4 panels fit the budget of 7 panels; the fourth never runs
    assert calls == [24, 48, 96]


@lru_cache(maxsize=None)
def mp_leggauss(n: int, dps: int = 80):
    """Order-n Gauss-Legendre nodes and weights at dps digits, by Newton's method.

    Newton starts from numpy's rule (an eigenvalue solve, independent of
    leggauss) and stops after the first step below 10^(-dps/2), which leaves
    each node within about n^2 10^-dps of its root.  P_n is even or odd, so
    only the non-negative roots are found and the others mirrored; the n
    nodes come out strictly increasing, so they are all the roots.  Cached:
    each rule is computed once per session.
    """
    import mpmath as mp

    def legendre(t):
        p0, p1 = mp.mpf(1), t
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * t * p1 - (j - 1) * p0) / j
        return p1, n * (t * p1 - p0) / (t * t - 1)

    upper = []
    with mp.workdps(dps):
        close = mp.mpf(10) ** -(dps // 2)
        for start in np.polynomial.legendre.leggauss(n)[0][n // 2:].tolist():
            t = mp.mpf(start)
            for _ in range(12):
                p, dp = legendre(t)
                step = p / dp
                t -= step
                if abs(step) < close:
                    break
            assert abs(step) < close
            upper.append((t, 2 / ((1 - t * t) * legendre(t)[1] ** 2)))
        rule = tuple((-t, wt) for t, wt in reversed(upper[n % 2:])) + tuple(upper)
    assert len(rule) == n and all(s < t for (s, _), (t, _) in zip(rule, rule[1:]))
    return rule


def test_band_order_leggauss_matches_80_digit_rule():
    # each band rule's nodes within 2^-53 of the 80-digit ones (5.0e-17 to
    # 6.4e-17 measured), and its weights within 1e-14 in sum (2.3e-15 at
    # order 64 to 4.9e-15 at 256; numpy's own order-64 rule is 1.7e-14 off),
    # so the rule's own rounding stays near 1e-15 of sup * width
    import mpmath as mp

    for order, _ in _BAND_RULES:
        x, w = leggauss(order)
        with mp.workdps(80):
            rule = mp_leggauss(order)
            node_err = max(abs(mp.mpf(t) - ref) for t, (ref, _) in zip(x.tolist(), rule))
            weight_err = sum(abs(mp.mpf(v) - ref) for v, (_, ref) in zip(w.tolist(), rule))
        assert node_err <= 2.0 ** -53, order
        assert weight_err <= 1e-14, order


def trig_rule_error(coeffs: dict, a: float, width: float, rule, dps: int = 80) -> float:
    """|Gauss rule - integral| of sum c_k e(k alpha) over [a, a + width], at dps digits.

    The integral is the closed form sum of c_k (e(k b) - e(k a)) / (2 pi i k).
    """
    import mpmath as mp

    with mp.workdps(dps):
        a, w = mp.mpf(a), mp.mpf(width)
        b = a + w
        e_ = lambda t: mp.expjpi(2 * t)
        top = max(abs(k) for k in coeffs)

        def f(t):
            # e(k t) as powers of e(t), and e(-k t) as their conjugates
            z, powers = e_(t), [mp.mpc(1)]
            for _ in range(top):
                powers.append(powers[-1] * z)
            return sum(c * (powers[k] if k >= 0 else mp.conj(powers[-k]))
                       for k, c in coeffs.items())

        quad = w / 2 * sum(wt * f(a + w / 2 * (t + 1)) for t, wt in rule)
        exact = sum(c * w if k == 0 else c * (e_(k * b) - e_(k * a)) / (2j * mp.pi * k)
                    for k, c in coeffs.items())
        return float(abs(quad - exact))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gauss_error_bound_dominates_rule_error(seed):
    # seeded non-negative trigonometric polynomials of top frequency F: the
    # order-32 rule's error, at 80 digits so rounding cannot hide it, stays
    # below the proven bound on panels of 2.5 to 12 periods, and each band
    # rule's on panels of its own length and 4 periods less, where the bound
    # is 2.5e-26 to 2.1e-17 of sup * width, far above the 80-digit floor
    rng = random.Random(seed)
    F = rng.randint(5, 60)
    coeffs = {k: rng.random() for k in range(-F, F + 1) if rng.random() < 0.5}
    coeffs[rng.choice((F, -F))] = rng.random()
    sup = sum(coeffs.values())
    for order, periods_list in ((_PANEL_ORDER, (2.5, 5.0, 8.0, 10.0, 12.0)),
                                *((order, (P - 4.0, float(P))) for order, P in _BAND_RULES)):
        rule = mp_leggauss(order)
        for periods in periods_list:
            width = periods / F
            err = trig_rule_error(coeffs, rng.uniform(-0.5, 0.5), width, rule)
            bound = gauss_error_bound(width, F, sup, order)
            assert err <= bound
            assert bound == pytest.approx(band_bound_reference(width, F, sup, order), rel=1e-12)


def test_gauss_error_bound_is_sharp_for_the_top_frequency():
    # on e(F alpha), the extreme case of the class, the bound is within a
    # factor 30 of the error (25 to 27 at 2.5 to 12 periods), and no rho does
    # more than 0.1% better than the one the code takes
    F = 37
    rule = mp_leggauss(_PANEL_ORDER)
    for periods in (10.0, 12.0):
        width = periods / F
        err = trig_rule_error({F: 1.0}, 0.0, width, rule)
        bound = gauss_error_bound(width, F, 1.0, _PANEL_ORDER)
        assert err <= bound <= 30 * err
        rhos = np.linspace(1.001, 20.0, 200_001)
        best = np.min(width / 2 * 64 / 15 * np.exp(np.pi * periods * (rhos - 1 / rhos) / 2)
                      * rhos ** (2.0 - 2 * _PANEL_ORDER) / (rhos * rhos - 1))
        assert best <= bound <= 1.001 * best


def test_gauss_error_bound_edges():
    # per unit of sup * width at order 32: 2.5e-31 at 5 periods, 2.4e-13 at 10
    assert 2.4e-31 < gauss_error_bound(5.0, 1.0, 1.0, _PANEL_ORDER) / 5.0 < 2.6e-31
    assert 2.3e-13 < gauss_error_bound(10.0, 1.0, 1.0, _PANEL_ORDER) / 10.0 < 2.5e-13
    # no rho beats the trivial bound past 2n/pi periods: inf, so the panel splits
    assert gauss_error_bound(21.0, 1.0, 1.0, _PANEL_ORDER) == math.inf
    # a bound that underflows stays positive, so a zero tolerance never fits,
    # and nothing overflows however narrow the panel
    assert gauss_error_bound(1e-9, 1.0, 1e300, _PANEL_ORDER) > 0.0
    assert 0.0 < gauss_error_bound(1e-300, 1.0, 1.0, _PANEL_ORDER) < 1e-300
    # f = 0 is integrated exactly
    assert gauss_error_bound(1.0, 1.0, 0.0, _PANEL_ORDER) == 0.0
    # the bound grows with the width, so the widest half of a level bounds all
    widths = np.linspace(0.01, 20.0, 2001).tolist()
    bounds = [gauss_error_bound(v, 1.0, 1.0, _PANEL_ORDER) for v in widths]
    assert all(x < y for x, y in zip(bounds, bounds[1:]) if y < math.inf)


def band_cases():
    rng = random.Random(19)
    F = 211
    coeffs = {k: rng.random() for k in range(-F, F + 1, 7)}
    coeffs[F] = 0.5
    ks = np.array(list(coeffs))
    cs = np.array(list(coeffs.values()))
    # a sum along the last axis, so a node's value does not depend on its batch
    f = lambda alpha: (np.exp(2j * np.pi * np.multiply.outer(alpha, ks)) * cs).sum(axis=-1)
    return f, F, float(cs.sum()), coeffs


def trig_closed_form(coeffs: dict, a: float, b: float) -> complex:
    """The integral of sum c_k e(k alpha) over [a, b], each phase reduced in exact rationals."""
    turn = lambda k, t: e(float(Fraction(t) * k % 1))
    return sum(c * (b - a) if k == 0 else c * (turn(k, b) - turn(k, a)) / (2j * math.pi * k)
               for k, c in coeffs.items())


@pytest.mark.parametrize("a, b", [(0.0, 0.5), (0.0123, 0.5), (-0.5, 0.5), (0.3, 0.31)])
def test_band_path_matches_estimate_path_on_panel_edges(a, b):
    # each path on the layout it is used with: the band rule's one rule per
    # panel of band_layout's row (order 64 on the short interval, 128 on the
    # others), the estimate's two order-_PANEL_ORDER half rules per
    # _PERIODS_PER_PANEL-period panel; neither splits a panel, and both meet
    # the closed form within their own error, plus rounding
    f, F, sup, coeffs = band_cases()
    (order, band_edges), edges = band_layout(a, b, F), panel_edges(a, b, F)
    tol = 1e-10 * sup * (b - a)
    value, err, n_evals = adaptive_complex(f, band_edges, tol, order=order, band=(F, sup))
    estimate = adaptive_complex(f, edges, tol)
    assert estimate[2] == 3 * _PANEL_ORDER * (len(edges) - 1)
    assert n_evals == order * (len(band_edges) - 1)
    exact = trig_closed_form(coeffs, a, b)
    rounding = 1e-14 * sup * (b - a)
    assert abs(value - exact) <= err + rounding
    assert abs(estimate[0] - exact) <= estimate[1] + rounding
    assert err <= tol and err == pytest.approx(
        sum(band_bound_reference(hi - lo, F, sup, order)
            for lo, hi in zip(band_edges[:-1], band_edges[1:])),
        rel=1e-9)


def test_band_path_matches_per_panel_reference_with_splits():
    # at order 64, one panel of 96 periods and its 48-period halves have no
    # finite bound (past 2n/pi = 40.7 periods), so it splits twice; at tol
    # 1e-10 the four 24-period panels fit (bound 9.0e-18 of sup * width),
    # and at tol 1e-18 they split once more into eight 12-period panels
    f, F, sup, _ = band_cases()
    width = 96.0 / F
    for tol, panels in ((1e-10, 4), (1e-18, 8)):
        abs_tol = tol * sup * width
        got = adaptive_complex(f, [0.1, 0.1 + width], abs_tol, order=64, band=(F, sup))
        want = per_panel_reference(f, [0.1, 0.1 + width], abs_tol, 64, band=(F, sup))
        assert got[2] == want[2] == 64 * panels
        assert got[0] == want[0]
        assert got[1] == pytest.approx(want[1], rel=1e-9)


def test_band_path_decides_every_split_before_one_evaluation():
    # two panels of 24 and 12 periods, each bounded as the wider at the first
    # level, B: at abs_tol = 1.5 B W / w1 the wide panel's share is 1.5 B, so
    # it is accepted, and the narrow one's 0.75 B, so it splits once into
    # 6-period panels, whose bound fits; the three accepted rules then take
    # one integrand call
    f, F, sup, coeffs = band_cases()
    calls = []

    def counted(alpha):
        calls.append(alpha.size)
        return f(alpha)

    a = 0.0123
    edges = [a, a + 24.0 / F, a + 36.0 / F]
    total, wide = edges[2] - edges[0], edges[1] - edges[0]
    bound = gauss_error_bound(wide, F, sup, 64)
    value, err, n_evals = adaptive_complex(
        counted, edges, 1.5 * bound * total / wide, order=64, band=(F, sup))
    assert calls == [3 * 64]
    assert n_evals == 3 * 64
    assert bound <= err <= 1.5 * bound
    exact = trig_closed_form(coeffs, edges[0], edges[2])
    assert abs(value - exact) <= err + 1e-14 * sup * total


def test_band_periods_is_the_largest_whole_number_below_double_rounding():
    # each band rule's panels are as long as its order's proven error allows
    # while it stays within 2^-53 of sup * width, for any top frequency; and
    # each row costs fewer evaluations per period than the one before, or
    # band_layout would never take it on a long interval
    for order, periods in _BAND_RULES:
        for F, sup in ((1.0, 1.0), (211.0, 37.5), (3e5, 1e12)):
            fits = [gauss_error_bound(P / F, F, sup, order) <= 2.0 ** -53 * sup * (P / F)
                    for P in range(1, 2 * periods)]
            assert all(fits[:periods]) and not any(fits[periods:]), order
    costs = [order / periods for order, periods in _BAND_RULES]
    assert costs == sorted(costs, reverse=True) and len(set(costs)) == len(costs)
    assert [order for order, _ in _BAND_RULES] == sorted(order for order, _ in _BAND_RULES)


@pytest.mark.parametrize("a, b, F, order", [
    (0.0, 0.01, 3000.0, 96),     # 30 periods: one order-96 panel beats two of 64
    (0.0, 0.015, 3000.0, 64),    # 45 periods: two order-64 panels tie one of 128
    (0.0, 0.0236, 3600.0, 192),  # a major arc: 85 periods on one order-192 panel
    (0.0236, 0.5, 3600.0, 256),  # its minor arc: 13 order-256 panels
    (0.0, 0.5, 211.0, 128),      # 105.5 periods: 128 ties with 256 and wins
    (0.3, 0.3, 50.0, 64),        # empty, and frequency 0: one panel, the
    (3.0, 17.0, 0.0, 64),        # lowest order
])
def test_band_layout_takes_the_fewest_evaluations(a, b, F, order):
    # the row with the fewest evaluations, counted on panel_edges' own
    # layout, the lower order on a tie
    got, edges = band_layout(a, b, F)
    costs = [(o * (len(panel_edges(a, b, F, periods)) - 1), o) for o, periods in _BAND_RULES]
    assert (got * (len(edges) - 1), got) == min(costs)
    assert got == order
    assert np.array_equal(edges, panel_edges(a, b, F, dict(_BAND_RULES)[got]))


def test_band_path_absurd_tolerance_raises(monkeypatch):
    f, F, sup, _ = band_cases()
    calls = []

    def counted(alpha):
        calls.append(alpha.size)
        return f(alpha)

    edges = panel_edges(0.0, 0.5, F)
    # no panel fits a zero tolerance: they split, unevaluated, until the
    # pending panels need more than the budget
    with monkeypatch.context() as patch, pytest.raises(ToleranceNotMet):
        patch.setattr(quadrature, "_EVAL_BUDGET", 10**6)
        adaptive_complex(counted, edges, 0.0, band=(F, sup))
    assert calls == []
    # at _MAX_DEPTH the panels are accepted, and their bound exceeds 1e-300
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 2)
    with pytest.raises(ToleranceNotMet):
        adaptive_complex(counted, edges, 1e-300, band=(F, sup))


# N from 5e3 to 1e9: alpha*v reaches 5e8 turns at the largest, while the
# integrand's phases alpha*(v - b) stay within (H + 1)/2 turns at every N.
INTEGRAND_CASES = [(5000, 400), (4_000_000, 1500), (10 ** 9, 3000)]
# mu1 = mu2 sums the shared prime window once, mu1 != mu2 ("apart") all three
INTEGRAND_MU_CASES = [
    pytest.param(N, H, mu, id=f"{N}-{H}{suffix}")
    for mu, suffix in ((THIRD, ""), (("2/5", "1/5", "2/5"), "-apart"))
    for N, H in INTEGRAND_CASES
]


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
    w = f.windows
    value = e(float(-a * w.inst.N % 1))
    for arr in (w.p1, w.p2, w.values):
        value *= sum(e(float(a * int(v) % 1)) for v in arr)
    return value


@pytest.mark.parametrize("N, H, mu", INTEGRAND_MU_CASES)
def test_batched_integrand_matches_per_node_sums(N, H, mu):
    w = build_windows(build_instance(N, "3/2", mu, H))
    f = ExactIntegrand(w)
    alphas = _alphas(700, N)  # several row chunks
    batched = f(alphas)
    ref = np.array(
        [
            char_sum(a, w.p1)
            * char_sum(a, w.p2)
            * char_sum(a, w.values)
            * cis(PhaseReducer(a).frac_fraction(Fraction(N))).conjugate()
            for a in alphas.tolist()
        ]
    )
    # the referee's phases are within 1.5 * 2^-52 turn of exact, which adds
    # 2*pi times that per unit term of each of the three sums to the a-priori
    # bound of the centred integrand
    sizes = (len(w.p1), len(w.p2), len(w.values))
    bound = centred_bound(H, sizes) + 3 * 2 * math.pi * 1.5 * 2.0 ** -52 * math.prod(sizes)
    assert np.all(np.abs(batched - ref) <= bound)
    # a node's value does not depend on the batch it arrives in
    pieces = np.concatenate([f(part) for part in np.array_split(alphas, 7)])
    assert np.array_equal(pieces, batched)


@pytest.mark.parametrize("N, H, mu", INTEGRAND_MU_CASES)
def test_batched_integrand_matches_exact_phases(N, H, mu):
    w = build_windows(build_instance(N, "3/2", mu, H))
    f = ExactIntegrand(w)
    alphas = _alphas(16, N + 1)
    bound = centred_bound(H, (len(w.p1), len(w.p2), len(w.values)))
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
    w = build_windows(build_instance(N, c, mu, H))
    f = ExactIntegrand(w)
    value = f(np.array([alpha]))[0]
    bound = centred_bound(H, (len(w.p1), len(w.p2), len(w.values)))
    assert abs(value - exact_phase_oracle(f, alpha)) <= bound
