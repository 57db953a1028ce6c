import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import estermann
from estermann.circle import (
    ExactIntegrand,
    ModelIntegrand,
    exact_convolution_count,
    integrate_arcs,
    main_term_value,
    model_major_value,
    sin3_integral,
    sine_power_integral,
    singular_integral_J,
)
from estermann.counting import brute_force_count, fast_count, window_primes
from estermann.errors import MemoryBudgetExceeded
from estermann.instance import build_instance, derive_params
from estermann.quadrature import adaptive_complex, uniform_edges
from estermann.verify import random_instances

THIRD = ("1/3", "1/3", "1/3")

# Model-vs-exact major arc for N=1e4, c=3/2, mu=1/3, H=1585, pinned on the
# first run (deterministic quadrature; 1% covers platform libm variation).
GOLDEN_MAJOR_REL_DIFF = 0.0343969


def test_convolution_matches_brute_n12():
    inst = build_instance(12, "3/2", ("1/4", "1/4", "1/2"), 3)
    assert exact_convolution_count(inst) == brute_force_count(inst).total == 3


def test_convolution_empty_window():
    inst = build_instance(10 ** 4, "3/2", THIRD, 0)
    assert exact_convolution_count(inst) == 0


def test_convolution_random_oracle():
    rng = random.Random(303)
    for inst in random_instances(25, rng):
        assert exact_convolution_count(inst) == fast_count(inst).total


def test_convolution_budget():
    inst = build_instance(10 ** 4, "3/2", THIRD, 2000)
    with pytest.raises(MemoryBudgetExceeded):
        exact_convolution_count(inst, mem_entries=64)
    # two indicators of span1 + span2 entries plus their convolution of
    # span1 + span2 - 1: a budget that covers only the indicators must fail
    spans = sum(int(p[-1] - p[0] + 1) for p in (window_primes(inst, 1), window_primes(inst, 2)))
    for budget in (spans, 2 * spans - 2):
        with pytest.raises(MemoryBudgetExceeded, match=str(2 * spans - 1)):
            exact_convolution_count(inst, mem_entries=budget)
    assert exact_convolution_count(inst, mem_entries=2 * spans - 1) == fast_count(inst).total


# np.convolve answering the true pair counts with one entry off by one: the
# checksum must catch it.  Run as a script so it can also run under -O.
_OFF_BY_ONE_CONVOLVE = """
import numpy as np
from estermann import ConvolutionCheckFailed, build_instance, exact_convolution_count

honest = np.convolve
def off_by_one(a, b):
    out = honest(a, b)
    out[out.size // 2] += 1
    return out
np.convolve = off_by_one
try:
    exact_convolution_count(build_instance(10 ** 4, "3/2", ("1/3", "1/3", "1/3"), 500))
except ConvolutionCheckFailed:
    print("raised")
"""


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_convolution_checksum_rejects_bad_entry(flags):
    src = os.path.dirname(os.path.dirname(estermann.__file__))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _OFF_BY_ONE_CONVOLVE],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


def test_integrand_F_alpha0():
    inst = build_instance(2000, "3/2", THIRD, 300)
    from estermann.counting import admissible_floor_values, window_primes

    c1 = len(window_primes(inst, 1))
    c2 = len(window_primes(inst, 2))
    _, values = admissible_floor_values(inst)
    z = ExactIntegrand(inst)(np.array([0.0]))[0]
    assert z == pytest.approx(complex(c1 * c2 * len(values)), rel=1e-12)

    dp = derive_params(inst)
    zm = ModelIntegrand(inst, dp)(np.array([0.0]))[0]
    want = (
        (2 * inst.H) ** 2
        / (math.log(inst.mu_N(1)) * math.log(inst.mu_N(2)))
        * float(dp.h3)
    )
    assert zm.real == pytest.approx(want, rel=1e-9)
    assert zm.imag == pytest.approx(0.0, abs=1e-9 * want)


def test_integrand_F_conjugate_symmetry():
    # the property integrate_arcs relies on to integrate [0, 1/2] only
    inst = build_instance(2000, "3/2", THIRD, 300)
    for f in (ExactIntegrand(inst), ModelIntegrand(inst, derive_params(inst))):
        for alpha in (0.0123, 0.2, 0.45):
            plus = f(np.array([alpha]))[0]
            minus = f(np.array([-alpha]))[0]
            assert abs(minus - plus.conjugate()) <= 1e-10 * max(abs(plus), 1.0)


def test_arcs_exact_additivity_small():
    inst = build_instance(500, "3/2", THIRD, 100)
    rep = integrate_arcs(inst, mode="exact", tol=1e-6)
    assert rep.arc_split
    assert rep.exact_total == fast_count(inst).total
    assert rep.additivity_error < 0.5
    assert round(rep.arc_sum.real) == rep.exact_total
    assert abs(rep.arc_sum.imag) < 1e-6


def test_arcs_mirror_symmetry():
    inst = build_instance(1200, "5/3", ("1/4", "1/4", "1/2"), 150)
    rep = integrate_arcs(inst, mode="exact", tol=1e-6)
    scale = max(abs(rep.I_minor_plus), 1e-9)
    assert abs(rep.I_minor_minus - rep.I_minor_plus.conjugate()) <= 1e-7 * max(scale, 1.0)


def test_arcs_degenerate_kappa():
    # small H pushes kappa = L^2/(2cH) past 1/2: no arc separation
    inst = build_instance(2000, "3/2", THIRD, 35)
    dp = derive_params(inst)
    assert float(dp.kappa) >= 0.5
    rep = integrate_arcs(inst, mode="exact", tol=1e-6)
    assert not rep.arc_split
    assert rep.I_minor_plus == 0 and rep.I_minor_minus == 0
    assert round(rep.I_major.real) == rep.exact_total


@settings(max_examples=12, deadline=None)
@given(
    N=st.integers(300, 3000),
    c=st.sampled_from(["3/2", "5/3", "7/4"]),
    mu=st.sampled_from([THIRD, ("1/4", "1/4", "1/2"), ("2/5", "1/5", "2/5")]),
    h_frac=st.floats(0.0, 1.0),
    mode=st.sampled_from(["exact", "model"]),
)
@example(N=2000, c="3/2", mu=THIRD, h_frac=0.0, mode="exact")  # kappa >= 1/2
@example(N=2000, c="3/2", mu=THIRD, h_frac=1.0, mode="model")
def test_arcs_mirror_vs_negative_half_quadrature(N, c, mu, h_frac, mode):
    # The report integrates [0, 1/2] only.  Integrate the negative minor arc
    # and the whole major arc directly, on panels of a different layout and
    # order, and compare.
    h_max = min(300, math.floor(min(map(Fraction, mu)) * N))
    H = 30 + round(h_frac * (h_max - 30))  # H = 30 puts kappa >= 1/2 for N >= 2000
    inst = build_instance(N, c, mu, H)
    dp = derive_params(inst)
    tol = 1e-6
    rep = integrate_arcs(inst, mode=mode, tol=tol)
    if mode == "exact":
        f = ExactIntegrand(inst)
        fmax = f.max_frequency()
    else:
        f = ModelIntegrand(inst, dp)
        fmax = 3.0 * H
    scale = max(abs(f(np.array([0.0]))[0]), 1.0)
    k = min(float(dp.kappa), 0.5)
    assert rep.arc_split == (k < 0.5)

    def direct(a, b):
        edges = uniform_edges(a, b, math.ceil((b - a) * fmax / 2.0))
        return adaptive_complex(f, edges, tol * scale * (b - a))[0]

    assert abs(rep.I_major - direct(-k, k)) <= tol * scale * 2 * k
    if rep.arc_split:
        assert abs(rep.I_minor_minus - direct(-0.5, -k)) <= tol * scale * (0.5 - k)
    else:
        assert rep.I_minor_minus == rep.I_minor_plus == 0


def test_arcs_model_mode_real_even():
    inst = build_instance(10 ** 4, "3/2", THIRD, 1585)
    rep = integrate_arcs(inst, mode="model", tol=1e-6)
    assert abs(rep.I_major.imag) <= 1e-6 * abs(rep.I_major.real)
    # model major arc approximates the closed-form value it was built from
    assert rep.I_major.real == pytest.approx(rep.model_major, rel=0.12)


def test_model_vs_exact_major_arc_golden():
    inst = build_instance(10 ** 4, "3/2", THIRD, 1585)
    rep = integrate_arcs(inst, mode="exact", tol=1e-6)
    rel = abs(rep.I_major.real - rep.model_major) / rep.model_major
    assert rel == pytest.approx(GOLDEN_MAJOR_REL_DIFF, rel=0.01)


def test_main_term_value_high_precision():
    inst = build_instance(10 ** 6, "3/2", THIRD, 10 ** 4)
    got = main_term_value(inst)
    with mp.workprec(200):
        L = mp.log(10 ** 6)
        want = 3 * mp.mpf(10 ** 4) ** 2 / (
            mp.mpf(3) / 2 * (mp.mpf(10 ** 6) / 3) ** (mp.mpf(1) / 3) * L * L
        )
        assert abs(got - float(want)) <= 1e-12 * float(want)


def test_main_term_vs_model_major_consistency():
    # substituting the leading H3 and ln(mu_k N) ~ ln N into the closed-form
    # major value reproduces the main term up to relative O(1/ln N)
    inst = build_instance(10 ** 8, "3/2", THIRD, 10 ** 6)
    dp = derive_params(inst)
    L = math.log(inst.N)
    h3_lead = float(dp.h3_leading)
    substituted = 3 * inst.H * h3_lead / (2 * L * L)
    mt = main_term_value(inst)
    assert substituted == pytest.approx(mt, rel=1e-6)
    rel_gap = abs(model_major_value(inst, dp) - mt) / mt
    assert rel_gap <= 5.0 / L


def test_arc_report_json():
    inst = build_instance(500, "3/2", THIRD, 100)
    rep = integrate_arcs(inst, mode="exact", tol=1e-6)
    import json

    doc = json.loads(rep.to_json())
    assert doc["exact_total"] == rep.exact_total
    assert doc["I_major"] == [rep.I_major.real, rep.I_major.imag]
    assert doc["arc_split"] is True


# ---------------------------------------------------------------- J(H)


def test_sine_power_integral_values():
    assert sine_power_integral(3) == pytest.approx(3 * math.pi / 8, abs=1e-15)
    assert sine_power_integral(1) == pytest.approx(math.pi / 2, abs=1e-15)
    assert sine_power_integral(2) == pytest.approx(math.pi / 2, abs=1e-15)


def _sin3_over_u3(u: np.ndarray) -> np.ndarray:
    """sin(u)^3 / u^3 with the u -> 0 limit handled by series."""
    small = np.abs(u) < 1e-3
    safe = np.where(small, 1.0, u)
    u2 = u * u
    return np.where(small, 1.0 - 0.5 * u2 + (13.0 / 120.0) * u2 * u2, (np.sin(safe) / safe) ** 3)


@pytest.mark.parametrize("T", [1e-6, 9e-4, 1.1e-3, 0.5, 3.0, 40.0, 1234.5])
def test_sin3_closed_form_vs_quadrature(T):
    # the series branch (T < 1e-3) and the closed form, against panels of at
    # most one period of sin
    edges = uniform_edges(0.0, T, max(4, math.ceil(T / math.pi)))
    f = lambda u: _sin3_over_u3(u).astype(complex)
    ref = adaptive_complex(f, edges, 1e-14 * min(T, 1.0), order=16)[0].real
    assert abs(sin3_integral(T) - ref) <= 1e-14 * min(T, 1.0)


def test_sin3_tiny_T():
    # T^3 underflows in the closed form; the integrand is 1 to all digits
    assert sin3_integral(1e-200) == 1e-200
    assert sin3_integral(0.0) == 0.0


def test_sin3_finite_plus_tail_vs_watson():
    T = 2000.0
    finite = sin3_integral(T)
    tail_bound = 0.5 / (T * T)
    assert abs(finite - 3 * math.pi / 8) <= tail_bound + 1e-10
    assert abs(finite - 3 * math.pi / 8) <= 1e-6


def test_singular_J_acceptance_band():
    L = math.log(10 ** 6)
    H = 10 ** 4
    kappa = L * L / (2 * 1.5 * H)
    J = singular_integral_J(H, kappa)
    assert J.reference == 3 * H * H
    assert abs(J.value - J.reference) / J.reference <= 0.05


def test_singular_J_small_kappa_regime():
    # 2 pi kappa H << 1: integrand is flat at 8 H^3, so J ~ 16 kappa H^3
    H, kappa = 100.0, 1e-5
    J = singular_integral_J(H, kappa)
    assert J.value == pytest.approx(16 * kappa * H ** 3, rel=1e-3)


def test_singular_J_tail_bound_cutoff():
    J = singular_integral_J(10 ** 6, 0.4)
    assert abs(J.value - J.reference) <= J.reference * 1e-4


def test_singular_J_rejects_bad_args():
    with pytest.raises(ValueError):
        singular_integral_J(0, 0.1)
    with pytest.raises(ValueError):
        singular_integral_J(10.0, 0.0)
