import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from estermann.errors import IntegerExponent, MuSumNotOne, WindowTooWide
from estermann.instance import (
    WORKING_PRECISION,
    build_instance,
    derive_params,
    hypothesis_report,
)

THIRD = ("1/3", "1/3", "1/3")


def test_build_valid_instance():
    inst = build_instance(10 ** 6, "3/2", THIRD, 10 ** 4)
    assert inst.N == 10 ** 6
    assert inst.mu == (Fraction(1, 3),) * 3
    assert inst.window(1) == (333334 - 10 ** 4, 333333 + 10 ** 4)


def test_build_rejects_bad_mu():
    with pytest.raises(MuSumNotOne):
        build_instance(10 ** 6, "3/2", ("1/2", "1/3", "1/4"), 10 ** 4)


def test_build_rejects_integer_exponent():
    with pytest.raises(IntegerExponent):
        build_instance(10 ** 6, "2/1", THIRD, 10 ** 4)


def test_build_rejects_wide_window():
    with pytest.raises(WindowTooWide):
        build_instance(100, "3/2", ("1/2", "1/4", "1/4"), 26)
    # H equal to min mu_k N is the boundary case the N=12 example needs
    build_instance(12, "3/2", ("1/4", "1/4", "1/2"), 3)


def test_window_membership_exact():
    inst = build_instance(10 ** 6, "3/2", ("1/6", "1/3", "1/2"), 1000)
    lo, hi = inst.window(1)
    assert inst.in_window(1, lo) and inst.in_window(1, hi)
    assert not inst.in_window(1, lo - 1) and not inst.in_window(1, hi + 1)


def test_derive_params_roundtrip_ulp():
    inst = build_instance(10 ** 6, "3/2", THIRD, 10 ** 4)
    dp = derive_params(inst)
    with mp.workprec(WORKING_PRECISION):
        target = mp.mpf(10 ** 6) / 3 + 10 ** 4
        err = abs(dp.n3 ** (mp.mpf(3) / 2) - target)
        ulp = mp.mpf(2) ** (mp.mp.prec * -1) * target
        assert err <= 8 * ulp
        # kappa * 2cH = (ln N)^2 to a few ulp
        L2 = mp.log(10 ** 6) ** 2
        err_k = abs(dp.kappa * 2 * mp.mpf(3) / 2 * 10 ** 4 - L2)
        assert err_k <= 4 * mp.mpf(2) ** (-mp.mp.prec) * L2


def test_derive_params_deterministic():
    inst = build_instance(10 ** 6, "3/2", THIRD, 10 ** 4)
    a = derive_params(inst)
    b = derive_params(inst)
    assert a.n3 == b.n3 and a.h3 == b.h3 and a.kappa == b.kappa
    assert a.n1 == b.n1 and a.n2 == b.n2


def test_h_to_zero_limit():
    insts = [build_instance(10 ** 6, "3/2", THIRD, H) for H in (1000, 100, 10, 1, 0)]
    dps = [derive_params(i) for i in insts]
    h3s = [float(d.h3) for d in dps]
    assert all(a > b for a, b in zip(h3s, h3s[1:]))
    assert h3s[-1] == 0.0
    with mp.workprec(WORKING_PRECISION):
        limit = (mp.mpf(10 ** 6) / 3) ** (mp.mpf(2) / 3)
        assert abs(dps[-1].n3 - limit) <= 1e-20 * limit


def test_h3_leading_order_bound():
    # second-order remainder of the H3 expansion, evaluated in extended precision
    inst = build_instance(10 ** 8, "3/2", THIRD, 10 ** 5)
    dp = derive_params(inst)
    with mp.workprec(WORKING_PRECISION):
        # leading order 2H / (c * (mu3*N)^(1 - 1/c))
        h3_leading = 2 * mp.mpf(10 ** 5) / (mp.mpf(3) / 2 * (mp.mpf(10 ** 8) / 3) ** (mp.mpf(1) / 3))
        scale = mp.mpf(10 ** 5) ** 2 / mp.mpf(10 ** 8) ** (2 - mp.mpf(2) / 3)
        assert abs(dp.h3 - h3_leading) / scale <= 10


def test_hypothesis_report_keys_and_values():
    inst = build_instance(10 ** 6, "3/2", THIRD, 10 ** 4)
    rep = hypothesis_report(inst)
    assert set(rep.conditions) == {
        "cond_c_fractional",
        "cond_c_lower",
        "cond_H",
        "cond_lemma4",
        "cond_lemma56_y",
        "cond_lemma8_y",
    }
    lower = rep.conditions["cond_c_lower"]
    assert not lower.holds
    assert lower.rhs == pytest.approx(14.5109, abs=5e-4)
    frac = rep.conditions["cond_c_fractional"]
    assert frac.lhs == 0.5
    assert rep.notes  # strict-vs-nonstrict reading is surfaced


def test_cond_H_by_construction_and_monotone():
    # needs N with N^(1-1/(2c)) L^2 <= N/3; desk N=1e6 cannot host such an H
    N_big = 10 ** 12
    L = math.log(N_big)
    H0 = math.ceil(N_big ** (1 - 1 / 3.0) * L * L)
    inst = build_instance(N_big, "3/2", THIRD, H0)
    assert hypothesis_report(inst).conditions["cond_H"].holds
    N = 10 ** 6
    # monotone in H: once it holds it keeps holding
    rng = random.Random(5)
    for _ in range(20):
        H = rng.randint(1, N // 4)
        holds = hypothesis_report(build_instance(N, "3/2", THIRD, H)).conditions["cond_H"].holds
        holds_next = (
            hypothesis_report(build_instance(N, "3/2", THIRD, H + 1)).conditions["cond_H"].holds
        )
        assert holds_next or not holds
