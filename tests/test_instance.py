import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from estermann import verify
from estermann.errors import IntegerExponent, MuSumNotOne, WindowTooWide
from estermann.instance import build_instance, derive_params, hypothesis_report

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


@settings(max_examples=300, deadline=None)
@given(N=st.integers(1, 10 ** 12), d1=st.integers(3, 1000), d2=st.integers(3, 1000),
       data=st.data())
def test_window_edges_match_the_fraction_definition(N, d1, d2, data):
    # window(k) takes its edges in integers; the definition is
    # (ceil(mu_k N - H), floor(mu_k N + H)) in exact rationals
    mu1 = Fraction(data.draw(st.integers(1, (d1 - 1) // 2)), d1)
    mu2 = Fraction(data.draw(st.integers(1, (d2 - 1) // 2)), d2)
    mu = (mu1, mu2, 1 - mu1 - mu2)
    top = math.floor(min(mu) * N)
    H = data.draw(st.sampled_from((0, top)) | st.integers(0, top))
    inst = build_instance(N, "3/2", mu, H)
    for k in (1, 2, 3):
        centre = mu[k - 1] * N
        lo, hi = inst.window(k)
        assert (lo, hi) == (math.ceil(centre - H), math.floor(centre + H))
        for m in (lo - 1, lo, hi, hi + 1):
            assert inst.in_window(k, m) == (lo <= m <= hi)


def reference_params(inst) -> tuple[float, ...]:
    """(n1, n2, n3, h3, kappa) at 200 bits, each then rounded to a double.

    Shares no code with derive_params: mpmath's root and log, not integer
    roots and a decimal log.
    """
    p, q, H = inst.c.p, inst.c.q, inst.H
    with mp.workprec(200):

        def real(x: Fraction):
            return mp.mpf(x.numerator) / x.denominator

        def root(x: Fraction):
            return mp.root(real(x ** q), p)

        n3 = root(inst.mu_N(3) + H)
        h3 = n3 - root(inst.mu_N(3) - H)
        kappa = mp.log(inst.N) ** 2 * q / (2 * p * H) if H > 0 else mp.inf
        values = (real(inst.mu_N(1) + H), real(inst.mu_N(2) + H), n3, h3, kappa)
        return tuple(float(v) for v in values)


def derived_tuple(dp) -> tuple[float, ...]:
    values = (dp.n1, dp.n2, dp.n3, dp.h3, dp.kappa)
    assert all(type(v) is float for v in values)
    return values


def test_derive_params_roundtrip_ulp():
    # every field is the double nearest its exact value, also where H3
    # cancels about 48 and 56 bits of N3 (the last two instances)
    for N, c, H in ((10 ** 6, "3/2", 10 ** 4), (10 ** 15, "3/2", 1), (10 ** 18, "5/3", 3)):
        inst = build_instance(N, c, THIRD, H)
        assert derived_tuple(derive_params(inst)) == reference_params(inst)


@settings(max_examples=300, deadline=None)
@given(
    N=st.integers(1, 10 ** 12),
    c=st.sampled_from(("3/2", "5/3", "7/4", "5/2", "13/7")),
    parts=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12)),
    data=st.data(),
)
def test_derive_params_correctly_rounded(N, c, parts, data):
    mu = tuple(Fraction(k, sum(parts)) for k in parts)
    H = data.draw(st.integers(0, int(min(mu) * N)), label="H")
    inst = build_instance(N, c, mu, H)
    assert derived_tuple(derive_params(inst)) == reference_params(inst)


def test_derive_params_deterministic():
    inst = build_instance(10 ** 6, "3/2", THIRD, 10 ** 4)
    a = derive_params(inst)
    b = derive_params(inst)
    assert a.n3 == b.n3 and a.h3 == b.h3 and a.kappa == b.kappa
    assert a.n1 == b.n1 and a.n2 == b.n2


def test_h_to_zero_limit():
    insts = [build_instance(10 ** 6, "3/2", THIRD, H) for H in (1000, 100, 10, 1, 0)]
    dps = [derive_params(i) for i in insts]
    h3s = [d.h3 for d in dps]
    assert all(a > b for a, b in zip(h3s, h3s[1:]))
    assert h3s[-1] == 0.0
    with mp.workprec(200):
        limit = (mp.mpf(10 ** 6) / 3) ** (mp.mpf(2) / 3)
        assert dps[-1].n3 == float(limit)


def test_h3_leading_order_bound():
    # second-order remainder of the H3 expansion, evaluated in extended precision
    inst = build_instance(10 ** 8, "3/2", THIRD, 10 ** 5)
    dp = derive_params(inst)
    with mp.workprec(96):
        # leading order 2H / (c * (mu3*N)^(1 - 1/c))
        h3_leading = 2 * mp.mpf(10 ** 5) / (mp.mpf(3) / 2 * (mp.mpf(10 ** 8) / 3) ** (mp.mpf(1) / 3))
        scale = mp.mpf(10 ** 5) ** 2 / mp.mpf(10 ** 8) ** (2 - mp.mpf(2) / 3)
        assert abs(dp.h3 - h3_leading) / scale <= 10


def test_hypothesis_report_keys_and_values():
    inst = build_instance(10 ** 6, "3/2", THIRD, 10 ** 4)
    rep = hypothesis_report(derive_params(inst))
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
    assert hypothesis_report(derive_params(inst)).conditions["cond_H"].holds
    N = 10 ** 6
    # monotone in H: once it holds it keeps holding
    rng = random.Random(5)
    for _ in range(20):
        H = rng.randint(1, N // 4)
        holds, holds_next = (
            hypothesis_report(derive_params(build_instance(N, "3/2", THIRD, h)))
            .conditions["cond_H"].holds
            for h in (H, H + 1)
        )
        assert holds_next or not holds


@pytest.mark.parametrize("error", [TypeError, WindowTooWide, ValueError])
def test_random_instances_skips_only_bad_draws(error, monkeypatch):
    # a draw that is no valid instance raises ValueError or an EstermannError
    # and is skipped; any other exception is a defect and surfaces
    calls = []

    def build_once_failing(*args):
        calls.append(args)
        if len(calls) == 1:
            raise error("first draw")
        return build_instance(*args)

    monkeypatch.setattr(verify, "build_instance", build_once_failing)
    draws = verify.random_instances(3, random.Random(5))
    if error is TypeError:
        with pytest.raises(TypeError, match="first draw"):
            list(draws)
    else:
        assert len(list(draws)) == 3 and len(calls) >= 4
