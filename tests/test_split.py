import random

import pytest

from padiclog.iwadist import (IwaSeries, delta, halflog, is_unit, log_tw,
                              omega_tw, poly_reduce, twisted_product)
from padiclog.logmat import CrystalParams, log_matrix_ap0, qinv_times
from padiclog.padic import PrimeCtx, inv_scaled
from padiclog.split import (AlphaBetaPair, NoBoundedSolution, SignedPair,
                            SplitOperator, antisym_factor, forward,
                            logdiv_check, parity_products, signed_split)


def setup_ap0(p=3, prec=8, k=0, n=2):
    pr = CrystalParams.ap_zero(p, prec, k)
    m = log_matrix_ap0(pr, n)
    qm = qinv_times(pr, m)
    return pr, qm


def rand_bounded(ctx, deg, rng, cap=None):
    if cap is None:
        cap = deg + 1
    return IwaSeries(ctx, [rng.randrange(ctx.modulus) for _ in range(deg + 1)],
                     None, None, cap)


def test_forward_zero_and_columns():
    pr, qm = setup_ap0()
    ctx = pr.ctx
    cap = 4
    zero = IwaSeries.zero(ctx, cap)
    one = IwaSeries.const(ctx, 1, cap)
    out = forward(SignedPair(zero, zero, 2), qm)
    assert out.alpha_comp.is_zero() and out.beta_comp.is_zero()
    out = forward(SignedPair(one, zero, 2), qm)
    assert out.alpha_comp == qm.entry(0, 0)
    assert out.beta_comp == qm.entry(1, 0)


def test_forward_growth_bound():
    # image components carry growth tags at most (k+1)/2 and satisfy the
    # coefficient-valuation proxy
    from fractions import Fraction
    from padiclog.iwadist import growth_check
    pr, qm = setup_ap0(k=0, n=2)
    rng = random.Random(31)
    for _ in range(5):
        pair = SignedPair(rand_bounded(pr.ctx, 8, rng), rand_bounded(pr.ctx, 8, rng), 2)
        ab = forward(pair, qm)
        for comp in (ab.alpha_comp, ab.beta_comp):
            assert comp.growth <= Fraction(pr.k + 1, 2)
            base = comp.normalize()
            assert growth_check(base.with_growth(1), 1, 1)


def test_split_roundtrip():
    pr, qm = setup_ap0(p=3, prec=8, k=0, n=2)
    op = SplitOperator(pr, qm)
    rng = random.Random(32)
    for _ in range(25):
        pair = SignedPair(rand_bounded(pr.ctx, 8, rng),
                          rand_bounded(pr.ctx, 8, rng), 2)
        ab = forward(pair, qm)
        got = signed_split(ab, op, 2)
        assert got.plus == pair.plus
        assert got.minus == pair.minus
        # and the other composition gives back the input pair of images
        back = forward(got, qm)
        assert back.alpha_comp == ab.alpha_comp
        assert back.beta_comp == ab.beta_comp


def test_split_roundtrip_k1():
    pr, qm = setup_ap0(p=3, prec=10, k=1, n=2)
    op = SplitOperator(pr, qm)
    rng = random.Random(33)
    for _ in range(5):
        pair = SignedPair(rand_bounded(pr.ctx, 12, rng),
                          rand_bounded(pr.ctx, 12, rng), 2)
        ab = forward(pair, qm)
        got = signed_split(ab, op, 2)
        assert got.plus == pair.plus
        assert got.minus == pair.minus


def test_split_zero():
    pr, qm = setup_ap0()
    z = IwaSeries.zero(pr.ctx, 4)
    out = signed_split(AlphaBetaPair(z, z, 2), SplitOperator(pr, qm), 2)
    assert out.plus.is_zero() and out.minus.is_zero()


def test_split_rejects_constant():
    pr, qm = setup_ap0(p=3, prec=8, k=0, n=3)
    one = IwaSeries.const(pr.ctx, 1, 4)
    z = IwaSeries.zero(pr.ctx, 4)
    with pytest.raises(NoBoundedSolution):
        signed_split(AlphaBetaPair(one, z, 3), SplitOperator(pr, qm), 3)


def test_parity_products():
    ctx = PrimeCtx(3, 8)
    even, odd = parity_products(ctx, 3, 1, 30)
    from padiclog.iwadist import phi_cyc
    assert even == phi_cyc(ctx, 2, 30)
    assert odd == phi_cyc(ctx, 1, 30)
    even0, odd0 = parity_products(ctx, 1, 1, 10)
    assert even0 == IwaSeries.const(ctx, 1, 10)
    assert odd0 == IwaSeries.const(ctx, 1, 10)


def test_antisym_transport():
    # T A T^t is antisymmetric with off-diagonal scaled by det(T)
    rng = random.Random(34)
    ctx = PrimeCtx(5, 8)
    cap = 12
    for _ in range(10):
        T = [[rand_bounded(ctx, 3, rng, cap) for _ in range(2)] for _ in range(2)]
        c = rand_bounded(ctx, 3, rng, cap)
        # A = [[0, c], [-c, 0]]
        a01 = T[0][0] * c * T[1][1] - T[0][1] * c * T[1][0]
        det = T[0][0] * T[1][1] - T[0][1] * T[1][0]
        assert a01 == det * c
        a00 = T[0][0] * c * T[0][1] - T[0][1] * c * T[0][0]
        assert a00.is_zero()


def test_antisym_factor_roundtrip():
    pr, qm = setup_ap0(p=3, prec=8, k=0, n=2)
    rng = random.Random(35)
    wide = 70
    det = (qm.entry(0, 0).widen(wide) * qm.entry(1, 1).widen(wide)
           - qm.entry(0, 1).widen(wide) * qm.entry(1, 0).widen(wide))
    op = SplitOperator(pr, qm)
    for _ in range(10):
        g = rand_bounded(pr.ctx, 6, rng, cap=wide)
        lval = det * g
        got = antisym_factor(lval, op)
        assert got == g.normalize()
    z = IwaSeries.zero(pr.ctx, wide)
    assert antisym_factor(z, op).is_zero()


def test_antisym_factor_geo_shape():
    # L = (log_tw/(beta - alpha)) * G: output is unit * p^(k+1) * delta * G.
    # The p-power is forced by det(M') ~ log_tw/(p^(k+1) delta) and
    # (alpha - beta)^2 = -4 eps p^(k+1) in a_p = 0 mode.
    pr, qm = setup_ap0(p=3, prec=10, k=0, n=2)
    ctx = pr.ctx
    rng = random.Random(36)
    cap = qm.entry(0, 1).deg_cap
    n = 2
    k = 0
    lt = log_tw(ctx, k + 1, n, 2 * cap)
    binv, e = inv_scaled(pr.beta - pr.alpha)
    g = rand_bounded(ctx, 5, rng, cap=2 * cap)
    lval = ((lt * g) * binv).times_p(-e)
    got = antisym_factor(lval, SplitOperator(pr, qm))
    want_core = (delta(ctx, k + 1, got.deg_cap) * g.widen(got.deg_cap)).times_p(k + 1)
    # got = unit * p^(k+1) * delta * G: the ratio against delta*G*p^(k+1)
    # is a unit series of the truncated algebra
    gn, wn = got.normalize(), want_core.normalize()
    from padiclog.iwadist import solve_series_div
    ratio = solve_series_div(gn, wn).normalize()
    assert is_unit(ratio)
    # and the p^(k+1) really is there: without it the ratio is p * unit
    bare = (delta(ctx, k + 1, got.deg_cap) * g.widen(got.deg_cap)).normalize()
    ratio_bare = solve_series_div(gn, bare).normalize()
    assert ratio_bare.denom_exp == 0
    assert ratio_bare.coeff(0).val() == k + 1


def test_logdiv_check():
    ctx = PrimeCtx(3, 8)
    k, n = 0, 3
    cap = (k + 1) * 3 ** n + 40
    rng = random.Random(37)
    g = rand_bounded(ctx, 6, rng, cap)
    assert logdiv_check(log_tw(ctx, k + 1, n, cap) * g, k, n)
    assert not logdiv_check(IwaSeries.const(ctx, 1, cap), k, n)
    # plus half-log fails at the odd-level points
    assert not logdiv_check(halflog(ctx, "+", k + 1, n, cap) * g, k, n)
    # minus half-log fails at even-level points
    assert not logdiv_check(halflog(ctx, "-", k + 1, n, cap) * g, k, n)


def test_denominator_budget():
    pr, qm = setup_ap0(p=3, prec=8, k=0, n=2)
    rng = random.Random(38)
    pair = SignedPair(rand_bounded(pr.ctx, 8, rng),
                      rand_bounded(pr.ctx, 8, rng), 2, denom_budget=1)
    ab = forward(pair, qm)
    got = signed_split(ab, SplitOperator(pr, qm), 2, denom_budget=1)
    assert got.plus.normalize().denom_exp <= 1
    assert got.minus.normalize().denom_exp <= 1
