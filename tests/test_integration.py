"""End-to-end: a theta series with inert p feeds the a_p = 0 machinery."""

import random

from padiclog.iwadist import IwaSeries, delta, is_unit, log_tw, equal_up_to_unit_mod
from padiclog.logmat import CrystalParams, log_matrix_ap0, qinv_times, window_ideal
from padiclog.qexp import ImagQuadCtx, nebentype_value, theta_series
from padiclog.split import SignedPair, SplitOperator, forward, signed_split


def test_theta_to_logmatrix_pipeline():
    # g = theta series over Q(i) with t = 4 (weight 6, k_g = 3); p = 7 inert
    p = 7
    t = 4
    ctx_k = ImagQuadCtx(-4, t)
    th = theta_series(ctx_k, p + 1)
    assert th.coeff(p) == 0  # the non-ordinarity the pipeline needs
    eps = nebentype_value(ctx_k, p)
    assert eps == -1
    k = t - 1
    pr = CrystalParams.ap_zero(p, 10, k, eps)
    # alpha^2 = -eps p^(k+1) = p^4, honest Hecke-pair of the stabilization
    assert pr.alpha * pr.alpha == -eps * p ** (k + 1)
    assert pr.alpha.val() == (k + 1) / 2
    m = log_matrix_ap0(pr, 1)
    assert m.entry(0, 0).is_zero() and m.entry(1, 1).is_zero()
    det = -(m.entry(0, 1) * m.entry(1, 0))
    cap = det.deg_cap
    lhs = (det * delta(pr.ctx, k + 1, cap)).times_p(k + 1).normalize()
    rhs = log_tw(pr.ctx, k + 1, 1, cap).normalize()
    assert lhs.denom_exp == rhs.denom_exp
    u = equal_up_to_unit_mod(
        IwaSeries(pr.ctx, lhs.a, None, min(lhs.prec, 6), cap),
        IwaSeries(pr.ctx, rhs.a, None, min(rhs.prec, 6), cap),
        0, k + 1, extra_ideals=[window_ideal(m)])
    assert is_unit(u)


def test_p5_matrix_and_split():
    pr = CrystalParams.ap_zero(5, 8, 0)
    n = 2
    m = log_matrix_ap0(pr, n)
    assert m.entry(0, 0).is_zero() and m.entry(1, 1).is_zero()
    qm = qinv_times(pr, m)
    op = SplitOperator(pr, qm)
    rng = random.Random(70)
    for _ in range(3):
        pair = SignedPair(
            IwaSeries(pr.ctx, [rng.randrange(pr.ctx.modulus) for _ in range(20)],
                      None, None, 20),
            IwaSeries(pr.ctx, [rng.randrange(pr.ctx.modulus) for _ in range(20)],
                      None, None, 20), n)
        got = signed_split(forward(pair, qm), op, n)
        assert got.plus == pair.plus
        assert got.minus == pair.minus
