import random
from fractions import Fraction

import pytest

from padiclog import linsolve
from padiclog.iwadist import (IwaSeries, NotDivisible, _divmod_top, delta,
                              is_unit, log_tw, poly_reduce, solve_series_div)
from padiclog.linsolve import solve_mod_ppow
from padiclog.logmat import CrystalParams, log_matrix_ap0, qinv_times
from padiclog.padic import NonUnit, PadicError, PrimeCtx, inv_scaled
import padiclog.split as split
from padiclog.split import (AlphaBetaPair, NoBoundedSolution, SignedPair,
                            SplitOperator, antisym_factor, forward,
                            parity_products, signed_split)


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
        got = signed_split(ab, op)
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
        got = signed_split(ab, op)
        assert got.plus == pair.plus
        assert got.minus == pair.minus


def test_split_zero():
    pr, qm = setup_ap0()
    z = IwaSeries.zero(pr.ctx, 4)
    out = signed_split(AlphaBetaPair(z, z, 2), SplitOperator(pr, qm))
    assert out.plus.is_zero() and out.minus.is_zero()


def test_split_rejects_constant():
    pr, qm = setup_ap0(p=3, prec=8, k=0, n=3)
    one = IwaSeries.const(pr.ctx, 1, 4)
    z = IwaSeries.zero(pr.ctx, 4)
    with pytest.raises(NoBoundedSolution):
        signed_split(AlphaBetaPair(one, z, 3), SplitOperator(pr, qm))


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


def test_denominator_budget():
    pr, qm = setup_ap0(p=3, prec=8, k=0, n=2)
    rng = random.Random(38)
    pair = SignedPair(rand_bounded(pr.ctx, 8, rng),
                      rand_bounded(pr.ctx, 8, rng), 2, denom_budget=1)
    ab = forward(pair, qm)
    got = signed_split(ab, SplitOperator(pr, qm), denom_budget=1)
    assert got.plus.normalize().denom_exp <= 1
    assert got.minus.normalize().denom_exp <= 1


# -- the held-divisor route against the IwaSeries route -------------------------


def ref_series_div(y, g):
    """solve_series_div as it divided before it took a held reciprocal: the
    fast path through `_divmod_top` on both operands at their lesser
    precision, else the dense solve, polynomial-sized system first."""
    ctx, cap = y.ctx, y.deg_cap
    prec = min(y.prec, g.prec)
    dg = g.degree()
    dshift = y.denom_exp - g.denom_exp
    growth = max(Fraction(0), y.growth - g.growth)
    if prec > 0 and g.a[dg] % ctx.p and y.degree() + 1 < cap:
        quot, rem = _divmod_top(IwaSeries(ctx, y.a, y.b, prec, cap),
                                IwaSeries(ctx, g.a, None, prec, g.deg_cap))
        if rem.is_zero():
            quot.denom_exp = max(dshift, 0)
            quot.growth = growth
            return quot.times_p(-dshift) if dshift < 0 else quot
    dy, m = y.degree(), ctx.p ** prec
    widths = [cap]
    if 0 <= dy < cap - 1 and dy - dg + 1 < cap:
        widths.insert(0, max(dy - dg + 1, 1))
    for width in widths:
        rows = [[g.a[i - j] if 0 <= i - j <= dg else 0 for j in range(width)]
                for i in range(cap)]
        sols = [None if vec is None else
                solve_mod_ppow(rows, [c % m for c in vec], ctx.p, prec)
                for vec in (y.a, y.b)]
        if any(sol is None for sol, vec in zip(sols, (y.a, y.b)) if vec is not None):
            continue
        loss = max(sol[2] for sol in sols if sol is not None)
        q = IwaSeries(ctx, sols[0][0], sols[1][0] if sols[1] else None,
                      prec - loss, width, max(dshift, 0), growth)
        return q.times_p(-dshift) if dshift < 0 else q
    raise NotDivisible("no quotient at this precision")


def series_route_split(ab, op, denom_budget=0):
    """signed_split computed with IwaSeries addition and products by series,
    `poly_reduce` on the parity products built at the request's window and
    `ref_series_div` on the matrix entries: the reference for the
    held-divisor route."""
    params, ctx, n = op.params, op.ctx, op.level
    k = params.k
    diff = ab.alpha_comp + (-ab.beta_comp)
    diff = diff * IwaSeries.const(ctx, params.alpha, diff.deg_cap)
    tot = ab.alpha_comp + ab.beta_comp
    even, odd = parity_products(ctx, n, k + 1, max(diff.deg_cap, 8))
    slack = (k + 1) * (n + 1)
    for comp, prod, tag in ((diff, odd, "difference"), (tot, even, "sum")):
        base = comp.normalize()
        threshold = max(1, base.prec - slack)
        dp = prod.degree()
        for vec in [base.a] + ([base.b] if base.b else []):
            f = IwaSeries(ctx, vec, None, base.prec, base.deg_cap)
            if dp > 0:
                # where no division step runs, the remainder is f itself
                fp = f.coeff_prec()
                if any(c % ctx.p ** fp for c in vec[dp:]):
                    r = poly_reduce(f, prod)
                else:
                    r = IwaSeries(ctx, vec[:dp], None, fp, dp)
                if r.min_val() < min(threshold, r.prec):
                    raise NoBoundedSolution(
                        "%s fails the parity divisibility certificate" % tag)
    try:
        plus = ref_series_div(diff * pow(2, -1, diff.modulus()), op.m21)
        minus = ref_series_div(tot * pow(2, -1, tot.modulus()), op.m12)
    except NotDivisible as exc:
        raise NoBoundedSolution("entry division failed: %s" % exc)
    pair = SignedPair(plus.normalize().with_growth(0),
                      minus.normalize().with_growth(0), n, denom_budget)
    if not pair.check_bounded():
        raise NoBoundedSolution("components exceed the declared denominator budget")
    return pair


def series_route_antisym(lval, op):
    """antisym_factor with products by series and `ref_series_div`."""
    cap = op.deg_m * 2 + max(lval.degree(), 0) + 2
    if op.m21.is_zero() or op.m12.is_zero():
        raise NotDivisible("determinant vanishes at precision")
    num = lval.widen(cap)
    num = (num * IwaSeries.const(op.ctx, op.params.alpha, cap)).normalize()
    num = num * pow(2, -1, num.modulus())
    step = ref_series_div(num, op.m12.widen(cap))
    return ref_series_div(step, op.m21).normalize()


def outcome(fn, *args):
    try:
        out = fn(*args)
    except (PadicError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, SignedPair):
        return out.plus.to_json(), out.minus.to_json()
    return out.to_json()


def rand_series(ctx, rng, n, cap, prec=None, ext=False, denom=0, growth=0):
    m = ctx.p ** (ctx.prec if prec is None else prec)
    a = [rng.randrange(m) for _ in range(n)]
    b = [rng.randrange(m) for _ in range(n)] if ext else None
    return IwaSeries(ctx, a, b, prec, cap, denom, growth)


# (p, prec, k, eps, level); (3, 8, 1, -1, 3) has parity products of degree
# 4 and 12, so windows of 8 to 12 build them at the window
ROUTE_KEYS = [(3, 8, 0, 1, 2), (3, 8, 1, -1, 3), (5, 6, 0, -1, 2),
              (3, 10, 1, 1, 2), (7, 5, 0, 1, 1)]


@pytest.mark.parametrize("key", ROUTE_KEYS)
def test_split_matches_the_series_route(key):
    p, prec, k, eps, n = key
    op = SplitOperator.build(CrystalParams.ap_zero(p, prec, k, eps), n)
    ctx = op.ctx
    rng = random.Random(sum(key))
    deg = p ** n
    cases = []
    for _ in range(8):
        ab = forward(SignedPair(rand_series(ctx, rng, deg, deg),
                                rand_series(ctx, rng, deg, deg), n), op.qinv_m)
        cases.append(ab)
        cases.append(AlphaBetaPair(ab.alpha_comp.widen(ab.alpha_comp.deg_cap + 30),
                                   ab.beta_comp.times_p(rng.randrange(-1, 2)), n))
    for cap in (1, 4, 8, 10, 12, 13, 40):
        cases.append(AlphaBetaPair(
            rand_series(ctx, rng, rng.randrange(cap + 1), cap,
                        rng.choice([None, 3, prec + 4]), rng.random() < 0.5,
                        rng.randrange(3), rng.choice([0, 1])),
            rand_series(ctx, rng, rng.randrange(cap + 1), cap + rng.randrange(3),
                        None, rng.random() < 0.5, rng.randrange(3)), n))
        cases.append(AlphaBetaPair(IwaSeries.zero(ctx, cap),
                                   IwaSeries.zero(ctx, cap), n))
    # both parts stored far above the context's precision

    def lift(v):
        return v and [c + ctx.modulus * rng.randrange(p ** 40) for c in v]

    for ab in cases[:4]:
        cases.append(AlphaBetaPair(*[IwaSeries(ctx, lift(c.a), lift(c.b), prec + 40,
                                               c.deg_cap, c.denom_exp, c.growth)
                                     for c in (ab.alpha_comp, ab.beta_comp)], n))
    for ab in cases:
        budget = rng.choice([0, 0, 2])
        assert outcome(signed_split, ab, op, budget) == \
            outcome(series_route_split, ab, op, budget)


@pytest.mark.parametrize("key", [ROUTE_KEYS[0], ROUTE_KEYS[2], ROUTE_KEYS[3]])
def test_antisym_matches_the_series_route(key):
    p, prec, k, eps, n = key
    op = SplitOperator.build(CrystalParams.ap_zero(p, prec, k, eps), n)
    ctx, qm = op.ctx, op.qinv_m
    rng = random.Random(sum(key) + 1)
    wide = 2 * op.deg_m + 10
    det = (qm.entry(0, 0).widen(wide) * qm.entry(1, 1).widen(wide)
           - qm.entry(0, 1).widen(wide) * qm.entry(1, 0).widen(wide))
    cases = [det * rand_series(ctx, rng, rng.randrange(1, 8), wide) for _ in range(6)]
    cases += [cases[0].times_p(-1), cases[1].times_p(2), IwaSeries.zero(ctx, 4),
              rand_series(ctx, rng, 3, 3, prec + 3, True, 1)]
    for lval in cases:
        assert outcome(antisym_factor, lval, op) == \
            outcome(series_route_antisym, lval, op)


def test_held_parity_products_are_the_exact_products():
    for p, k, n in [(3, 0, 3), (3, 1, 3), (5, 0, 2), (3, 2, 2), (5, 1, 1)]:
        op = SplitOperator.build(CrystalParams.ap_zero(p, 6, k), n)
        held = op.parity
        assert op.level == n
        for cap in (op.parity_deg + 1, op.parity_deg + 5, 3 * op.parity_deg + 2):
            for f, h in zip(parity_products(op.ctx, n, k + 1, cap), held):
                if h is None:
                    assert f.degree() <= 0
                else:
                    assert f.degree() <= op.parity_deg
                    assert f.a[:f.degree() + 1] == h.g


def _count(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_small_windows_build_the_parity_products_there(monkeypatch):
    # k = 1, level 3: the even product has degree 12, so an input of window
    # 8 builds both products at the window, and the truncated even product
    # (degree 7) has no unit top coefficient: a sum that reaches X^7 needs a
    # division step by it
    op = SplitOperator.build(CrystalParams.ap_zero(3, 8, 1, -1), 3)
    assert op.parity_deg == 12
    ctx = op.ctx
    calls = _count(monkeypatch, split, "parity_products")
    x7 = IwaSeries(ctx, [0] * 7 + [1], None, None, 8)
    with pytest.raises(NonUnit):
        signed_split(AlphaBetaPair(x7, x7, 3), op)
    assert [c[3] for c in calls] == [8]
    rng = random.Random(39)
    pair = SignedPair(rand_bounded(ctx, 4, rng), rand_bounded(ctx, 4, rng), 3)
    got = signed_split(forward(pair, op.qinv_m), op)
    assert got.plus == pair.plus and got.minus == pair.minus
    assert len(calls) == 1


def test_short_inputs_need_no_unit_top_of_a_truncated_product():
    # the same key: an input below the degree of the truncated products is
    # its own remainder, so no division step (and no unit) is needed; the
    # zero pair splits to zero, and a constant fails the certificate
    op = SplitOperator.build(CrystalParams.ap_zero(3, 8, 1, -1), 3)
    ctx = op.ctx
    zero = IwaSeries.zero(ctx, 12)
    got = signed_split(AlphaBetaPair(zero, zero, 3), op)
    assert got.plus.is_zero() and got.minus.is_zero()
    assert got.plus.deg_cap == got.minus.deg_cap == 12
    z = IwaSeries.zero(ctx, 4)
    with pytest.raises(NoBoundedSolution,
                       match="^sum fails the parity divisibility certificate$"):
        signed_split(AlphaBetaPair(IwaSeries.const(ctx, 1, 4), z, 3), op)


def test_k1_divides_by_m21_on_the_dense_route(monkeypatch):
    # here the top coefficient of M21 (k = 1) is not a unit: no reciprocal
    # is held and each split divides by it with the dense solve
    pr, qm = setup_ap0(p=3, prec=10, k=1, n=3)
    op = SplitOperator(pr, qm)
    assert op.div21 is None
    calls = _count(monkeypatch, split, "solve_series_div")
    solves = _count(monkeypatch, linsolve, "solve_mod_ppow")
    rng = random.Random(40)
    pair = SignedPair(rand_bounded(pr.ctx, 4, rng), rand_bounded(pr.ctx, 4, rng), 3)
    got = signed_split(forward(pair, qm), op)
    assert got.plus == pair.plus and got.minus == pair.minus
    assert calls[0][1] is op.m21 and calls[0][2] is None
    assert solves


def test_k0_splits_without_a_dense_solve(monkeypatch):
    pr, qm = setup_ap0(p=3, prec=8, k=0, n=2)
    op = SplitOperator(pr, qm)
    calls = _count(monkeypatch, linsolve, "solve_mod_ppow")
    rng = random.Random(41)
    pair = SignedPair(rand_bounded(pr.ctx, 8, rng), rand_bounded(pr.ctx, 8, rng), 2)
    got = signed_split(forward(pair, qm), op)
    assert got.plus == pair.plus and got.minus == pair.minus
    assert calls == []
